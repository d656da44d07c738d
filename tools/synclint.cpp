#include "tools/synclint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace olsq2::tools::synclint {

namespace fs = std::filesystem;

const std::vector<std::string>& banned_tokens() {
  static const std::vector<std::string> tokens = {
      "std::mutex",
      "std::recursive_mutex",
      "std::timed_mutex",
      "std::recursive_timed_mutex",
      "std::shared_mutex",
      "std::shared_timed_mutex",
      "std::lock_guard",
      "std::unique_lock",
      "std::scoped_lock",
      "std::shared_lock",
      "std::condition_variable",
      "std::condition_variable_any",
      "std::atomic",
      "std::atomic_flag",
      "pthread_mutex_t",
      "pthread_rwlock_t",
      "pthread_cond_t",
  };
  return tokens;
}

namespace {

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True when the quote at `pos` is a digit separator (1'000'000, 0xFF'FF)
/// rather than the start of a character literal: the token it continues
/// starts with a digit. A character literal's prefix (u8'a', L'a') does not.
bool digit_separator(std::string_view source, std::size_t pos) {
  std::size_t start = pos;
  while (start > 0 &&
         (identifier_char(source[start - 1]) || source[start - 1] == '\'')) {
    --start;
  }
  return start < pos &&
         std::isdigit(static_cast<unsigned char>(source[start])) != 0;
}

}  // namespace

std::string strip_comments_and_strings(std::string_view source) {
  std::string out;
  out.reserve(source.size());
  enum class Mode { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  Mode mode = Mode::kCode;
  std::string raw_delim;  // the `)delim"` that terminates the raw string
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (mode) {
      case Mode::kCode:
        if (c == '/' && next == '/') {
          mode = Mode::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          mode = Mode::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   source[i - 1])) &&
                               source[i - 1] != '_'))) {
          // R"delim( ... )delim"
          std::size_t open = source.find('(', i + 2);
          if (open == std::string_view::npos) {
            out += c;  // malformed; pass through
            break;
          }
          raw_delim = ")";
          raw_delim.append(source.substr(i + 2, open - (i + 2)));
          raw_delim += '"';
          for (std::size_t j = i; j <= open; ++j) out += ' ';
          i = open;
          mode = Mode::kRaw;
        } else if (c == '"') {
          mode = Mode::kString;
          out += ' ';
        } else if (c == '\'' && !digit_separator(source, i)) {
          mode = Mode::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case Mode::kLineComment:
        if (c == '\n') {
          mode = Mode::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case Mode::kBlockComment:
        if (c == '*' && next == '/') {
          mode = Mode::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case Mode::kString:
        if (c == '\\' && next != '\0') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          mode = Mode::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case Mode::kChar:
        if (c == '\\' && next != '\0') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          mode = Mode::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case Mode::kRaw:
        if (source.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out += ' ';
          i += raw_delim.size() - 1;
          mode = Mode::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<AllowEntry> parse_allowlist(std::string_view text) {
  std::vector<AllowEntry> entries;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line);
    AllowEntry entry;
    fields >> entry.pattern >> entry.token;
    std::getline(fields, entry.reason);
    const auto r = entry.reason.find_first_not_of(" \t");
    entry.reason = r == std::string::npos ? "" : entry.reason.substr(r);
    if (entry.pattern.empty() || entry.token.empty() || entry.reason.empty()) {
      throw std::runtime_error(
          "synclint allowlist line " + std::to_string(line_no) +
          ": expected `path-glob token reason...` (a reason is mandatory)");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

bool glob_match(std::string_view pattern, std::string_view path) {
  // Classic iterative glob with '*' matching any run (including '/').
  std::size_t p = 0, s = 0, star = std::string_view::npos, mark = 0;
  while (s < path.size()) {
    if (p < pattern.size() && (pattern[p] == path[s])) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = s;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      s = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

/// Whole-identifier occurrence check: the character before must not be an
/// identifier char or ':' (rejects `foo::std::mutex`-style qualified hits
/// and `my_std::mutex`), and the character after must not extend the
/// identifier (so `std::atomic` does not also fire inside
/// `std::atomic_flag` - the longer token has its own entry).
bool whole_token_at(std::string_view text, std::size_t pos,
                    std::string_view token) {
  if (pos > 0 && (identifier_char(text[pos - 1]) || text[pos - 1] == ':')) {
    return false;
  }
  const std::size_t end = pos + token.size();
  if (end < text.size() &&
      (identifier_char(text[end]) || text[end] == ':')) {
    return false;
  }
  return true;
}

bool covers(const AllowEntry& entry, std::string_view path,
            std::string_view token) {
  return (entry.token == "*" || entry.token == token) &&
         glob_match(entry.pattern, path);
}

const AllowEntry* find_allow(const std::vector<AllowEntry>& allowlist,
                             std::string_view path, std::string_view token) {
  for (const AllowEntry& entry : allowlist) {
    if (covers(entry, path, token)) return &entry;
  }
  return nullptr;
}

}  // namespace

std::vector<Finding> scan_source(std::string_view path,
                                 std::string_view source,
                                 const std::vector<AllowEntry>& allowlist) {
  std::vector<Finding> findings;
  const std::string stripped = strip_comments_and_strings(source);
  for (const std::string& token : banned_tokens()) {
    std::size_t pos = 0;
    while ((pos = stripped.find(token, pos)) != std::string::npos) {
      if (whole_token_at(stripped, pos, token)) {
        Finding f;
        f.file = std::string(path);
        f.line = 1 + static_cast<int>(std::count(stripped.begin(),
                                                 stripped.begin() +
                                                     static_cast<long>(pos),
                                                 '\n'));
        f.token = token;
        if (const AllowEntry* entry = find_allow(allowlist, path, token)) {
          f.allowed = true;
          f.reason = entry->reason;
        }
        findings.push_back(std::move(f));
      }
      pos += token.size();
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.token < b.token;
            });
  return findings;
}

std::vector<Finding> scan_tree(const std::string& root,
                               const std::vector<AllowEntry>& allowlist) {
  std::vector<Finding> findings;
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("synclint: cannot read " + file.string());
    std::stringstream buffer;
    buffer << in.rdbuf();
    // Report the path as the caller spelled the root plus the relative
    // part, so allowlist globs (typically `*src/...`) match whether the
    // tool was invoked with a relative or absolute root.
    const std::string rel = (fs::path(root) / fs::relative(file, root))
                                .lexically_normal()
                                .generic_string();
    std::vector<Finding> file_findings =
        scan_source(rel, buffer.str(), allowlist);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::vector<AllowEntry> stale_entries(const std::vector<AllowEntry>& allowlist,
                                      const std::vector<Finding>& findings) {
  std::vector<AllowEntry> stale;
  for (const AllowEntry& entry : allowlist) {
    const bool live =
        std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
          return covers(entry, f.file, f.token);
        });
    if (!live) stale.push_back(entry);
  }
  return stale;
}

std::string report(const std::vector<Finding>& findings,
                   const std::vector<AllowEntry>& stale) {
  std::ostringstream out;
  for (const AllowEntry& entry : stale) {
    out << "allowlist entry `" << entry.pattern << "  " << entry.token
        << "` covers no finding in the scanned tree; delete it\n";
  }
  std::size_t bad = 0;
  for (const Finding& f : findings) {
    if (f.allowed) continue;
    ++bad;
    out << f.file << ":" << f.line << ": raw `" << f.token
        << "` outside the concurrency-contract layer; use the annotated "
           "wrappers in src/util/sync.h or add an allowlist entry with a "
           "reason (DESIGN.md §11)\n";
  }
  if (bad != 0) {
    out << bad << " disallowed raw synchronization primitive"
        << (bad == 1 ? "" : "s") << "\n";
  }
  return out.str();
}

}  // namespace olsq2::tools::synclint
