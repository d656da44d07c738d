// Repo lint: raw synchronization primitives outside the contract layer.
//
// The concurrency-contract layer (src/util/sync.h, DESIGN.md §11) wraps
// std::mutex / std::shared_mutex in annotated capabilities so clang's
// thread-safety analysis and the debug lock-order tracker see every
// acquisition. That only works if nobody reaches for the raw primitives
// directly - a bare std::mutex is invisible to both. synclint scans the
// source tree for raw-primitive tokens and fails unless each occurrence is
// covered by an allowlist entry that names the file, the token, and the
// reason the exemption is sound - and unless every entry still covers one.
//
// The scanner is textual, not a parser: it strips comments and string
// literals, then matches whole identifiers. That is exactly the right
// fidelity for a lint whose job is "make the reviewer write down why" -
// a contrived evasion (macro pasting, decltype tricks) would not survive
// review anyway.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace olsq2::tools::synclint {

/// One raw-primitive occurrence in a scanned file.
struct Finding {
  std::string file;   // path as given to scan_file (repo-relative in CI)
  int line = 0;       // 1-based
  std::string token;  // e.g. "std::mutex"
  bool allowed = false;
  std::string reason;  // allowlist reason when allowed
};

/// One allowlist entry: `path-glob  token  reason...` per line. `token` may
/// be `*` to exempt every primitive in the path (reserved for the wrapper
/// layer itself). The glob supports `*` (any run, including '/') only -
/// enough for directory prefixes, no character classes.
struct AllowEntry {
  std::string pattern;
  std::string token;
  std::string reason;
};

/// The tokens synclint hunts for. Whole-identifier matches of the
/// `std::`-qualified spelling (and the pthread C API).
const std::vector<std::string>& banned_tokens();

/// Strip //- and /*-comments and string/char literals, preserving line
/// structure (newlines survive so findings keep real line numbers).
/// Raw strings are handled; the contents are blanked.
std::string strip_comments_and_strings(std::string_view source);

/// Parse allowlist text. Blank lines and lines starting with '#' are
/// skipped. Throws std::runtime_error on a malformed line (missing reason).
std::vector<AllowEntry> parse_allowlist(std::string_view text);

/// Glob match with `*` wildcards (matches any run of characters).
bool glob_match(std::string_view pattern, std::string_view path);

/// Scan one file's contents; `path` is used for reporting and allowlist
/// matching. Every occurrence is returned; `allowed` is set when an
/// allowlist entry covers it.
std::vector<Finding> scan_source(std::string_view path, std::string_view source,
                                 const std::vector<AllowEntry>& allowlist);

/// Scan a directory tree (recursing into *.h / *.cpp / *.cc / *.hpp files).
/// Paths in findings are the root as given joined with the relative part
/// (so allowlist globs can anchor on `*src/...`). Throws on I/O errors.
std::vector<Finding> scan_tree(const std::string& root,
                               const std::vector<AllowEntry>& allowlist);

/// Allowlist entries that cover none of `findings` (entry order aside). An
/// entry whose file was deleted or cleaned up exempts nothing, so it no
/// longer records a live exemption; the CLI fails on it.
std::vector<AllowEntry> stale_entries(const std::vector<AllowEntry>& allowlist,
                                      const std::vector<Finding>& findings);

/// Render a human-readable report of disallowed findings and stale
/// allowlist entries (one line each); empty when there are neither.
std::string report(const std::vector<Finding>& findings,
                   const std::vector<AllowEntry>& stale = {});

}  // namespace olsq2::tools::synclint
