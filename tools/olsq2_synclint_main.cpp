// CLI driver for the raw-synchronization-primitive lint (tools/synclint.h).
//
//   olsq2_synclint [--allowlist FILE] ROOT...
//
// Scans each ROOT (directory tree or single file) for raw std::mutex /
// std::atomic / pthread primitives and exits 1 if any occurrence is not
// covered by the allowlist, or if an allowlist entry covers no occurrence
// in the scanned roots (so scan the whole tree the allowlist describes).
// CI runs it over src/; see tools/synclint_allowlist.txt for the current
// exemptions.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/synclint.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("synclint: cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  namespace lint = olsq2::tools::synclint;
  std::string allowlist_path;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allowlist") {
      if (i + 1 >= argc) {
        std::cerr << "synclint: --allowlist needs a file\n";
        return 2;
      }
      allowlist_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: olsq2_synclint [--allowlist FILE] ROOT...\n";
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: olsq2_synclint [--allowlist FILE] ROOT...\n";
    return 2;
  }

  try {
    std::vector<lint::AllowEntry> allowlist;
    if (!allowlist_path.empty()) {
      allowlist = lint::parse_allowlist(read_file(allowlist_path));
    }
    std::vector<lint::Finding> findings;
    for (const std::string& root : roots) {
      std::vector<lint::Finding> part =
          std::filesystem::is_directory(root)
              ? lint::scan_tree(root, allowlist)
              : lint::scan_source(root, read_file(root), allowlist);
      findings.insert(findings.end(), part.begin(), part.end());
    }
    const std::string report =
        lint::report(findings, lint::stale_entries(allowlist, findings));
    if (!report.empty()) {
      std::cerr << report;
      return 1;
    }
    std::size_t allowed = 0;
    for (const lint::Finding& f : findings) allowed += f.allowed ? 1 : 0;
    std::cout << "synclint: clean (" << allowed
              << " allowlisted occurrences)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
