// Unit tests for the raw-synchronization-primitive lint (tools/synclint.h):
// comment/string stripping, whole-token matching, allowlist parsing and
// glob semantics, stale-entry detection, and report rendering.
#include "tools/synclint.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace lint = olsq2::tools::synclint;

namespace {

std::vector<lint::Finding> scan(std::string_view path, std::string_view src,
                                std::string_view allow = "") {
  return lint::scan_source(path, src,
                           lint::parse_allowlist(allow));
}

TEST(Synclint, FindsRawMutexWithLineNumber) {
  const auto findings = scan("a.cpp",
                             "#include <mutex>\n"
                             "\n"
                             "std::mutex m;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "a.cpp");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].token, "std::mutex");
  EXPECT_FALSE(findings[0].allowed);
}

TEST(Synclint, FindsEveryBannedFamily) {
  const auto findings = scan("a.cpp",
                             "std::mutex a;\n"
                             "std::shared_mutex b;\n"
                             "std::lock_guard<std::mutex> c(a);\n"
                             "std::unique_lock<std::mutex> d(a);\n"
                             "std::condition_variable e;\n"
                             "std::atomic<int> f;\n"
                             "std::atomic_flag g;\n"
                             "pthread_mutex_t h;\n");
  // lock_guard/unique_lock lines each also mention std::mutex.
  EXPECT_EQ(findings.size(), 10u);
}

TEST(Synclint, IgnoresCommentsAndStrings) {
  const auto findings = scan("a.cpp",
                             "// std::mutex in a line comment\n"
                             "/* std::atomic in a block\n"
                             "   comment */\n"
                             "const char* s = \"std::mutex\";\n"
                             "const char* r = R\"(std::condition_variable)\";\n"
                             "char q = 'x'; // 'std::mutex'\n");
  EXPECT_TRUE(findings.empty()) << lint::report(findings);
}

// A digit separator is not a character literal: read as one, the lone
// quote in 200'000 would blank out the atomic on the next line.
TEST(Synclint, DigitSeparatorsDoNotOpenCharLiterals) {
  const auto findings = scan("a.h",
                             "int n = 2'000'000;\n"
                             "int m = 200'000;\n"
                             "std::atomic<bool>* flag;\n"
                             "char c = u8'x'; std::mutex mu;\n");
  ASSERT_EQ(findings.size(), 2u) << lint::report(findings);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].token, "std::atomic");
  EXPECT_EQ(findings[1].line, 4);
  EXPECT_EQ(findings[1].token, "std::mutex");
}

TEST(Synclint, LineNumbersSurviveStripping) {
  const auto findings = scan("a.cpp",
                             "/* multi\n"
                             "   line\n"
                             "   comment */\n"
                             "std::mutex m;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(Synclint, WholeTokenOnly) {
  // std::atomic must not fire inside std::atomic_flag (which has its own
  // entry), nor inside identifiers that merely contain the spelling.
  const auto findings = scan("a.cpp", "std::atomic_flag f;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].token, "std::atomic_flag");
}

TEST(Synclint, SyncWrappersAreClean) {
  const auto findings = scan("a.cpp",
                             "#include \"util/sync.h\"\n"
                             "olsq2::sync::Mutex m{\"demo\"};\n"
                             "olsq2::sync::MutexLock lock(m);\n");
  EXPECT_TRUE(findings.empty()) << lint::report(findings);
}

TEST(Synclint, AllowlistByExactTokenAndGlob) {
  const auto findings = scan("src/obs/metrics.h",
                             "std::atomic<int> v;\n"
                             "std::mutex m;\n",
                             "*src/obs/metrics.h  std::atomic  metric cells\n");
  ASSERT_EQ(findings.size(), 2u);
  // Sorted by line; line 1 is the atomic, line 2 the mutex.
  EXPECT_TRUE(findings[0].allowed);
  EXPECT_EQ(findings[0].reason, "metric cells");
  EXPECT_FALSE(findings[1].allowed) << "std::mutex must not ride along";
}

TEST(Synclint, AllowlistStarTokenCoversAll) {
  const auto findings = scan("src/util/sync.h",
                             "std::mutex m;\nstd::shared_mutex s;\n",
                             "*src/util/sync.h  *  wrapper layer\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].allowed);
  EXPECT_TRUE(findings[1].allowed);
}

TEST(Synclint, AllowlistRequiresReason) {
  EXPECT_THROW(lint::parse_allowlist("src/foo.h  std::mutex\n"),
               std::runtime_error);
  // Comments and blank lines are fine.
  EXPECT_TRUE(lint::parse_allowlist("# comment\n\n").empty());
}

TEST(Synclint, GlobSemantics) {
  EXPECT_TRUE(lint::glob_match("*src/util/sync.h", "src/util/sync.h"));
  EXPECT_TRUE(lint::glob_match("*src/util/sync.h", "/abs/repo/src/util/sync.h"));
  EXPECT_TRUE(lint::glob_match("*src/analysis/concurrency/*",
                               "src/analysis/concurrency/lock_order.cpp"));
  EXPECT_FALSE(lint::glob_match("*src/util/sync.h", "src/util/sync.hpp"));
  EXPECT_FALSE(lint::glob_match("*src/obs/*", "src/sat/solver.h"));
}

TEST(Synclint, ReportNamesFileLineTokenAndCount) {
  const auto findings = scan("bad.cpp", "std::mutex m;\n");
  const std::string text = lint::report(findings);
  EXPECT_NE(text.find("bad.cpp:1"), std::string::npos) << text;
  EXPECT_NE(text.find("std::mutex"), std::string::npos) << text;
  EXPECT_NE(text.find("1 disallowed"), std::string::npos) << text;
  // Allowed findings render nothing.
  const auto ok = scan("src/x.h", "std::atomic<int> v;\n",
                       "*src/x.h  std::atomic  fine\n");
  EXPECT_TRUE(lint::report(ok).empty());
}

TEST(Synclint, StaleAllowlistEntryIsReported) {
  const std::vector<lint::AllowEntry> allowlist = lint::parse_allowlist(
      "*src/x.h     std::atomic  live flag\n"
      "*src/gone.h  std::atomic  file deleted since\n"
      "*src/x.h     std::mutex   token no longer used\n");
  const auto findings =
      lint::scan_source("src/x.h", "std::atomic<int> v;\n", allowlist);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].allowed);

  const std::vector<lint::AllowEntry> stale =
      lint::stale_entries(allowlist, findings);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0].pattern, "*src/gone.h");
  EXPECT_EQ(stale[1].token, "std::mutex");
  const std::string text = lint::report(findings, stale);
  EXPECT_NE(text.find("*src/gone.h  std::atomic"), std::string::npos) << text;
  EXPECT_NE(text.find("covers no finding"), std::string::npos) << text;
  const std::vector<lint::AllowEntry> live_only = {allowlist[0]};
  EXPECT_TRUE(lint::stale_entries(live_only, findings).empty());
}

}  // namespace
