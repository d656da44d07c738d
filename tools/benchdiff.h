// Regression diff over two BENCH_*.json artifacts (bench/bench_parallel,
// bench/bench_serve). The emitters stamp a shared provenance header
// (bench/common.h json_stamp: schema_version, bench, git_sha, timestamp,
// peak_rss_bytes); this tool flattens both documents into path -> value
// maps and compares them key class by key class:
//
//   config       (schema_version, budget_ms, runs, dups, requests, entries,
//                 duplicate_share, and every string except git_sha /
//                 timestamp): any difference means the two runs are not
//                 comparable -> DiffStatus::kError.
//   correctness  (solved, depth, solves, hits): any change is a regression
//                 -- a different optimum or a broken cache path is a bug,
//                 not noise.
//   timing       (*_ms leaves, e.g. median_ms, wall_ms): current may exceed
//                 baseline by at most max_regress (relative); values below
//                 min_ms are treated as noise and never gate.
//   ratio        (speedup): lower-is-worse, gated by max_ratio_drop -- a
//                 ratio of two timings compounds their noise, so its
//                 tolerance is wider than the per-timing one.
//   info         (swap_count -- racing portfolios legitimately return
//                 different optimal-depth layouts -- the clause-exchange
//                 traffic keys older baselines still carry, runs_ms samples, peak_rss_bytes, and any unrecognized
//                 key): reported, never gating.
//
// A gated key present in the baseline but missing from the current run is a
// regression (silent metric loss must not pass CI); extra keys in the
// current run are informational.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace olsq2::tools {

struct DiffOptions {
  /// Maximum tolerated relative increase for timing keys. 0.15 = 15%.
  double max_regress = 0.15;
  /// Timing values at or below this many milliseconds never gate --
  /// sub-noise-floor latencies regress by large ratios for free.
  double min_ms = 20.0;
  /// Maximum tolerated relative decrease for ratio keys (speedup).
  double max_ratio_drop = 0.5;
};

enum class DiffStatus {
  kOk = 0,          // comparable, no regression
  kRegression = 1,  // comparable, at least one gated key regressed
  kError = 2,       // not comparable (config/schema mismatch or bad input)
};

struct DiffReport {
  DiffStatus status = DiffStatus::kOk;
  std::vector<std::string> regressions;   // gated keys that failed
  std::vector<std::string> mismatches;    // config keys that differ
  std::vector<std::string> improvements;  // gated keys that got better
  std::vector<std::string> notes;         // info-only observations
};

/// Flattened JSON document: dotted paths to leaves. Array elements are
/// addressed `path[tag]` where tag is the element object's "name" member
/// when it has one (stable across reordering) and the element index
/// otherwise; booleans flatten to 1/0.
struct FlatDoc {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Flatten `text`; throws std::runtime_error (with `context` in the
/// message) on malformed JSON.
FlatDoc flatten_json(std::string_view text, const std::string& context);

/// Leaf name of a flattened path: the segment after the last '.', with any
/// [tag] suffix stripped ("benchmarks[ghz5].threads[0].median_ms" ->
/// "median_ms", "runs_ms[2]" -> "runs_ms"). Exposed for tests.
std::string leaf_name(const std::string& path);

/// Compare two BENCH_*.json documents. Never throws: malformed input
/// yields DiffStatus::kError with the parse error in `mismatches`.
DiffReport diff_bench_json(std::string_view baseline, std::string_view current,
                           const DiffOptions& options = {});

}  // namespace olsq2::tools
