// TB-OLSQ2 SWAP descent: the block-compression lemma it relies on, the
// calls the compression lower bound lets it skip, and what the shared
// optimizer driver must not feed it.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "bengen/workloads.h"
#include "device/presets.h"
#include "fuzz/generator.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "layout/windowed.h"
#include "obs/obs.h"
#include "sat/exchange.h"

namespace olsq2::layout {
namespace {

std::string errors_of(const Verdict& v) {
  std::string all;
  for (const auto& e : v.errors) all += e + "; ";
  return all;
}

/// Delete the SWAP-free transitions of a TB result and merge the blocks on
/// either side of each (their mappings are equal): block k becomes block
/// "number of SWAP transitions before k".
Result compress(const Result& r) {
  std::vector<bool> has_swap(r.depth, false);
  for (const SwapOp& op : r.swaps) has_swap[op.end_time] = true;
  std::vector<int> merged(r.depth, 0);
  for (int k = 1; k < r.depth; ++k) {
    merged[k] = merged[k - 1] + (has_swap[k - 1] ? 1 : 0);
  }
  Result out = r;
  out.depth = merged[r.depth - 1] + 1;
  out.mapping.assign(out.depth, {});
  for (int k = 0; k < r.depth; ++k) out.mapping[merged[k]] = r.mapping[k];
  for (int& t : out.gate_time) t = merged[t];
  for (SwapOp& op : out.swaps) op.end_time = merged[op.end_time];
  return out;
}

void expect_compresses(const Problem& problem, const Result& r, int& shrunk) {
  const Result c = compress(r);
  const Verdict v = verify_transition_based(problem, c);
  EXPECT_TRUE(v.ok) << errors_of(v);
  EXPECT_EQ(c.swap_count, r.swap_count);
  EXPECT_LE(c.depth, c.swap_count + 1);
  if (c.depth < r.depth) shrunk++;
}

TEST(TbCompression, SwapFreeTransitionsMergeAway) {
  constexpr int kInstances = 120;
  int shrunk = 0;
  for (int i = 0; i < kInstances; ++i) {
    const std::uint64_t seed = fuzz::derive_seed(0x7bc0de5ULL, i);
    const fuzz::Instance instance = fuzz::random_instance(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Problem problem = instance.problem();
    const Result r = tb_synthesize_swap_optimal(problem);
    ASSERT_TRUE(r.solved);
    ASSERT_FALSE(r.hit_budget);
    expect_compresses(problem, r, shrunk);

    // Optimal results rarely carry an idle transition; a solve with two
    // spare blocks and no SWAP bound sometimes does.
    const Result loose = tb_solve_fixed(problem, r.depth + 2, -1);
    ASSERT_TRUE(loose.solved);
    expect_compresses(problem, loose, shrunk);
  }
  // Some results must actually carry SWAP-free transitions, or the
  // property was never exercised (most fuzzed instances fit in one block).
  EXPECT_GE(shrunk, 5);
}

const std::string* arg_of(const obs::Event& e, const char* key) {
  for (const obs::Arg& a : e.args) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

// Rows whose SWAP optimum is B_min-1: the compression bound closes the
// descent right after the block phase, with no UNSAT SWAP query and no
// block relaxation. One window is the same search, and closes the same way.
TEST(TbCompression, OptimumAtBminMinusOneNeedsNoDescentProof) {
  const device::Device dev = device::grid(2, 3);
  struct Row {
    const char* name;
    circuit::Circuit circuit;
    int optimum;
  };
  const Row rows[] = {{"qft4", bengen::qft(4), 2}, {"tof3", bengen::tof(3), 3}};
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const Problem problem{&row.circuit, &dev, 3};
    const Result r = tb_synthesize_swap_optimal(problem);
    ASSERT_TRUE(r.solved);
    EXPECT_FALSE(r.hit_budget);
    EXPECT_EQ(r.swap_count, row.optimum);
    EXPECT_EQ(r.pareto.size(), 1u);
    const int b_min = r.pareto.front().first;
    EXPECT_EQ(r.swap_count, b_min - 1);
    for (const SolveCall& call : r.calls) {
      EXPECT_LE(call.depth_bound, b_min);
      EXPECT_FALSE(call.status == 'U' && call.swap_bound >= 0)
          << "UNSAT descent call at blocks=" << call.depth_bound
          << " swaps<=" << call.swap_bound;
    }
    EXPECT_TRUE(verify_transition_based(problem, r).ok);

    WindowedOptions one_window;
    one_window.gates_per_window = 1000;
    obs::Trace& trace = obs::Trace::instance();
    trace.begin_capture("");
    const WindowedResult w = synthesize_windowed_swap(problem, one_window);
    const std::vector<obs::Event> events = trace.snapshot();
    trace.end_capture();
    ASSERT_TRUE(w.solved);
    EXPECT_EQ(w.window_count, 1);
    EXPECT_EQ(w.swap_count, row.optimum);
    for (const obs::Event& e : events) {
      if (e.kind != obs::Event::Kind::kSpan || e.name != "windowed.solve") {
        continue;
      }
      const std::string* swap_bound = arg_of(e, "swap_bound");
      if (swap_bound == nullptr || std::stoi(*swap_bound) < 0) continue;
      const std::string* result = arg_of(e, "result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(*result, "sat") << "windowed descent call at swaps<="
                                << *swap_bound;
    }
  }
}

// TB bounds count blocks, not depth, so the driver must never consult the
// depth-keyed bound facts of a hub handed in through the options - even
// facts that, misread as block facts, would cut the descent short.
TEST(TbDriver, NeverReadsBoundFacts) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const device::Device dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result plain = tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(plain.solved);
  ASSERT_FALSE(plain.hit_budget);
  const int blocks = plain.pareto.back().first;

  sat::ClauseExchange hub;
  hub.note_depth_unsat(blocks);
  hub.note_swap_unsat(blocks, plain.swap_count);
  OptimizerOptions options;
  options.exchange = &hub;
  const Result shared = tb_synthesize_swap_optimal(problem, {}, options);
  ASSERT_TRUE(shared.solved);
  EXPECT_EQ(shared.swap_count, plain.swap_count);
  EXPECT_EQ(shared.depth, plain.depth);
  ASSERT_EQ(shared.calls.size(), plain.calls.size());
  for (std::size_t i = 0; i < plain.calls.size(); ++i) {
    EXPECT_EQ(shared.calls[i].depth_bound, plain.calls[i].depth_bound) << i;
    EXPECT_EQ(shared.calls[i].swap_bound, plain.calls[i].swap_bound) << i;
    EXPECT_EQ(shared.calls[i].status, plain.calls[i].status) << i;
  }
  EXPECT_EQ(hub.traffic().bound_pruned, 0u);
}

// The SWAP upper hint is probed once per block count, like the
// time-resolved sweep's: a right hint and a wrong one give the same optimum.
TEST(TbDriver, SwapHintNeverChangesTheOptimum) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const device::Device dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result plain = tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(plain.solved);
  for (const int hint : {plain.swap_count, plain.swap_count - 1, 0}) {
    SCOPED_TRACE("hint=" + std::to_string(hint));
    OptimizerOptions options;
    options.swap_upper_hint = hint;
    const Result hinted = tb_synthesize_swap_optimal(problem, {}, options);
    ASSERT_TRUE(hinted.solved);
    EXPECT_FALSE(hinted.hit_budget);
    EXPECT_EQ(hinted.swap_count, plain.swap_count);
    EXPECT_TRUE(verify_transition_based(problem, hinted).ok);
  }
}

// A fixed solve arms the solver with the caller's cancel flag: one set
// before the call returns no answer and reports the budget, even on a
// query that is SAT (the subarchitecture ladder's probes rely on this to
// unwind a cancelled portfolio entry).
TEST(TbDriver, FixedSolveHonoursAPresetCancelFlag) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const device::Device dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result free_run = tb_solve_fixed(problem, 4, -1);
  ASSERT_TRUE(free_run.solved);
  ASSERT_FALSE(free_run.hit_budget);

  const std::atomic<bool> cancel{true};
  const Result cancelled = tb_solve_fixed(problem, 4, -1, {}, 0.0, &cancel);
  EXPECT_TRUE(cancelled.hit_budget);
  EXPECT_FALSE(cancelled.solved);
  ASSERT_EQ(cancelled.calls.size(), 1u);
  EXPECT_EQ(cancelled.calls[0].status, '?');
}

}  // namespace
}  // namespace olsq2::layout
