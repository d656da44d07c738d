// Integration tests for the exact layout synthesis engines (OLSQ2, the
// OLSQ baseline, and the transition-based variants), all cross-checked by
// the independent verifier.
#include <gtest/gtest.h>

#include <algorithm>

#include "bengen/workloads.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "layout/verifier.h"

namespace olsq2::layout {
namespace {

// The paper's running example: Toffoli decomposition (Fig. 2).
circuit::Circuit toffoli_circuit() {
  circuit::Circuit c(3, "toffoli");
  c.add_gate("h", 2);
  c.add_gate("cx", 1, 2);
  c.add_gate("tdg", 2);
  c.add_gate("cx", 0, 2);
  c.add_gate("t", 2);
  c.add_gate("cx", 1, 2);
  c.add_gate("tdg", 2);
  c.add_gate("cx", 0, 2);
  c.add_gate("t", 1);
  c.add_gate("t", 2);
  c.add_gate("h", 2);
  c.add_gate("cx", 0, 1);
  c.add_gate("t", 0);
  c.add_gate("tdg", 1);
  c.add_gate("cx", 0, 1);
  return c;
}

std::string errors_of(const Verdict& v) {
  std::string all;
  for (const auto& e : v.errors) all += e + "; ";
  return all;
}

TEST(DependencyGraph, ToffoliLongestChain) {
  const auto c = toffoli_circuit();
  const circuit::DependencyGraph deps(c);
  // The paper's Fig. 5 reports 12 for its exact gate ordering; our standard
  // 15-gate network orders the tail so the longest chain is 11.
  EXPECT_EQ(deps.longest_chain(), 11);
  EXPECT_EQ(deps.default_upper_bound(), 17);  // ceil(1.5 * T_LB)
}

TEST(Olsq2Depth, ToffoliOnQx2IsDepthOptimal) {
  const auto c = toffoli_circuit();
  const auto dev = device::ibm_qx2();
  const Problem problem{&c, &dev, 3};
  const Result r = synthesize_depth_optimal(problem);
  ASSERT_TRUE(r.solved);
  // QX2 has a triangle (p0,p1,p2), so the Toffoli runs without SWAPs at the
  // dependency lower bound.
  EXPECT_EQ(r.depth, 11);
  const Verdict v = verify(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

TEST(Olsq2Swap, ToffoliOnQx2NeedsNoSwaps) {
  const auto c = toffoli_circuit();
  const auto dev = device::ibm_qx2();
  const Problem problem{&c, &dev, 3};
  const Result r = synthesize_swap_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.swap_count, 0);
  const Verdict v = verify(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

TEST(Olsq2Depth, LineDeviceForcesSwaps) {
  // Two-qubit gates between all pairs of 3 qubits on a 1x3 line: some pair
  // is non-adjacent under any mapping, so at least one SWAP is needed.
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  const auto dev = device::grid(1, 3);
  const Problem problem{&c, &dev, 1};
  const Result r = synthesize_swap_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_GE(r.swap_count, 1);
  const Verdict v = verify(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

TEST(Olsq2Depth, DecrementStopsAboveTheRefutedBound) {
  // QFT(4) on a 1x4 line: phase 1 refutes T_LB = 21 and relaxes to 28;
  // the decrement then walks down to 22. Depth bounds are monotone, so
  // once a bound came back UNSAT no bound at or below it may be solved
  // again - the decrement must stop at 22 instead of re-refuting 21.
  const auto c = bengen::qft(4);
  const auto dev = device::grid(1, 4);
  const Problem problem{&c, &dev, 1};
  const Result r = synthesize_depth_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_FALSE(r.hit_budget);
  EXPECT_EQ(r.depth, 22);
  int refuted = -1;
  for (const SolveCall& call : r.calls) {
    EXPECT_GT(call.depth_bound, refuted)
        << "bound " << call.depth_bound << " solved after bound " << refuted
        << " came back UNSAT";
    if (call.status == 'U') refuted = std::max(refuted, call.depth_bound);
  }
  EXPECT_EQ(refuted, 21);
  const Verdict v = verify(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

TEST(Olsq2Depth, QuekoRecoversKnownOptimalDepth) {
  const auto dev = device::grid(2, 3);
  for (const int depth : {3, 5}) {
    bengen::QuekoSpec spec;
    spec.depth = depth;
    spec.gate_count = depth * 3;
    spec.seed = 11;
    const auto c = bengen::queko(dev, spec);
    const Problem problem{&c, &dev, 3};
    const Result r = synthesize_depth_optimal(problem);
    ASSERT_TRUE(r.solved);
    EXPECT_EQ(r.depth, depth) << "QUEKO depth " << depth;
    const Verdict v = verify(problem, r);
    EXPECT_TRUE(v.ok) << errors_of(v);
  }
}

TEST(Olsq2Swap, QuekoNeedsZeroSwaps) {
  const auto dev = device::grid(2, 3);
  bengen::QuekoSpec spec;
  spec.depth = 4;
  spec.gate_count = 12;
  spec.seed = 3;
  const auto c = bengen::queko(dev, spec);
  const Problem problem{&c, &dev, 3};
  const Result r = synthesize_swap_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.swap_count, 0);
}

// All encoding configurations must agree on the optimal depth; they only
// differ in solving speed (paper Table I).
struct NamedConfig {
  const char* name;
  EncodingConfig config;
};

// gtest prints the parameter into the listed test name. Its default byte
// dump would include the address of `name`, which ASLR moves on every run,
// so the name would never be the same twice.
void PrintTo(const NamedConfig& c, std::ostream* os) { *os << c.name; }

class EncodingAgreementTest : public ::testing::TestWithParam<NamedConfig> {};

TEST_P(EncodingAgreementTest, OptimalDepthMatches) {
  const auto c = bengen::qaoa_3regular(4, 5);
  const auto dev = device::grid(2, 2);
  const Problem problem{&c, &dev, 1};
  const Result reference = synthesize_depth_optimal(problem);
  ASSERT_TRUE(reference.solved);

  const Result r = synthesize_depth_optimal(problem, GetParam().config);
  ASSERT_TRUE(r.solved) << GetParam().name;
  EXPECT_EQ(r.depth, reference.depth) << GetParam().name;
  const Verdict v = verify(problem, r);
  EXPECT_TRUE(v.ok) << GetParam().name << ": " << errors_of(v);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EncodingAgreementTest,
    ::testing::Values(
        NamedConfig{"OLSQ2_bv",
                    {Formulation::kOlsq2, VarEncoding::kBinary,
                     InjectivityEncoding::kPairwise, CardEncoding::kTotalizer}},
        NamedConfig{"OLSQ2_int",
                    {Formulation::kOlsq2, VarEncoding::kOneHot,
                     InjectivityEncoding::kPairwise, CardEncoding::kTotalizer}},
        NamedConfig{"OLSQ2_euf_int",
                    {Formulation::kOlsq2, VarEncoding::kOneHot,
                     InjectivityEncoding::kChanneling,
                     CardEncoding::kTotalizer}},
        NamedConfig{"OLSQ2_euf_bv",
                    {Formulation::kOlsq2, VarEncoding::kBinary,
                     InjectivityEncoding::kChanneling,
                     CardEncoding::kTotalizer}},
        NamedConfig{"OLSQ_bv",
                    {Formulation::kOlsqBaseline, VarEncoding::kBinary,
                     InjectivityEncoding::kPairwise, CardEncoding::kTotalizer}},
        NamedConfig{"OLSQ_int",
                    {Formulation::kOlsqBaseline, VarEncoding::kOneHot,
                     InjectivityEncoding::kPairwise,
                     CardEncoding::kTotalizer}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SolveFixed, SatAndUnsatBounds) {
  const auto c = bengen::qaoa_3regular(4, 5);
  const auto dev = device::grid(2, 2);
  const Problem problem{&c, &dev, 1};
  const Result optimal = synthesize_swap_optimal(problem);
  ASSERT_TRUE(optimal.solved);

  // Generous horizon with the optimal swap bound: SAT.
  EncodingConfig config;
  config.cardinality = CardEncoding::kSeqCounter;
  const circuit::DependencyGraph deps(c);
  const int horizon = deps.default_upper_bound() + 4;
  Result sat = solve_fixed(problem, horizon, optimal.swap_count, config);
  EXPECT_TRUE(sat.solved);

  // One fewer swap than optimal at the optimal depth horizon: UNSAT.
  if (optimal.swap_count > 0) {
    Result unsat =
        solve_fixed(problem, optimal.depth, optimal.swap_count - 1, config);
    EXPECT_FALSE(unsat.solved);
  }
}

TEST(TbSynthesis, ToffoliOnQx2) {
  const auto c = toffoli_circuit();
  const auto dev = device::ibm_qx2();
  const Problem problem{&c, &dev, 3};
  const Result r = tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.swap_count, 0);
  EXPECT_EQ(r.depth, 1);  // one block suffices on the triangle
  const Verdict v = verify_transition_based(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

TEST(TbSynthesis, SwapCountMatchesExactOnSmallInstance) {
  // On this tiny instance the transition-based relaxation is also optimal.
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  const auto dev = device::grid(1, 3);
  const Problem problem{&c, &dev, 1};
  const Result exact = synthesize_swap_optimal(problem);
  const Result tb = tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(exact.solved);
  ASSERT_TRUE(tb.solved);
  EXPECT_EQ(tb.swap_count, exact.swap_count);
  const Verdict v = verify_transition_based(problem, tb);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

TEST(TbSynthesis, BlockOptimalQaoa) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result r = tb_synthesize_block_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_GE(r.depth, 1);
  const Verdict v = verify_transition_based(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

TEST(Optimizer, TimeBudgetReturnsUnsolvedGracefully) {
  const auto c = bengen::qaoa_3regular(8, 9);
  const auto dev = device::grid(3, 3);
  const Problem problem{&c, &dev, 1};
  OptimizerOptions options;
  options.time_budget_ms = 1.0;  // far too little
  const Result r = synthesize_depth_optimal(problem, {}, options);
  // Either it got lucky instantly or it reports the budget was hit.
  if (!r.solved) {
    EXPECT_TRUE(r.hit_budget);
  }
}

TEST(Optimizer, NonIncrementalAgreesWithIncremental) {
  const auto c = bengen::qaoa_3regular(4, 9);
  const auto dev = device::grid(2, 2);
  const Problem problem{&c, &dev, 1};
  OptimizerOptions inc;
  OptimizerOptions noninc;
  noninc.incremental = false;
  const Result a = synthesize_depth_optimal(problem, {}, inc);
  const Result b = synthesize_depth_optimal(problem, {}, noninc);
  ASSERT_TRUE(a.solved);
  ASSERT_TRUE(b.solved);
  EXPECT_EQ(a.depth, b.depth);
}

TEST(Verifier, DetectsCorruptedResults) {
  const auto c = toffoli_circuit();
  const auto dev = device::ibm_qx2();
  const Problem problem{&c, &dev, 3};
  const Result good = synthesize_depth_optimal(problem);
  ASSERT_TRUE(good.solved);
  ASSERT_TRUE(verify(problem, good).ok);

  {
    Result bad = good;  // break injectivity
    bad.mapping[0][1] = bad.mapping[0][0];
    EXPECT_FALSE(verify(problem, bad).ok);
  }
  {
    Result bad = good;  // break dependency order
    bad.gate_time[0] = bad.depth - 1;
    EXPECT_FALSE(verify(problem, bad).ok);
  }
  {
    // Phantom mapping jump: move q0 at t=5 to a physical qubit that is
    // unoccupied there (so only the evolution check can catch it).
    Result bad = good;
    std::vector<bool> used(dev.num_qubits(), false);
    for (const int p : bad.mapping[5]) used[p] = true;
    for (int p = 0; p < dev.num_qubits(); ++p) {
      if (!used[p]) {
        bad.mapping[5][0] = p;
        break;
      }
    }
    EXPECT_FALSE(verify(problem, bad).ok);
  }
  {
    // Phantom swap on an edge hosting q0 at t=4: the mapping does not
    // follow the claimed swap, so evolution must fail. (A swap between two
    // *unoccupied* qubits would be harmless and is legitimately accepted.)
    Result bad = good;
    const int edge = dev.edges_at(bad.mapping[4][0]).front();
    bad.swaps.push_back({edge, 4});
    bad.swap_count++;
    EXPECT_FALSE(verify(problem, bad).ok);
  }
}

TEST(Pareto, SweepIsMonotone) {
  const auto c = bengen::qaoa_3regular(6, 4);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result r = synthesize_swap_optimal(problem);
  ASSERT_TRUE(r.solved);
  ASSERT_FALSE(r.pareto.empty());
  for (std::size_t i = 1; i < r.pareto.size(); ++i) {
    EXPECT_GT(r.pareto[i].first, r.pareto[i - 1].first);
    EXPECT_LE(r.pareto[i].second, r.pareto[i - 1].second);
  }
  const Verdict v = verify(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
}

}  // namespace
}  // namespace olsq2::layout
