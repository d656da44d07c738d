// Tests for the optimal planning-search engine (src/plan): certified
// optima must agree with TB-OLSQ2's swap optimum, both strategies must
// agree with each other, budget-cut runs must degrade to sound upper
// bounds, the golden manifest's pinned TB optima must be reproduced, and
// the serve integration point must behave.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "plan/plan.h"
#include "serve/batch.h"
#include "serve/manifest.h"
#include "subarch/solve.h"

namespace olsq2::plan {
namespace {

struct Case {
  std::string name;
  circuit::Circuit circuit;
  device::Device device;
  int swap_duration = 1;
};

std::vector<Case> small_cases() {
  std::vector<Case> cases;
  cases.push_back({"ghz4-line", bengen::ghz(4), device::grid(1, 4), 1});
  cases.push_back({"qft3-line", bengen::qft(3), device::grid(1, 3), 1});
  cases.push_back({"qft4-line", bengen::qft(4), device::grid(1, 4), 3});
  cases.push_back({"tof3-qx2", bengen::tof(3), device::ibm_qx2(), 1});
  cases.push_back({"bv4-line", bengen::bernstein_vazirani(4, 0b101),
                   device::grid(1, 5), 1});
  cases.push_back({"ising4-heavyhex", bengen::ising(4, 1),
                   device::heavy_hex(1, 4), 1});
  return cases;
}

TEST(PlanEngine, CertifiedOptimaMatchTbOlsq2) {
  for (Case& c : small_cases()) {
    SCOPED_TRACE(c.name);
    const layout::Problem problem{&c.circuit, &c.device, c.swap_duration};
    const PlanResult planned = synthesize(problem);
    ASSERT_TRUE(planned.solved);
    ASSERT_TRUE(planned.optimal);
    EXPECT_FALSE(planned.hit_budget);
    EXPECT_FALSE(planned.layout.hit_budget);
    EXPECT_EQ(planned.layout.swap_count, planned.swap_count);
    const auto verdict = layout::verify_transition_based(problem, planned.layout);
    EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                       : verdict.errors[0]);

    const layout::Result tb = layout::tb_synthesize_swap_optimal(problem);
    ASSERT_TRUE(tb.solved);
    EXPECT_EQ(planned.swap_count, tb.swap_count);
  }
}

TEST(PlanEngine, IdaStarAgreesWithAstar) {
  for (Case& c : small_cases()) {
    SCOPED_TRACE(c.name);
    const layout::Problem problem{&c.circuit, &c.device, c.swap_duration};
    const PlanResult astar = synthesize(problem);
    PlanOptions ida;
    ida.strategy = Strategy::kIdaStar;
    const PlanResult idastar = synthesize(problem, ida);
    ASSERT_TRUE(astar.solved && astar.optimal);
    ASSERT_TRUE(idastar.solved && idastar.optimal);
    EXPECT_EQ(astar.swap_count, idastar.swap_count);
    const auto verdict =
        layout::verify_transition_based(problem, idastar.layout);
    EXPECT_TRUE(verdict.ok);
  }
}

TEST(PlanEngine, TranspositionTablePrunesRevisitedStates) {
  // qft4 on a line forces several SWAPs, so distinct SWAP orders reconverge
  // on the same canonical mapping state and must be recognized.
  circuit::Circuit circ = bengen::qft(4);
  const device::Device dev = device::grid(1, 4);
  const layout::Problem problem{&circ, &dev, 1};
  const PlanResult planned = synthesize(problem);
  ASSERT_TRUE(planned.solved && planned.optimal);
  EXPECT_GT(planned.swap_count, 0);
  EXPECT_GT(planned.nodes_expanded, 0);
  EXPECT_GT(planned.tt_hits, 0);
}

TEST(PlanEngine, BudgetCutDegradesToUpperBound) {
  circuit::Circuit circ = bengen::qft(4);
  const device::Device dev = device::grid(1, 4);
  const layout::Problem problem{&circ, &dev, 1};
  const PlanResult full = synthesize(problem);
  ASSERT_TRUE(full.optimal);

  PlanOptions starved;
  starved.max_expansions = 2;
  const PlanResult bounded = synthesize(problem, starved);
  ASSERT_TRUE(bounded.solved);  // anytime greedy incumbent
  EXPECT_FALSE(bounded.optimal);
  EXPECT_TRUE(bounded.hit_budget);
  // Non-certified results must surface as budget-limited so the serve
  // cache never pins them.
  EXPECT_TRUE(bounded.layout.hit_budget);
  EXPECT_GE(bounded.swap_count, full.swap_count);
  const auto verdict = layout::verify_transition_based(problem, bounded.layout);
  EXPECT_TRUE(verdict.ok);
}

TEST(PlanEngine, CancelFlagStopsTheSearch) {
  circuit::Circuit circ = bengen::qft(4);
  const device::Device dev = device::grid(1, 4);
  const layout::Problem problem{&circ, &dev, 1};
  std::atomic<bool> cancel{true};
  PlanOptions options;
  options.cancel = &cancel;
  const PlanResult planned = synthesize(problem, options);
  EXPECT_FALSE(planned.optimal);
  EXPECT_TRUE(planned.hit_budget);
  if (planned.solved) {
    const auto verdict =
        layout::verify_transition_based(problem, planned.layout);
    EXPECT_TRUE(verdict.ok);
  }
}

TEST(PlanEngine, InfeasibleWhenProgramExceedsDevice) {
  circuit::Circuit circ = bengen::ghz(5);
  const device::Device dev = device::grid(1, 3);
  const layout::Problem problem{&circ, &dev, 1};
  const PlanResult planned = synthesize(problem);
  EXPECT_FALSE(planned.solved);
  EXPECT_TRUE(planned.optimal);  // certified: no embedding exists
}

TEST(PlanGolden, ReproducesEveryPinnedTbSwapOptimum) {
  // The TB entries in the golden manifest pin the unconstrained SWAP
  // optimum - exactly what the planning engine minimizes. Reproducing all
  // of them from a structurally independent engine is the cross-check the
  // SAT stack cannot give itself. Routed through the subarchitecture
  // wrapper: on the small devices it falls straight back to the direct
  // search, and on the 100+ qubit entries it restores certification
  // (direct plan::synthesize's root sampling demotes those to upper
  // bounds; the ladder's extracted subdevice is small enough for complete
  // root enumeration).
  const serve::Manifest manifest = serve::load_manifest(OLSQ2_GOLDEN_FILE);
  const serve::LoadedManifest loaded =
      serve::materialize_manifest(manifest, OLSQ2_BENCHMARK_DIR);
  int checked = 0;
  for (std::size_t i = 0; i < loaded.entries.size(); ++i) {
    const serve::ManifestEntry& entry = loaded.entries[i];
    if (entry.engine != "tb-swap" && entry.engine != "plan") continue;
    if (entry.expect_swaps < 0) continue;
    SCOPED_TRACE(entry.name);
    const layout::Problem problem{loaded.requests[i].circuit,
                                  loaded.requests[i].device,
                                  loaded.requests[i].swap_duration};
    const PlanResult planned = subarch::plan_synthesize(problem);
    ASSERT_TRUE(planned.solved);
    ASSERT_TRUE(planned.optimal) << "golden instance should complete";
    EXPECT_EQ(planned.swap_count, entry.expect_swaps);
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(PlanServe, EngineTagRoundTripsAndDispatches) {
  EXPECT_EQ(serve::engine_tag(serve::Engine::kPlan), std::string("plan"));
  EXPECT_EQ(serve::engine_from_tag("plan"), serve::Engine::kPlan);

  circuit::Circuit circ = bengen::qft(3);
  const device::Device dev = device::grid(1, 3);
  serve::Server server;
  serve::Request request;
  request.circuit = &circ;
  request.device = &dev;
  request.swap_duration = 1;
  request.engine = serve::Engine::kPlan;
  const serve::Response cold = server.serve(request);
  ASSERT_TRUE(cold.result.solved);
  EXPECT_TRUE(cold.result.transition_based);
  EXPECT_FALSE(cold.result.hit_budget);

  const layout::Problem problem{&circ, &dev, 1};
  const layout::Result tb = layout::tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(tb.solved);
  EXPECT_EQ(cold.result.swap_count, tb.swap_count);

  // Certified plans are cacheable like any other complete result.
  const serve::Response warm = server.serve(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result.swap_count, cold.result.swap_count);
}

}  // namespace
}  // namespace olsq2::plan
