// Property suite for the subarchitecture extraction + lift stack
// (src/subarch, DESIGN.md §14): cover enumeration against brute force,
// ladder-vs-direct agreement, lift round-trips, library canonical keying,
// budget/cancel degradation, and the serve composition.
// Suite names all start with "Subarch" (the CI TSan filter keys on it).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bengen/rng.h"
#include "bengen/workloads.h"
#include "circuit/circuit.h"
#include "device/presets.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "obs/obs.h"
#include "serve/batch.h"
#include "subarch/extract.h"
#include "subarch/library.h"
#include "subarch/lift.h"
#include "subarch/solve.h"

namespace olsq2::subarch {
namespace {

// Brute force: all connected induced m-vertex subgraphs of `dev` by subset
// enumeration (fine for the <= 20-qubit devices used here).
std::vector<std::vector<int>> brute_force_connected(const device::Device& dev,
                                                    int m) {
  const int n = dev.num_qubits();
  std::vector<std::vector<int>> out;
  std::vector<int> pick(m);
  const auto connected = [&](const std::vector<int>& set) {
    std::vector<int> stack{set[0]};
    std::set<int> seen{set[0]};
    const std::set<int> members(set.begin(), set.end());
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const int u : dev.neighbors(v)) {
        if (members.count(u) && !seen.count(u)) {
          seen.insert(u);
          stack.push_back(u);
        }
      }
    }
    return static_cast<int>(seen.size()) == m;
  };
  const std::function<void(int, int)> rec = [&](int next, int depth) {
    if (depth == m) {
      if (connected(pick)) out.push_back(pick);
      return;
    }
    for (int v = next; v < n; ++v) {
      pick[depth] = v;
      rec(v + 1, depth + 1);
    }
  };
  rec(0, 0);
  return out;
}

int induced_edge_count(const device::Device& dev, const std::vector<int>& set) {
  int count = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (dev.adjacent(set[i], set[j])) ++count;
    }
  }
  return count;
}

TEST(SubarchCover, MatchesBruteForceOnSmallDevices) {
  for (const device::Device& dev :
       {device::ibm_qx2(), device::grid(2, 3), device::rigetti_aspen4()}) {
    for (int m = 2; m <= 4; ++m) {
      SCOPED_TRACE(dev.name() + " m=" + std::to_string(m));
      const auto brute = brute_force_connected(dev, m);
      const Cover cover = enumerate_cover(dev, m);
      ASSERT_TRUE(cover.complete);
      EXPECT_EQ(cover.size, m);
      // Every connected set visited exactly once; classes partition them.
      std::int64_t members = 0;
      for (const CoverClass& cls : cover.classes) members += cls.members;
      EXPECT_EQ(members, static_cast<std::int64_t>(brute.size()));
      for (const CoverClass& cls : cover.classes) {
        // Representative is a genuine connected induced subgraph with the
        // advertised edge count and an in-range, strictly-sorted witness.
        ASSERT_EQ(static_cast<int>(cls.rep.to_full.size()), m);
        EXPECT_TRUE(std::is_sorted(cls.rep.to_full.begin(),
                                   cls.rep.to_full.end()));
        EXPECT_GE(cls.rep.to_full.front(), 0);
        EXPECT_LT(cls.rep.to_full.back(), dev.num_qubits());
        EXPECT_EQ(cls.rep.device.num_edges(),
                  induced_edge_count(dev, cls.rep.to_full));
        EXPECT_EQ(cls.induced_edges, cls.rep.device.num_edges());
        for (int p = 0; p < m; ++p) {
          EXPECT_LT(cls.rep.device.distance(0, p), m)
              << "class rep disconnected";
        }
        // Induced subgraph: every rep edge exists on the device.
        for (const device::Edge& e : cls.rep.device.edges()) {
          EXPECT_TRUE(dev.adjacent(cls.rep.to_full[e.p0],
                                   cls.rep.to_full[e.p1]));
        }
      }
      // Densest-first pruning order.
      for (std::size_t i = 1; i < cover.classes.size(); ++i) {
        EXPECT_GE(cover.classes[i - 1].induced_edges,
                  cover.classes[i].induced_edges);
      }
    }
  }
}

TEST(SubarchCover, ProcessCacheReturnsIdenticalCover) {
  const device::Device dev = device::ibm_guadalupe16();
  const Cover a = enumerate_cover(dev, 4);
  const Cover b = enumerate_cover(dev, 4);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].canon.key, b.classes[i].canon.key);
    EXPECT_EQ(a.classes[i].rep.to_full, b.classes[i].rep.to_full);
    EXPECT_EQ(a.classes[i].members, b.classes[i].members);
  }
}

TEST(SubarchCover, InteractionConnectivityPredicate) {
  circuit::Circuit ghz = bengen::ghz(4);
  EXPECT_TRUE(interaction_connected(ghz));

  circuit::Circuit split(4, "split");
  split.add_gate("cx", 0, 1);
  split.add_gate("cx", 2, 3);
  EXPECT_FALSE(interaction_connected(split));

  circuit::Circuit silent(3, "silent");
  silent.add_gate("h", 0);
  EXPECT_FALSE(interaction_connected(silent));
}

TEST(SubarchLadder, MatchesDirectOnSmallDevices) {
  // Force the ladder onto devices the direct engine handles instantly and
  // require identical certified optima (the fuzz oracle sweeps this
  // relation over hundreds of random instances; these are fixed anchors).
  struct Case {
    circuit::Circuit circuit;
    device::Device device;
  };
  std::vector<Case> cases;
  cases.push_back({bengen::qaoa_3regular(4, 1), device::grid(2, 3)});
  cases.push_back({bengen::ghz(4), device::grid(2, 3)});
  cases.push_back({bengen::bernstein_vazirani(3, 0b111), device::grid(2, 3)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.circuit.name() + " on " + c.device.name());
    const layout::Problem problem{&c.circuit, &c.device, 1};
    SubarchOptions subopts;
    subopts.min_device_qubits = 0;
    SubarchOutcome outcome;
    const layout::Result lifted =
        tb_synthesize_swap_optimal(problem, {}, {}, subopts, &outcome);
    const layout::Result direct = layout::tb_synthesize_swap_optimal(problem);
    ASSERT_TRUE(lifted.solved);
    ASSERT_TRUE(direct.solved);
    EXPECT_EQ(lifted.swap_count, direct.swap_count);
    const auto verdict = layout::verify_transition_based(problem, lifted);
    EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                       : verdict.errors[0]);
  }
}

TEST(SubarchLadder, CertifiesOnEagle127) {
  circuit::Circuit ghz = bengen::ghz(5);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&ghz, &dev, 3};
  SubarchOutcome outcome;
  const layout::Result result =
      tb_synthesize_swap_optimal(problem, {}, {}, {}, &outcome);
  ASSERT_TRUE(result.solved);
  EXPECT_FALSE(result.hit_budget);
  EXPECT_TRUE(outcome.certified) << outcome.fallback_reason;
  EXPECT_EQ(result.swap_count, 0);
  EXPECT_EQ(outcome.swap_optimum, 0);
  EXPECT_EQ(outcome.sub_qubits, 5);
  EXPECT_DOUBLE_EQ(outcome.reduction_ratio, 127.0 / 5.0);
  // The winning embedding hosts every program qubit: all mapping values
  // lie inside the witness image.
  const std::set<int> image(outcome.to_full.begin(), outcome.to_full.end());
  ASSERT_EQ(image.size(), outcome.to_full.size());
  for (const auto& row : result.mapping) {
    for (const int p : row) EXPECT_TRUE(image.count(p));
  }
  // Verified against the FULL 127-qubit device.
  const auto verdict = layout::verify_transition_based(problem, result);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
}

TEST(SubarchLadder, CertifiesSwapsOnEagle127) {
  // A triangle interaction graph cannot embed in heavy-hex (girth > 3):
  // the ladder's round 0 is all-UNSAT and round 1 certifies exactly 1 SWAP.
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&qaoa, &dev, 1};
  SubarchOutcome outcome;
  const layout::Result result =
      tb_synthesize_swap_optimal(problem, {}, {}, {}, &outcome);
  ASSERT_TRUE(result.solved);
  ASSERT_TRUE(outcome.certified) << outcome.fallback_reason;
  EXPECT_GE(result.swap_count, 1);
  EXPECT_EQ(outcome.rounds, result.swap_count + 1);
  const auto verdict = layout::verify_transition_based(problem, result);
  EXPECT_TRUE(verdict.ok);
}

// Span names recorded inside a subarch.ladder span on the same thread.
std::multiset<std::string> spans_under_ladder(
    const std::vector<obs::Event>& events) {
  std::multiset<std::string> names;
  for (const obs::Event& ladder : events) {
    if (ladder.kind != obs::Event::Kind::kSpan ||
        ladder.name != "subarch.ladder") {
      continue;
    }
    for (const obs::Event& e : events) {
      if (&e == &ladder || e.kind != obs::Event::Kind::kSpan ||
          e.tid != ladder.tid) {
        continue;
      }
      if (e.ts >= ladder.ts && e.ts + e.dur <= ladder.ts + ladder.dur) {
        names.insert(e.name);
      }
    }
  }
  return names;
}

struct TracedLadder {
  layout::Result result;
  SubarchOutcome outcome;
  std::multiset<std::string> spans;  // recorded under subarch.ladder
};

TracedLadder traced_ladder(const layout::Problem& problem) {
  Library library;  // fresh: every probe is decided, none recalled
  SubarchOptions subopts;
  subopts.library = &library;
  TracedLadder run;
  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture("");
  run.result =
      tb_synthesize_swap_optimal(problem, {}, {}, subopts, &run.outcome);
  run.spans = spans_under_ladder(trace.snapshot());
  trace.end_capture();
  return run;
}

// A 4-qubit region probes subdevices of 4-7 qubits (at most 840 root
// placements each): the planner decides every probe and no TB SAT call
// runs inside the ladder, yet the certified optimum is the direct
// engine's. The cross-region gate closes a cycle of at most 4 qubits,
// which heavy-hex (girth 12) cannot host, so round 0 is all-UNSAT.
TEST(SubarchLadder, SmallRootSpaceProbesUseThePlanner) {
  const device::Device dev = device::ibm_eagle127();
  const circuit::Circuit circ = bengen::region_workload(dev, 4, 9, 1, 5);
  const layout::Problem problem{&circ, &dev, 1};
  const TracedLadder run = traced_ladder(problem);
  ASSERT_TRUE(run.result.solved);
  ASSERT_TRUE(run.outcome.certified) << run.outcome.fallback_reason;
  EXPECT_GE(run.outcome.rounds, 2);
  EXPECT_EQ(run.spans.count("tb.solve"), 0u);
  EXPECT_EQ(run.spans.count("plan.synthesize"),
            static_cast<std::size_t>(run.outcome.probes));
  EXPECT_TRUE(layout::verify_transition_based(problem, run.result).ok);

  const layout::Result direct = layout::tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(direct.solved);
  ASSERT_FALSE(direct.hit_budget);
  EXPECT_EQ(run.result.swap_count, direct.swap_count);
  EXPECT_EQ(run.outcome.swap_optimum, direct.swap_count);
}

// A 7-qubit region's probes have at least 7! = 5040 root placements, above
// the planner's share: they stay TB SAT calls.
TEST(SubarchLadder, LargeRootSpaceProbesStayOnTb) {
  const device::Device dev = device::ibm_eagle127();
  const circuit::Circuit circ = bengen::region_workload(dev, 7, 16, 1, 3);
  const layout::Problem problem{&circ, &dev, 1};
  const TracedLadder run = traced_ladder(problem);
  ASSERT_TRUE(run.result.solved);
  ASSERT_TRUE(run.outcome.certified) << run.outcome.fallback_reason;
  EXPECT_EQ(run.spans.count("tb.solve"),
            static_cast<std::size_t>(run.outcome.probes));
  EXPECT_EQ(run.spans.count("plan.synthesize"), 0u);
  EXPECT_TRUE(layout::verify_transition_based(problem, run.result).ok);
}

TEST(SubarchLift, ProjectionRoundTrip) {
  const device::Device full = device::ibm_eagle127();
  // A connected 6-qubit region: the representative of one cover class.
  const Cover cover = enumerate_cover(full, 6);
  ASSERT_FALSE(cover.classes.empty());
  const SubDevice& sd = cover.classes.front().rep;
  // A sub-space mapping row; lift then project must round-trip.
  std::vector<int> sub_mapping = {2, 0, 5, 1};  // 4 program qubits
  std::vector<int> full_mapping(sub_mapping.size());
  for (std::size_t q = 0; q < sub_mapping.size(); ++q) {
    full_mapping[q] = sd.to_full[sub_mapping[q]];
  }
  EXPECT_EQ(project_mapping(full_mapping, sd, full), sub_mapping);
  // Positions outside the subdevice project to -1.
  std::vector<int> outside(1, -1);
  for (int p = 0; p < full.num_qubits(); ++p) {
    if (std::find(sd.to_full.begin(), sd.to_full.end(), p) ==
        sd.to_full.end()) {
      outside[0] = p;
      break;
    }
  }
  ASSERT_GE(outside[0], 0);
  EXPECT_EQ(project_mapping(outside, sd, full), std::vector<int>{-1});
}

TEST(SubarchLift, LiftedResultUsesWitnessIndices) {
  const device::Device full = device::grid(3, 3);
  const SubDevice sd = make_subdevice(full, {0, 1, 4, 3});
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const layout::Problem sub_problem{&qaoa, &sd.device, 1};
  const layout::Result sub = layout::tb_synthesize_swap_optimal(sub_problem);
  ASSERT_TRUE(sub.solved);
  const layout::Result lifted = lift_result(sub, sd, full);
  EXPECT_EQ(lifted.swap_count, sub.swap_count);
  EXPECT_EQ(lifted.depth, sub.depth);
  const layout::Problem full_problem{&qaoa, &full, 1};
  const auto verdict = layout::verify_transition_based(full_problem, lifted);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
}

TEST(SubarchLibrary, RelabeledDeviceHitsSameEntries) {
  // Reverse-relabel the device: isomorphic coupling graph, so the ladder's
  // canonical probe keys must collide and the second run must reuse the
  // first run's library entries.
  const device::Device dev = device::ibm_guadalupe16();
  std::vector<device::Edge> reversed_edges;
  const int n = dev.num_qubits();
  for (const device::Edge& e : dev.edges()) {
    reversed_edges.push_back({n - 1 - e.p0, n - 1 - e.p1});
  }
  const device::Device reversed("guadalupe-rev", n, std::move(reversed_edges));

  circuit::Circuit bv = bengen::bernstein_vazirani(3, 0b111);
  Library library;
  SubarchOptions subopts;
  subopts.min_device_qubits = 0;
  subopts.library = &library;

  const layout::Problem problem{&bv, &dev, 1};
  SubarchOutcome first;
  const layout::Result a =
      tb_synthesize_swap_optimal(problem, {}, {}, subopts, &first);
  ASSERT_TRUE(a.solved);
  ASSERT_TRUE(first.certified) << first.fallback_reason;
  const Library::Stats cold = library.stats();
  EXPECT_GT(cold.inserts, 0u);

  const layout::Problem relabeled{&bv, &reversed, 1};
  SubarchOutcome second;
  const layout::Result b =
      tb_synthesize_swap_optimal(relabeled, {}, {}, subopts, &second);
  ASSERT_TRUE(b.solved);
  ASSERT_TRUE(second.certified) << second.fallback_reason;
  EXPECT_EQ(a.swap_count, b.swap_count);
  const Library::Stats warm = library.stats();
  EXPECT_GT(warm.hits, cold.hits)
      << "isomorphic device did not reuse the probe library";
  EXPECT_GT(second.library_hits, 0);
}

TEST(SubarchBudget, EnumerationBudgetDegradesToDirect) {
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const device::Device dev = device::grid(2, 3);
  const layout::Problem problem{&qaoa, &dev, 1};
  SubarchOptions subopts;
  subopts.min_device_qubits = 0;
  subopts.extract.max_subgraphs = 1;  // guarantees an aborted enumeration
  SubarchOutcome outcome;
  const layout::Result result =
      tb_synthesize_swap_optimal(problem, {}, {}, subopts, &outcome);
  ASSERT_TRUE(result.solved);  // the direct fallback answered
  EXPECT_FALSE(outcome.certified);
  EXPECT_FALSE(outcome.fallback_reason.empty());
  EXPECT_EQ(result.swap_count,
            layout::tb_synthesize_swap_optimal(problem).swap_count);
}

TEST(SubarchBudget, SizeCapAndDisabledDegradeToDirect) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device dev = device::grid(2, 3);
  const layout::Problem problem{&ghz, &dev, 1};

  SubarchOptions capped;
  capped.min_device_qubits = 0;
  capped.extract.max_sub_qubits = 2;  // |Q| = 4 exceeds the cap
  SubarchOutcome outcome;
  const layout::Result r1 =
      tb_synthesize_swap_optimal(problem, {}, {}, capped, &outcome);
  ASSERT_TRUE(r1.solved);
  EXPECT_FALSE(outcome.certified);

  SubarchOptions disabled;
  disabled.enable = false;
  SubarchOutcome off;
  const layout::Result r2 =
      tb_synthesize_swap_optimal(problem, {}, {}, disabled, &off);
  ASSERT_TRUE(r2.solved);
  EXPECT_FALSE(off.certified);
  EXPECT_EQ(r1.swap_count, r2.swap_count);
}

// True when a TB SAT call or a plan search in `events` found an answer.
bool any_engine_answered(const std::vector<obs::Event>& events) {
  const auto has_arg = [](const obs::Event& e, const std::string& key,
                          const std::string& value) {
    return std::any_of(e.args.begin(), e.args.end(), [&](const obs::Arg& a) {
      return a.key == key && a.value == value;
    });
  };
  return std::any_of(events.begin(), events.end(), [&](const obs::Event& e) {
    return (e.name == "tb.solve" && has_arg(e, "result", "sat")) ||
           (e.name == "plan.synthesize" && has_arg(e, "optimal", "yes"));
  });
}

// A cancel flag set before the call stops the ladder and skips the direct
// fallback: both wrappers report an unsolved, budget-limited result, and
// no engine ran to an answer on the way.
TEST(SubarchBudget, CancelWithoutFallbackReportsMiss) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&ghz, &dev, 1};
  std::atomic<bool> cancel{true};
  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture("");

  layout::OptimizerOptions options;
  options.cancel = &cancel;
  SubarchOutcome outcome;
  const layout::Result tb =
      tb_synthesize_swap_optimal(problem, {}, options, {}, &outcome);
  EXPECT_FALSE(tb.solved);
  EXPECT_TRUE(tb.hit_budget);
  EXPECT_FALSE(outcome.certified);
  EXPECT_EQ(outcome.fallback_reason, "cancelled");

  plan::PlanOptions popt;
  popt.cancel = &cancel;
  SubarchOutcome plan_outcome;
  const plan::PlanResult planned =
      plan_synthesize(problem, popt, {}, &plan_outcome);
  EXPECT_FALSE(planned.solved);
  EXPECT_TRUE(planned.hit_budget);
  EXPECT_TRUE(planned.layout.hit_budget);
  EXPECT_FALSE(plan_outcome.certified);

  EXPECT_FALSE(any_engine_answered(trace.snapshot()));
  trace.end_capture();
}

// The ladder and the direct fallback share the caller's one budget. On a
// 6-qubit QFT the ladder runs out of time in its SWAP rounds, and the
// direct engines on 127 qubits need far longer than the budget too: a
// fallback that restarted the budget would take about twice as long, and
// its SAT calls or plan search would run outside the ladder.
TEST(SubarchBudget, FallbackSpendsOnlyTheBudgetLeft) {
  const circuit::Circuit qft = bengen::qft(6);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&qft, &dev, 1};
  constexpr double kBudgetMs = 500.0;
  constexpr double kSlackMs = 400.0;  // below kBudgetMs: a second budget fails
  const auto elapsed_ms = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture("");

  layout::OptimizerOptions options;
  options.time_budget_ms = kBudgetMs;
  SubarchOutcome outcome;
  auto start = std::chrono::steady_clock::now();
  const layout::Result tb =
      tb_synthesize_swap_optimal(problem, {}, options, {}, &outcome);
  EXPECT_LT(elapsed_ms(start), kBudgetMs + kSlackMs);
  EXPECT_FALSE(outcome.certified);
  EXPECT_TRUE(tb.hit_budget);

  plan::PlanOptions popt;
  popt.time_budget_ms = kBudgetMs;
  SubarchOutcome plan_outcome;
  start = std::chrono::steady_clock::now();
  const plan::PlanResult planned =
      plan_synthesize(problem, popt, {}, &plan_outcome);
  EXPECT_LT(elapsed_ms(start), kBudgetMs + kSlackMs);
  EXPECT_FALSE(plan_outcome.certified);
  EXPECT_TRUE(planned.layout.hit_budget);

  const std::vector<obs::Event> events = trace.snapshot();
  trace.end_capture();
  const std::multiset<std::string> inside = spans_under_ladder(events);
  for (const char* engine : {"tb.solve", "plan.synthesize"}) {
    const auto all = std::count_if(
        events.begin(), events.end(),
        [&](const obs::Event& e) { return e.name == engine; });
    EXPECT_EQ(static_cast<std::size_t>(all), inside.count(engine))
        << engine << " ran outside the ladder";
  }
}

TEST(SubarchPlan, WrapperCertifiesOnEagle127) {
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&qaoa, &dev, 1};
  SubarchOutcome outcome;
  const plan::PlanResult planned = plan_synthesize(problem, {}, {}, &outcome);
  ASSERT_TRUE(planned.solved);
  ASSERT_TRUE(planned.optimal) << outcome.fallback_reason;
  EXPECT_GE(planned.swap_count, 1);
  const auto verdict =
      layout::verify_transition_based(problem, planned.layout);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
}

TEST(SubarchServe, PrePassRoutesTbSwapAndPlanTransparently) {
  circuit::Circuit ghz = bengen::ghz(5);
  const device::Device dev = device::ibm_eagle127();
  serve::Server server;
  serve::Request request;
  request.circuit = &ghz;
  request.device = &dev;
  request.swap_duration = 3;
  request.engine = serve::Engine::kTbSwap;
  const serve::Response tb = server.serve(request);
  ASSERT_TRUE(tb.result.solved);
  EXPECT_FALSE(tb.result.hit_budget);
  EXPECT_EQ(tb.result.swap_count, 0);
  EXPECT_GT(server.subarch_library().stats().inserts, 0u)
      << "serve pre-pass never engaged the ladder";

  request.engine = serve::Engine::kPlan;
  const serve::Response plan = server.serve(request);
  ASSERT_TRUE(plan.result.solved);
  EXPECT_FALSE(plan.result.hit_budget);
  EXPECT_EQ(plan.result.swap_count, 0);

  const layout::Problem problem{&ghz, &dev, 3};
  const auto verdict =
      layout::verify_transition_based(problem, tb.result);
  EXPECT_TRUE(verdict.ok);
}

TEST(SubarchServe, DisabledServerSkipsThePrePass) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device dev = device::ibm_guadalupe16();
  serve::ServerOptions opts;
  opts.subarch.enable = false;
  serve::Server server(opts);
  serve::Request request;
  request.circuit = &ghz;
  request.device = &dev;
  request.swap_duration = 1;
  request.engine = serve::Engine::kTbSwap;
  const serve::Response r = server.serve(request);
  ASSERT_TRUE(r.result.solved);
  EXPECT_EQ(server.subarch_library().stats().inserts, 0u);
  EXPECT_EQ(server.subarch_library().stats().misses, 0u);
}

TEST(SubarchShould, EngageGating) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device big = device::ibm_eagle127();
  const device::Device small = device::ibm_qx2();
  SubarchOptions defaults;
  EXPECT_TRUE(should_engage({&ghz, &big, 1}, defaults));
  EXPECT_FALSE(should_engage({&ghz, &small, 1}, defaults));  // below threshold

  SubarchOptions forced;
  forced.min_device_qubits = 0;
  EXPECT_TRUE(should_engage({&ghz, &small, 1}, forced));
  circuit::Circuit five = bengen::ghz(5);
  EXPECT_FALSE(should_engage({&five, &small, 1}, forced));  // |Q| == |P|
  forced.enable = false;
  EXPECT_FALSE(should_engage({&ghz, &small, 1}, forced));
}

}  // namespace
}  // namespace olsq2::subarch
