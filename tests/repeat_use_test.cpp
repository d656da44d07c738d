// Stateful-reuse regression tests: components that the serve layer calls
// repeatedly on different problems must either fully reset their internal
// state per call or namespace it per problem.
//
//   sat::Preprocessor::run   - must clear output/eliminations/stats so a
//     second run is byte-identical to a fresh object's run.
//   layout::Model            - repeated bound requests must be cached (no
//     new solver variables) and repeated solves under the same assumptions
//     must reproduce the same verdict and objectives.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "device/presets.h"
#include "layout/model.h"
#include "sat/preprocess.h"
#include "sat/types.h"

namespace olsq2 {
namespace {

using sat::Lit;

// A small mixed clause set exercising every preprocessing rule: a unit,
// subsumption pairs, a self-subsuming resolution, and BVE candidates.
std::vector<sat::Clause> preprocess_fixture() {
  const Lit a = Lit::pos(0), b = Lit::pos(1), c = Lit::pos(2);
  const Lit d = Lit::pos(3), e = Lit::pos(4);
  return {
      {a},                // unit
      {a, b},             // subsumed by {a} after propagation
      {~a, b, c},         // strengthened / propagated
      {~b, c, d},
      {~c, d, e},
      {~d, ~e},
      {b, ~c, e},
      {~a, ~b, ~e},
  };
}

TEST(PreprocessorReuse, SecondRunMatchesFreshObject) {
  sat::Preprocessor reused;
  ASSERT_TRUE(reused.run(5, preprocess_fixture()));
  const auto first_clauses = reused.clauses();
  const auto first_stats = reused.stats();

  // Same object, same input: everything must be reset internally.
  ASSERT_TRUE(reused.run(5, preprocess_fixture()));
  EXPECT_EQ(reused.clauses(), first_clauses);

  sat::Preprocessor fresh;
  ASSERT_TRUE(fresh.run(5, preprocess_fixture()));
  EXPECT_EQ(fresh.clauses(), first_clauses);
  EXPECT_EQ(fresh.stats().propagated_units, first_stats.propagated_units);
  EXPECT_EQ(fresh.stats().subsumed_clauses, first_stats.subsumed_clauses);
  EXPECT_EQ(fresh.stats().strengthened_literals,
            first_stats.strengthened_literals);
  EXPECT_EQ(fresh.stats().eliminated_vars, first_stats.eliminated_vars);

  // Model reconstruction still works after the re-run (eliminations were
  // rebuilt, not appended twice).
  std::vector<sat::LBool> model(5, sat::LBool::kUndef);
  model[0] = sat::LBool::kTrue;  // the unit
  reused.extend_model(model);
  for (const auto& clause : preprocess_fixture()) {
    bool satisfied = false;
    for (const Lit l : clause) {
      if (model[l.var()] == sat::LBool::kUndef) continue;
      if (sat::lit_value(model[l.var()], l.sign()) == sat::LBool::kTrue) {
        satisfied = true;
        break;
      }
    }
    // Clauses over retained-but-unassigned vars are fine; fully assigned
    // clauses must be satisfied.
    bool fully_assigned = true;
    for (const Lit l : clause)
      fully_assigned &= model[l.var()] != sat::LBool::kUndef;
    if (fully_assigned) {
      EXPECT_TRUE(satisfied);
    }
  }

  // A second run on a *different* formula must not leak the first one's
  // eliminations into model reconstruction.
  std::vector<sat::Clause> other = {{Lit::pos(0), Lit::pos(1)},
                                    {~Lit::pos(0), Lit::pos(1)}};
  ASSERT_TRUE(reused.run(2, other));
  std::vector<sat::LBool> small(2, sat::LBool::kUndef);
  small[1] = sat::LBool::kTrue;
  reused.extend_model(small);  // must not index vars 2..4 of the old run
  EXPECT_EQ(small[1], sat::LBool::kTrue);
}

// Triangle interaction graph on a 1x3 line: the canonical needs-a-SWAP
// instance used across the test suite (certify_test, serve_test).
circuit::Circuit triangle() {
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  return c;
}

TEST(ModelReuse, BoundRequestsAreIdempotentAndSolvesDeterministic) {
  const auto circ = triangle();
  const auto dev = device::grid(1, 3);
  const layout::Problem problem{&circ, &dev, 1};
  layout::Model model(problem, /*t_ub=*/6, layout::EncodingConfig{});

  const Lit d4 = model.depth_bound(4);
  const Lit s1 = model.swap_bound(1);
  const auto vars_after_first = model.solver().num_vars();

  // Re-requesting the same bounds must hit the cache, not mint variables.
  EXPECT_EQ(model.depth_bound(4), d4);
  EXPECT_EQ(model.swap_bound(1), s1);
  EXPECT_EQ(model.solver().num_vars(), vars_after_first);

  const std::vector<Lit> assumptions{d4, s1};
  const sat::LBool first = model.solver().solve(assumptions);
  ASSERT_EQ(first, sat::LBool::kTrue);
  const layout::Result r1 = model.extract();
  ASSERT_TRUE(r1.solved);

  // Same model, same assumptions, again: the incremental solver keeps its
  // learnt clauses but the verdict and objectives must not drift.
  const sat::LBool second = model.solver().solve(assumptions);
  ASSERT_EQ(second, sat::LBool::kTrue);
  const layout::Result r2 = model.extract();
  EXPECT_EQ(r2.depth, r1.depth);
  EXPECT_EQ(r2.swap_count, r1.swap_count);
  EXPECT_EQ(model.solver().num_vars(), vars_after_first);
}

}  // namespace
}  // namespace olsq2
