// Unit + property tests for the CDCL SAT solver.
#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sat/luby.h"
#include "sat/solver.h"
#include "sat/types.h"

namespace olsq2::sat {
namespace {

using Cnf = std::vector<std::vector<Lit>>;

// Exhaustive reference check: is the CNF satisfiable over n variables?
bool brute_force_sat(int n, const Cnf& cnf) {
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool all = true;
    for (const auto& clause : cnf) {
      bool any = false;
      for (const Lit l : clause) {
        const bool v = ((mask >> l.var()) & 1) != 0;
        if (v != l.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

bool model_satisfies(const Solver& s, const Cnf& cnf) {
  for (const auto& clause : cnf) {
    bool any = false;
    for (const Lit l : clause) {
      if (s.model_value(l) == LBool::kTrue) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

TEST(Luby, PrefixMatchesDefinition) {
  const std::vector<std::uint64_t> expect = {1, 1, 2, 1, 1, 2, 4, 1, 1,
                                             2, 1, 1, 2, 4, 8, 1};
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(luby(i), expect[i]) << "index " << i;
  }
}

TEST(LitPacking, RoundTrips) {
  const Lit a = Lit::pos(7);
  EXPECT_EQ(a.var(), 7);
  EXPECT_FALSE(a.sign());
  EXPECT_EQ((~a).var(), 7);
  EXPECT_TRUE((~a).sign());
  EXPECT_EQ(~~a, a);
  EXPECT_EQ(Lit::from_code(a.code()), a);
}

TEST(SolverBasic, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverBasic, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit::pos(v)}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(v), LBool::kTrue);
}

TEST(SolverBasic, ConflictingUnitsAreUnsat) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit::pos(v)}));
  EXPECT_FALSE(s.add_clause({Lit::neg(v)}));
  EXPECT_EQ(s.solve(), LBool::kFalse);
  EXPECT_FALSE(s.okay());
}

TEST(SolverBasic, TautologyIsIgnored) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit::pos(v), Lit::neg(v)}));
  EXPECT_EQ(s.num_clauses(), 0);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverBasic, DuplicateLiteralsCollapse) {
  Solver s;
  const Var v = s.new_var();
  const Var w = s.new_var();
  EXPECT_TRUE(s.add_clause({Lit::pos(v), Lit::pos(v), Lit::pos(w)}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverBasic, SimpleImplicationChain) {
  // x0 -> x1 -> ... -> x9, with x0 forced true and ~x9: UNSAT.
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 10; ++i) x.push_back(s.new_var());
  ASSERT_TRUE(s.add_clause({Lit::pos(x[0])}));
  for (int i = 0; i + 1 < 10; ++i) {
    ASSERT_TRUE(s.add_clause({Lit::neg(x[i]), Lit::pos(x[i + 1])}));
  }
  EXPECT_EQ(s.solve(), LBool::kTrue);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.model_value(x[i]), LBool::kTrue);
  s.add_clause({Lit::neg(x[9])});
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

// Pigeonhole principle PHP(n+1, n) is a classic hard UNSAT family.
void add_pigeonhole(Solver& s, int pigeons, int holes,
                    std::vector<std::vector<Var>>& p) {
  p.assign(pigeons, std::vector<Var>(holes));
  for (int i = 0; i < pigeons; ++i)
    for (int j = 0; j < holes; ++j) p[i][j] = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < holes; ++j) clause.push_back(Lit::pos(p[i][j]));
    s.add_clause(clause);
  }
  for (int j = 0; j < holes; ++j)
    for (int i = 0; i < pigeons; ++i)
      for (int k = i + 1; k < pigeons; ++k)
        s.add_clause({Lit::neg(p[i][j]), Lit::neg(p[k][j])});
}

TEST(SolverHard, PigeonholeUnsat) {
  for (int n = 2; n <= 6; ++n) {
    Solver s;
    std::vector<std::vector<Var>> p;
    add_pigeonhole(s, n + 1, n, p);
    EXPECT_EQ(s.solve(), LBool::kFalse) << "PHP(" << n + 1 << "," << n << ")";
  }
}

TEST(SolverHard, PigeonholeExactFitSat) {
  Solver s;
  std::vector<std::vector<Var>> p;
  add_pigeonhole(s, 5, 5, p);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverAssumptions, AssumptionFlipsResult) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit::pos(a), Lit::pos(b)}));
  const Lit na = Lit::neg(a), nb = Lit::neg(b);
  const std::vector<Lit> both = {na, nb};
  EXPECT_EQ(s.solve(both), LBool::kFalse);
  // Solver must remain usable after an assumption-UNSAT answer.
  EXPECT_TRUE(s.okay());
  const std::vector<Lit> one = {na};
  EXPECT_EQ(s.solve(one), LBool::kTrue);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverAssumptions, ContradictoryAssumptions) {
  Solver s;
  const Var a = s.new_var();
  const std::vector<Lit> contra = {Lit::pos(a), Lit::neg(a)};
  EXPECT_EQ(s.solve(contra), LBool::kFalse);
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverIncremental, ClausesBetweenSolves) {
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 8; ++i) x.push_back(s.new_var());
  // At least one of each pair.
  for (int i = 0; i < 8; i += 2)
    ASSERT_TRUE(s.add_clause({Lit::pos(x[i]), Lit::pos(x[i + 1])}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  // Progressively forbid positives; stays SAT until fully blocked.
  for (int i = 0; i < 8; i += 2) {
    s.add_clause({Lit::neg(x[i])});
    EXPECT_EQ(s.solve(), LBool::kTrue) << "after forbidding x" << i;
    EXPECT_EQ(s.model_value(x[i + 1]), LBool::kTrue);
  }
  s.add_clause({Lit::neg(x[1])});
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(SolverIncremental, NewVarsBetweenSolves) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit::pos(a)}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({Lit::neg(a), Lit::pos(b)}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
}

TEST(SolverBudget, ConflictBudgetReturnsUndef) {
  Solver s;
  std::vector<std::vector<Var>> p;
  add_pigeonhole(s, 9, 8, p);  // hard enough to exceed a tiny budget
  s.set_conflict_budget(10);
  EXPECT_EQ(s.solve(), LBool::kUndef);
  s.clear_budgets();
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

// Property test: random 3-SAT instances cross-checked against brute force.
class RandomCnfTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  std::mt19937 rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const int n = 4 + static_cast<int>(rng() % 10);          // 4..13 vars
    const int m = static_cast<int>(n * (3.0 + (rng() % 30) / 10.0));  // ratio 3..6
    Cnf cnf;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.emplace_back(static_cast<Var>(rng() % n), (rng() & 1) != 0);
      }
      cnf.push_back(clause);
    }
    Solver s;
    for (int i = 0; i < n; ++i) s.new_var();
    bool ok = true;
    for (const auto& clause : cnf) ok = s.add_clause(clause) && ok;
    const bool expected = brute_force_sat(n, cnf);
    if (!ok) {
      EXPECT_FALSE(expected);
      continue;
    }
    const LBool got = s.solve();
    ASSERT_NE(got, LBool::kUndef);
    EXPECT_EQ(got == LBool::kTrue, expected) << "n=" << n << " m=" << m;
    if (got == LBool::kTrue) {
      EXPECT_TRUE(model_satisfies(s, cnf));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// Property: incremental solving (adding clauses one batch at a time with a
// solve() in between) must agree with solving the whole formula at once.
class IncrementalEquivalenceTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(IncrementalEquivalenceTest, MatchesMonolithic) {
  std::mt19937 rng(GetParam() * 7919u);
  for (int round = 0; round < 15; ++round) {
    const int n = 5 + static_cast<int>(rng() % 8);
    const int m = 4 * n;
    Cnf cnf;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k)
        clause.emplace_back(static_cast<Var>(rng() % n), (rng() & 1) != 0);
      cnf.push_back(clause);
    }
    Solver inc;
    for (int i = 0; i < n; ++i) inc.new_var();
    bool inc_ok = true;
    LBool inc_result = LBool::kTrue;
    for (std::size_t c = 0; c < cnf.size(); ++c) {
      inc_ok = inc.add_clause(cnf[c]) && inc_ok;
      if (c % 7 == 6 && inc_ok) inc_result = inc.solve();
      if (!inc_ok) break;
    }
    if (inc_ok) inc_result = inc.solve();
    const bool expected = brute_force_sat(n, cnf);
    const bool got = inc_ok && inc_result == LBool::kTrue;
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Values(1u, 2u, 4u, 6u));

// Property: solving under assumptions {l} must match solving with l added
// as a unit clause, for random instances and random assumption sets.
class AssumptionEquivalenceTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AssumptionEquivalenceTest, MatchesUnitClauses) {
  std::mt19937 rng(GetParam() * 104729u);
  for (int round = 0; round < 15; ++round) {
    const int n = 6 + static_cast<int>(rng() % 6);
    const int m = 3 * n;
    Cnf cnf;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k)
        clause.emplace_back(static_cast<Var>(rng() % n), (rng() & 1) != 0);
      cnf.push_back(clause);
    }
    std::vector<Lit> assumps;
    const int num_assumps = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < num_assumps; ++k)
      assumps.emplace_back(static_cast<Var>(rng() % n), (rng() & 1) != 0);

    Solver with_assumps;
    for (int i = 0; i < n; ++i) with_assumps.new_var();
    bool ok1 = true;
    for (const auto& clause : cnf) ok1 = with_assumps.add_clause(clause) && ok1;

    Solver with_units;
    for (int i = 0; i < n; ++i) with_units.new_var();
    bool ok2 = true;
    for (const auto& clause : cnf) ok2 = with_units.add_clause(clause) && ok2;
    for (const Lit l : assumps) ok2 = with_units.add_clause({l}) && ok2;

    const bool r1 = ok1 && with_assumps.solve(assumps) == LBool::kTrue;
    const bool r2 = ok2 && with_units.solve() == LBool::kTrue;
    EXPECT_EQ(r1, r2);
    // The assumption solver must stay reusable regardless of the answer.
    if (ok1) {
      EXPECT_EQ(with_assumps.solve() == LBool::kTrue, brute_force_sat(n, cnf));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssumptionEquivalenceTest,
                         ::testing::Values(3u, 9u, 27u, 81u));

TEST(SolverStats, CountersAdvance) {
  Solver s;
  std::vector<std::vector<Var>> p;
  add_pigeonhole(s, 7, 6, p);
  ASSERT_EQ(s.solve(), LBool::kFalse);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_EQ(s.stats().solve_calls, 1u);
}

TEST(SolverStress, ClauseDbIsReducedOnLongRuns) {
  // A hard instance must trigger restarts and learnt-clause deletion, and
  // the answer must still be correct.
  Solver s;
  std::vector<std::vector<Var>> p;
  add_pigeonhole(s, 9, 8, p);
  ASSERT_EQ(s.solve(), LBool::kFalse);
  EXPECT_GT(s.stats().restarts, 0u);
  EXPECT_GT(s.stats().learnt_clauses, 1000u);
  EXPECT_GT(s.stats().removed_clauses, 0u);
  EXPECT_GT(s.stats().minimized_literals, 0u);
}

TEST(SolverStress, RestartPoliciesAgreeOnAnswers) {
  for (const auto policy :
       {Solver::RestartPolicy::kLuby, Solver::RestartPolicy::kGlucose,
        Solver::RestartPolicy::kAlternating}) {
    Solver unsat_solver;
    unsat_solver.set_restart_policy(policy);
    std::vector<std::vector<Var>> p;
    add_pigeonhole(unsat_solver, 6, 5, p);
    EXPECT_EQ(unsat_solver.solve(), LBool::kFalse);

    Solver sat_solver;
    sat_solver.set_restart_policy(policy);
    std::vector<std::vector<Var>> q;
    add_pigeonhole(sat_solver, 6, 6, q);
    EXPECT_EQ(sat_solver.solve(), LBool::kTrue);
  }
}

TEST(SolverPolarity, InitialPhaseIsHonoredWhenFree) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  // No constraints relate a and b; suggested phases should surface.
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  s.set_polarity(a, true);
  s.set_polarity(b, true);
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(a), LBool::kTrue);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
}

TEST(SolverVsids, SeedZeroIsANoOp) {
  Solver a;
  Solver b;
  std::vector<std::vector<Var>> pa;
  std::vector<std::vector<Var>> pb;
  add_pigeonhole(a, 5, 5, pa);
  add_pigeonhole(b, 5, 5, pb);
  a.set_vsids_seed(0);
  b.set_vsids_seed(0);
  EXPECT_EQ(a.solve(), LBool::kTrue);
  EXPECT_EQ(b.solve(), LBool::kTrue);
  EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
  EXPECT_EQ(a.stats().decisions, b.stats().decisions);
}

TEST(SolverVsids, SeedIsReproducible) {
  const auto run = [](std::uint64_t seed) {
    Solver s;
    std::vector<std::vector<Var>> p;
    add_pigeonhole(s, 6, 5, p);
    s.set_vsids_seed(seed);
    EXPECT_EQ(s.solve(), LBool::kFalse);
    return s.stats().decisions;
  };
  EXPECT_EQ(run(42), run(42));
}

}  // namespace
}  // namespace olsq2::sat
