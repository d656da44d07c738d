#include "fuzz/oracles.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "astar/astar.h"
#include "bengen/rng.h"
#include "circuit/dependency.h"
#include "fuzz/metamorphic.h"
#include "fuzz/refsolver.h"
#include "layout/export.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "plan/plan.h"
#include "sabre/sabre.h"
#include "sat/drat_check.h"
#include "sat/proof.h"
#include "sat/solver.h"
#include "serve/batch.h"
#include "serve/canonical.h"
#include "subarch/extract.h"
#include "subarch/library.h"
#include "subarch/solve.h"

namespace olsq2::fuzz {

namespace {

// Wall-clock guard per optimizer call: fuzzed instances are tiny, so a
// budget expiry signals an anomaly worth flagging but is reported as its
// own error class (never silently treated as agreement).
constexpr double kBudgetMs = 30000.0;

std::string describe(const Instance& instance) {
  std::ostringstream out;
  out << instance.circuit.label() << " on " << instance.device.name() << "("
      << instance.device.num_qubits() << "q/" << instance.device.num_edges()
      << "e) S_D=" << instance.swap_duration << " seed=" << instance.seed;
  return out.str();
}

void check_verified(OracleReport& report, const layout::Problem& problem,
                    const layout::Result& result, const std::string& what) {
  const layout::Verdict verdict =
      result.transition_based ? layout::verify_transition_based(problem, result)
                              : layout::verify(problem, result);
  if (!verdict.ok) {
    std::ostringstream out;
    out << what << ": verifier rejected the decoded result:";
    for (const std::string& e : verdict.errors) out << " [" << e << "]";
    report.fail(out.str());
  }
}

}  // namespace

OracleReport check_encoding_differential(const Instance& instance) {
  OracleReport report;
  report.oracle = "encoding_differential";
  const layout::Problem problem = instance.problem();
  const circuit::DependencyGraph deps(instance.circuit);
  const int horizon = deps.default_upper_bound() + 2;

  // A compact but representative slice of the configuration matrix: both
  // formulations, both FD-variable encodings, all injectivity styles, all
  // cardinality encoders appear at least once.
  std::vector<layout::EncodingConfig> configs(8);
  configs[1].injectivity = layout::InjectivityEncoding::kChanneling;
  configs[2].injectivity = layout::InjectivityEncoding::kAmoPerQubit;
  configs[3].vars = layout::VarEncoding::kOneHot;
  configs[4].cardinality = layout::CardEncoding::kSeqCounter;
  configs[5].cardinality = layout::CardEncoding::kAdder;
  configs[6].formulation = layout::Formulation::kOlsqBaseline;
  configs[7].formulation = layout::Formulation::kOlsqBaseline;
  configs[7].vars = layout::VarEncoding::kOneHot;
  configs[7].injectivity = layout::InjectivityEncoding::kChanneling;
  configs[7].cardinality = layout::CardEncoding::kSeqCounter;

  // swap_bound -1 = satisfiability at the horizon with no SWAP budget.
  for (int bound = -1; bound <= 2; ++bound) {
    int reference = -1;  // 0 = UNSAT, 1 = SAT
    std::string reference_label;
    for (const layout::EncodingConfig& config : configs) {
      const layout::Result r =
          layout::solve_fixed(problem, horizon, bound, config);
      if (r.hit_budget) {
        report.fail(describe(instance) + ": " + config.label() +
                    " bound=" + std::to_string(bound) + ": budget expired");
        continue;
      }
      if (r.solved) {
        check_verified(report, problem, r,
                       describe(instance) + ": " + config.label() +
                           " bound=" + std::to_string(bound));
        if (bound >= 0 && r.swap_count > bound) {
          report.fail(describe(instance) + ": " + config.label() +
                      ": solution uses " + std::to_string(r.swap_count) +
                      " swaps over bound " + std::to_string(bound));
        }
      }
      const int verdict = r.solved ? 1 : 0;
      if (reference < 0) {
        reference = verdict;
        reference_label = config.label();
      } else if (verdict != reference) {
        report.fail(describe(instance) + ": bound=" + std::to_string(bound) +
                    ": " + config.label() + " says " +
                    (r.solved ? "SAT" : "UNSAT") + " but " + reference_label +
                    " said the opposite");
      }
    }
  }
  return report;
}

OracleReport check_engine_differential(const Instance& instance) {
  OracleReport report;
  report.oracle = "engine_differential";
  const layout::Problem problem = instance.problem();
  const circuit::DependencyGraph deps(instance.circuit);

  layout::OptimizerOptions options;
  options.time_budget_ms = kBudgetMs;

  const layout::Result depth_opt =
      layout::synthesize_depth_optimal(problem, {}, options);
  if (!depth_opt.solved) {
    report.fail(describe(instance) + ": depth-optimal synthesis failed" +
                (depth_opt.hit_budget ? " (budget)" : ""));
    return report;
  }
  check_verified(report, problem, depth_opt, describe(instance) + ": depth-opt");
  if (depth_opt.depth < deps.longest_chain()) {
    report.fail(describe(instance) + ": optimal depth " +
                std::to_string(depth_opt.depth) +
                " below the dependency lower bound " +
                std::to_string(deps.longest_chain()));
  }

  const layout::Result swap_opt =
      layout::synthesize_swap_optimal(problem, {}, options);
  if (!swap_opt.solved) {
    report.fail(describe(instance) + ": swap-optimal synthesis failed" +
                (swap_opt.hit_budget ? " (budget)" : ""));
    return report;
  }
  check_verified(report, problem, swap_opt, describe(instance) + ": swap-opt");
  if (swap_opt.swap_count > depth_opt.swap_count) {
    report.fail(describe(instance) + ": swap-optimal sweep found " +
                std::to_string(swap_opt.swap_count) +
                " swaps, worse than the depth-first pass's " +
                std::to_string(depth_opt.swap_count));
  }

  const layout::Result tb = layout::tb_synthesize_swap_optimal(problem, {}, options);
  if (!tb.solved) {
    report.fail(describe(instance) + ": TB synthesis failed" +
                (tb.hit_budget ? " (budget)" : ""));
    return report;
  }
  check_verified(report, problem, tb, describe(instance) + ": TB");
  // The TB relaxation can only need fewer or equal SWAPs than any
  // time-resolved solution.
  if (tb.swap_count > swap_opt.swap_count) {
    report.fail(describe(instance) + ": TB swap count " +
                std::to_string(tb.swap_count) + " exceeds time-resolved " +
                std::to_string(swap_opt.swap_count));
  }
  // Expansion back to a concrete schedule must satisfy the strict verifier
  // and preserve the SWAP count.
  const layout::Result expanded = layout::expand_transition_result(problem, tb);
  check_verified(report, problem, expanded, describe(instance) + ": TB-expanded");
  if (expanded.swap_count != tb.swap_count) {
    report.fail(describe(instance) + ": TB expansion changed the swap count");
  }

  // Heuristic engines give upper bounds for the exact optima.
  const sabre::SabreResult heuristic = sabre::route(problem);
  if (tb.swap_count > heuristic.swap_count) {
    report.fail(describe(instance) + ": TB swap count " +
                std::to_string(tb.swap_count) + " exceeds SABRE's " +
                std::to_string(heuristic.swap_count));
  }
  if (depth_opt.depth > heuristic.depth) {
    report.fail(describe(instance) + ": optimal depth " +
                std::to_string(depth_opt.depth) + " exceeds SABRE's routed " +
                std::to_string(heuristic.depth));
  }
  const astar::AstarResult astar_result = astar::route(problem);
  if (tb.swap_count > astar_result.swap_count) {
    report.fail(describe(instance) + ": TB swap count " +
                std::to_string(tb.swap_count) + " exceeds A*'s " +
                std::to_string(astar_result.swap_count));
  }
  if (depth_opt.depth > astar_result.depth) {
    report.fail(describe(instance) + ": optimal depth " +
                std::to_string(depth_opt.depth) + " exceeds A*'s routed " +
                std::to_string(astar_result.depth));
  }
  return report;
}

OracleReport check_metamorphic(const Instance& instance, std::uint64_t seed) {
  OracleReport report;
  report.oracle = "metamorphic";
  bengen::Rng rng(seed);
  layout::OptimizerOptions options;
  options.time_budget_ms = kBudgetMs;

  const auto objectives = [&](const Instance& inst, int& depth, int& swaps,
                              const std::string& what) {
    const layout::Problem p = inst.problem();
    const layout::Result d = layout::synthesize_depth_optimal(p, {}, options);
    const layout::Result s = layout::tb_synthesize_swap_optimal(p, {}, options);
    if (!d.solved || !s.solved) {
      report.fail(describe(instance) + ": " + what + ": synthesis failed");
      return false;
    }
    check_verified(report, p, d, describe(instance) + ": " + what + " depth");
    check_verified(report, p, s, describe(instance) + ": " + what + " swap");
    depth = d.depth;
    swaps = s.swap_count;
    return true;
  };

  int base_depth = 0;
  int base_swaps = 0;
  if (!objectives(instance, base_depth, base_swaps, "base")) return report;

  struct Variant {
    std::string name;
    Instance instance;
    int expected_depth_delta;
  };
  std::vector<Variant> variants;
  variants.push_back({"relabel_program", relabel_program_qubits(instance, rng), 0});
  variants.push_back({"relabel_physical", relabel_physical_qubits(instance, rng), 0});
  variants.push_back({"commuting_reorder", commuting_reorder(instance, rng), 0});
  variants.push_back({"reverse", reverse_circuit(instance), 0});
  if (instance.swap_duration == 1) {
    // The depth+1 relation is exact only for S_D = 1 (DESIGN.md §9).
    variants.push_back({"pad_front_layer", pad_front_layer(instance), 1});
  }

  for (const Variant& v : variants) {
    int depth = 0;
    int swaps = 0;
    if (!objectives(v.instance, depth, swaps, v.name)) continue;
    if (depth != base_depth + v.expected_depth_delta) {
      report.fail(describe(instance) + ": " + v.name + ": optimal depth " +
                  std::to_string(depth) + " != expected " +
                  std::to_string(base_depth + v.expected_depth_delta));
    }
    if (swaps != base_swaps) {
      report.fail(describe(instance) + ": " + v.name + ": TB swap count " +
                  std::to_string(swaps) + " != base " +
                  std::to_string(base_swaps));
    }
  }
  return report;
}

OracleReport check_sat_core(std::uint64_t seed) {
  OracleReport report;
  report.oracle = "sat_core";
  const sat::DimacsProblem cnf = random_cnf(seed);

  sat::Proof proof;
  sat::Solver solver;
  solver.set_proof(&proof);
  for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
  for (const sat::Clause& clause : cnf.clauses) {
    solver.add_clause(clause);
  }
  const sat::LBool cdcl = solver.solve();

  const sat::LBool reference = dpll_solve(cnf.num_vars, cnf.clauses);
  if (cdcl == sat::LBool::kUndef) {
    report.fail("sat_core seed=" + std::to_string(seed) +
                ": CDCL returned kUndef with no budget set");
    return report;
  }
  if (cdcl != reference) {
    report.fail("sat_core seed=" + std::to_string(seed) + ": CDCL says " +
                (cdcl == sat::LBool::kTrue ? "SAT" : "UNSAT") +
                " but reference DPLL disagrees");
    return report;
  }
  if (cdcl == sat::LBool::kTrue) {
    std::vector<bool> model(cnf.num_vars, false);
    for (int v = 0; v < cnf.num_vars; ++v) {
      model[v] = solver.model_value(static_cast<sat::Var>(v)) == sat::LBool::kTrue;
    }
    if (!model_satisfies(cnf.clauses, model)) {
      report.fail("sat_core seed=" + std::to_string(seed) +
                  ": CDCL model does not satisfy the formula");
    }
  } else {
    const sat::DratCheckResult drat = sat::check_drat(cnf.clauses, proof);
    if (!drat.all_steps_valid || !drat.proves_unsat) {
      report.fail("sat_core seed=" + std::to_string(seed) +
                  ": UNSAT answer lacks a valid DRAT proof (first invalid "
                  "step " +
                  std::to_string(drat.first_invalid_step) + ")");
    }
  }
  return report;
}

OracleReport check_inprocess(std::uint64_t seed) {
  OracleReport report;
  report.oracle = "inprocess";
  // Larger formulas than check_sat_core: the reference here is another CDCL
  // solver (not exponential DPLL), and the passes need clauses to chew on.
  // No unit clauses: with them, clause_ratio 4.3 makes nearly every formula
  // UNSAT at the root before inprocessing ever runs, and the oracle (and the
  // injected-bug self-test) would exercise nothing. Lengths 2-4 around the
  // phase-transition ratio give a SAT/UNSAT mix with real search and plenty
  // of size->=3 vivification targets.
  RandomCnfOptions options;
  options.min_vars = 10;
  options.max_vars = 40;
  options.min_clause_len = 2;
  options.max_clause_len = 4;
  const sat::DimacsProblem cnf = random_cnf(seed ^ 0x1297c0deULL, options);

  sat::Solver plain;
  plain.set_inprocessing(false);
  for (int v = 0; v < cnf.num_vars; ++v) plain.new_var();
  for (const sat::Clause& clause : cnf.clauses) plain.add_clause(clause);
  const sat::LBool verdict_plain = plain.solve();

  sat::Proof proof;
  sat::Solver inproc;
  inproc.set_proof(&proof);
  inproc.set_inprocessing(true);
  inproc.set_inprocess_schedule(/*first_conflicts=*/0, /*interval=*/16);
  for (int v = 0; v < cnf.num_vars; ++v) inproc.new_var();
  for (const sat::Clause& clause : cnf.clauses) inproc.add_clause(clause);
  // Force at least one round even when the instance solves without
  // conflicts - the injected-bug self-test relies on the passes running.
  inproc.inprocess();
  const sat::LBool verdict_inproc = inproc.solve();

  const auto verdict_name = [](sat::LBool v) {
    return v == sat::LBool::kTrue    ? "SAT"
           : v == sat::LBool::kFalse ? "UNSAT"
                                     : "UNDEF";
  };
  if (verdict_plain == sat::LBool::kUndef ||
      verdict_inproc == sat::LBool::kUndef) {
    report.fail("inprocess seed=" + std::to_string(seed) +
                ": kUndef with no budget set");
    return report;
  }
  if (verdict_plain != verdict_inproc) {
    report.fail("inprocess seed=" + std::to_string(seed) +
                ": inprocessing flipped the verdict (off=" +
                verdict_name(verdict_plain) +
                " on=" + verdict_name(verdict_inproc) + ")");
    return report;
  }
  if (verdict_inproc == sat::LBool::kTrue) {
    for (const sat::Solver* solver : {&plain, &inproc}) {
      std::vector<bool> model(cnf.num_vars, false);
      for (int v = 0; v < cnf.num_vars; ++v) {
        model[v] =
            solver->model_value(static_cast<sat::Var>(v)) == sat::LBool::kTrue;
      }
      if (!model_satisfies(cnf.clauses, model)) {
        report.fail("inprocess seed=" + std::to_string(seed) + ": " +
                    (solver == &plain ? "plain" : "inprocessing") +
                    " model does not satisfy the original formula");
      }
    }
  } else {
    // The proof must cover every inprocessing rewrite (adds before deletes,
    // all RUP) down to the empty clause.
    const sat::DratCheckResult drat = sat::check_drat(cnf.clauses, proof);
    if (!drat.all_steps_valid || !drat.proves_unsat) {
      report.fail("inprocess seed=" + std::to_string(seed) +
                  ": UNSAT answer with inprocessing lacks a valid DRAT "
                  "proof (first invalid step " +
                  std::to_string(drat.first_invalid_step) + ")");
    }
  }
  return report;
}

OracleReport check_cache(const Instance& instance, std::uint64_t seed) {
  OracleReport report;
  report.oracle = "cache";
  bengen::Rng rng(seed ^ 0x5e12eULL);

  struct Variant {
    std::string name;
    Instance instance;
  };
  std::vector<Variant> variants;
  variants.push_back({"relabel_program", relabel_program_qubits(instance, rng)});
  variants.push_back(
      {"relabel_physical", relabel_physical_qubits(instance, rng)});
  variants.push_back({"commuting_reorder", commuting_reorder(instance, rng)});

  serve::Server server;  // memory-only cache
  serve::Request base_request;
  base_request.circuit = &instance.circuit;
  base_request.device = &instance.device;
  base_request.swap_duration = instance.swap_duration;
  base_request.engine = serve::Engine::kSwap;
  base_request.options.time_budget_ms = kBudgetMs;

  const serve::Response cold = server.serve(base_request);
  if (!cold.result.solved || cold.result.hit_budget) {
    report.fail(describe(instance) + ": cache: cold solve failed" +
                (cold.result.hit_budget ? " (budget)" : ""));
    return report;
  }
  if (cold.cache_hit) {
    report.fail(describe(instance) +
                ": cache: hit reported against an empty cache");
  }
  check_verified(report, instance.problem(), cold.result,
                 describe(instance) + ": cache cold");

  for (const Variant& v : variants) {
    serve::Request request = base_request;
    request.circuit = &v.instance.circuit;
    request.device = &v.instance.device;
    request.swap_duration = v.instance.swap_duration;
    const serve::Response warm = server.serve(request);
    if (!warm.result.solved) {
      report.fail(describe(instance) + ": cache: " + v.name +
                  ": warm solve failed");
      continue;
    }
    // Exact canonical searches guarantee key collision for genuinely
    // equivalent instances; a miss there means the canonical form is not
    // invariant under the transform - exactly the bug class this oracle
    // exists to catch.
    if (cold.canonical_exact && warm.canonical_exact && !warm.cache_hit) {
      report.fail(describe(instance) + ": cache: " + v.name +
                  ": canonical keys failed to collide (" + cold.key +
                  " vs " + warm.key + ")");
    }
    // The un-relabeled cached result must be a valid layout for the
    // *variant* instance, and its objectives must agree with what a cold
    // solve of the variant would find (metamorphic invariance).
    check_verified(report, v.instance.problem(), warm.result,
                   describe(instance) + ": cache: " + v.name + " (warm)");
    if (warm.result.depth != cold.result.depth ||
        warm.result.swap_count != cold.result.swap_count) {
      report.fail(describe(instance) + ": cache: " + v.name +
                  ": warm objectives (" + std::to_string(warm.result.depth) +
                  "," + std::to_string(warm.result.swap_count) +
                  ") != cold (" + std::to_string(cold.result.depth) + "," +
                  std::to_string(cold.result.swap_count) + ")");
    }
  }

  // Cold-vs-warm agreement: a fresh server (no cache to hit) solving a
  // variant from scratch must reproduce the objectives the warm path
  // answered from cache.
  serve::Server fresh;
  serve::Request request = base_request;
  request.circuit = &variants.front().instance.circuit;
  request.device = &variants.front().instance.device;
  request.swap_duration = variants.front().instance.swap_duration;
  const serve::Response recold = fresh.serve(request);
  if (!recold.result.solved || recold.result.hit_budget) {
    report.fail(describe(instance) + ": cache: variant cold solve failed");
  } else if (recold.result.depth != cold.result.depth ||
             recold.result.swap_count != cold.result.swap_count) {
    report.fail(describe(instance) +
                ": cache: cold-vs-warm objective mismatch: fresh solve found "
                "(" +
                std::to_string(recold.result.depth) + "," +
                std::to_string(recold.result.swap_count) + ") vs cached (" +
                std::to_string(cold.result.depth) + "," +
                std::to_string(cold.result.swap_count) + ")");
  }
  return report;
}

OracleReport check_plan(const Instance& instance) {
  OracleReport report;
  report.oracle = "plan";
  const layout::Problem problem = instance.problem();

  plan::PlanOptions popt;
  popt.time_budget_ms = kBudgetMs;
  const plan::PlanResult planned = plan::synthesize(problem, popt);
  if (!planned.solved) {
    report.fail(describe(instance) + ": plan: search failed" +
                (planned.hit_budget ? " (budget)" : ""));
    return report;
  }
  check_verified(report, problem, planned.layout, describe(instance) + ": plan");
  if (planned.layout.swap_count != planned.swap_count) {
    report.fail(describe(instance) +
                ": plan: layout swap count disagrees with the search (" +
                std::to_string(planned.layout.swap_count) + " vs " +
                std::to_string(planned.swap_count) + ")");
  }

  layout::OptimizerOptions options;
  options.time_budget_ms = kBudgetMs;
  const layout::Result tb =
      layout::tb_synthesize_swap_optimal(problem, {}, options);
  if (!tb.solved) {
    report.fail(describe(instance) + ": plan: TB reference failed" +
                (tb.hit_budget ? " (budget)" : ""));
    return report;
  }

  if (planned.optimal && planned.swap_count > tb.swap_count) {
    // TB found a valid (verified elsewhere) solution cheaper than what the
    // plan engine certified minimal: the certificate is wrong, i.e. the
    // heuristic overestimated or the search closed too early.
    report.fail(describe(instance) + ": plan: certified optimum " +
                std::to_string(planned.swap_count) +
                " exceeds TB-OLSQ2's swap count " +
                std::to_string(tb.swap_count) +
                " (inadmissible heuristic or unsound search)");
  }
  // TB claims a proof when it stopped on the block-compression bound: no
  // budget hit and no plateau (two equal SWAP counts) ending `pareto`.
  const std::size_t points = tb.pareto.size();
  const bool plateau = points >= 2 && tb.pareto[points - 1].second ==
                                          tb.pareto[points - 2].second;
  const bool tb_proven = !tb.hit_budget && points >= 1 && !plateau;
  if (tb_proven && tb.swap_count >= 1) {
    // Replay the query the plateau rule would have paid for and the bound
    // skipped: one more block, one SWAP fewer. It must not be SAT.
    const int blocks = tb.pareto.back().first + 1;
    const layout::Result skipped = layout::tb_solve_fixed(
        problem, blocks, tb.swap_count - 1, {}, kBudgetMs);
    if (skipped.hit_budget) {
      report.fail(describe(instance) + ": plan: replay of the skipped TB " +
                  "query blew the budget");
    } else if (skipped.solved) {
      report.fail(describe(instance) + ": plan: TB claims proven optimum " +
                  std::to_string(tb.swap_count) + " but tb_solve_fixed finds " +
                  std::to_string(skipped.swap_count) + " swaps at " +
                  std::to_string(blocks) +
                  " blocks (unsound compression bound)");
    }
  }
  if (report.ok && planned.swap_count < tb.swap_count && tb_proven) {
    // A verified plan solution below a proven TB optimum refutes the proof
    // outright; no plateau can explain it.
    report.fail(describe(instance) + ": plan: verified solution with " +
                std::to_string(planned.swap_count) +
                " swaps beats TB-OLSQ2's proven optimum " +
                std::to_string(tb.swap_count));
  } else if (report.ok && planned.swap_count < tb.swap_count) {
    // A machine-verified solution beat the SAT descent. TB's descent stops
    // at the first block relaxation that brings no SWAP improvement, so a
    // plateau-then-drop objective curve makes this legal - but then the
    // encoding itself must agree the cheaper solution exists. Arbitrate
    // with one fixed solve at the plan's bound: the plan solution uses one
    // block per SWAP, so swap_count+1 blocks suffice.
    const layout::Result arbiter = layout::tb_solve_fixed(
        problem, planned.swap_count + 1, planned.swap_count, {}, kBudgetMs);
    if (arbiter.hit_budget) {
      report.fail(describe(instance) + ": plan: arbitration solve at bound " +
                  std::to_string(planned.swap_count) + " blew the budget");
    } else if (!arbiter.solved) {
      report.fail(describe(instance) + ": plan: SAT encoding refuted: " +
                  "verified plan solution with " +
                  std::to_string(planned.swap_count) +
                  " swaps, but tb_solve_fixed says UNSAT at that bound (TB "
                  "optimum was " +
                  std::to_string(tb.swap_count) + ")");
    }
    // SAT: TB's patience rule stopped early on a plateau; not a bug.
  }

  // Heuristic engines bound the certified optimum from above. A* results
  // with greedy fallbacks are still upper bounds (astar.h), so this holds
  // unconditionally.
  if (planned.optimal) {
    const sabre::SabreResult heuristic = sabre::route(problem);
    if (planned.swap_count > heuristic.swap_count) {
      report.fail(describe(instance) + ": plan: certified optimum " +
                  std::to_string(planned.swap_count) + " exceeds SABRE's " +
                  std::to_string(heuristic.swap_count));
    }
    const astar::AstarResult routed = astar::route(problem);
    if (planned.swap_count > routed.swap_count) {
      report.fail(describe(instance) + ": plan: certified optimum " +
                  std::to_string(planned.swap_count) + " exceeds A*'s " +
                  std::to_string(routed.swap_count) +
                  (routed.optimal ? "" : " (upper bound only)"));
    }
  }

  // Budget-starved run: anytime incumbents must stay sound upper bounds
  // and must never claim certification.
  plan::PlanOptions starved;
  starved.max_expansions = 16;
  starved.time_budget_ms = kBudgetMs;
  const plan::PlanResult bounded = plan::synthesize(problem, starved);
  if (bounded.solved) {
    check_verified(report, problem, bounded.layout,
                   describe(instance) + ": plan (starved)");
    const int optimum = std::min(planned.swap_count, tb.swap_count);
    if (bounded.swap_count < optimum) {
      report.fail(describe(instance) + ": plan: budget-starved run claims " +
                  std::to_string(bounded.swap_count) +
                  " swaps, below the certified optimum " +
                  std::to_string(optimum));
    }
  }
  return report;
}

namespace {

/// Probe-engine equivalence: the ladder decides a probe with the planner or
/// a TB SAT call depending on its root count, so both must answer every
/// probe the same way. Asks both engines, on every class of every round up
/// to the certified k, whether the canonical subproblem admits <= k SWAPs.
void check_probe_engines(OracleReport& report, const Instance& instance,
                         int certified_k,
                         const subarch::ExtractOptions& extract) {
  const circuit::Circuit canon_circ = serve::apply_circuit_canon(
      instance.circuit, serve::canonicalize_circuit(instance.circuit));
  const int qubits = instance.circuit.num_qubits();
  plan::PlanOptions popt;
  popt.time_budget_ms = kBudgetMs;
  for (int k = 0; k <= certified_k; ++k) {
    const int size = std::min(qubits + k, instance.device.num_qubits());
    const subarch::Cover cover =
        subarch::ladder_cover(instance.device, size, extract);
    for (const subarch::CoverClass& cls : cover.classes) {
      const device::Device canon_dev =
          serve::apply_device_canon(cls.rep.device, cls.canon);
      const layout::Problem sub{&canon_circ, &canon_dev,
                                instance.swap_duration};
      const plan::PlanResult planned = plan::synthesize(sub, popt);
      const layout::Result tb =
          layout::tb_solve_fixed(sub, k + 1, k, {}, kBudgetMs);
      if (!planned.optimal || tb.hit_budget) continue;  // undecided
      const bool plan_sat = planned.solved && planned.swap_count <= k;
      if (plan_sat != tb.solved) {
        report.fail(describe(instance) + ": subarch: probe engines " +
                    "disagree at k=" + std::to_string(k) + " on a " +
                    std::to_string(canon_dev.num_qubits()) +
                    "-qubit class: plan optimum " +
                    (planned.solved ? std::to_string(planned.swap_count)
                                    : std::string("infeasible")) +
                    ", TB " + (tb.solved ? "SAT" : "UNSAT"));
      }
    }
  }
}

}  // namespace

OracleReport check_subarch(const Instance& instance, std::uint64_t seed) {
  OracleReport report;
  report.oracle = "subarch";
  const layout::Problem problem = instance.problem();

  // Fresh library per oracle run so the relabel-hit assertion below sees
  // exactly this instance's probes, not leftovers from earlier seeds.
  subarch::Library library;
  subarch::SubarchOptions subopts;
  subopts.min_device_qubits = 0;  // force the ladder onto the tiny device
  subopts.library = &library;

  layout::OptimizerOptions options;
  options.time_budget_ms = kBudgetMs;

  subarch::SubarchOutcome outcome;
  const layout::Result lifted = subarch::tb_synthesize_swap_optimal(
      problem, {}, options, subopts, &outcome);
  if (!lifted.solved) {
    report.fail(describe(instance) + ": subarch: lifted solve failed" +
                (lifted.hit_budget ? " (budget)" : "") +
                (outcome.fallback_reason.empty()
                     ? ""
                     : " [" + outcome.fallback_reason + "]"));
    return report;
  }
  check_verified(report, problem, lifted,
                 describe(instance) + ": subarch (lifted, full device)");

  const layout::Result direct =
      layout::tb_synthesize_swap_optimal(problem, {}, options);
  if (!direct.solved) {
    report.fail(describe(instance) + ": subarch: direct reference failed" +
                (direct.hit_budget ? " (budget)" : ""));
    return report;
  }
  if (lifted.swap_count != direct.swap_count) {
    report.fail(describe(instance) + ": subarch: lift-soundness violation: " +
                "lifted optimum " + std::to_string(lifted.swap_count) +
                " vs direct optimum " + std::to_string(direct.swap_count) +
                (outcome.certified
                     ? " (ladder certified, sub_qubits=" +
                           std::to_string(outcome.sub_qubits) + ")"
                     : " (direct fallback: " + outcome.fallback_reason + ")"));
  }

  if (outcome.certified) {
    check_probe_engines(report, instance, outcome.rounds - 1,
                        subopts.extract);
  }

  // Second certifying engine through the same ladder: the plan wrapper
  // re-solves the winning subdevice with A* and must land on the same
  // optimum (or fall back to the direct plan engine, which check_plan
  // already cross-checks against TB).
  plan::PlanOptions popt;
  popt.time_budget_ms = kBudgetMs;
  subarch::SubarchOutcome plan_outcome;
  const plan::PlanResult planned =
      subarch::plan_synthesize(problem, popt, subopts, &plan_outcome);
  if (!planned.solved) {
    report.fail(describe(instance) + ": subarch: plan wrapper failed" +
                (plan_outcome.fallback_reason.empty()
                     ? ""
                     : " [" + plan_outcome.fallback_reason + "]"));
  } else {
    check_verified(report, problem, planned.layout,
                   describe(instance) + ": subarch (plan, full device)");
    if (planned.optimal && planned.swap_count != direct.swap_count) {
      report.fail(describe(instance) +
                  ": subarch: plan wrapper certifies " +
                  std::to_string(planned.swap_count) +
                  " swaps, direct TB optimum is " +
                  std::to_string(direct.swap_count));
    }
  }

  // Canonical-keying soundness. A physical relabeling is an isomorphic
  // device, so (a) its size-|Q| cover must consist of exactly the same
  // canonical class keys, and (b) when every canonical form involved is
  // exact, its ladder must answer round-0 probes from the shared library.
  bengen::Rng rng(seed);
  const Instance variant = relabel_physical_qubits(instance, rng);
  const int m = instance.circuit.num_qubits();
  if (m >= 2 && m <= instance.device.num_qubits()) {
    const subarch::Cover cover_a = subarch::enumerate_cover(instance.device, m);
    const subarch::Cover cover_b = subarch::enumerate_cover(variant.device, m);
    if (cover_a.complete && cover_b.complete) {
      std::vector<std::string> keys_a, keys_b;
      for (const auto& cls : cover_a.classes) keys_a.push_back(cls.canon.key);
      for (const auto& cls : cover_b.classes) keys_b.push_back(cls.canon.key);
      std::sort(keys_a.begin(), keys_a.end());
      std::sort(keys_b.begin(), keys_b.end());
      if (keys_a != keys_b) {
        report.fail(describe(instance) + ": subarch: relabeled device's " +
                    "size-" + std::to_string(m) + " cover diverged (" +
                    std::to_string(keys_a.size()) + " vs " +
                    std::to_string(keys_b.size()) +
                    " classes / key mismatch): canonical keying is not " +
                    "isomorphism-invariant");
      }
    }
  }

  const subarch::Library::Stats before = library.stats();
  subarch::SubarchOutcome again;
  const layout::Result relifted = subarch::tb_synthesize_swap_optimal(
      variant.problem(), {}, options, subopts, &again);
  if (!relifted.solved) {
    report.fail(describe(instance) +
                ": subarch: relabeled variant's solve failed");
    return report;
  }
  check_verified(report, variant.problem(), relifted,
                 describe(instance) + ": subarch (relabeled, full device)");
  if (relifted.swap_count != direct.swap_count) {
    report.fail(describe(instance) + ": subarch: relabeled optimum " +
                std::to_string(relifted.swap_count) +
                " differs from the original's " +
                std::to_string(direct.swap_count));
  }
  if (outcome.certified && again.certified && outcome.rounds == 1 &&
      serve::canonicalize_circuit(instance.circuit).exact) {
    // Both ladders closed at k=0, so every probe key is (exact circuit
    // canon) x (exact class canon from the compared covers): the relabeled
    // run must have found its answers in the library.
    const subarch::Library::Stats after = library.stats();
    if (after.hits <= before.hits) {
      report.fail(describe(instance) + ": subarch: relabeled device " +
                  "missed the probe library entirely (" +
                  std::to_string(after.misses - before.misses) +
                  " misses): canonical keys are not shared across " +
                  "isomorphic devices");
    }
  }
  return report;
}

OracleReport check_instance(const Instance& instance, std::uint64_t seed) {
  OracleReport report = check_encoding_differential(instance);
  if (!report.ok) return report;
  report = check_engine_differential(instance);
  if (!report.ok) return report;
  report = check_metamorphic(instance, seed);
  if (!report.ok) return report;
  report = check_cache(instance, seed);
  if (!report.ok) return report;
  report = check_plan(instance);
  if (!report.ok) return report;
  return check_subarch(instance, seed);
}

}  // namespace olsq2::fuzz
