#include "layout/olsq2.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "sat/exchange.h"

namespace olsq2::layout {

namespace {

using Clock = std::chrono::steady_clock;

/// Tracks the optimizer's wall-clock budget across SAT calls.
class BudgetClock {
 public:
  explicit BudgetClock(double budget_ms)
      : start_(Clock::now()), budget_ms_(budget_ms) {}

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  bool expired() const {
    return budget_ms_ > 0 && elapsed_ms() >= budget_ms_;
  }

  /// Apply the remaining budget to the solver (no-op when unlimited).
  void arm(sat::Solver& solver) const {
    solver.clear_budgets();
    if (budget_ms_ > 0) {
      const double remaining = std::max(1.0, budget_ms_ - elapsed_ms());
      solver.set_time_budget(
          std::chrono::milliseconds(static_cast<std::int64_t>(remaining)));
    }
  }

 private:
  Clock::time_point start_;
  double budget_ms_;
};

/// Thin nullable view over the shared objective-bound registry; every
/// accessor degrades to "no facts known" when no exchange is attached.
struct FactHub {
  sat::ClauseExchange* ex = nullptr;

  int depth_unsat_max() const { return ex ? ex->depth_unsat_max() : -1; }
  int depth_sat_min() const {
    return ex ? ex->depth_sat_min() : std::numeric_limits<int>::max();
  }
  void note_depth_unsat(int d) const {
    if (ex) ex->note_depth_unsat(d);
  }
  void note_depth_sat(int d) const {
    if (ex) ex->note_depth_sat(d);
  }
  void note_swap_unsat(int d, int k) const {
    if (ex) ex->note_swap_unsat(d, k);
  }
  bool swap_known_unsat(int d, int k) const {
    return ex && ex->swap_known_unsat(d, k);
  }
  void note_pruned() const {
    if (ex) ex->note_pruned_call();
  }
};

/// One SAT call under assumptions, with bookkeeping: a trace span plus a
/// SolveCall telemetry record annotated with the assumed bounds and the
/// solver-stats delta. `depth_bound`/`swap_bound` of -1 mean "not assumed".
sat::LBool solve_step(Model& model, std::vector<Lit> assumptions,
                      int depth_bound, int swap_bound, const BudgetClock& clock,
                      Result& diag) {
  obs::Span span("olsq2.solve");
  const double start_ms = clock.elapsed_ms();
  const sat::Stats before = model.solver().stats();
  clock.arm(model.solver());
  const sat::LBool status = model.solver().solve(assumptions);
  const sat::Stats delta = model.solver().stats() - before;

  SolveCall call;
  call.depth_bound = depth_bound;
  call.swap_bound = swap_bound;
  call.status = status == sat::LBool::kTrue    ? 'S'
                : status == sat::LBool::kFalse ? 'U'
                                               : '?';
  call.conflicts = delta.conflicts;
  call.propagations = delta.propagations;
  call.decisions = delta.decisions;
  call.imported = delta.imported_clauses;
  call.exported = delta.exported_clauses;
  call.wall_ms = clock.elapsed_ms() - start_ms;
  if (span.live()) {
    span.arg("depth_bound", depth_bound);
    span.arg("swap_bound", swap_bound);
    span.arg("result", status == sat::LBool::kTrue    ? "sat"
                       : status == sat::LBool::kFalse ? "unsat"
                                                      : "unknown");
    span.arg("conflicts", delta.conflicts);
    span.arg("propagations", delta.propagations);
    span.arg("wall_ms", call.wall_ms);
    if (call.imported != 0 || call.exported != 0) {
      span.arg("imported", call.imported);
      span.arg("exported", call.exported);
    }
  }

  diag.sat_calls++;
  diag.conflicts += delta.conflicts;
  diag.calls.push_back(call);
  if (status == sat::LBool::kUndef) diag.hit_budget = true;
  if (obs::metrics::enabled()) {
    namespace m = obs::metrics;
    static m::Histogram& call_ms = m::Registry::instance().histogram(
        "layout_solve_call_duration_ms",
        "Wall time of each incremental SAT call in the optimizer loop",
        {{"engine", "time-resolved"}});
    static m::Counter& calls = m::Registry::instance().counter(
        "layout_sat_calls_total", "Incremental SAT calls issued by optimizers",
        {{"engine", "time-resolved"}});
    call_ms.observe(call.wall_ms);
    calls.inc();
  }
  return status;
}

/// Record a bound decided by a shared fact without running the solver.
void record_pruned(Result& diag, int depth_bound, int swap_bound,
                   const FactHub& facts) {
  SolveCall call;
  call.depth_bound = depth_bound;
  call.swap_bound = swap_bound;
  call.status = 'P';
  diag.calls.push_back(call);
  facts.note_pruned();
  if (obs::Trace::instance().enabled()) obs::instant("olsq2.bound_pruned");
  if (obs::metrics::enabled()) {
    static obs::metrics::Counter& pruned = obs::metrics::Registry::instance().counter(
        "layout_pruned_probes_total",
        "SAT calls skipped because a shared bound fact already decided them");
    pruned.inc();
  }
}

int next_relaxed_bound(int t_b, const OptimizerOptions& options) {
  const double r = t_b < 100 ? options.relax_small : options.relax_large;
  return std::max(t_b + 1, static_cast<int>(std::ceil(r * t_b)));
}

/// Build a Model wired for this optimizer run: restart policy, cooperative
/// cancellation, VSIDS seed, and (when sharing is on) the eager bound
/// materialization + clause-exchange registration.
std::unique_ptr<Model> make_configured_model(const Problem& problem, int t_ub,
                                             const EncodingConfig& config,
                                             const OptimizerOptions& options,
                                             bool with_swaps) {
  auto model = std::make_unique<Model>(problem, t_ub, config);
  sat::Solver& solver = model->solver();
  solver.set_restart_policy(options.restart_policy);
  solver.set_external_interrupt(options.cancel);
  solver.set_vsids_seed(options.seed);
  if (options.exchange != nullptr) {
    const std::string group = model->prepare_shared_bounds(with_swaps);
    // Deterministic runs keep bound-fact sharing (it cannot change optima)
    // but never adopt foreign clauses, whose arrival timing is
    // scheduler-dependent.
    if (!options.deterministic) solver.set_exchange(options.exchange, group);
  }
  return model;
}

struct DepthPhaseOutcome {
  std::unique_ptr<Model> model;  // model in which the solution was found
  Result best;                   // solved=false on budget exhaustion
  int optimal_depth = -1;
};

/// Shared depth-optimization phase; also the first stage of the SWAP sweep.
DepthPhaseOutcome run_depth_phase(const Problem& problem,
                                  const EncodingConfig& config,
                                  const OptimizerOptions& options,
                                  const BudgetClock& clock, Result& diag,
                                  bool with_swaps) {
  obs::Span phase_span("olsq2.depth_phase");
  const circuit::DependencyGraph deps(*problem.circuit);
  const int t_lb = deps.longest_chain();
  int t_ub = deps.default_upper_bound();
  const FactHub facts{options.exchange};

  DepthPhaseOutcome out;
  int t_b = t_lb;
  // Largest depth bound this run proved UNSAT: phase 2 stops above it
  // instead of refuting the same bound a second time.
  int lower = t_lb - 1;
  auto model =
      make_configured_model(problem, t_ub, config, options, with_swaps);

  // Phase 1: geometric relaxation until the first satisfying bound.
  while (true) {
    if (clock.expired()) return out;
    // Shared facts: skip past bounds a portfolio peer already refuted, and
    // never relax beyond a bound a peer already proved satisfiable.
    if (t_b <= facts.depth_unsat_max() && t_b < t_ub) {
      record_pruned(diag, t_b, -1, facts);
      t_b = std::min(
          {next_relaxed_bound(facts.depth_unsat_max(), options), t_ub,
           std::max(facts.depth_sat_min(), t_lb)});
      continue;
    }
    const int sat_cap = facts.depth_sat_min();
    if (t_b > sat_cap && sat_cap >= t_lb && sat_cap < t_ub) t_b = sat_cap;
    const sat::LBool status =
        solve_step(*model, {model->depth_bound(t_b)}, t_b, -1, clock, diag);
    if (status == sat::LBool::kUndef) return out;
    if (status == sat::LBool::kTrue) break;
    lower = std::max(lower, t_b);
    facts.note_depth_unsat(t_b >= t_ub ? t_ub : t_b);
    if (t_b >= t_ub) {
      // Even the unconstrained horizon is UNSAT: regenerate with a larger
      // T_UB (paper §III-B1).
      t_ub = next_relaxed_bound(t_ub, options);
      model =
          make_configured_model(problem, t_ub, config, options, with_swaps);
      continue;
    }
    t_b = std::min(next_relaxed_bound(t_b, options), t_ub);
    if (!options.incremental) {
      model =
          make_configured_model(problem, t_ub, config, options, with_swaps);
    }
  }

  out.best = model->extract();
  facts.note_depth_sat(out.best.depth);
  // Phase 2: decrement to the first UNSAT.
  t_b = out.best.depth - 1;
  while (t_b > lower) {
    if (clock.expired()) break;
    if (t_b <= facts.depth_unsat_max()) {
      // A peer already proved this bound (hence everything below it)
      // unsatisfiable: the incumbent is optimal.
      record_pruned(diag, t_b, -1, facts);
      break;
    }
    if (!options.incremental) {
      model =
          make_configured_model(problem, t_ub, config, options, with_swaps);
    }
    const sat::LBool status =
        solve_step(*model, {model->depth_bound(t_b)}, t_b, -1, clock, diag);
    if (status == sat::LBool::kFalse) facts.note_depth_unsat(t_b);
    if (status != sat::LBool::kTrue) break;
    out.best = model->extract();
    facts.note_depth_sat(out.best.depth);
    t_b = out.best.depth - 1;
  }
  out.model = std::move(model);
  out.optimal_depth = out.best.depth;
  return out;
}

void merge_diagnostics(Result& result, Result& diag, const BudgetClock& clock) {
  result.sat_calls = diag.sat_calls;
  result.conflicts = diag.conflicts;
  result.hit_budget = diag.hit_budget || clock.expired();
  result.wall_ms = clock.elapsed_ms();
  result.calls = std::move(diag.calls);
}

}  // namespace

Result synthesize_depth_optimal(const Problem& problem,
                                const EncodingConfig& config,
                                const OptimizerOptions& options) {
  obs::Span span("olsq2.depth_optimal");
  const BudgetClock clock(options.time_budget_ms);
  Result diag;
  DepthPhaseOutcome outcome = run_depth_phase(problem, config, options, clock,
                                              diag, /*with_swaps=*/false);
  Result result = outcome.best;
  merge_diagnostics(result, diag, clock);
  return result;
}

Result synthesize_swap_optimal(const Problem& problem,
                               const EncodingConfig& config,
                               const OptimizerOptions& options) {
  obs::Span span("olsq2.swap_optimal");
  const BudgetClock clock(options.time_budget_ms);
  Result diag;
  DepthPhaseOutcome outcome = run_depth_phase(problem, config, options, clock,
                                              diag, /*with_swaps=*/true);
  if (!outcome.best.solved) {
    Result result = outcome.best;
    merge_diagnostics(result, diag, clock);
    return result;
  }

  const FactHub facts{options.exchange};
  Model* model = outcome.model.get();
  std::unique_ptr<Model> rebuilt;  // owns any later, larger-horizon model
  Result best = outcome.best;
  std::vector<std::pair<int, int>> pareto;
  int depth_bound = outcome.optimal_depth;
  int prev_depth_swaps = -1;

  while (true) {
    // Iterative descent on the SWAP bound at this depth (paper §III-B2):
    // start from the incumbent solution's count and tighten by one.
    obs::Span sweep_span("olsq2.swap_sweep");
    sweep_span.arg("depth_bound", depth_bound);
    int incumbent = best.swap_count;
    // One jump probe per depth sweep at the externally-supplied upper
    // bound (e.g. the planning engine's incumbent): SAT teleports the
    // descent, UNSAT is a true (depth, hint) fact and the classic
    // decrement resumes - sound for arbitrary hint values.
    bool try_hint = options.swap_upper_hint >= 0;
    while (incumbent > 0) {
      if (clock.expired()) break;
      const bool jump = try_hint && options.swap_upper_hint < incumbent - 1;
      const int target = jump ? options.swap_upper_hint : incumbent - 1;
      try_hint = false;
      if (facts.swap_known_unsat(depth_bound, target)) {
        // A peer proved (depth <= d, swaps <= k) empty; our query is a
        // subset of that region.
        record_pruned(diag, depth_bound, target, facts);
        if (jump) continue;  // hint region empty here; classic descent
        break;
      }
      const std::vector<Lit> assumptions = {
          model->depth_bound(depth_bound),
          model->swap_bound(target)};
      const sat::LBool status = solve_step(*model, assumptions, depth_bound,
                                           target, clock, diag);
      if (status == sat::LBool::kFalse) {
        facts.note_swap_unsat(depth_bound, target);
        if (jump) continue;  // failed jump: resume the one-by-one descent
      }
      if (status != sat::LBool::kTrue) break;
      Result candidate = model->extract();
      if (candidate.swap_count < best.swap_count ||
          (candidate.swap_count == best.swap_count &&
           candidate.depth < best.depth)) {
        best = candidate;
      }
      incumbent = std::min(target, candidate.swap_count);
    }
    pareto.emplace_back(depth_bound, best.swap_count);

    // Termination: optimum cannot improve, the previous depth relaxation
    // brought no gain (Pareto-terminal, paper condition 2), or the budget
    // is gone.
    if (best.swap_count == 0 || clock.expired() || diag.hit_budget) break;
    if (prev_depth_swaps >= 0 && best.swap_count >= prev_depth_swaps) break;
    prev_depth_swaps = best.swap_count;

    // Relax the depth bound by one, regenerating a larger-horizon model if
    // the current one cannot represent it.
    depth_bound++;
    if (depth_bound >= model->t_ub()) {
      const int new_ub = static_cast<int>(std::ceil(1.5 * model->t_ub()));
      rebuilt = make_configured_model(problem, new_ub, config, options,
                                      /*with_swaps=*/true);
      model = rebuilt.get();
    }
  }

  best.pareto = std::move(pareto);
  merge_diagnostics(best, diag, clock);
  return best;
}

Result solve_fixed(const Problem& problem, int t_ub, int swap_bound,
                   const EncodingConfig& config, double time_budget_ms) {
  obs::Span span("olsq2.solve_fixed");
  span.arg("t_ub", t_ub);
  const BudgetClock clock(time_budget_ms);
  Result diag;
  Model model(problem, t_ub, config);
  if (swap_bound >= 0) {
    model.assert_swap_bound_hard(swap_bound, config.cardinality);
  }
  const sat::LBool status =
      solve_step(model, {}, /*depth_bound=*/-1, swap_bound, clock, diag);
  Result result;
  if (status == sat::LBool::kTrue) result = model.extract();
  merge_diagnostics(result, diag, clock);
  return result;
}

}  // namespace olsq2::layout
