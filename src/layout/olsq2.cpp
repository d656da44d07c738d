#include "layout/olsq2.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "layout/search.h"
#include "obs/obs.h"

namespace olsq2::layout {

namespace {

int next_relaxed_bound(int t_b, const OptimizerOptions& options) {
  const double r = t_b < 100 ? options.relax_small : options.relax_large;
  return std::max(t_b + 1, static_cast<int>(std::ceil(r * t_b)));
}

/// Build a Model configured by the driver's solver setup.
std::unique_ptr<Model> make_configured_model(const Problem& problem, int t_ub,
                                             const EncodingConfig& config,
                                             const Search& search) {
  auto model = std::make_unique<Model>(problem, t_ub, config);
  search.configure(model->solver());
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
                                  Search& search) {
  obs::Span phase_span("olsq2.depth_phase");
  const circuit::DependencyGraph deps(*problem.circuit);
  const int t_lb = deps.longest_chain();
  int t_ub = deps.default_upper_bound();
  auto rebuild = [&] {
    return make_configured_model(problem, t_ub, config, search);
  };

  DepthPhaseOutcome out;
  int t_b = t_lb;
  // Largest depth bound this run proved UNSAT: phase 2 stops above it
  // instead of refuting the same bound a second time.
  int lower = t_lb - 1;
  auto model = rebuild();

  // Phase 1: geometric relaxation until the first satisfying bound.
  while (true) {
    if (search.expired()) return out;
    const sat::LBool status =
        search.solve(model->solver(), {model->depth_bound(t_b)}, t_b, -1);
    if (status == sat::LBool::kUndef) return out;
    if (status == sat::LBool::kTrue) break;
    lower = std::max(lower, t_b);
    if (t_b >= t_ub) {
      // Even the unconstrained horizon is UNSAT: regenerate with a larger
      // T_UB (paper §III-B1).
      t_ub = next_relaxed_bound(t_ub, options);
      model = rebuild();
      continue;
    }
    t_b = std::min(next_relaxed_bound(t_b, options), t_ub);
    if (!options.incremental) model = rebuild();
  }

  out.best = model->extract();
  // Phase 2: decrement to the first UNSAT.
  t_b = out.best.depth - 1;
  while (t_b > lower) {
    if (search.expired()) break;
    if (!options.incremental) model = rebuild();
    const sat::LBool status =
        search.solve(model->solver(), {model->depth_bound(t_b)}, t_b, -1);
    if (status != sat::LBool::kTrue) break;
    out.best = model->extract();
    t_b = out.best.depth - 1;
  }
  out.model = std::move(model);
  out.optimal_depth = out.best.depth;
  return out;
}

}  // namespace

Result synthesize_depth_optimal(const Problem& problem,
                                const EncodingConfig& config,
                                const OptimizerOptions& options) {
  obs::Span span("olsq2.depth_optimal");
  Search search(SearchEngine::kTimeResolved, options);
  Result result = run_depth_phase(problem, config, options, search).best;
  search.finish(result);
  return result;
}

Result synthesize_swap_optimal(const Problem& problem,
                               const EncodingConfig& config,
                               const OptimizerOptions& options) {
  obs::Span span("olsq2.swap_optimal");
  Search search(SearchEngine::kTimeResolved, options);
  DepthPhaseOutcome outcome =
      run_depth_phase(problem, config, options, search);
  Result best = std::move(outcome.best);
  if (!best.solved) {
    search.finish(best);
    return best;
  }

  Model* model = outcome.model.get();
  std::unique_ptr<Model> rebuilt;  // owns any later, larger-horizon model
  std::vector<std::pair<int, int>> pareto;
  int depth_bound = outcome.optimal_depth;
  int prev_depth_swaps = -1;

  while (true) {
    // Iterative descent on the SWAP bound at this depth (paper §III-B2).
    search.descend_swaps(*model, depth_bound, /*lower=*/0, best);
    pareto.emplace_back(depth_bound, best.swap_count);

    // Termination: optimum cannot improve, the previous depth relaxation
    // brought no gain (Pareto-terminal, paper condition 2), or the budget
    // is gone.
    if (best.swap_count == 0 || search.expired() || search.hit_budget()) break;
    if (prev_depth_swaps >= 0 && best.swap_count >= prev_depth_swaps) break;
    prev_depth_swaps = best.swap_count;

    // Relax the depth bound by one, regenerating a larger-horizon model if
    // the current one cannot represent it.
    depth_bound++;
    if (depth_bound >= model->t_ub()) {
      const int new_ub = static_cast<int>(std::ceil(1.5 * model->t_ub()));
      rebuilt = make_configured_model(problem, new_ub, config, search);
      model = rebuilt.get();
    }
  }

  best.pareto = std::move(pareto);
  search.finish(best);
  return best;
}

Result solve_fixed(const Problem& problem, int t_ub, int swap_bound,
                   const EncodingConfig& config, double time_budget_ms) {
  obs::Span span("olsq2.solve_fixed");
  span.arg("t_ub", t_ub);
  Search search(SearchEngine::kTimeResolved,
                {.time_budget_ms = time_budget_ms});
  Model model(problem, t_ub, config);
  if (swap_bound >= 0) {
    model.assert_swap_bound_hard(swap_bound, config.cardinality);
  }
  const sat::LBool status =
      search.solve(model.solver(), {}, /*primary=*/-1, swap_bound);
  Result result;
  if (status == sat::LBool::kTrue) result = model.extract();
  search.finish(result);
  return result;
}

}  // namespace olsq2::layout
