#include "layout/search.h"

#include <algorithm>

#include "layout/model.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sat/exchange.h"

namespace olsq2::layout {

namespace {

struct EngineNames {
  const char* solve_span;
  const char* sweep_span;
  const char* primary_arg;
};

// Indexed by SearchEngine.
constexpr EngineNames kEngineNames[] = {
    {"olsq2.solve", "olsq2.swap_sweep", "depth_bound"},
    {"tb.solve", "tb.swap_sweep", "block_bound"},
    {"windowed.solve", "windowed.swap_sweep", "block_bound"},
};

const EngineNames& names_of(SearchEngine engine) {
  return kEngineNames[static_cast<int>(engine)];
}

struct CallMetrics {
  obs::metrics::Histogram& call_ms;
  obs::metrics::Counter& calls;

  explicit CallMetrics(const char* engine)
      : call_ms(obs::metrics::Registry::instance().histogram(
            "layout_solve_call_duration_ms",
            "Wall time of each incremental SAT call in the optimizer loop",
            {{"engine", engine}})),
        calls(obs::metrics::Registry::instance().counter(
            "layout_sat_calls_total",
            "Incremental SAT calls issued by optimizers",
            {{"engine", engine}})) {}
};

CallMetrics& metrics_of(SearchEngine engine) {
  static CallMetrics time_resolved("time-resolved");
  static CallMetrics transition_based("transition-based");
  return engine == SearchEngine::kTimeResolved ? time_resolved
                                               : transition_based;
}

Lit primary_bound(Model& model, int depth) { return model.depth_bound(depth); }
Lit primary_bound(TbModel& model, int blocks) {
  return model.block_bound(blocks);
}

}  // namespace

Search::Search(SearchEngine engine, const OptimizerOptions& options)
    : engine_(engine),
      options_(options),
      facts_(engine == SearchEngine::kTimeResolved ? options.exchange
                                                   : nullptr) {}

double Search::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - start_)
      .count();
}

bool Search::expired() const {
  return options_.time_budget_ms > 0 &&
         elapsed_ms() >= options_.time_budget_ms;
}

void Search::configure(sat::Solver& solver) const {
  solver.set_restart_policy(options_.restart_policy);
  solver.set_external_interrupt(options_.cancel);
  solver.set_vsids_seed(options_.seed);
}

sat::LBool Search::solve(sat::Solver& solver,
                         const std::vector<Lit>& assumptions, int primary,
                         int swap_bound) {
  const EngineNames& names = names_of(engine_);
  obs::Span span(names.solve_span);
  const double start_ms = elapsed_ms();
  const sat::Stats before = solver.stats();
  solver.clear_budgets();
  if (options_.time_budget_ms > 0) {
    const double remaining =
        std::max(1.0, options_.time_budget_ms - elapsed_ms());
    solver.set_time_budget(
        std::chrono::milliseconds(static_cast<std::int64_t>(remaining)));
  }
  const sat::LBool status = solver.solve(assumptions);
  const sat::Stats delta = solver.stats() - before;

  SolveCall call;
  call.depth_bound = primary;
  call.swap_bound = swap_bound;
  call.status = status == sat::LBool::kTrue    ? 'S'
                : status == sat::LBool::kFalse ? 'U'
                                               : '?';
  call.conflicts = delta.conflicts;
  call.propagations = delta.propagations;
  call.decisions = delta.decisions;
  call.imported = delta.imported_clauses;
  call.exported = delta.exported_clauses;
  call.wall_ms = elapsed_ms() - start_ms;
  if (span.live()) {
    span.arg(names.primary_arg, primary);
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

  diag_.sat_calls++;
  diag_.conflicts += delta.conflicts;
  diag_.calls.push_back(call);
  if (status == sat::LBool::kUndef) diag_.hit_budget = true;
  if (obs::metrics::enabled()) {
    CallMetrics& metrics = metrics_of(engine_);
    metrics.call_ms.observe(call.wall_ms);
    metrics.calls.inc();
  }
  return status;
}

void Search::record_pruned(int primary, int swap_bound) {
  SolveCall call;
  call.depth_bound = primary;
  call.swap_bound = swap_bound;
  call.status = 'P';
  diag_.calls.push_back(call);
  if (facts_ != nullptr) facts_->note_pruned_call();
  if (obs::Trace::instance().enabled()) obs::instant("olsq2.bound_pruned");
  if (obs::metrics::enabled()) {
    static obs::metrics::Counter& pruned =
        obs::metrics::Registry::instance().counter(
            "layout_pruned_probes_total",
            "SAT calls skipped because a shared bound fact already decided "
            "them");
    pruned.inc();
  }
}

void Search::finish(Result& result) {
  result.sat_calls = diag_.sat_calls;
  result.conflicts = diag_.conflicts;
  result.hit_budget = diag_.hit_budget || expired();
  result.wall_ms = elapsed_ms();
  result.calls = std::move(diag_.calls);
}

template <class M>
int Search::descend_swaps(M& model, int primary, int lower, Result& best) {
  const EngineNames& names = names_of(engine_);
  obs::Span sweep_span(names.sweep_span);
  sweep_span.arg(names.primary_arg, primary);
  int refuted = -1;
  int incumbent = best.swap_count;
  // The hint is probed once per sweep: SAT teleports the descent, UNSAT is
  // a true (primary, hint) fact and the one-by-one decrement resumes.
  const int hint = options_.swap_upper_hint;
  bool try_hint = hint >= 0;
  while (incumbent > lower) {
    if (expired()) break;
    const bool jump = try_hint && hint < incumbent - 1;
    const int target = jump ? hint : incumbent - 1;
    try_hint = false;
    if (facts_ != nullptr && facts_->swap_known_unsat(primary, target)) {
      // A peer proved (primary <= d, swaps <= k) empty; this query is a
      // subset of that region.
      record_pruned(primary, target);
      if (jump) continue;
      break;
    }
    const sat::LBool status =
        solve(model.solver(),
              {primary_bound(model, primary), model.swap_bound(target)},
              primary, target);
    if (status == sat::LBool::kFalse) {
      refuted = std::max(refuted, target);
      if (facts_ != nullptr) facts_->note_swap_unsat(primary, target);
      if (jump) continue;
    }
    if (status != sat::LBool::kTrue) break;
    Result candidate = model.extract();
    if (candidate.swap_count < best.swap_count ||
        (candidate.swap_count == best.swap_count &&
         candidate.depth < best.depth)) {
      best = candidate;
    }
    incumbent = std::min(target, candidate.swap_count);
  }
  return refuted;
}

template int Search::descend_swaps<Model>(Model&, int, int, Result&);
template int Search::descend_swaps<TbModel>(TbModel&, int, int, Result&);

std::unique_ptr<TbModel> make_tb_model(const Search& search,
                                       const Problem& problem, int max_blocks,
                                       const EncodingConfig& config,
                                       const std::vector<int>& pinned) {
  auto model = std::make_unique<TbModel>(problem, max_blocks, config);
  if (!pinned.empty()) model->pin_initial_mapping(pinned);
  search.configure(model->solver());
  return model;
}

BlockPhase tb_block_phase(Search& search, const Problem& problem,
                          const EncodingConfig& config,
                          const std::vector<int>& pinned) {
  BlockPhase out;
  std::unique_ptr<TbModel> model;
  int max_blocks = 0;  // capacity of `model`
  for (int blocks = 1; !search.expired(); ++blocks) {
    if (blocks > max_blocks) {
      max_blocks = std::max({blocks, 4, 2 * max_blocks});
      model = make_tb_model(search, problem, max_blocks, config, pinned);
    }
    const sat::LBool status =
        search.solve(model->solver(), {model->block_bound(blocks)}, blocks, -1);
    if (status == sat::LBool::kUndef) break;
    if (status == sat::LBool::kTrue) {
      out.best = model->extract();
      out.blocks = blocks;
      out.model = std::move(model);
      break;
    }
  }
  return out;
}

}  // namespace olsq2::layout
