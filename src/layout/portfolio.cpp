#include "layout/portfolio.h"

#include <atomic>
#include <thread>
#include <utility>

#include "layout/olsq2.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/sync.h"

namespace olsq2::layout {

std::vector<PortfolioEntry> default_portfolio(Objective objective,
                                              const OptimizerOptions& base) {
  std::vector<PortfolioEntry> entries;
  auto add = [&](EncodingConfig config, sat::Solver::RestartPolicy policy,
                 const std::string& suffix) {
    PortfolioEntry entry;
    entry.config = config;
    entry.options = base;
    entry.options.restart_policy = policy;
    entry.name = config.label() + suffix;
    // Distinct VSIDS seeds decorrelate otherwise-identical search
    // trajectories, so the race explores more than one of them.
    entry.options.seed = base.seed + entries.size() + 1;
    entries.push_back(std::move(entry));
  };

  EncodingConfig bv_pair;  // defaults
  EncodingConfig bv_chan = bv_pair;
  bv_chan.injectivity = InjectivityEncoding::kChanneling;

  add(bv_pair, sat::Solver::RestartPolicy::kGlucose, "+glucose");
  add(bv_pair, sat::Solver::RestartPolicy::kLuby, "+luby");
  add(bv_chan, sat::Solver::RestartPolicy::kAlternating, "+alt");
  if (objective == Objective::kSwap) {
    EncodingConfig bv_seq = bv_pair;
    bv_seq.cardinality = CardEncoding::kSeqCounter;
    add(bv_seq, sat::Solver::RestartPolicy::kAlternating, "+seq+alt");
  }
  return entries;
}

PortfolioResult synthesize_portfolio(const Problem& problem,
                                     Objective objective,
                                     std::vector<PortfolioEntry> entries) {
  PortfolioResult result;
  result.all.resize(entries.size());
  if (entries.empty()) return result;

  obs::Span span("portfolio.run");
  span.arg("entries", static_cast<std::uint64_t>(entries.size()));

  std::atomic<bool> cancel{false};

  // Reconciliation state the racing workers write into; guarded by an
  // annotated contract mutex (leaf rank - nothing nests inside it). Moved
  // into the result wholesale once every thread has joined.
  struct Reconcile {
    sync::Mutex mutex{"layout.portfolio.results"};
    std::vector<Result> all OLSQ2_GUARDED_BY(mutex);
  } shared;
  {
    sync::MutexLock lock(shared.mutex);
    shared.all.resize(entries.size());
  }

  auto worker = [&](std::size_t index) {
    PortfolioEntry& entry = entries[index];
    entry.options.cancel = &cancel;
    // Each strategy runs on its own thread = its own track in the exported
    // timeline; name the track after the configuration so races read well.
    obs::Trace::instance().set_thread_name("portfolio:" + entry.name);
    obs::Span worker_span("portfolio.worker");
    worker_span.arg("strategy", entry.name);
    Result r = objective == Objective::kDepth
                   ? synthesize_depth_optimal(problem, entry.config,
                                              entry.options)
                   : synthesize_swap_optimal(problem, entry.config,
                                             entry.options);
    worker_span.arg("solved", r.solved);
    worker_span.arg("hit_budget", r.hit_budget);
    // The first complete (non-budget-hit) optimal answer cancels everyone
    // else; peers that finish before the cancellation lands still report a
    // complete result and compete for the win below.
    const bool complete = r.solved && !r.hit_budget;
    {
      sync::MutexLock lock(shared.mutex);
      shared.all[index] = std::move(r);
    }
    if (complete) cancel.store(true, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  threads.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    threads.emplace_back(worker, i);
  }
  for (auto& t : threads) t.join();
  {
    sync::MutexLock lock(shared.mutex);
    result.all = std::move(shared.all);
  }

  // Pick the best answer, preferring complete finishers over partial ones:
  // objective value first, then wall-clock. All complete finishers proved
  // the same optimum for *their* strategy, but encodings differ in what
  // they reach within the budget, so comparing values matters.
  auto better = [&](const Result& a, const Result& b) {
    if (!b.solved) return true;
    const bool a_complete = !a.hit_budget;
    const bool b_complete = !b.hit_budget;
    if (a_complete != b_complete) return a_complete;
    const auto key = [&](const Result& r) {
      return objective == Objective::kDepth
                 ? std::pair<int, int>(r.depth, 0)
                 : std::pair<int, int>(r.swap_count, r.depth);
    };
    if (key(a) != key(b)) return key(a) < key(b);
    return a.wall_ms < b.wall_ms;
  };
  for (std::size_t i = 0; i < result.all.size(); ++i) {
    const Result& r = result.all[i];
    if (!r.solved) continue;
    if (result.winner < 0 || better(r, result.best)) {
      result.best = r;
      result.winner = static_cast<int>(i);
    }
  }

  if (obs::metrics::enabled() && result.winner >= 0) {
    namespace m = obs::metrics;
    m::Registry& reg = m::Registry::instance();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const bool won = static_cast<int>(i) == result.winner;
      reg.counter(won ? "portfolio_wins_total" : "portfolio_losses_total",
                  won ? "Races won per portfolio strategy"
                      : "Races lost per portfolio strategy",
                  {{"strategy", entries[i].name}})
          .inc();
    }
  }

  span.arg("winner", result.winner);
  return result;
}

}  // namespace olsq2::layout
