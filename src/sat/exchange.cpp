#include "sat/exchange.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace olsq2::sat {

ClauseExchange::GroupMetrics& ClauseExchange::metrics_for(int group) {
  if (group_metrics_.size() < groups_.size()) {
    group_metrics_.resize(groups_.size());
  }
  GroupMetrics& gm = group_metrics_[static_cast<std::size_t>(group)];
  if (gm.published == nullptr) {
    namespace m = obs::metrics;
    m::Registry& reg = m::Registry::instance();
    // Group keys embed encoding fingerprints of unbounded cardinality;
    // hash them down to a stable 8-char label value.
    const m::Labels labels = {{"group", m::short_hash(groups_[group])}};
    gm.published = &reg.counter("sat_exchange_published_total",
                                "Clauses accepted into the exchange buffer",
                                labels);
    gm.filtered = &reg.counter("sat_exchange_filtered_total",
                               "Clauses rejected by the size/LBD filter",
                               labels);
    gm.delivered = &reg.counter("sat_exchange_delivered_total",
                                "Clause deliveries, summed over importers",
                                labels);
  }
  return gm;
}

int ClauseExchange::add_solver(const std::string& group) {
  sync::MutexLock lock(mutex_);
  SolverSlot slot;
  auto it = std::find(groups_.begin(), groups_.end(), group);
  if (it == groups_.end()) {
    groups_.push_back(group);
    slot.group = static_cast<int>(groups_.size()) - 1;
  } else {
    slot.group = static_cast<int>(it - groups_.begin());
  }
  // A late joiner starts at the current frontier: clauses published before
  // it existed may predate its formula, so it never sees them.
  slot.cursor = next_seq_.load(std::memory_order_relaxed);
  solvers_.push_back(slot);
  return static_cast<int>(solvers_.size()) - 1;
}

bool ClauseExchange::publish(int solver_id, std::span<const Lit> lits,
                             unsigned lbd) {
  if (lits.empty()) return false;
  const bool always = lits.size() <= 2;  // units and binaries
  if (!always && (lits.size() > options_.max_size || lbd > options_.max_lbd)) {
    filtered_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics::enabled()) {
      // Off the lock-free fast path only when metrics are on: the group
      // label lives behind the hub mutex.
      sync::MutexLock lock(mutex_);
      if (solver_id >= 0 && solver_id < static_cast<int>(solvers_.size())) {
        metrics_for(solvers_[solver_id].group).filtered->inc();
      }
    }
    return false;
  }
  sync::MutexLock lock(mutex_);
  assert(solver_id >= 0 &&
         solver_id < static_cast<int>(solvers_.size()));
  SharedClause sc;
  sc.lits.assign(lits.begin(), lits.end());
  sc.lbd = lbd;
  sc.source = solver_id;
  sc.group = solvers_[solver_id].group;
  buffer_.push_back(std::move(sc));
  next_seq_.fetch_add(1, std::memory_order_release);
  while (buffer_.size() > options_.capacity) {
    buffer_.pop_front();
    base_seq_++;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics::enabled()) {
    metrics_for(solvers_[solver_id].group).published->inc();
  }
  return true;
}

std::size_t ClauseExchange::publish_batch(int solver_id,
                                          std::span<const ExportItem> items) {
  if (items.empty()) return 0;
  sync::MutexLock lock(mutex_);
  assert(solver_id >= 0 && solver_id < static_cast<int>(solvers_.size()));
  const int group = solvers_[solver_id].group;
  std::size_t accepted = 0;
  for (const ExportItem& item : items) {
    if (item.lits.empty()) continue;
    const bool always = item.lits.size() <= 2;  // units and binaries
    if (!always && (item.lits.size() > options_.max_size ||
                    item.lbd > options_.max_lbd)) {
      filtered_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metrics::enabled()) metrics_for(group).filtered->inc();
      continue;
    }
    SharedClause sc;
    sc.lits.assign(item.lits.begin(), item.lits.end());
    sc.lbd = item.lbd;
    sc.source = solver_id;
    sc.group = group;
    buffer_.push_back(std::move(sc));
    next_seq_.fetch_add(1, std::memory_order_release);
    accepted++;
  }
  while (buffer_.size() > options_.capacity) {
    buffer_.pop_front();
    base_seq_++;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  published_.fetch_add(accepted, std::memory_order_relaxed);
  if (accepted > 0 && obs::metrics::enabled()) {
    metrics_for(group).published->inc(accepted);
  }
  return accepted;
}

bool ClauseExchange::has_new(int solver_id) const {
  sync::MutexLock lock(mutex_);
  if (solver_id < 0 || solver_id >= static_cast<int>(solvers_.size())) {
    return false;
  }
  return next_seq_.load(std::memory_order_relaxed) >
         solvers_[solver_id].cursor;
}

std::size_t ClauseExchange::collect(
    int solver_id,
    const std::function<void(std::span<const Lit>, unsigned)>& fn) {
  // Copy phase: everything the hub lock guards happens here; the callbacks
  // run after the lock is released. Importers attach clauses, propagate
  // units, and (under OLSQ2_CHECK_INVARIANTS) walk the whole solver -
  // none of which may nest inside hub state (DESIGN.md §11).
  std::vector<std::pair<std::vector<Lit>, unsigned>> pending;
  {
    sync::MutexLock lock(mutex_);
    assert(solver_id >= 0 && solver_id < static_cast<int>(solvers_.size()));
    SolverSlot& slot = solvers_[solver_id];
    std::uint64_t cursor = slot.cursor;
    const std::uint64_t end = next_seq_.load(std::memory_order_relaxed);
    if (cursor < base_seq_) cursor = base_seq_;  // missed evicted clauses
    for (; cursor < end; ++cursor) {
      const SharedClause& sc = buffer_[cursor - base_seq_];
      if (sc.source == solver_id || sc.group != slot.group) continue;
      pending.emplace_back(sc.lits, sc.lbd);
    }
    slot.cursor = cursor;
    delivered_.fetch_add(pending.size(), std::memory_order_relaxed);
    if (!pending.empty() && obs::metrics::enabled()) {
      metrics_for(slot.group).delivered->inc(pending.size());
    }
  }
  for (const auto& [lits, lbd] : pending) {
    fn(std::span<const Lit>(lits), lbd);
  }
  return pending.size();
}

ClauseExchange::Traffic ClauseExchange::traffic() const {
  Traffic t;
  t.published = published_.load(std::memory_order_relaxed);
  t.filtered = filtered_.load(std::memory_order_relaxed);
  t.delivered = delivered_.load(std::memory_order_relaxed);
  t.dropped = dropped_.load(std::memory_order_relaxed);
  t.bound_facts = bound_facts_.load(std::memory_order_relaxed);
  t.bound_pruned = bound_pruned_.load(std::memory_order_relaxed);
  return t;
}

void ClauseExchange::note_depth_unsat(int depth) {
  int cur = depth_unsat_max_.load(std::memory_order_relaxed);
  while (depth > cur) {
    if (depth_unsat_max_.compare_exchange_weak(cur, depth,
                                               std::memory_order_acq_rel)) {
      bound_facts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void ClauseExchange::note_depth_sat(int depth) {
  int cur = depth_sat_min_.load(std::memory_order_relaxed);
  while (depth < cur) {
    if (depth_sat_min_.compare_exchange_weak(cur, depth,
                                             std::memory_order_acq_rel)) {
      bound_facts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void ClauseExchange::note_swap_unsat(int depth, int swaps) {
  sync::MutexLock lock(swap_mutex_);
  // Keep only non-dominated facts: (d, k) refutes every (d' <= d, k' <= k),
  // so a fact with both coordinates <= another's adds nothing.
  for (const auto& [d, k] : swap_unsat_) {
    if (d >= depth && k >= swaps) return;  // dominated, drop
  }
  std::erase_if(swap_unsat_, [&](const std::pair<int, int>& f) {
    return f.first <= depth && f.second <= swaps;
  });
  swap_unsat_.emplace_back(depth, swaps);
  bound_facts_.fetch_add(1, std::memory_order_relaxed);
}

bool ClauseExchange::swap_known_unsat(int depth, int swaps) const {
  sync::MutexLock lock(swap_mutex_);
  for (const auto& [d, k] : swap_unsat_) {
    if (d >= depth && k >= swaps) return true;
  }
  return false;
}

}  // namespace olsq2::sat
