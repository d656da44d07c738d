#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "sat/luby.h"

namespace olsq2::sat {

namespace {

// OLSQ2_CHECK_INVARIANTS=1 (or the CMake option of the same name) arms the
// deep self-checks on every solver in the process; read once.
bool invariants_enabled_by_env() {
  static const bool enabled = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once via static init,
    // before any solver thread exists; nothing in-process calls setenv.
    const char* v = std::getenv("OLSQ2_CHECK_INVARIANTS");
#ifdef OLSQ2_CHECK_INVARIANTS_DEFAULT
    // Compiled-in default: on, unless the environment explicitly disables.
    if (v == nullptr || *v == '\0') return true;
#endif
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return enabled;
}

// OLSQ2_INPROCESS gates inter-restart simplification. Read per solver
// construction, not cached: test harnesses flip it between solver
// instances within one process (golden runs, the fuzz differential).
bool inprocess_enabled_by_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): solvers are constructed before
  // their solving threads start; nothing in-process calls setenv racily.
  const char* v = std::getenv("OLSQ2_INPROCESS");
  return v == nullptr || *v == '\0' || std::string_view(v) != "0";
}

}  // namespace

Solver::Solver()
    : inprocess_enabled_(inprocess_enabled_by_env()),
      check_invariants_enabled_(invariants_enabled_by_env()) {}
Solver::~Solver() = default;

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  levels_.push_back(0);
  reasons_.push_back(kCRefUndef);
  activity_.push_back(0.0);
  polarity_.push_back(false);
  seen_.push_back(0);
  model_.push_back(LBool::kUndef);
  substituted_.push_back(0);
  subst_map_.push_back(Lit::pos(v));
  subst_map_.push_back(Lit::neg(v));
  watches_.emplace_back();  // positive literal
  watches_.emplace_back();  // negative literal
  watches_bin_.emplace_back();
  watches_bin_.emplace_back();
  lbd_mark_.push_back(0);
  order_heap_.insert(v);
  return v;
}

bool Solver::add_clause(std::vector<Lit> lits) {
  if (!ok_) return false;
  if (clause_log_enabled_) clause_log_.push_back(lits);
  cancel_until(0);

  // Normalize: sort, strip duplicates, drop root-false literals, and detect
  // tautologies / root-satisfied clauses.
  const std::size_t original_size = lits.size();
  std::sort(lits.begin(), lits.end());
  std::size_t out = 0;
  Lit prev = kUndefLit;
  for (const Lit l : lits) {
    assert(l.var() >= 0 && l.var() < num_vars());
    if (value(l) == LBool::kTrue || l == ~prev) return true;  // satisfied / taut
    if (value(l) == LBool::kFalse || l == prev) continue;     // falsified / dup
    lits[out++] = l;
    prev = l;
  }
  const bool normalized_changed = out != original_size;
  lits.resize(out);

  if (proof_ != nullptr && normalized_changed) {
    proof_->add(lits);  // the strengthened clause is RUP given root units
  }
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  if (lits.size() == 1) {
    enqueue(lits[0], kCRefUndef);
    ok_ = (propagate() == kCRefUndef);
    if (!ok_ && proof_ != nullptr) proof_->add({});
    return ok_;
  }

  if (lits.size() == 2) stats_.binary_clauses++;
  const CRef cr = arena_.alloc(lits, /*learnt=*/false, 0, Tier::kCore);
  attach(cr);
  clauses_.push_back(cr);
  num_original_clauses_++;
  return true;
}

void Solver::attach(CRef cr) {
  const ClauseData& c = arena_[cr];
  assert(c.size() >= 2);
  auto& lists = c.size() == 2 ? watches_bin_ : watches_;
  lists[(~c[0]).code()].push_back({cr, c[1]});
  lists[(~c[1]).code()].push_back({cr, c[0]});
}

void Solver::detach(CRef cr) {
  const ClauseData& c = arena_[cr];
  auto& lists = c.size() == 2 ? watches_bin_ : watches_;
  for (const Lit w : {c[0], c[1]}) {
    auto& list = lists[(~w).code()];
    auto it = std::find_if(list.begin(), list.end(),
                           [cr](const Watcher& x) { return x.cref == cr; });
    assert(it != list.end());
    *it = list.back();
    list.pop_back();
  }
}

void Solver::enqueue(Lit l, CRef reason) {
  assert(value(l) == LBool::kUndef);
  const Var v = l.var();
  assigns_[v] = l.sign() ? LBool::kFalse : LBool::kTrue;
  levels_[v] = decision_level();
  reasons_[v] = reason;
  trail_.push_back(l);
}

CRef Solver::propagate() {
  CRef conflict = kCRefUndef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p is now true
    stats_.propagations++;
    // Binary clauses first: the watcher alone decides the outcome, so this
    // loop never touches the arena unless it implies or conflicts.
    for (const Watcher& w : watches_bin_[p.code()]) {
      const LBool v = value(w.blocker);
      if (v == LBool::kTrue) continue;
      if (v == LBool::kFalse) {
        conflict = w.cref;
        qhead_ = trail_.size();
        return conflict;
      }
      // Keep the reason invariant: the implied literal sits first.
      ClauseData& c = arena_[w.cref];
      if (!(c[0] == w.blocker)) {
        c[0] = w.blocker;
        c[1] = ~p;
      }
      enqueue(w.blocker, w.cref);
    }
    auto& list = watches_[p.code()];
    std::size_t i = 0, j = 0;
    const std::size_t n = list.size();
    while (i < n) {
      const Watcher w = list[i++];
      if (value(w.blocker) == LBool::kTrue) {
        list[j++] = w;
        continue;
      }
      ClauseData& c = arena_[w.cref];
      // Ensure the false literal (~p) sits at position 1.
      const Lit false_lit = ~p;
      if (c[0] == false_lit) {
        c[0] = c[1];
        c[1] = false_lit;
      }
      assert(c[1] == false_lit);

      const Lit first = c[0];
      if (first != w.blocker && value(first) == LBool::kTrue) {
        list[j++] = {w.cref, first};
        continue;
      }
      // Look for a replacement watch.
      bool found = false;
      Lit* ls = c.lits();
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(ls[k]) != LBool::kFalse) {
          c[1] = ls[k];
          ls[k] = false_lit;
          watches_[(~c[1]).code()].push_back({w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;

      // Clause is unit or conflicting.
      list[j++] = {w.cref, first};
      if (value(first) == LBool::kFalse) {
        conflict = w.cref;
        qhead_ = trail_.size();
        // Copy the remaining watchers back before bailing out.
        while (i < n) list[j++] = list[i++];
        break;
      }
      enqueue(first, w.cref);
    }
    list.resize(j);
    if (conflict != kCRefUndef) break;
  }
  return conflict;
}

unsigned Solver::compute_lbd(std::span<const Lit> lits) {
  // Number of distinct decision levels, counted with a per-level stamp
  // array (lbd_mark_ is sized by num_vars >= max level) - O(|lits|).
  if (++lbd_stamp_ == 0) {  // stamp wrapped: invalidate stale marks
    std::fill(lbd_mark_.begin(), lbd_mark_.end(), 0u);
    lbd_stamp_ = 1;
  }
  unsigned lbd = 0;
  for (const Lit l : lits) {
    const auto lv = static_cast<std::size_t>(level(l.var()));
    if (lbd_mark_[lv] != lbd_stamp_) {
      lbd_mark_[lv] = lbd_stamp_;
      lbd++;
    }
  }
  return lbd;
}

void Solver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kRescaleLimit) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.update(v);
}

void Solver::clause_bump(ClauseData& c) {
  c.set_activity(c.activity() + static_cast<float>(clause_inc_));
  if (c.activity() > 1e20f) {
    for (const auto* tier : {&learnts_core_, &learnts_tier2_, &learnts_local_}) {
      for (const CRef cr : *tier) {
        ClauseData& d = arena_[cr];
        d.set_activity(d.activity() * 1e-20f);
      }
    }
    clause_inc_ *= 1e-20;
  }
}

bool Solver::literal_redundant(Lit l) {
  // Basic (non-recursive) minimization: l is redundant if its reason exists
  // and every other reason literal is already marked seen or is root-level.
  const CRef reason_ref = reasons_[l.var()];
  if (reason_ref == kCRefUndef) return false;
  const ClauseData& reason = arena_[reason_ref];
  for (std::uint32_t i = 0; i < reason.size(); ++i) {
    const Lit q = reason[i];
    if (q.var() == l.var()) continue;
    if (!seen_[q.var()] && level(q.var()) > 0) return false;
  }
  return true;
}

void Solver::analyze(CRef conflict, std::vector<Lit>& out_learnt,
                     int& out_btlevel, unsigned& out_lbd) {
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // placeholder for the asserting literal

  int path_count = 0;
  Lit p = kUndefLit;
  std::size_t index = trail_.size();

  CRef reason_ref = conflict;
  do {
    assert(reason_ref != kCRefUndef);
    ClauseData& reason = arena_[reason_ref];
    if (reason.learnt()) {
      clause_bump(reason);
      reason.set_used(2);  // participated in a conflict: defer demotion
      // Dynamic LBD refresh: clauses that became glue are worth protecting
      // (reduce_db promotes tiers from the refreshed value).
      const unsigned fresh = compute_lbd(reason.literals());
      if (fresh < reason.lbd()) reason.set_lbd(fresh);
    }
    for (std::uint32_t i = (p.is_undef() ? 0 : 1); i < reason.size(); ++i) {
      const Lit q = reason[i];
      const Var v = q.var();
      if (seen_[v] || level(v) == 0) continue;
      seen_[v] = 1;
      var_bump(v);
      if (level(v) >= decision_level()) {
        path_count++;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Walk back along the trail to the next marked literal.
    while (!seen_[trail_[index - 1].var()]) index--;
    p = trail_[--index];
    reason_ref = reasons_[p.var()];
    seen_[p.var()] = 0;
    path_count--;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict-clause minimization. Keep a copy so every seen_ flag set above
  // is cleared even for literals the minimization drops.
  const std::vector<Lit> to_clear = out_learnt;
  std::size_t kept = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (!literal_redundant(out_learnt[i])) {
      out_learnt[kept++] = out_learnt[i];
    } else {
      stats_.minimized_literals++;
    }
  }
  out_learnt.resize(kept);

  // Find the backtrack level (second-highest level in the clause).
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level(out_learnt[i].var()) > level(out_learnt[max_i].var())) max_i = i;
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(out_learnt[1].var());
  }
  out_lbd = compute_lbd(out_learnt);

  for (const Lit l : to_clear) seen_[l.var()] = 0;
}

void Solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) return;
  for (std::size_t i = trail_.size(); i > static_cast<std::size_t>(trail_lim_[target_level]);) {
    const Var v = trail_[--i].var();
    polarity_[v] = (assigns_[v] == LBool::kTrue);
    assigns_[v] = LBool::kUndef;
    reasons_[v] = kCRefUndef;
    order_heap_.insert(v);
  }
  trail_.resize(trail_lim_[target_level]);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  while (!order_heap_.empty()) {
    const Var v = order_heap_.pop();
    if (assigns_[v] == LBool::kUndef) {
      stats_.decisions++;
      return Lit(v, !polarity_[v]);
    }
  }
  return kUndefLit;
}

void Solver::set_polarity(Var v, bool value) { polarity_[v] = value; }

void Solver::set_vsids_seed(std::uint64_t seed) {
  if (seed == 0) return;
  for (Var v = 0; v < num_vars(); ++v) {
    // splitmix64 over (seed, v); jitter far below one activity bump so the
    // perturbation only ever breaks ties.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(v) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    activity_[v] += static_cast<double>(z % 1000003) * 1e-12;
  }
  order_heap_.rebuild();
}

void Solver::analyze_final(Lit failed_assumption) {
  // The negation of `failed_assumption` holds in the current trail; walk
  // its implication ancestry and collect every *decision* (= assumption)
  // literal it rests on. Mirrors MiniSat's analyzeFinal.
  conflict_core_.clear();
  conflict_core_.push_back(failed_assumption);
  if (decision_level() == 0) return;
  seen_[failed_assumption.var()] = 1;
  for (std::size_t i = trail_.size();
       i-- > static_cast<std::size_t>(trail_lim_[0]);) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    if (reasons_[v] == kCRefUndef) {
      assert(level(v) > 0);
      conflict_core_.push_back(~trail_[i]);
    } else {
      const ClauseData& reason = arena_[reasons_[v]];
      for (std::uint32_t k = 1; k < reason.size(); ++k) {
        if (level(reason[k].var()) > 0) seen_[reason[k].var()] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[failed_assumption.var()] = 0;
}

bool Solver::budget_exhausted() const {
  if (interrupted()) return true;
  if (conflict_budget_ >= 0 &&
      static_cast<std::int64_t>(stats_.conflicts) - conflicts_at_solve_start_ >=
          conflict_budget_) {
    return true;
  }
  if (time_budget_.has_value()) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start_;
    if (elapsed >= *time_budget_) return true;
  }
  return false;
}

void Solver::note_learnt_lbd(unsigned lbd) {
  lifetime_lbd_sum_ += lbd;
  if (recent_lbds_.size() < kLbdWindow) {
    recent_lbds_.push_back(lbd);
    recent_lbd_sum_ += lbd;
    recent_lbd_full_ = recent_lbds_.size() == kLbdWindow;
  } else {
    recent_lbd_sum_ -= recent_lbds_[recent_lbd_pos_];
    recent_lbds_[recent_lbd_pos_] = lbd;
    recent_lbd_sum_ += lbd;
    recent_lbd_pos_ = (recent_lbd_pos_ + 1) % kLbdWindow;
    recent_lbd_full_ = true;
  }
}

void Solver::reset_recent_lbds() {
  recent_lbds_.clear();
  recent_lbd_pos_ = 0;
  recent_lbd_sum_ = 0;
  recent_lbd_full_ = false;
}

bool Solver::glucose_restart_due() const {
  if (!recent_lbd_full_ || stats_.conflicts == 0) return false;
  const double recent_avg =
      static_cast<double>(recent_lbd_sum_) / static_cast<double>(kLbdWindow);
  const double lifetime_avg =
      lifetime_lbd_sum_ / static_cast<double>(stats_.conflicts);
  return recent_avg * kRestartK > lifetime_avg;
}

LBool Solver::search(std::int64_t conflicts_before_restart) {
  std::int64_t conflict_count = 0;
  std::vector<Lit> learnt;
  while (true) {
    CRef conflict;
    if (trace_live_) {
      const auto t0 = std::chrono::steady_clock::now();
      conflict = propagate();
      propagate_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    } else {
      conflict = propagate();
    }
    if (conflict != kCRefUndef) {
      stats_.conflicts++;
      conflict_count++;
      if (decision_level() == 0) {
        ok_ = false;
        if (proof_ != nullptr) proof_->add({});
        return LBool::kFalse;
      }
      // Restart blocking (Glucose): an unusually deep trail suggests the
      // search is closing in on a model - postpone the restart.
      trail_size_sum_ += trail_.size();
      trail_size_count_++;
      if (effective_policy_ == RestartPolicy::kGlucose && recent_lbd_full_ &&
          trail_size_count_ > kLbdWindow &&
          static_cast<double>(trail_.size()) >
              kBlockR * (static_cast<double>(trail_size_sum_) /
                         static_cast<double>(trail_size_count_))) {
        reset_recent_lbds();
      }
      int bt_level = 0;
      unsigned lbd = 0;
      analyze(conflict, learnt, bt_level, lbd);
      cancel_until(bt_level);
      note_learnt_lbd(lbd);
      if (proof_ != nullptr) proof_->add(learnt);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kCRefUndef);
      } else {
        const Tier tier = tier_for_lbd(lbd);
        const CRef cr = arena_.alloc(learnt, /*learnt=*/true, lbd, tier);
        arena_[cr].set_used(2);
        attach(cr);
        tier_list(tier).push_back(cr);
        clause_bump(arena_[cr]);
        enqueue(learnt[0], cr);
        stats_.learnt_clauses++;
        stats_.learnt_literals += learnt.size();
        if (learnt.size() == 2) stats_.binary_clauses++;
      }
      var_decay();
      clause_decay();
      if ((conflict_count & 0xFF) == 0) {
        if (progress_cb_ && stats_.conflicts >= next_progress_conflicts_) {
          progress_cb_(stats_);
          next_progress_conflicts_ = stats_.conflicts + progress_interval_;
        }
        if (budget_exhausted()) return LBool::kUndef;
        // Backtrack-boundary audit, sampled on the same cadence as the
        // budget check so the deep scan stays off the per-conflict path.
        audit_invariants("conflict-backtrack");
      }
    } else {
      const bool restart_due =
          effective_policy_ == RestartPolicy::kGlucose
              ? glucose_restart_due()
              : conflict_count >= conflicts_before_restart;
      if (restart_due) {
        stats_.restarts++;
        if (trace_live_) obs::instant("sat.restart");
        reset_recent_lbds();
        cancel_until(0);
        audit_invariants("restart");
        return LBool::kUndef;
      }
      // Clause DB reduction runs on the Glucose conflict schedule in all
      // policies (it is independent of the restart strategy).
      if (stats_.conflicts >= next_reduce_conflicts_) {
        reduce_db();
        reduce_rounds_++;
        next_reduce_conflicts_ = stats_.conflicts + 2000 + 300 * reduce_rounds_;
      }

      // Establish assumptions, one decision level each.
      Lit next = kUndefLit;
      while (decision_level() < static_cast<int>(assumptions_.size())) {
        const Lit a = assumptions_[decision_level()];
        if (value(a) == LBool::kTrue) {
          new_decision_level();  // dummy level keeps indices aligned
        } else if (value(a) == LBool::kFalse) {
          analyze_final(~a);     // collect the assumption core
          return LBool::kFalse;  // UNSAT under assumptions
        } else {
          next = a;
          break;
        }
      }
      if (next.is_undef()) {
        if ((stats_.decisions & 0x3FF) == 0) {
          if (budget_exhausted()) return LBool::kUndef;
          // Decision-boundary audit (sampled): the trail is at a
          // propagation fixpoint here, so all invariants apply.
          audit_invariants("decision");
        }
        next = pick_branch_lit();
        if (next.is_undef()) {
          model_ = assigns_;  // full satisfying assignment found
          return LBool::kTrue;
        }
      }
      new_decision_level();
      enqueue(next, kCRefUndef);
    }
  }
}

void Solver::drop_clause(CRef cr) {
  ClauseData& c = arena_[cr];
  if (proof_ != nullptr) proof_->remove(Clause(c.lits(), c.lits() + c.size()));
  detach(cr);
  arena_.free_clause(cr);
}

void Solver::reduce_db() {
  obs::Span span("sat.reduce_db");
  const std::size_t before = static_cast<std::size_t>(num_learnts());
  const auto locked = [this](CRef cr, const ClauseData& c) {
    return reasons_[c[0].var()] == cr && value(c[0]) == LBool::kTrue;
  };

  // Re-tier first: promotions follow the LBD refreshed during conflict
  // analysis; demotions hit clauses whose used countdown ran out without
  // participating in a conflict since the last reduction.
  std::vector<CRef> core, tier2, local;
  core.reserve(learnts_core_.size());
  tier2.reserve(learnts_tier2_.size());
  local.reserve(learnts_local_.size() + learnts_tier2_.size());
  for (const CRef cr : learnts_core_) {
    ClauseData& c = arena_[cr];
    if (c.lbd() <= 2 || c.used() > 0 || locked(cr, c)) {
      if (c.used() > 0) c.set_used(c.used() - 1);
      core.push_back(cr);
    } else {
      c.set_tier(Tier::kTier2);
      tier2.push_back(cr);
    }
  }
  for (const CRef cr : learnts_tier2_) {
    ClauseData& c = arena_[cr];
    if (c.lbd() <= kCoreLbd) {
      c.set_tier(Tier::kCore);
      core.push_back(cr);
    } else if (c.used() > 0 || locked(cr, c)) {
      if (c.used() > 0) c.set_used(c.used() - 1);
      tier2.push_back(cr);
    } else {
      c.set_tier(Tier::kLocal);
      local.push_back(cr);
    }
  }
  for (const CRef cr : learnts_local_) {
    ClauseData& c = arena_[cr];
    if (c.lbd() <= kCoreLbd) {
      c.set_tier(Tier::kCore);
      core.push_back(cr);
    } else if (c.lbd() <= kTier2Lbd) {
      c.set_tier(Tier::kTier2);
      tier2.push_back(cr);
    } else {
      local.push_back(cr);
    }
  }

  // Halve the local pool, least active first; reasons, binaries, and glue
  // are protected.
  std::sort(local.begin(), local.end(), [this](CRef a, CRef b) {
    return arena_[a].activity() < arena_[b].activity();
  });
  const std::size_t target_removals = local.size() / 2;
  std::size_t removed = 0;
  std::vector<CRef> kept;
  kept.reserve(local.size() - target_removals);
  for (const CRef cr : local) {
    const ClauseData& c = arena_[cr];
    const bool protected_clause =
        c.size() == 2 || c.lbd() <= 2 || locked(cr, c);
    if (removed < target_removals && !protected_clause) {
      drop_clause(cr);
      removed++;
    } else {
      kept.push_back(cr);
    }
  }
  // Global backstop: the tiers bound clause *quality*, not count. When the
  // whole DB still exceeds the MiniSat-style budget, shed the least active
  // unprotected tier2 clauses too - otherwise conflict-dense instances
  // accumulate mid-LBD clauses without bound and propagation slows under
  // the dead weight.
  const auto cap = static_cast<std::size_t>(std::max(max_learnts_, 100.0));
  if (core.size() + tier2.size() + kept.size() > cap) {
    std::sort(tier2.begin(), tier2.end(), [this](CRef a, CRef b) {
      return arena_[a].activity() < arena_[b].activity();
    });
    std::size_t excess = core.size() + tier2.size() + kept.size() - cap;
    std::vector<CRef> tier2_kept;
    tier2_kept.reserve(tier2.size());
    for (const CRef cr : tier2) {
      const ClauseData& c = arena_[cr];
      const bool protected_clause =
          c.size() == 2 || c.lbd() <= 2 || c.used() > 0 || locked(cr, c);
      if (excess > 0 && !protected_clause) {
        drop_clause(cr);
        removed++;
        excess--;
      } else {
        tier2_kept.push_back(cr);
      }
    }
    tier2 = std::move(tier2_kept);
  }
  learnts_core_ = std::move(core);
  learnts_tier2_ = std::move(tier2);
  learnts_local_ = std::move(kept);
  stats_.removed_clauses += removed;
  max_learnts_ *= learnt_size_inc_;
  maybe_collect_garbage();
  if (span.live()) {
    span.arg("learnts_before", static_cast<std::uint64_t>(before));
    span.arg("removed", static_cast<std::uint64_t>(removed));
    span.arg("core", static_cast<std::uint64_t>(learnts_core_.size()));
    span.arg("tier2", static_cast<std::uint64_t>(learnts_tier2_.size()));
    span.arg("local", static_cast<std::uint64_t>(learnts_local_.size()));
  }
}

void Solver::relocate_all(ClauseArena& to) {
  for (auto* lists : {&watches_, &watches_bin_}) {
    for (auto& list : *lists) {
      for (Watcher& w : list) arena_.reloc(w.cref, to);
    }
  }
  for (const Lit l : trail_) {
    CRef& r = reasons_[l.var()];
    if (r != kCRefUndef) arena_.reloc(r, to);
  }
  for (CRef& cr : clauses_) arena_.reloc(cr, to);
  for (auto* tier : {&learnts_core_, &learnts_tier2_, &learnts_local_}) {
    for (CRef& cr : *tier) arena_.reloc(cr, to);
  }
}

void Solver::garbage_collect() {
  const auto t0 = std::chrono::steady_clock::now();
  // Size the target for the live payload; reloc grows it on demand if the
  // estimate is ever off.
  ClauseArena to(arena_.size_words() - arena_.wasted_words());
  relocate_all(to);
  arena_ = std::move(to);
  stats_.arena_gcs++;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (obs::metrics::enabled()) {
    namespace m = obs::metrics;
    m::Registry& reg = m::Registry::instance();
    static m::Counter& gcs = reg.counter(
        "sat_arena_gc_total", "Clause-arena compactions across all solvers");
    static m::Histogram& gc_ms = reg.histogram(
        "sat_arena_gc_ms", "Clause-arena compaction latency (milliseconds)");
    gcs.inc();
    gc_ms.observe(ms);
  }
  if (trace_live_) obs::instant("sat.arena_gc");
}

std::int64_t Solver::num_learnts() const {
  return static_cast<std::int64_t>(learnts_core_.size() +
                                   learnts_tier2_.size() +
                                   learnts_local_.size());
}

Solver::TierCounts Solver::learnt_tiers() const {
  return {learnts_core_.size(), learnts_tier2_.size(), learnts_local_.size()};
}

MemoryStats Solver::memory_stats() const {
  MemoryStats m;
  const auto live_bytes = [this](CRef cr) {
    return ClauseArena::clause_words(arena_[cr].size()) * sizeof(std::uint32_t);
  };
  for (const CRef cr : clauses_) m.clause_bytes += live_bytes(cr);
  m.clause_bytes += clauses_.capacity() * sizeof(CRef);
  for (const auto* tier : {&learnts_core_, &learnts_tier2_, &learnts_local_}) {
    for (const CRef cr : *tier) m.learnt_bytes += live_bytes(cr);
    m.learnt_bytes += tier->capacity() * sizeof(CRef);
  }
  for (const auto* lists : {&watches_, &watches_bin_}) {
    for (const auto& w : *lists) {
      m.watch_bytes += sizeof(w) + w.capacity() * sizeof(Watcher);
    }
  }
  m.arena_bytes = arena_.capacity_bytes();
  m.arena_wasted_bytes = arena_.wasted_bytes();
  return m;
}

LBool Solver::solve(std::span<const Lit> assumptions) {
  stats_.solve_calls++;
  stats_.assumption_lits += assumptions.size();
  conflict_core_.clear();
  if (!ok_) return LBool::kFalse;
  trace_live_ = obs::Trace::instance().enabled();
  propagate_ns_ = 0;
  next_progress_conflicts_ = stats_.conflicts + progress_interval_;
  obs::Span span("sat.solve");
  const Stats before = stats_;
  cancel_until(0);
  audit_invariants("solve-entry");
  assumptions_.assign(assumptions.begin(), assumptions.end());

  conflicts_at_solve_start_ = static_cast<std::int64_t>(stats_.conflicts);
  solve_start_ = std::chrono::steady_clock::now();
  if (max_learnts_ < 1) {
    max_learnts_ = std::max<double>(static_cast<double>(num_original_clauses_) *
                                        max_learnts_factor_,
                                    1000.0);
  }

  LBool status = LBool::kUndef;
  std::uint64_t restart_round = 0;
  while (status == LBool::kUndef) {
    if (budget_exhausted()) break;
    // Inter-restart inprocessing on a growing conflict interval.
    if (inprocess_enabled_ && stats_.conflicts >= next_inprocess_conflicts_) {
      if (!inprocess()) {
        status = LBool::kFalse;
        break;
      }
      next_inprocess_conflicts_ = stats_.conflicts + inprocess_interval_;
      inprocess_interval_ *= 2;
    }
    maybe_collect_garbage();
    if (restart_policy_ == RestartPolicy::kAlternating) {
      if (stats_.conflicts >= next_mode_switch_) {
        effective_policy_ = effective_policy_ == RestartPolicy::kGlucose
                                ? RestartPolicy::kLuby
                                : RestartPolicy::kGlucose;
        mode_interval_ *= 2;
        next_mode_switch_ = stats_.conflicts + mode_interval_;
        reset_recent_lbds();
      }
    } else {
      effective_policy_ = restart_policy_;
    }
    const std::int64_t budget =
        static_cast<std::int64_t>(luby(restart_round) * 100);
    status = search(budget);
    restart_round++;
  }
  cancel_until(0);
  assumptions_.clear();
  audit_invariants("solve-exit");
  const Stats delta = stats_ - before;
  if (obs::metrics::enabled()) {
    namespace m = obs::metrics;
    m::Registry& reg = m::Registry::instance();
    // Cached handles: registry lookups take a mutex, solve() can be called
    // thousands of times per optimizer run.
    static m::Histogram& solve_ms = reg.histogram(
        "sat_solve_duration_ms", "Wall time of each Solver::solve() call");
    static m::Counter& conflicts =
        reg.counter("sat_conflicts_total", "CDCL conflicts across all solvers");
    static m::Counter& propagations = reg.counter(
        "sat_propagations_total", "Unit propagations across all solvers");
    static m::Counter& restarts =
        reg.counter("sat_restarts_total", "Search restarts across all solvers");
    static m::Gauge& learnt_bytes = reg.gauge(
        "sat_learnt_db_bytes", "Learnt-clause DB bytes (last finished solver)");
    static m::Gauge& watch_bytes = reg.gauge(
        "sat_watch_bytes", "Watch-list bytes (last finished solver)");
    static m::Gauge& clause_bytes = reg.gauge(
        "sat_clause_bytes", "Original-clause bytes (last finished solver)");
    static m::Gauge& arena_bytes = reg.gauge(
        "sat_arena_bytes", "Clause-arena capacity bytes (last finished solver)");
    static m::Gauge& arena_wasted = reg.gauge(
        "sat_arena_wasted_bytes",
        "Clause-arena bytes awaiting GC (last finished solver)");
    static m::Gauge& tier_core = reg.gauge(
        "sat_learnt_core_clauses", "Core-tier learnts (last finished solver)");
    static m::Gauge& tier_mid = reg.gauge(
        "sat_learnt_tier2_clauses", "Tier2 learnts (last finished solver)");
    static m::Gauge& tier_local = reg.gauge(
        "sat_learnt_local_clauses", "Local-tier learnts (last finished solver)");
    static m::Counter& inprocess_rounds = reg.counter(
        "sat_inprocess_rounds_total", "Inprocessing rounds across all solvers");
    static m::Counter& inprocess_strengthened = reg.counter(
        "sat_inprocess_strengthened_total",
        "Literals removed by inprocessing (vivification + SSR)");
    static m::Counter& inprocess_removed = reg.counter(
        "sat_inprocess_removed_total",
        "Clauses deleted by inprocessing (subsumption, vivification, equiv)");
    static m::Counter& equiv_vars = reg.counter(
        "sat_equiv_vars_total",
        "Variables retired by equivalent-literal substitution");
    solve_ms.observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - solve_start_)
            .count());
    conflicts.inc(delta.conflicts);
    propagations.inc(delta.propagations);
    restarts.inc(delta.restarts);
    inprocess_rounds.inc(delta.inprocess_rounds);
    inprocess_strengthened.inc(delta.inprocess_strengthened_lits);
    inprocess_removed.inc(delta.inprocess_removed_clauses);
    equiv_vars.inc(delta.equiv_vars);
    const MemoryStats mem = memory_stats();
    learnt_bytes.set(static_cast<double>(mem.learnt_bytes));
    watch_bytes.set(static_cast<double>(mem.watch_bytes));
    clause_bytes.set(static_cast<double>(mem.clause_bytes));
    arena_bytes.set(static_cast<double>(mem.arena_bytes));
    arena_wasted.set(static_cast<double>(mem.arena_wasted_bytes));
    const TierCounts tiers = learnt_tiers();
    tier_core.set(static_cast<double>(tiers.core));
    tier_mid.set(static_cast<double>(tiers.tier2));
    tier_local.set(static_cast<double>(tiers.local));
  }
  if (span.live()) {
    span.arg("result", status == LBool::kTrue    ? "sat"
                       : status == LBool::kFalse ? "unsat"
                                                 : "unknown");
    span.arg("assumptions", static_cast<std::uint64_t>(assumptions.size()));
    span.arg("vars", num_vars());
    span.arg("clauses", static_cast<std::int64_t>(num_original_clauses_));
    span.arg("conflicts", delta.conflicts);
    span.arg("decisions", delta.decisions);
    span.arg("propagations", delta.propagations);
    span.arg("restarts", delta.restarts);
    span.arg("propagate_ms", static_cast<double>(propagate_ns_) / 1e6);
    if (delta.inprocess_rounds > 0) {
      span.arg("inprocess_rounds", delta.inprocess_rounds);
    }
  }
  trace_live_ = false;
  return status;
}

}  // namespace olsq2::sat
