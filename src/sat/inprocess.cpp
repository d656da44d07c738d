// Inter-restart inprocessing (Solver::inprocess and its passes).
//
// Three simplification passes run between restarts under a shared tick
// budget, in dependency order:
//
//  1. Equivalent-literal substitution: Tarjan SCC over the binary
//     implication graph; every literal in an SCC is replaced by the SCC's
//     minimum-code representative. Instead of a model-reconstruction map,
//     each substituted variable keeps two permanent "definition binaries"
//     (~v | r) and (v | ~r) in the original clause set, so models,
//     assumptions, and cores remain valid verbatim - and every rewritten
//     clause is RUP through those binaries, keeping DRAT proofs checkable.
//  2. Subsumption / self-subsuming resolution over occurrence lists with
//     64-bit signatures (simplify_util.h). Binaries are never targets
//     (which also shields the definition binaries); subsumed clauses are
//     deleted, SSR removes one flipped literal at a time.
//  3. Vivification: re-derive each clause under assumed negations of its
//     own literals; propagation conflicts and satisfied prefixes yield
//     strictly shorter replacements.
//
// Every rewrite emits DRAT add lines *before* the delete of the clause it
// replaces, so an attached Proof stays forward-checkable. All passes run at
// decision level 0 with root reasons cleared; no clause is pinned, and the
// commit paths filter root-assigned literals so freshly attached watches
// always sit on unassigned literals.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "sat/simplify_util.h"
#include "sat/solver.h"

namespace olsq2::sat {

namespace {

// Fault-injection hook for the fuzz harness: when set, vivification drops
// one literal without justification, exactly once per round. The DRAT
// checker / differential oracle must flag the unsound rewrite; this is how
// the oracle proves it can catch a real inprocessing bug. Read per round,
// never cached.
bool vivify_bug_requested() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read at a quiescent pass
  // boundary; nothing in-process calls setenv concurrently.
  const char* v = std::getenv("OLSQ2_FUZZ_INJECT_VIVIFY_BUG");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

}  // namespace

bool Solver::assert_root_unit(Lit l) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  const LBool v = value(l);
  if (v == LBool::kTrue) return true;
  if (v == LBool::kFalse) {
    ok_ = false;
    if (proof_ != nullptr) proof_->add({});
    return false;
  }
  const std::size_t trail_before = trail_.size();
  enqueue(l, kCRefUndef);
  if (propagate() != kCRefUndef) {
    ok_ = false;
    if (proof_ != nullptr) proof_->add({});
    return false;
  }
  // propagate() installed clause reasons for the literals it derived; a
  // later rewrite in the same round may free those clauses, so mirror the
  // reason clearing done at inprocess() entry (nothing ever inspects a
  // level-0 reason).
  for (std::size_t i = trail_before; i < trail_.size(); ++i) {
    reasons_[trail_[i].var()] = kCRefUndef;
  }
  return true;
}

bool Solver::inprocess() {
  if (!ok_) return false;
  obs::Span span("sat.inprocess");
  cancel_until(0);
  if (propagate() != kCRefUndef) {
    ok_ = false;
    if (proof_ != nullptr) proof_->add({});
    return false;
  }
  // Root-level reason refs would pin clauses against rewriting and dangle
  // after it; nothing ever inspects a level-0 reason (conflict analysis
  // stops above level 0), so clear them up front.
  for (const Lit l : trail_) reasons_[l.var()] = kCRefUndef;
  stats_.inprocess_rounds++;
  const Stats before = stats_;
  std::uint64_t ticks = inprocess_budget_;

  namespace m = obs::metrics;
  m::Histogram* hist[3] = {nullptr, nullptr, nullptr};
  if (m::enabled()) {
    m::Registry& reg = m::Registry::instance();
    static m::Histogram& equiv_ms = reg.histogram(
        "sat_inprocess_pass_ms", "Inprocessing pass latency (milliseconds)",
        {{"pass", "equiv"}});
    static m::Histogram& subsume_ms = reg.histogram(
        "sat_inprocess_pass_ms", "Inprocessing pass latency (milliseconds)",
        {{"pass", "subsume"}});
    static m::Histogram& vivify_ms = reg.histogram(
        "sat_inprocess_pass_ms", "Inprocessing pass latency (milliseconds)",
        {{"pass", "vivify"}});
    hist[0] = &equiv_ms;
    hist[1] = &subsume_ms;
    hist[2] = &vivify_ms;
  }
  // The passes run in this order while the formula is open and budget
  // remains. Direct calls: an indexed pointer-to-member table here tripped
  // UBSan's bounds check under GCC 12 (a bogus out-of-range index).
  const auto timed = [&](m::Histogram* histogram, auto&& pass) {
    if (!ok_ || ticks == 0) return;
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    if (histogram != nullptr) {
      histogram->observe(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
  };
  timed(hist[0], [&] { inprocess_equiv(ticks); });
  timed(hist[1], [&] { inprocess_subsume(ticks); });
  timed(hist[2], [&] { inprocess_vivify(ticks); });
  maybe_collect_garbage();
  audit_invariants("inprocess");
  if (span.live()) {
    const Stats d = stats_ - before;
    span.arg("strengthened_lits", d.inprocess_strengthened_lits);
    span.arg("removed_clauses", d.inprocess_removed_clauses);
    span.arg("equiv_vars", d.equiv_vars);
    span.arg("budget_left", ticks);
  }
  return ok_;
}

bool Solver::inprocess_equiv(std::uint64_t& ticks) {
  assert(decision_level() == 0);
  const auto compact = [this] {
    for (auto* list :
         {&clauses_, &learnts_core_, &learnts_tier2_, &learnts_local_}) {
      std::erase_if(*list,
                    [this](CRef cr) { return arena_[cr].freed(); });
    }
  };

  // Binary implication graph over literal codes: clause (a | b) yields the
  // edges ~a -> b and ~b -> a. Assigned and already-substituted variables
  // are excluded - their equivalences are either decided or already linked.
  const std::size_t nlits = static_cast<std::size_t>(2 * num_vars());
  std::vector<std::vector<std::int32_t>> succ(nlits);
  for (const auto* list :
       {&clauses_, &learnts_core_, &learnts_tier2_, &learnts_local_}) {
    for (const CRef cr : *list) {
      const ClauseData& c = arena_[cr];
      if (c.size() != 2) continue;
      const Lit a = c[0];
      const Lit b = c[1];
      if (value(a) != LBool::kUndef || value(b) != LBool::kUndef) continue;
      if (substituted_[a.var()] != 0 || substituted_[b.var()] != 0) continue;
      succ[static_cast<std::size_t>((~a).code())].push_back(b.code());
      succ[static_cast<std::size_t>((~b).code())].push_back(a.code());
      if (ticks > 0) ticks--;
    }
  }

  // Iterative Tarjan SCC.
  std::vector<std::int32_t> index(nlits, -1);
  std::vector<std::int32_t> low(nlits, 0);
  std::vector<std::uint8_t> on_stack(nlits, 0);
  std::vector<std::int32_t> scc_stack;
  std::vector<std::vector<std::int32_t>> comps;
  struct Frame {
    std::int32_t node;
    std::size_t next_child;
  };
  std::vector<Frame> dfs;
  std::int32_t next_index = 0;
  for (std::size_t root = 0; root < nlits; ++root) {
    if (index[root] != -1 || succ[root].empty()) continue;
    const auto rc = static_cast<std::int32_t>(root);
    index[root] = low[root] = next_index++;
    scc_stack.push_back(rc);
    on_stack[root] = 1;
    dfs.push_back({rc, 0});
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      const auto n = static_cast<std::size_t>(f.node);
      if (f.next_child < succ[n].size()) {
        const std::int32_t child = succ[n][f.next_child++];
        const auto ci = static_cast<std::size_t>(child);
        if (index[ci] == -1) {
          index[ci] = low[ci] = next_index++;
          scc_stack.push_back(child);
          on_stack[ci] = 1;
          dfs.push_back({child, 0});  // invalidates f; loop re-fetches
        } else if (on_stack[ci] != 0) {
          low[n] = std::min(low[n], index[ci]);
        }
        continue;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        const auto parent = static_cast<std::size_t>(dfs.back().node);
        low[parent] = std::min(low[parent], low[n]);
      }
      if (low[n] == index[n]) {
        comps.emplace_back();
        while (true) {
          const std::int32_t mcode = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<std::size_t>(mcode)] = 0;
          comps.back().push_back(mcode);
          if (mcode == f.node) break;
        }
      }
    }
  }

  // Pick pairs. Each variable belongs to two complementary SCCs (one per
  // sign, complement-closed); handle the one whose minimum-code
  // representative is positive so every equivalence is processed once.
  struct EquivPair {
    Lit from;
    Lit rep;
  };
  std::vector<EquivPair> pairs;
  for (const auto& members : comps) {
    if (members.size() < 2) continue;
    const std::int32_t rep_code =
        *std::min_element(members.begin(), members.end());
    if ((rep_code & 1) != 0) continue;  // complement SCC handles this one
    // l and ~l in one SCC: the formula forces l == ~l, i.e. root UNSAT.
    std::vector<std::int32_t> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == (sorted[i - 1] ^ 1)) {
        const Lit rep = Lit::from_code(rep_code);
        if (proof_ != nullptr) {
          proof_->add({rep});   // RUP: ~rep propagates around the cycle
          proof_->add({~rep});  // RUP against the unit just added
          proof_->add({});
        }
        ok_ = false;
        compact();
        return false;
      }
    }
    const Lit rep = Lit::from_code(rep_code);
    for (const std::int32_t mcode : members) {
      if (mcode == rep_code) continue;
      pairs.push_back({Lit::from_code(mcode), rep});
    }
  }

  // Install the substitution and the definition binaries. All additions
  // happen before any rewrite so every rewritten clause is RUP through the
  // complete equivalence system.
  for (const EquivPair& p : pairs) {
    substituted_[p.from.var()] = 1;
    subst_map_[static_cast<std::size_t>(p.from.code())] = p.rep;
    subst_map_[static_cast<std::size_t>((~p.from).code())] = ~p.rep;
    const Lit fwd[2] = {~p.from, p.rep};  // from -> rep
    const Lit bwd[2] = {p.from, ~p.rep};  // rep -> from
    for (const auto* bin : {&fwd, &bwd}) {
      if (proof_ != nullptr) proof_->add({(*bin)[0], (*bin)[1]});
      const CRef cr =
          arena_.alloc(std::span<const Lit>(*bin, 2), /*learnt=*/false, 0,
                       Tier::kCore);
      attach(cr);
      clauses_.push_back(cr);
      num_original_clauses_++;
      stats_.binary_clauses++;
    }
  }
  stats_.equiv_vars += pairs.size();

  // Rewrite every clause touching a substituted or root-assigned variable.
  // Representatives chain strictly downward in literal code across rounds,
  // so fixpoint chasing terminates.
  const auto map_lit = [this](Lit l) {
    Lit mapped = subst_map_[static_cast<std::size_t>(l.code())];
    while (subst_map_[static_cast<std::size_t>(mapped.code())] != mapped) {
      mapped = subst_map_[static_cast<std::size_t>(mapped.code())];
    }
    return mapped;
  };
  Clause img;
  for (auto* list :
       {&clauses_, &learnts_core_, &learnts_tier2_, &learnts_local_}) {
    const bool original_list = list == &clauses_;
    for (std::size_t i = 0; i < list->size(); ++i) {
      const CRef cr = (*list)[i];
      {
        const ClauseData& c = arena_[cr];
        if (c.freed()) continue;
        bool touched = false;
        for (const Lit l : c.literals()) {
          if (substituted_[l.var()] != 0 || value(l) != LBool::kUndef) {
            touched = true;
            break;
          }
        }
        if (!touched) continue;
        if (ticks > 0) ticks--;
        img.clear();
        bool satisfied = false;
        for (const Lit l : c.literals()) {
          const Lit mapped = map_lit(l);
          if (value(mapped) == LBool::kTrue) {
            satisfied = true;
            break;
          }
          if (value(mapped) == LBool::kFalse) continue;
          img.push_back(mapped);
        }
        if (satisfied || !simplify::normalize(img)) {
          // Satisfied at root or tautological under the equivalence.
          // Originals are kept verbatim - in particular the definition
          // binaries, whose images are tautologies, must survive so models
          // of the rewritten formula stay models of the input.
          if (!original_list) {
            drop_clause(cr);
            stats_.inprocess_removed_clauses++;
          }
          continue;
        }
      }
      // Commit the rewritten image (DRAT add precedes the delete).
      const ClauseData& c = arena_[cr];
      const std::uint32_t old_size = c.size();
      const bool learnt = c.learnt();
      const unsigned old_lbd = c.lbd();
      const Tier tier = c.tier();
      const float act = c.activity();
      const unsigned used = c.used();
      if (proof_ != nullptr) proof_->add(img);
      if (img.empty()) {
        ok_ = false;
        if (!learnt) num_original_clauses_--;
        drop_clause(cr);
        compact();
        return false;
      }
      if (img.size() == 1) {
        if (!learnt) num_original_clauses_--;
        drop_clause(cr);
        stats_.inprocess_strengthened_lits += old_size - 1;
        if (!assert_root_unit(img[0])) {
          compact();
          return false;
        }
        continue;
      }
      const CRef nr = arena_.alloc(
          img, learnt,
          learnt ? std::min<unsigned>(old_lbd,
                                      static_cast<unsigned>(img.size()))
                 : 0,
          tier);
      {
        ClauseData& nc = arena_[nr];
        nc.set_activity(act);
        nc.set_used(used);
      }
      attach(nr);
      drop_clause(cr);
      (*list)[i] = nr;
      if (img.size() < old_size) {
        stats_.inprocess_strengthened_lits += old_size - img.size();
      }
      if (img.size() == 2) stats_.binary_clauses++;
    }
  }
  compact();
  return ok_;
}

bool Solver::inprocess_subsume(std::uint64_t& ticks) {
  assert(decision_level() == 0);
  // Besides dropping freed refs, migrate clauses promoted to irredundant
  // mid-pass (a learnt subsumer that replaced an original keeps its tier
  // slot until here so Entry slots stay stable) into clauses_.
  const auto compact = [this] {
    for (auto* list : {&learnts_core_, &learnts_tier2_, &learnts_local_}) {
      std::erase_if(*list, [this](CRef cr) {
        const ClauseData& c = arena_[cr];
        if (c.freed()) return true;
        if (!c.learnt()) {
          clauses_.push_back(cr);
          return true;
        }
        return false;
      });
    }
    std::erase_if(clauses_,
                  [this](CRef cr) { return arena_[cr].freed(); });
  };

  // Flat index of every live clause plus occurrence lists. Entries track
  // their containing list slot so strengthening can swap in the new ref.
  struct Entry {
    CRef cr;
    std::vector<CRef>* list;
    std::size_t slot;
    std::uint64_t sig;
  };
  std::vector<Entry> entries;
  const std::size_t nlits = static_cast<std::size_t>(2 * num_vars());
  std::vector<std::vector<std::uint32_t>> occ(nlits);
  for (auto* list :
       {&clauses_, &learnts_core_, &learnts_tier2_, &learnts_local_}) {
    for (std::size_t i = 0; i < list->size(); ++i) {
      const CRef cr = (*list)[i];
      const ClauseData& c = arena_[cr];
      if (c.freed()) continue;
      const auto id = static_cast<std::uint32_t>(entries.size());
      entries.push_back({cr, list, i, simplify::clause_signature(c.literals())});
      for (const Lit l : c.literals()) {
        occ[static_cast<std::size_t>(l.code())].push_back(id);
      }
      if (ticks > 0) ticks--;
    }
  }

  std::vector<std::uint8_t> mark(nlits, 0);
  Clause sub, result;
  constexpr std::uint32_t kMaxSubsumerSize = 20;
  bool out_of_budget = false;
  for (std::uint32_t ci = 0; ci < entries.size() && ok_ && !out_of_budget;
       ++ci) {
    if (ticks == 0) break;
    {
      const ClauseData& c = arena_[entries[ci].cr];
      if (c.freed() || c.size() > kMaxSubsumerSize) continue;
      sub.assign(c.lits(), c.lits() + c.size());
    }
    const std::uint64_t csig = entries[ci].sig;
    // Pivot: the literal with the fewest occurrences (both phases count -
    // the flipped phase is where self-subsumption candidates live).
    Lit pivot = sub[0];
    std::size_t best = static_cast<std::size_t>(-1);
    for (const Lit l : sub) {
      const std::size_t occs =
          occ[static_cast<std::size_t>(l.code())].size() +
          occ[static_cast<std::size_t>((~l).code())].size();
      if (occs < best) {
        best = occs;
        pivot = l;
      }
    }
    for (const int side : {0, 1}) {
      if (out_of_budget || !ok_) break;
      const Lit p = side == 0 ? pivot : ~pivot;
      for (const std::uint32_t di : occ[static_cast<std::size_t>(p.code())]) {
        if (ticks == 0) {
          out_of_budget = true;
          break;
        }
        ticks--;
        if (di == ci) continue;
        Entry& de = entries[di];
        if (!simplify::signature_subset(csig, de.sig)) continue;
        Lit flip = kUndefLit;
        bool fits = true;
        {
          const ClauseData& d = arena_[de.cr];
          // Binaries are never targets: strengthening or deleting a
          // definition binary would sever an equivalence link.
          if (d.freed() || d.size() < 3 || d.size() < sub.size()) continue;
          for (const Lit l : d.literals()) {
            mark[static_cast<std::size_t>(l.code())] = 1;
          }
          for (const Lit l : sub) {
            if (mark[static_cast<std::size_t>(l.code())] != 0) continue;
            if (mark[static_cast<std::size_t>((~l).code())] != 0 &&
                flip.is_undef()) {
              flip = ~l;  // l occurs flipped in d: SSR candidate
              continue;
            }
            fits = false;
            break;
          }
          for (const Lit l : d.literals()) {
            mark[static_cast<std::size_t>(l.code())] = 0;
          }
        }
        if (!fits) continue;
        if (flip.is_undef()) {
          // sub subsumes d outright. When d is irredundant, the formula's
          // strength now rests on sub alone, so a learnt sub is promoted to
          // irredundant first - otherwise a later reduce_db() could evict
          // it and leave the formula weaker than the input. The promoted
          // clause keeps its tier slot until compact() moves it to clauses_.
          if (!arena_[de.cr].learnt()) {
            ClauseData& s = arena_[entries[ci].cr];
            if (s.learnt()) {
              s.clear_learnt();
              s.set_tier(Tier::kCore);
              num_original_clauses_++;
            }
            num_original_clauses_--;
          }
          drop_clause(de.cr);
          stats_.inprocess_removed_clauses++;
          continue;
        }
        // Self-subsuming resolution: d loses `flip`. Root-assigned
        // literals are filtered so the replacement attaches cleanly.
        result.clear();
        bool satisfied = false;
        std::uint32_t old_size = 0;
        bool learnt = false;
        unsigned old_lbd = 0;
        Tier tier = Tier::kCore;
        float act = 0.0f;
        unsigned used = 0;
        {
          const ClauseData& d = arena_[de.cr];
          old_size = d.size();
          learnt = d.learnt();
          old_lbd = d.lbd();
          tier = d.tier();
          act = d.activity();
          used = d.used();
          for (const Lit l : d.literals()) {
            if (l == flip) continue;
            if (value(l) == LBool::kTrue) {
              satisfied = true;
              break;
            }
            if (value(l) == LBool::kFalse) continue;
            result.push_back(l);
          }
        }
        if (satisfied) continue;  // leave satisfied targets alone
        std::sort(result.begin(), result.end());
        if (proof_ != nullptr) proof_->add(result);
        if (result.empty()) {
          ok_ = false;
          break;
        }
        if (result.size() == 1) {
          if (!learnt) num_original_clauses_--;
          drop_clause(de.cr);
          stats_.inprocess_strengthened_lits += old_size - 1;
          if (!assert_root_unit(result[0])) break;
          continue;
        }
        const CRef nr = arena_.alloc(
            result, learnt,
            learnt ? std::min<unsigned>(old_lbd,
                                        static_cast<unsigned>(result.size()))
                   : 0,
            tier);
        {
          ClauseData& nc = arena_[nr];
          nc.set_activity(act);
          nc.set_used(used);
        }
        attach(nr);
        drop_clause(de.cr);
        (*de.list)[de.slot] = nr;
        de.cr = nr;
        de.sig = simplify::clause_signature(result);
        stats_.inprocess_strengthened_lits += old_size - result.size();
        if (result.size() == 2) stats_.binary_clauses++;
      }
    }
  }
  compact();
  return ok_;
}

bool Solver::inprocess_vivify(std::uint64_t& ticks) {
  assert(decision_level() == 0);
  const auto compact = [this] {
    for (auto* list :
         {&clauses_, &learnts_core_, &learnts_tier2_, &learnts_local_}) {
      std::erase_if(*list,
                    [this](CRef cr) { return arena_[cr].freed(); });
    }
  };
  const bool inject = vivify_bug_requested();
  bool injected = false;
  Clause lits, result;
  bool out_of_budget = false;
  // Core first: glue clauses propagate most, so shortening them pays most.
  for (auto* list :
       {&learnts_core_, &learnts_tier2_, &clauses_, &learnts_local_}) {
    if (out_of_budget || !ok_) break;
    for (std::size_t i = 0; i < list->size(); ++i) {
      if (ticks == 0) {
        out_of_budget = true;
        break;
      }
      if (!ok_) break;
      const CRef cr = (*list)[i];
      std::uint32_t old_size = 0;
      bool learnt = false;
      unsigned old_lbd = 0;
      Tier tier = Tier::kCore;
      float act = 0.0f;
      unsigned used = 0;
      {
        const ClauseData& c = arena_[cr];
        if (c.freed() || c.size() < 3) continue;
        lits.assign(c.lits(), c.lits() + c.size());
        old_size = c.size();
        learnt = c.learnt();
        old_lbd = c.lbd();
        tier = c.tier();
        act = c.activity();
        used = c.used();
      }
      // Root-value filter first: satisfied learnts are deleted, root-false
      // literals never enter the probe.
      bool satisfied = false;
      {
        std::size_t out = 0;
        for (const Lit l : lits) {
          if (value(l) == LBool::kTrue) {
            satisfied = true;
            break;
          }
          if (value(l) == LBool::kFalse) continue;
          lits[out++] = l;
        }
        if (!satisfied) lits.resize(out);
      }
      if (satisfied) {
        if (learnt) {
          drop_clause(cr);
          stats_.inprocess_removed_clauses++;
        }
        continue;
      }
      bool detached = false;
      if (inject && !injected && lits.size() == old_size && lits.size() >= 3) {
        // Injected fault (see vivify_bug_requested): unjustified drop.
        result.assign(lits.begin(), lits.end() - 1);
        injected = true;
      } else if (lits.size() >= 3) {
        // Probe: assume the negation of each literal in turn; conflicts and
        // satisfied tails prove a strictly shorter clause. The clause is
        // detached so it cannot propagate on itself.
        detach(cr);
        detached = true;
        result.clear();
        new_decision_level();
        for (std::size_t k = 0; k < lits.size(); ++k) {
          const Lit l = lits[k];
          const LBool v = value(l);
          if (v == LBool::kTrue) {
            // ~(result so far) propagates l: clause shrinks to result + l.
            result.push_back(l);
            break;
          }
          if (v == LBool::kFalse) continue;  // ~(result so far) implies ~l
          result.push_back(l);
          if (k + 1 == lits.size()) break;  // last literal: nothing to gain
          enqueue(~l, kCRefUndef);
          const std::uint64_t p0 = stats_.propagations;
          const CRef confl = propagate();
          ticks -= std::min(ticks, stats_.propagations - p0 + 1);
          if (confl != kCRefUndef) break;  // ~(result) is contradictory
          if (ticks == 0) {
            // Budget: keep the untested tail; drops so far stay justified.
            result.insert(result.end(), lits.begin() + k + 1, lits.end());
            out_of_budget = true;
            break;
          }
        }
        cancel_until(0);
      } else {
        result = lits;  // root-filter alone shortened it below 3
      }
      const auto remove_old = [&] {
        ClauseData& oc = arena_[cr];
        if (proof_ != nullptr) {
          proof_->remove(Clause(oc.lits(), oc.lits() + oc.size()));
        }
        if (detached) {
          detached = false;
        } else {
          detach(cr);
        }
        arena_.free_clause(cr);
      };
      if (result.size() == old_size) {
        if (detached) attach(cr);  // unchanged
        continue;
      }
      if (proof_ != nullptr) proof_->add(result);
      if (result.empty()) {
        ok_ = false;
        if (!learnt) num_original_clauses_--;
        remove_old();
        compact();
        return false;
      }
      if (result.size() == 1) {
        if (!learnt) num_original_clauses_--;
        remove_old();
        stats_.inprocess_strengthened_lits += old_size - 1;
        if (!assert_root_unit(result[0])) {
          compact();
          return false;
        }
        continue;
      }
      const CRef nr = arena_.alloc(
          result, learnt,
          learnt ? std::min<unsigned>(old_lbd,
                                      static_cast<unsigned>(result.size()))
                 : 0,
          tier);
      {
        ClauseData& nc = arena_[nr];
        nc.set_activity(act);
        nc.set_used(used);
      }
      attach(nr);
      remove_old();
      (*list)[i] = nr;
      stats_.inprocess_strengthened_lits += old_size - result.size();
      if (result.size() == 2) stats_.binary_clauses++;
    }
  }
  compact();
  return ok_;
}

}  // namespace olsq2::sat
