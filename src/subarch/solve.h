// Certified subarchitecture solving: the k-ladder (DESIGN.md §14.3).
//
// For k = 0, 1, 2, ... the ladder enumerates every isomorphism class of
// connected induced (|Q|+k)-vertex subgraphs of the device and asks one
// memoized TB feasibility question per class: "<= k SWAPs in k+1 blocks?"
// (k+1 blocks suffice for any <=k-SWAP transition-based solution - merge
// swap-free transitions). The planner (plan::synthesize) answers probes
// with a small root space, a TB SAT call the rest; both compute the same
// TB SWAP optimum, so the answer and its memo entry do not depend on the
// engine. Any SAT class ends the ladder: combined with the
// all-UNSAT rounds before it, the lifted solution's SWAP count k is the
// certified full-device optimum (§14.2's region argument maps every
// full-device <=k-SWAP solution into some enumerated class). All-UNSAT
// rounds increment k. Any other gate failure - disconnected interaction
// graph, enumeration cap, ladder cap - degrades to the direct engine on the
// full device under what is left of the caller's budget, so the wrappers
// below are always safe drop-in replacements. A ladder stopped by the
// budget or the cancel flag returns an unsolved hit_budget result instead:
// the caller's budget is spent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layout/types.h"
#include "plan/plan.h"
#include "subarch/extract.h"
#include "subarch/library.h"

namespace olsq2::subarch {

struct SubarchOptions {
  /// Master switch (the serve pre-pass exposes it per server).
  bool enable = true;
  /// Devices below this size solve directly (the ladder's constant costs
  /// only pay off when the direct encoding is large). Force 0 in tests
  /// and oracles to exercise the ladder on tiny devices.
  int min_device_qubits = 24;
  /// Ladder cap: give up (fall back) once k exceeds this.
  int max_extra_qubits = 6;
  /// Enumeration budgets (subarch/extract.h).
  ExtractOptions extract;
  /// Probe memoization; nullptr uses the process-wide library.
  Library* library = nullptr;
};

/// Telemetry of one wrapper invocation (also the hook tests and the fuzz
/// oracle assert against).
struct SubarchOutcome {
  /// The ladder closed and produced the returned result: its SWAP count is
  /// the certified full-device optimum (false = direct fallback or miss).
  bool certified = false;
  /// Why the pre-pass disengaged (empty when certified).
  std::string fallback_reason;
  int sub_qubits = 0;
  int swap_optimum = -1;
  /// full qubits / sub qubits (the histogram the obs layer aggregates).
  double reduction_ratio = 0.0;
  /// Winning embedding witness (sub index -> full physical index).
  std::vector<int> to_full;
  int rounds = 0;
  std::int64_t probes = 0;
  std::int64_t library_hits = 0;
  std::int64_t classes_total = 0;
};

/// Certified swap-optimal transition-based synthesis through the
/// subarchitecture ladder; equals layout::tb_synthesize_swap_optimal's
/// swap optimum on every instance (fuzz::check_subarch), falls back to it
/// on any gate failure except budget or cancel. The lifted result is
/// verified against the full device before being returned.
layout::Result tb_synthesize_swap_optimal(
    const layout::Problem& problem, const layout::EncodingConfig& config = {},
    const layout::OptimizerOptions& options = {},
    const SubarchOptions& subopts = {}, SubarchOutcome* outcome = nullptr);

/// Planning engine on the winning subarchitecture: the ladder certifies
/// the SWAP optimum, plan::synthesize reproduces it on the small
/// subdevice (complete root enumeration again feasible at 100+ qubit
/// scale, where the direct engine's max_roots sampling demotes results
/// to upper bounds), and the lifted PlanResult keeps optimal=true.
plan::PlanResult plan_synthesize(const layout::Problem& problem,
                                 const plan::PlanOptions& options = {},
                                 const SubarchOptions& subopts = {},
                                 SubarchOutcome* outcome = nullptr);

/// The classes the ladder probes at subdevice size `size` (|Q| + k, capped
/// at the device): the whole device as one class once `size` reaches it,
/// else enumerate_cover. The probe-engine oracle (fuzz::check_subarch)
/// walks the same classes.
Cover ladder_cover(const device::Device& dev, int size,
                   const ExtractOptions& options = {});

/// True when the transparent serve pre-pass should engage for this
/// problem (enabled, device at/above threshold, more physical than
/// program qubits).
bool should_engage(const layout::Problem& problem,
                   const SubarchOptions& subopts);

}  // namespace olsq2::subarch
