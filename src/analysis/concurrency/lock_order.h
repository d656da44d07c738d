// Debug-mode lock-order tracker: the dynamic half of the concurrency
// contract layer (the static half is clang Thread Safety Analysis over the
// annotated primitives in util/sync.h).
//
// Every sync::Mutex carries a *rank name* ("serve.cache",
// "subarch.library", ...). While tracking is enabled, each acquisition that
// happens with other contract locks held records a directed edge
// held-name -> acquired-name in a process-wide acquisition graph, together
// with an example acquisition stack (the chain of held locks and the source
// locations where each was taken). Before inserting an edge A -> B the
// tracker searches for an existing path B => A; finding one means two
// threads could acquire the same locks in opposite orders, i.e. a potential
// deadlock, and a report carrying *both* acquisition stacks (the new one
// and the recorded example for every edge of the reverse path) is emitted.
//
// Orders are tracked by name, not by instance: two locks with the same name
// form one rank, so acquiring "serve.cache" twice (two caches nested)
// is itself reported as a self-cycle. This is the classic lock-hierarchy
// discipline; the per-subsystem hierarchy table lives in DESIGN.md §11.
//
// Activation:
//   OLSQ2_LOCK_ORDER=1       track and report each distinct cycle once to
//                            stderr (checked on first lock acquisition)
//   OLSQ2_LOCK_ORDER=abort   as above, then std::abort() on the first cycle
// or programmatically via set_enabled(true) (tests). Disabled cost: one
// relaxed atomic load per lock/unlock.
//
// The tracker deliberately uses raw std primitives internally (it *is* the
// contract layer's implementation, and wrapping its own mutex in
// sync::Mutex would recurse); tools/synclint_allowlist.txt records the
// exemption.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace olsq2::analysis::concurrency {

/// One held lock in an acquisition stack: rank name plus the source
/// location ("file:line") where this thread acquired it.
struct AcquisitionSite {
  std::string lock_name;
  std::string location;
};

/// One edge of a detected cycle, with the example acquisition stack that
/// first established the edge (outermost lock first; the last element is
/// the acquisition that created the edge).
struct CycleEdge {
  std::string from;
  std::string to;
  std::vector<AcquisitionSite> stack;
};

struct InversionReport {
  /// The acquisition that closed the cycle (lock being acquired last).
  std::string lock_name;
  /// Stack of the offending acquisition, outermost first, including the
  /// closing acquisition itself.
  std::vector<AcquisitionSite> stack;
  /// The pre-existing reverse path lock_name => (innermost held lock),
  /// each edge with its recorded example stack.
  std::vector<CycleEdge> reverse_path;
  /// Human-readable rendering of all of the above.
  std::string description;
};

/// Tracking state. set_enabled(false) keeps the recorded graph (re-enable
/// resumes); use reset() to drop it.
bool enabled();
void set_enabled(bool on);

/// Clear the acquisition graph, the reported-cycle memory, any pending
/// reports, and the abort-on-cycle mode (so tests that build deliberate
/// inversions survive OLSQ2_LOCK_ORDER=abort). Held-lock stacks of live
/// threads are untouched.
void reset();

/// Drain the reports accumulated since the last call (tests; stderr output
/// happens at detection time regardless).
std::vector<InversionReport> take_reports();

/// Number of contract locks currently held by the calling thread. The
/// solver's invariant auditor uses this to enforce that deep structure
/// walks never run under a hub lock (DESIGN.md §11).
std::size_t held_count();

namespace internal {
/// Hooks wired into sync::Mutex / sync::SharedMutex. `lock` identifies the
/// instance, `name` its rank. on_acquire is a no-op while tracking is
/// disabled; `check_order=false` (try_lock: cannot block, cannot deadlock)
/// pushes the held frame without recording an order edge. on_release always
/// pops the frame if present, so toggling tracking mid-hold cannot leave
/// stale frames.
void on_acquire(const void* lock, const char* name, const char* file,
                int line, bool check_order = true);
void on_release(const void* lock);
/// First-use env probe: applies OLSQ2_LOCK_ORDER. Called lazily from
/// on_acquire via a function-local static.
void apply_env_config();
}  // namespace internal

}  // namespace olsq2::analysis::concurrency
