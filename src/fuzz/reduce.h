// Delta-debugging reducer: shrink a failing instance to a minimal repro.
//
// Classic ddmin (Zeller & Hildebrandt) over the gate list, followed by
// program-qubit compaction and greedy device shrinking (edge removal, then
// spare-physical-qubit removal, both constrained to keep the coupling graph
// connected). The predicate is "does the failure still reproduce" - any
// oracle from oracles.h curried over the candidate instance. The result is
// what gets persisted to tests/corpus/ as a self-contained QASM + device
// JSON pair.
#pragma once

#include <functional>

#include "fuzz/generator.h"

namespace olsq2::fuzz {

/// Returns true when the candidate instance still exhibits the failure.
/// Must give the same answer for the same instance; the reducer calls it
/// many times.
using FailurePredicate = std::function<bool(const Instance&)>;

struct ReduceOptions {
  /// Cap on predicate evaluations; the reducer returns its best-so-far
  /// once exhausted (each evaluation re-runs exact synthesis).
  int max_predicate_calls = 400;
};

struct ReduceResult {
  Instance instance;
  int predicate_calls = 0;
  /// False when the input instance did not fail the predicate at all (the
  /// input is returned unchanged in that case).
  bool input_failed = true;
};

/// Shrink `failing` while `still_fails` keeps returning true.
ReduceResult reduce(const Instance& failing, const FailurePredicate& still_fails,
                    const ReduceOptions& options = {});

}  // namespace olsq2::fuzz
