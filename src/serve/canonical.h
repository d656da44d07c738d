// Instance canonicalization for the result cache (serve/).
//
// Two synthesis instances that differ only by a relabeling of program
// qubits, a relabeling of physical qubits (a coupling-graph automorphism or
// isomorphism), or a commuting reorder of the gate list have the same
// optimal depth and SWAP count, and any solution of one transfers to the
// other through the relabeling (the metamorphic relations of fuzz/
// metamorphic.h). The quotient additionally ignores two-qubit operand
// orientation ("cx q0,q1" vs "cx q1,q0"): layout synthesis only constrains
// the mapped pair's adjacency, so a layout for one orientation is a layout
// for the other verbatim. This module computes a canonical representative of that
// equivalence class plus the permutation witness mapping the original
// instance onto it, so a cached result can be "un-relabeled" on a hit.
//
// Soundness does not rest on the labeling search being clever: the cache
// key IS the full serialized canonical instance (edge list + leveled gate
// list), compared byte-for-byte on lookup. Equal keys therefore mean the
// canonicalized instances are *literally identical*, and the two originals
// are related by the composed witnesses - the canonical form can merge only
// genuinely equivalent instances (DESIGN.md §10 gives the full argument).
// An imperfect search merely splits an equivalence class across several
// keys, costing a cache hit, never an answer.
//
// Algorithm: Weisfeiler-Leman color refinement (degree / gate-occurrence
// seeds, neighbor-multiset refinement to a fixpoint) followed by
// individualization-refinement search over the remaining color classes,
// taking the lexicographically smallest serialized leaf. The search is
// invariant under relabeling because every member of an ambiguous class is
// tried; a node budget guards the (symmetric-instance) worst case, falling
// back to an index tiebreak that is reproducible but labeling-dependent
// (`exact` reports which path produced the form).
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "device/device.h"

namespace olsq2::serve {

/// Canonical form of a coupling graph under physical-qubit relabeling.
struct DeviceCanon {
  /// perm[p_original] = p_canonical.
  std::vector<int> perm;
  /// Serialized canonical edge list, e.g. "D6:0-1,0-2,1-3".
  std::string key;
  /// True when the individualization search ran to completion (the form is
  /// invariant under relabeling); false when the node budget forced an
  /// index tiebreak (still reproducible and sound, but two relabelings of
  /// one graph may land on different keys).
  bool exact = true;
};

/// Canonical form of a circuit under program-qubit relabeling and
/// dependency-preserving (commuting) gate reorder.
struct CircuitCanon {
  /// qubit_perm[q_original] = q_canonical.
  std::vector<int> qubit_perm;
  /// gate_perm[g_original] = g_canonical (position in the canonical order).
  std::vector<int> gate_perm;
  /// Serialized canonical leveled gate list.
  std::string key;
  bool exact = true;
};

/// Full instance canonicalization: the circuit and device forms are
/// independent (the two relabeling groups act independently).
struct InstanceCanon {
  CircuitCanon circuit;
  DeviceCanon device;
  int swap_duration = 1;

  /// Cache key of the (circuit, device, S_D) instance - the problem alone,
  /// without objective or encoding configuration (callers append those).
  std::string instance_key() const;
};

/// Canonicalize a device coupling graph. O(n^2 log n) refinement plus a
/// budgeted individualization search.
DeviceCanon canonicalize_device(const device::Device& device);

/// Canonicalize a circuit. Gate levels (longest dependency chain ending at
/// each gate) are invariant under commuting reorder, so the canonical order
/// "sort by (level, name, params, canonical qubits)" quotients exactly the
/// commuting-reorder relation of fuzz/metamorphic.h.
CircuitCanon canonicalize_circuit(const circuit::Circuit& circuit);

InstanceCanon canonicalize(const circuit::Circuit& circuit,
                           const device::Device& device, int swap_duration);

/// Rebuild the canonical-space instance from the witness (the instance a
/// cache entry's result is stored against).
circuit::Circuit apply_circuit_canon(const circuit::Circuit& circuit,
                                     const CircuitCanon& canon);
device::Device apply_device_canon(const device::Device& device,
                                  const DeviceCanon& canon);

/// Inverse of a permutation vector: out[perm[i]] = i.
std::vector<int> invert_permutation(const std::vector<int>& perm);

}  // namespace olsq2::serve
