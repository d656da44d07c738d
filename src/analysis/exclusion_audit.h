// Mutual-exclusion audit: the semantic recognizer for the mapping
// injectivity constraints (paper §II-A constraint 1).
//
// Every injectivity encoding — pairwise disequalities, channeling through
// pi_inv, commander at-most-one — must make each "pin pair" (two program
// qubits claiming the same physical qubit at the same time step) jointly
// infeasible. The audit discharges each pair through the model's own
// solver under assumptions {a, b}: UNSAT proves the exclusion is covered
// regardless of which clause form encodes it. Layout models expose their
// obligation pairs via Model::injectivity_obligations().
#pragma once

#include <span>
#include <utility>

#include "analysis/audit.h"
#include "sat/types.h"

namespace olsq2::sat {
class Solver;
}

namespace olsq2::analysis {

/// Verify that no pair (a, b) can be simultaneously true in `solver`.
/// When `max_pairs` > 0 and there are more obligations than that, the list
/// is sampled with an even stride (reproducible); skipped obligations are
/// counted in the result. Learnt clauses persist across checks, so later
/// pairs are usually decided by unit propagation alone.
AuditResult audit_mutual_exclusion(
    sat::Solver& solver,
    std::span<const std::pair<sat::Lit, sat::Lit>> pairs,
    std::size_t max_pairs = 0);

}  // namespace olsq2::analysis
