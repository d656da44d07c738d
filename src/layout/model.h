// Time-resolved SAT model for layout synthesis (paper §III-A), covering
// both the succinct OLSQ2 formulation and the original OLSQ formulation
// with per-gate space variables (for the Table I/II baselines).
//
// Variables (OLSQ2):
//   pi[q][t]   mapping variable: physical qubit of program qubit q at t
//   time[g]    execution time step of gate g
//   sigma[e][t] SWAP on edge e finishing at time t
// The OLSQ baseline additionally materializes a space variable x[g] per
// gate (edge index for two-qubit gates, physical qubit for single-qubit
// gates) and the consistency constraints tying x to pi and time - exactly
// the redundancy the paper eliminates.
//
// Objective bounds are exposed as assumption literals so the optimizer's
// iterative refinement reuses one incrementally-solved instance.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/dependency.h"
#include "encode/totalizer.h"
#include "layout/types.h"

namespace olsq2::layout {

class Model {
 public:
  /// Build the full constraint system for depths 0..t_ub-1. When `proof`
  /// is non-null the solver logs a DRAT proof, and when `log_clauses` is
  /// set the original CNF is retained (both needed for certification and
  /// DIMACS export; they must be armed before constraints are emitted,
  /// hence constructor parameters).
  Model(const Problem& problem, int t_ub, const EncodingConfig& config,
        sat::Proof* proof = nullptr, bool log_clauses = false);

  sat::Solver& solver() { return solver_; }
  int t_ub() const { return t_ub_; }

  /// Assumption literal enforcing depth <= t_b (all t_g < t_b). Cached.
  Lit depth_bound(int t_b);

  /// Assumption literal enforcing total SWAP count <= s_b via a totalizer
  /// (built on first use).
  Lit swap_bound(int s_b);

  /// Hard-assert the SWAP bound with the chosen one-shot encoding
  /// (sequential counter or adder network) - Table II configurations.
  void assert_swap_bound_hard(int s_b, CardEncoding encoding);

  /// Decode the current model into a Result (call after a SAT answer).
  /// Swaps finishing at or after the final depth are dropped as inert.
  Result extract() const;

  /// Number of SWAP variables that are true in the current model.
  int count_swaps() const;

  /// The injectivity obligations this model must enforce: one literal pair
  /// per (program-qubit pair, physical qubit, time step) that may never be
  /// simultaneously true, regardless of which InjectivityEncoding emitted
  /// the clauses. Input for analysis::audit_mutual_exclusion — the
  /// recognizer that checks the encoding covers every pin pair.
  std::vector<std::pair<Lit, Lit>> injectivity_obligations();

 private:
  void build_variables();
  void build_injectivity();
  void build_dependencies();
  void build_two_qubit_adjacency();      // OLSQ2 Eq. 1
  void build_space_consistency();        // OLSQ baseline extra constraints
  void build_mapping_transitions();      // paper constraint (4)
  void build_swap_swap_exclusion();
  void build_swap_gate_exclusion();      // Eq. 2-3 (or space-var variant)

  Lit sigma(int e, int t) const { return sigma_[e][t]; }
  // A SWAP finishing at t occupies [t-S_D+1, t] and takes effect on the
  // t-1 -> t transition, so t must be >= max(1, S_D-1).
  bool sigma_is_real(int t) const {
    return t >= problem_.swap_duration - 1 && t >= 1;
  }

  const Problem& problem_;
  const circuit::Circuit& circ_;
  const device::Device& dev_;
  int t_ub_;
  EncodingConfig config_;

  sat::Solver solver_;
  encode::CnfBuilder builder_;
  circuit::DependencyGraph deps_;

  std::vector<std::vector<FdVar>> pi_;      // [q][t]
  std::vector<FdVar> time_;                 // [g]
  std::vector<std::vector<Lit>> sigma_;     // [e][t]
  std::vector<Lit> sigma_flat_;             // all real SWAP literals
  std::vector<std::vector<FdVar>> pi_inv_;  // [p][t], channeling only
  std::vector<FdVar> space_;                // [g], baseline only

  std::map<int, Lit> depth_bound_cache_;
  std::unique_ptr<encode::Totalizer> swap_totalizer_;
};

}  // namespace olsq2::layout
