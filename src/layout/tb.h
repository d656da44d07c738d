// Transition-based (coarse-grained) layout synthesis: TB-OLSQ2
// (paper §III-D) and the TB-OLSQ baseline.
//
// Time is abstracted into blocks separated by SWAP layers. Within a block
// the mapping is fixed and dependent gates may share the block (dependency
// becomes t_g <= t_g'); SWAPs only happen between blocks, so the SWAP/gate
// exclusion constraints (Eq. 2-3) vanish. Objectives: block count (via the
// depth strategy with T_B starting at 1 and incremented) or SWAP count (via
// iterative descent). Results are near-optimal for SWAP count at a fraction
// of the time-resolved model's cost.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "circuit/dependency.h"
#include "encode/totalizer.h"
#include "layout/types.h"

namespace olsq2::layout {

class TbModel {
 public:
  /// Build the block-resolved constraint system with `max_blocks` blocks.
  TbModel(const Problem& problem, int max_blocks, const EncodingConfig& config);

  sat::Solver& solver() { return solver_; }
  int max_blocks() const { return max_blocks_; }

  /// Pin the block-0 mapping (windowed synthesis: continue from the
  /// previous window's exit mapping). mapping[q] = physical qubit.
  void pin_initial_mapping(const std::vector<int>& mapping);

  /// Assumption literal enforcing all gates inside the first `blocks` blocks.
  Lit block_bound(int blocks);

  /// Assumption literal enforcing total SWAP count <= s_b (totalizer).
  Lit swap_bound(int s_b);

  /// Hard-assert the SWAP bound (one-shot encodings for Table II).
  void assert_swap_bound_hard(int s_b, CardEncoding encoding);

  /// Decode the current model (after SAT). `depth` holds the block count.
  Result extract() const;

 private:
  void build_variables();
  void build_injectivity();
  void build_dependencies();
  void build_adjacency();
  void build_transitions();

  const Problem& problem_;
  const circuit::Circuit& circ_;
  const device::Device& dev_;
  int max_blocks_;
  EncodingConfig config_;

  sat::Solver solver_;
  encode::CnfBuilder builder_;
  circuit::DependencyGraph deps_;

  std::vector<std::vector<FdVar>> pi_;      // [q][block]
  std::vector<FdVar> time_;                 // [g] -> block index
  std::vector<std::vector<Lit>> sigma_;     // [e][transition 0..B-2]
  std::vector<Lit> sigma_flat_;
  std::vector<std::vector<FdVar>> pi_inv_;  // channeling only
  std::vector<FdVar> space_;                // baseline (TB-OLSQ) only

  std::map<int, Lit> block_bound_cache_;
  std::unique_ptr<encode::Totalizer> swap_totalizer_;
};

/// Minimize the block count, then run iterative descent on the SWAP count
/// (TB-OLSQ2's SWAP objective; Table IV). Relaxes the block count while the
/// SWAP count keeps improving, mirroring the 2-D sweep. The sweep also keeps
/// a proven lower bound from the block-compression lemma (t SWAPs fit in
/// t+1 blocks): it stops, with a proof, once the incumbent meets that bound
/// and `hit_budget` is false; otherwise it stops on the paper's plateau rule
/// (`pareto` then ends on two equal SWAP counts) or on the budget. TB reads
/// no bound facts from `options.exchange`: they are keyed by depth.
Result tb_synthesize_swap_optimal(const Problem& problem,
                                  const EncodingConfig& config = {},
                                  const OptimizerOptions& options = {});

/// Minimize the block count only (the TB depth-objective analog).
Result tb_synthesize_block_optimal(const Problem& problem,
                                   const EncodingConfig& config = {},
                                   const OptimizerOptions& options = {});

/// One-shot TB solve with fixed block count and optional hard SWAP bound
/// (Table II's TB configurations, the subarchitecture ladder's probes).
/// `cancel`, when set, interrupts the solve like an expired budget
/// (hit_budget, no answer).
Result tb_solve_fixed(const Problem& problem, int blocks, int swap_bound,
                      const EncodingConfig& config = {},
                      double time_budget_ms = 0.0,
                      const std::atomic<bool>* cancel = nullptr);

}  // namespace olsq2::layout
