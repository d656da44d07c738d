// The optimizer driver shared by OLSQ2 (olsq2.cpp), TB-OLSQ2 (tb.cpp) and
// windowed synthesis (windowed.cpp). Paper §III-B's loop shape - bounds as
// assumption literals on one incremental solver, relaxed and then descended
// - is the same in all three; this header owns the parts that do not
// differ between them:
//
//   - the wall-clock budget and arming each SAT call with what is left;
//   - solver setup (restart policy, cancel flag, VSIDS seed);
//   - the one record of each SAT call: trace span, SolveCall, Result
//     diagnostics and the per-engine metrics;
//   - the SWAP descent at a fixed primary bound (depth or block count);
//   - the TB block phase (smallest satisfiable block count).
//
// The engines keep what differs: OLSQ2's depth phase and model regrowth,
// TB's compression lower bound and block relaxation, the windowing.
// Internal to the layout library.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "layout/tb.h"
#include "layout/types.h"

namespace olsq2::layout {

/// Which optimizer issues the calls. Picks the span names ("olsq2.solve",
/// "tb.solve", "windowed.solve"), the span's primary-bound argument
/// ("depth_bound" or "block_bound") and the metric engine label
/// ("time-resolved" or "transition-based").
enum class SearchEngine { kTimeResolved, kTransitionBased, kWindowed };

class Search {
 public:
  /// `options` supplies the budget and the solver settings configure()
  /// applies.
  Search(SearchEngine engine, const OptimizerOptions& options);

  double elapsed_ms() const;
  bool expired() const;
  /// Some SAT call came back undecided (budget or cancellation).
  bool hit_budget() const { return diag_.hit_budget; }

  /// Restart policy, cancel flag and VSIDS seed for a freshly built model.
  void configure(sat::Solver& solver) const;

  /// One SAT call under the remaining budget, recorded once. `primary`
  /// (depth or block bound) and `swap_bound` of -1 mean "not assumed".
  sat::LBool solve(sat::Solver& solver, const std::vector<Lit>& assumptions,
                   int primary, int swap_bound);

  /// Move the accumulated diagnostics into `result`; hit_budget is set when
  /// a call was undecided or the budget is gone.
  void finish(Result& result);

  /// Iterative SWAP descent at fixed primary bound `primary` (paper
  /// §III-B2), improving `best` in place. It stops once the incumbent
  /// reaches the proven `lower` bound. Returns the largest SWAP bound
  /// refuted at `primary`, or -1. Instantiated for Model and TbModel.
  template <class M>
  int descend_swaps(M& model, int primary, int lower, Result& best);

 private:
  using Clock = std::chrono::steady_clock;

  SearchEngine engine_;
  OptimizerOptions options_;
  Clock::time_point start_ = Clock::now();
  Result diag_;
};

/// A TbModel of capacity `max_blocks`, configured by `search`, with its
/// block-0 mapping pinned to `pinned` unless that is empty.
std::unique_ptr<TbModel> make_tb_model(const Search& search,
                                       const Problem& problem, int max_blocks,
                                       const EncodingConfig& config,
                                       const std::vector<int>& pinned = {});

struct BlockPhase {
  std::unique_ptr<TbModel> model;  // the model the solution came from
  Result best;                     // solved=false: budget ran out first
  int blocks = -1;                 // B_min; B_min-1 blocks were refuted
};

/// Minimize the block count: T_B starts at 1 and increments on UNSAT
/// (paper §III-D). `pinned` fixes the block-0 mapping (windowed synthesis).
BlockPhase tb_block_phase(Search& search, const Problem& problem,
                          const EncodingConfig& config,
                          const std::vector<int>& pinned = {});

}  // namespace olsq2::layout
