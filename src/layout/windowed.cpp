#include "layout/windowed.h"

#include "circuit/dependency.h"
#include "layout/search.h"
#include "obs/obs.h"

namespace olsq2::layout {

WindowedResult synthesize_windowed_swap(const Problem& problem,
                                        const WindowedOptions& options,
                                        const EncodingConfig& config) {
  obs::Span top_span("windowed.swap");
  // Windows keep the solver's default restart policy.
  Search search(SearchEngine::kWindowed,
                {.time_budget_ms = options.time_budget_ms,
                 .restart_policy = sat::Solver::RestartPolicy::kAlternating});

  WindowedResult result;
  const circuit::Circuit& circ = *problem.circuit;
  const circuit::DependencyGraph deps(circ);

  // Split dependency layers into windows of ~gates_per_window gates.
  std::vector<circuit::Circuit> windows;
  {
    circuit::Circuit current(circ.num_qubits(), circ.name() + "_win");
    for (const auto& layer : deps.asap_layers()) {
      if (current.num_gates() > 0 &&
          current.num_gates() + static_cast<int>(layer.size()) >
              options.gates_per_window) {
        windows.push_back(std::move(current));
        current = circuit::Circuit(circ.num_qubits(), circ.name() + "_win");
      }
      for (const int g : layer) {
        const circuit::Gate& gate = circ.gate(g);
        if (gate.is_two_qubit()) {
          current.add_gate(gate.name, gate.q0, gate.q1, gate.params);
        } else {
          current.add_gate(gate.name, gate.q0, gate.params);
        }
      }
    }
    if (current.num_gates() > 0) windows.push_back(std::move(current));
  }
  result.window_count = static_cast<int>(windows.size());
  if (windows.empty()) {
    result.solved = true;
    return result;
  }

  top_span.arg("windows", result.window_count);

  std::vector<int> mapping;  // exit mapping of the previous window
  int window_index = 0;
  for (const circuit::Circuit& window : windows) {
    obs::Span window_span("windowed.window");
    window_span.arg("index", window_index++);
    window_span.arg("gates", window.num_gates());
    const Problem sub{&window, problem.device, problem.swap_duration};
    // Smallest satisfiable block count with the pinned entry mapping; the
    // block-compression lemma holds with block 0 pinned, so the B_min-1
    // refuted blocks close the descent at B_min-1 SWAPs without an UNSAT
    // proof there.
    BlockPhase phase = tb_block_phase(search, sub, config, mapping);
    if (!phase.best.solved) {
      result.hit_budget = true;
      result.wall_ms = search.elapsed_ms();
      return result;
    }
    Result& best = phase.best;
    search.descend_swaps(*phase.model, phase.blocks, phase.blocks - 1, best);

    result.window_mappings.push_back(best.mapping.front());
    result.swap_count += best.swap_count;
    mapping = best.mapping.back();
  }

  result.final_mapping = mapping;
  result.solved = true;
  result.wall_ms = search.elapsed_ms();
  return result;
}

}  // namespace olsq2::layout
