#include "layout/model.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "analysis/lint.h"
#include "encode/cardinality.h"
#include "obs/obs.h"

namespace olsq2::layout {

namespace {

// OLSQ2_LINT_ENCODING=1 runs the CNF linter over every freshly built model
// and aborts on lint errors — the debug path CI's lint job exercises.
bool lint_encodings_enabled() {
  static const bool enabled = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once via static init.
    const char* v = std::getenv("OLSQ2_LINT_ENCODING");
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return enabled;
}

// Fault injection for the fuzzing harness (src/fuzz/): when
// OLSQ2_FUZZ_INJECT_ENCODING_BUG is set, the pairwise injectivity encoding
// deliberately omits the clauses separating program qubits 0 and 1, so
// decoded mappings may stack both on one physical qubit. The fuzzer's
// verifier/differential oracles must catch this and the reducer must shrink
// it to a minimal repro - the end-to-end self-test of the whole harness.
// Never set this variable outside that test. Re-read on every model build
// (not cached) so one process can test both arms.
bool inject_encoding_bug() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): only the single-threaded fuzz
  // harness sets this variable (and only between solves, never mid-solve).
  const char* v = std::getenv("OLSQ2_FUZZ_INJECT_ENCODING_BUG");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

}  // namespace

std::string EncodingConfig::label() const {
  std::string s = formulation == Formulation::kOlsq2 ? "OLSQ2" : "OLSQ";
  s += "(";
  if (injectivity == InjectivityEncoding::kChanneling) s += "EUF+";
  if (injectivity == InjectivityEncoding::kAmoPerQubit) s += "AMO+";
  s += vars == VarEncoding::kBinary ? "bv" : "int";
  s += ")";
  return s;
}

Model::Model(const Problem& problem, int t_ub, const EncodingConfig& config,
             sat::Proof* proof, bool log_clauses)
    : problem_(problem),
      circ_(*problem.circuit),
      dev_(*problem.device),
      t_ub_(t_ub),
      config_(config),
      builder_(solver_),
      deps_(circ_) {
  solver_.set_proof(proof);
  solver_.set_clause_log(log_clauses || lint_encodings_enabled());
  if (circ_.num_qubits() > dev_.num_qubits()) {
    throw std::invalid_argument("layout: circuit has more program qubits (" +
                                std::to_string(circ_.num_qubits()) +
                                ") than the device has physical qubits (" +
                                std::to_string(dev_.num_qubits()) + ")");
  }
  if (t_ub_ < deps_.longest_chain()) {
    throw std::invalid_argument("layout: depth horizon below the dependency "
                                "lower bound T_LB");
  }
  // Encoding is timed separately from solving: on large horizons CNF
  // generation is its own hot phase.
  obs::Span span("olsq2.encode");
  build_variables();
  build_injectivity();
  build_dependencies();
  build_two_qubit_adjacency();
  if (config_.formulation == Formulation::kOlsqBaseline) {
    build_space_consistency();
  }
  build_mapping_transitions();
  build_swap_swap_exclusion();
  build_swap_gate_exclusion();

  // Domain-guided phase hints (paper §V): bias the search toward the
  // identity mapping and an ASAP schedule. Never constrains the model.
  for (int q = 0; q < circ_.num_qubits(); ++q) {
    for (int t = 0; t < t_ub_; ++t) pi_[q][t].suggest(solver_, q);
  }
  for (int g = 0; g < circ_.num_gates(); ++g) {
    time_[g].suggest(solver_, deps_.chain_depth(g) - 1);
  }
  if (span.live()) {
    span.arg("t_ub", t_ub_);
    span.arg("vars", solver_.num_vars());
    span.arg("clauses", static_cast<std::int64_t>(solver_.num_clauses()));
  }

  if (lint_encodings_enabled()) {
    const analysis::LintReport report =
        analysis::lint_cnf(solver_.num_vars(), solver_.clause_log());
    std::cerr << "[olsq2-lint] " << config_.label() << " t_ub=" << t_ub_
              << ": " << report.errors << " errors, " << report.warnings
              << " warnings, " << report.infos << " infos over "
              << report.num_clauses << " clauses\n";
    if (!report.ok()) {
      throw std::logic_error("encoding lint failed for " + config_.label() +
                             ": " + report.to_json());
    }
  }
}

void Model::build_variables() {
  const int num_q = circ_.num_qubits();
  const int num_p = dev_.num_qubits();

  pi_.resize(num_q);
  for (int q = 0; q < num_q; ++q) {
    pi_[q].reserve(t_ub_);
    for (int t = 0; t < t_ub_; ++t) {
      pi_[q].push_back(FdVar::make(builder_, num_p, config_.vars));
    }
  }

  time_.reserve(circ_.num_gates());
  for (int g = 0; g < circ_.num_gates(); ++g) {
    time_.push_back(FdVar::make(builder_, t_ub_, config_.vars));
  }

  // SWAP variables are Boolean in every configuration (paper §II-C). A SWAP
  // finishing at t occupies [t - S_D + 1, t], so t < S_D - 1 is impossible.
  sigma_.resize(dev_.num_edges());
  for (int e = 0; e < dev_.num_edges(); ++e) {
    sigma_[e].reserve(t_ub_);
    for (int t = 0; t < t_ub_; ++t) {
      if (sigma_is_real(t)) {
        const Lit l = builder_.new_lit();
        sigma_[e].push_back(l);
        sigma_flat_.push_back(l);
      } else {
        sigma_[e].push_back(builder_.false_lit());
      }
    }
  }

  if (config_.injectivity == InjectivityEncoding::kChanneling) {
    pi_inv_.resize(num_p);
    for (int p = 0; p < num_p; ++p) {
      pi_inv_[p].reserve(t_ub_);
      for (int t = 0; t < t_ub_; ++t) {
        pi_inv_[p].push_back(FdVar::make(builder_, num_q, config_.vars));
      }
    }
  }

  if (config_.formulation == Formulation::kOlsqBaseline) {
    space_.reserve(circ_.num_gates());
    for (int g = 0; g < circ_.num_gates(); ++g) {
      const int domain =
          circ_.gate(g).is_two_qubit() ? dev_.num_edges() : dev_.num_qubits();
      space_.push_back(FdVar::make(builder_, domain, config_.vars));
    }
  }
}

void Model::build_injectivity() {
  const int num_q = circ_.num_qubits();
  const int num_p = dev_.num_qubits();
  for (int t = 0; t < t_ub_; ++t) {
    if (config_.injectivity == InjectivityEncoding::kChanneling) {
      // pi_inv(pi(q,t), t) = q: mapping q to p forces the inverse at p to
      // name q, so no two program qubits can share a physical qubit.
      for (int q = 0; q < num_q; ++q) {
        for (int p = 0; p < num_p; ++p) {
          builder_.imply(pi_[q][t].eq(builder_, p),
                         pi_inv_[p][t].eq(builder_, q));
        }
      }
    } else if (config_.injectivity == InjectivityEncoding::kAmoPerQubit) {
      // Commander at-most-one occupant per physical qubit: linear in |Q|
      // per (p, t) instead of quadratic.
      for (int p = 0; p < num_p; ++p) {
        std::vector<Lit> occupants;
        occupants.reserve(num_q);
        for (int q = 0; q < num_q; ++q) {
          occupants.push_back(pi_[q][t].eq(builder_, p));
        }
        encode::at_most_one_commander(builder_, occupants);
      }
    } else {
      // Pairwise disequalities, expanded per physical qubit.
      const bool buggy = inject_encoding_bug();
      for (int q = 0; q < num_q; ++q) {
        for (int r = q + 1; r < num_q; ++r) {
          if (buggy && q == 0 && r == 1) continue;  // see inject_encoding_bug()
          for (int p = 0; p < num_p; ++p) {
            builder_.add({~pi_[q][t].eq(builder_, p), ~pi_[r][t].eq(builder_, p)});
          }
        }
      }
    }
  }
}

void Model::build_dependencies() {
  for (const auto& [earlier, later] : deps_.pairs()) {
    time_[earlier].assert_lt(builder_, time_[later]);
  }
}

void Model::build_two_qubit_adjacency() {
  // Eq. 1: (t_g == t) -> some edge hosts the gate's qubit pair at time t.
  // The baseline formulation routes this through space variables instead
  // (build_space_consistency), matching OLSQ's original constraints.
  if (config_.formulation == Formulation::kOlsqBaseline) return;
  for (int g = 0; g < circ_.num_gates(); ++g) {
    const circuit::Gate& gate = circ_.gate(g);
    if (!gate.is_two_qubit()) continue;
    for (int t = 0; t < t_ub_; ++t) {
      std::vector<Lit> arrangements;
      arrangements.reserve(2 * dev_.num_edges());
      for (const device::Edge& e : dev_.edges()) {
        arrangements.push_back(
            builder_.mk_and(pi_[gate.q0][t].eq(builder_, e.p0),
                            pi_[gate.q1][t].eq(builder_, e.p1)));
        arrangements.push_back(
            builder_.mk_and(pi_[gate.q0][t].eq(builder_, e.p1),
                            pi_[gate.q1][t].eq(builder_, e.p0)));
      }
      builder_.imply(time_[g].eq(builder_, t),
                     builder_.mk_or(arrangements));
    }
  }
}

void Model::build_space_consistency() {
  // OLSQ baseline: space variable x_g names where gate g executes; extra
  // consistency constraints tie it to the mapping at the execution time.
  for (int g = 0; g < circ_.num_gates(); ++g) {
    const circuit::Gate& gate = circ_.gate(g);
    if (gate.is_two_qubit()) {
      for (int t = 0; t < t_ub_; ++t) {
        const Lit at_t = time_[g].eq(builder_, t);
        for (int e = 0; e < dev_.num_edges(); ++e) {
          const device::Edge& edge = dev_.edge(e);
          const Lit a1 = builder_.mk_and(pi_[gate.q0][t].eq(builder_, edge.p0),
                                         pi_[gate.q1][t].eq(builder_, edge.p1));
          const Lit a2 = builder_.mk_and(pi_[gate.q0][t].eq(builder_, edge.p1),
                                         pi_[gate.q1][t].eq(builder_, edge.p0));
          builder_.add({~at_t, ~space_[g].eq(builder_, e),
                        builder_.mk_or({a1, a2})});
        }
      }
    } else {
      for (int t = 0; t < t_ub_; ++t) {
        const Lit at_t = time_[g].eq(builder_, t);
        for (int p = 0; p < dev_.num_qubits(); ++p) {
          builder_.add({~at_t, ~space_[g].eq(builder_, p),
                        pi_[gate.q0][t].eq(builder_, p)});
        }
      }
    }
  }
}

void Model::build_mapping_transitions() {
  // Paper constraint (4): the mapping evolves only through SWAPs.
  const int num_q = circ_.num_qubits();
  const int num_p = dev_.num_qubits();
  for (int q = 0; q < num_q; ++q) {
    for (int t = 1; t < t_ub_; ++t) {
      // Stay: if no SWAP finishing at t touches p, the occupant remains.
      for (int p = 0; p < num_p; ++p) {
        std::vector<Lit> clause;
        clause.push_back(~pi_[q][t - 1].eq(builder_, p));
        for (const int e : dev_.edges_at(p)) {
          if (sigma_is_real(t)) clause.push_back(sigma_[e][t]);
        }
        clause.push_back(pi_[q][t].eq(builder_, p));
        builder_.add(std::move(clause));
      }
      // Move: a SWAP finishing at t carries the occupant across its edge.
      if (!sigma_is_real(t)) continue;
      for (int e = 0; e < dev_.num_edges(); ++e) {
        const device::Edge& edge = dev_.edge(e);
        builder_.add({~sigma_[e][t], ~pi_[q][t - 1].eq(builder_, edge.p0),
                      pi_[q][t].eq(builder_, edge.p1)});
        builder_.add({~sigma_[e][t], ~pi_[q][t - 1].eq(builder_, edge.p1),
                      pi_[q][t].eq(builder_, edge.p0)});
      }
    }
  }
}

void Model::build_swap_swap_exclusion() {
  // Two SWAPs sharing a physical qubit may not overlap in time.
  const int sd = problem_.swap_duration;
  for (int e = 0; e < dev_.num_edges(); ++e) {
    const device::Edge& edge = dev_.edge(e);
    for (int t = std::max(1, sd - 1); t < t_ub_; ++t) {
      for (int e2 = 0; e2 < dev_.num_edges(); ++e2) {
        const device::Edge& other = dev_.edge(e2);
        const bool shares = other.touches(edge.p0) || other.touches(edge.p1);
        if (!shares) continue;
        const int lo = std::max(sd - 1, t - sd + 1);
        for (int t2 = lo; t2 <= t; ++t2) {
          if (t2 == t && e2 >= e) continue;  // avoid duplicates/self
          builder_.add({~sigma_[e][t], ~sigma_[e2][t2]});
        }
      }
    }
  }
}

void Model::build_swap_gate_exclusion() {
  // Eq. 2-3: a SWAP finishing at t on edge e excludes gates during
  // (t - S_D, t] on any qubit mapped to e's endpoints. The baseline
  // formulation phrases the same rule through space variables.
  const int sd = problem_.swap_duration;
  const bool baseline = config_.formulation == Formulation::kOlsqBaseline;
  for (int e = 0; e < dev_.num_edges(); ++e) {
    const device::Edge& edge = dev_.edge(e);
    // Edges overlapping e (for the baseline two-qubit rule).
    std::vector<int> overlapping_edges;
    if (baseline) {
      for (int e2 = 0; e2 < dev_.num_edges(); ++e2) {
        const device::Edge& other = dev_.edge(e2);
        if (other.touches(edge.p0) || other.touches(edge.p1)) {
          overlapping_edges.push_back(e2);
        }
      }
    }
    for (int t = std::max(1, sd - 1); t < t_ub_; ++t) {
      const Lit swap_lit = sigma_[e][t];
      for (int t2 = std::max(0, t - sd + 1); t2 <= t; ++t2) {
        for (int g = 0; g < circ_.num_gates(); ++g) {
          const circuit::Gate& gate = circ_.gate(g);
          const Lit gate_at = time_[g].eq(builder_, t2);
          if (baseline) {
            if (gate.is_two_qubit()) {
              for (const int e2 : overlapping_edges) {
                builder_.add({~swap_lit, ~gate_at,
                              ~space_[g].eq(builder_, e2)});
              }
            } else {
              builder_.add({~swap_lit, ~gate_at,
                            ~space_[g].eq(builder_, edge.p0)});
              builder_.add({~swap_lit, ~gate_at,
                            ~space_[g].eq(builder_, edge.p1)});
            }
          } else {
            for (const int q : {gate.q0, gate.q1}) {
              if (q < 0) continue;
              builder_.add({~swap_lit, ~gate_at,
                            ~pi_[q][t].eq(builder_, edge.p0)});
              builder_.add({~swap_lit, ~gate_at,
                            ~pi_[q][t].eq(builder_, edge.p1)});
            }
          }
        }
      }
    }
  }
}

Lit Model::depth_bound(int t_b) {
  assert(t_b >= 1);
  if (t_b >= t_ub_) return builder_.true_lit();
  if (auto it = depth_bound_cache_.find(t_b); it != depth_bound_cache_.end()) {
    return it->second;
  }
  std::vector<Lit> bounds;
  bounds.reserve(time_.size());
  for (const FdVar& tg : time_) bounds.push_back(tg.le(builder_, t_b - 1));
  const Lit lit = builder_.mk_and(bounds);
  depth_bound_cache_.emplace(t_b, lit);
  return lit;
}

Lit Model::swap_bound(int s_b) {
  if (swap_totalizer_ == nullptr) {
    swap_totalizer_ = std::make_unique<encode::Totalizer>(builder_, sigma_flat_);
  }
  return swap_totalizer_->bound_leq(builder_, s_b);
}

void Model::assert_swap_bound_hard(int s_b, CardEncoding encoding) {
  switch (encoding) {
    case CardEncoding::kSeqCounter:
      encode::at_most_k_seqcounter(builder_, sigma_flat_, s_b);
      break;
    case CardEncoding::kAdder:
      encode::at_most_k_adder(builder_, sigma_flat_, s_b);
      break;
    case CardEncoding::kTotalizer:
      swap_bound(s_b);  // ensure the totalizer exists
      swap_totalizer_->assert_leq(builder_, s_b);
      break;
  }
}

Result Model::extract() const {
  obs::Span span("olsq2.decode");
  Result r;
  r.solved = true;
  r.gate_time.resize(circ_.num_gates());
  int depth = 0;
  for (int g = 0; g < circ_.num_gates(); ++g) {
    r.gate_time[g] = time_[g].decode(solver_);
    depth = std::max(depth, r.gate_time[g] + 1);
  }
  r.depth = depth;
  r.mapping.assign(depth, std::vector<int>(circ_.num_qubits()));
  for (int t = 0; t < depth; ++t) {
    for (int q = 0; q < circ_.num_qubits(); ++q) {
      r.mapping[t][q] = pi_[q][t].decode(solver_);
    }
  }
  for (int e = 0; e < dev_.num_edges(); ++e) {
    for (int t = 0; t < depth; ++t) {
      if (sigma_is_real(t) && solver_.model_bool(sigma_[e][t])) {
        r.swaps.push_back({e, t});
      }
    }
  }
  r.swap_count = static_cast<int>(r.swaps.size());
  return r;
}

std::vector<std::pair<Lit, Lit>> Model::injectivity_obligations() {
  // The eq() literals were all materialized while the injectivity clauses
  // were built, so these lookups hit the FdVar caches and emit nothing new.
  std::vector<std::pair<Lit, Lit>> pairs;
  const int num_q = circ_.num_qubits();
  const int num_p = dev_.num_qubits();
  pairs.reserve(static_cast<std::size_t>(t_ub_) * num_p * num_q *
                (num_q - 1) / 2);
  for (int t = 0; t < t_ub_; ++t) {
    for (int q = 0; q < num_q; ++q) {
      for (int r = q + 1; r < num_q; ++r) {
        for (int p = 0; p < num_p; ++p) {
          pairs.emplace_back(pi_[q][t].eq(builder_, p),
                             pi_[r][t].eq(builder_, p));
        }
      }
    }
  }
  return pairs;
}

int Model::count_swaps() const {
  int count = 0;
  for (const Lit l : sigma_flat_) {
    if (solver_.model_bool(l)) count++;
  }
  return count;
}

}  // namespace olsq2::layout
