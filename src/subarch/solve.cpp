#include "subarch/solve.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "layout/tb.h"
#include "layout/verifier.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "plan/plan.h"
#include "serve/transfer.h"
#include "subarch/lift.h"

namespace olsq2::subarch {

namespace {

namespace m = obs::metrics;

void count(const char* name, const char* help) {
  if (!m::enabled()) return;
  m::Registry::instance().counter(name, help).inc();
}

bool device_connected(const device::Device& dev) {
  for (int p = 1; p < dev.num_qubits(); ++p) {
    if (dev.distance(0, p) >= dev.num_qubits()) return false;
  }
  return true;
}

/// Shared by layout::OptimizerOptions and plan::PlanOptions.
template <class Options>
bool cancelled(const Options& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

struct Deadline {
  explicit Deadline(double budget) : budget_ms(budget) {}

  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  double budget_ms;  // <= 0: unlimited

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }
  /// Remaining budget; 0 = unlimited, negative = expired. The engines read
  /// any value <= 0 as "unlimited", so callers must stop on a negative one
  /// instead of passing it on.
  double remaining_ms() const {
    if (budget_ms <= 0) return 0.0;
    const double left = budget_ms - elapsed_ms();
    return left <= 0 ? -1.0 : left;
  }
  bool expired() const { return budget_ms > 0 && remaining_ms() < 0; }
};

/// `options` with its budget cut to what `deadline` has left, so the ladder
/// and the engine run after it share the caller's one budget. nullopt once
/// the budget is gone or the cancel flag is set.
template <class Options>
std::optional<Options> within(const Options& options,
                              const Deadline& deadline) {
  const double left = deadline.remaining_ms();
  if (left < 0 || cancelled(options)) return std::nullopt;
  Options cut = options;
  cut.time_budget_ms = left;
  return cut;
}

/// Probes with at most this many root placements go to the planner, the
/// rest to a TB SAT call. Both engines decide the same TB SWAP optimum
/// (DESIGN.md §13), so the choice moves time, never answers. Measured
/// crossover (DESIGN.md §14.3): at R = 840 a plan probe took ~2 ms where an
/// UNSAT SAT probe took ~100 ms; at R >= 5040 the planner was the slower
/// engine (3-31 ms against TB's 0.4-19 ms).
constexpr double kPlanProbeMaxRoots = 1000.0;

/// Root placements of `program` qubits on `physical` ones: m!/(m-|Q|)!.
double root_count(int physical, int program) {
  double roots = 1.0;
  for (int i = 0; i < program; ++i) roots *= physical - i;
  return roots;
}

/// One ladder probe on the canonical subproblem: "<= k SWAPs in k+1
/// blocks?" (k+1 blocks suffice for any <=k-SWAP TB solution: transitions
/// without SWAPs merge, leaving at most one block per SWAP plus one).
/// nullopt when the budget or the cancel flag cut it short.
std::optional<Library::Probe> decide_probe(
    const layout::Problem& sub, int k, const layout::EncodingConfig& config,
    const layout::OptimizerOptions& options, const Deadline& deadline) {
  Library::Probe probe;
  if (root_count(sub.device->num_qubits(), sub.circuit->num_qubits()) <=
      kPlanProbeMaxRoots) {
    const double left = deadline.remaining_ms();
    if (left < 0) return std::nullopt;
    plan::PlanOptions popt;
    popt.time_budget_ms = left;
    popt.cancel = options.cancel;
    plan::PlanResult planned = plan::synthesize(sub, popt);
    if (planned.optimal) {
      const bool sat = planned.solved && planned.swap_count <= k;
      probe.status = sat ? 'S' : 'U';
      if (sat) probe.result = std::move(planned.layout);
      return probe;
    }
    // Budget, cancel or expansion cap: the TB probe decides instead.
  }
  const double left = deadline.remaining_ms();
  if (left < 0) return std::nullopt;
  layout::Result r =
      layout::tb_solve_fixed(sub, k + 1, k, config, left, options.cancel);
  if (r.hit_budget) return std::nullopt;
  probe.status = r.solved ? 'S' : 'U';
  if (r.solved) probe.result = std::move(r);
  return probe;
}

struct LadderResult {
  bool ok = false;
  int k = -1;
  /// Winning embedding; sub_result is in its sub-index space with the
  /// original circuit's qubit/gate labels (untransferred).
  SubDevice winner;
  layout::Result sub_result;
  SubarchOutcome outcome;
};

/// The certification ladder (§14.3). Any gate failure records a fallback
/// reason and returns ok=false; ok=true results are certified.
LadderResult run_ladder(const layout::Problem& problem,
                        const layout::EncodingConfig& config,
                        const layout::OptimizerOptions& options,
                        const SubarchOptions& subopts,
                        const Deadline& deadline) {
  obs::Span span("subarch.ladder");
  LadderResult lad;
  SubarchOutcome& out = lad.outcome;
  const circuit::Circuit& circ = *problem.circuit;
  const device::Device& dev = *problem.device;
  const auto bail = [&](std::string reason) {
    out.fallback_reason = std::move(reason);
    count("subarch_fallbacks_total",
          "Pre-pass invocations that degraded to the direct solve");
    if (span.live()) span.arg("fallback", out.fallback_reason);
    return lad;
  };

  if (!subopts.enable) return bail("disabled");
  if (circ.num_qubits() > dev.num_qubits()) return bail("circuit too wide");
  if (!interaction_connected(circ)) {
    return bail("interaction graph disconnected or trivial");
  }
  if (!device_connected(dev)) return bail("device disconnected");

  Library& library =
      subopts.library != nullptr ? *subopts.library : Library::process_wide();
  const serve::CircuitCanon ccanon = serve::canonicalize_circuit(circ);
  const circuit::Circuit canon_circ = serve::apply_circuit_canon(circ, ccanon);

  for (int k = 0; k <= subopts.max_extra_qubits; ++k) {
    out.rounds = k + 1;
    const int want = circ.num_qubits() + k;
    const int msize = std::min(want, dev.num_qubits());

    if (msize < dev.num_qubits() && msize > subopts.extract.max_sub_qubits) {
      return bail("subgraph size cap (m=" + std::to_string(msize) + ")");
    }
    const Cover cover = ladder_cover(dev, msize, subopts.extract);
    if (!cover.complete) return bail("enumeration budget");
    out.classes_total += static_cast<std::int64_t>(cover.classes.size());

    for (const CoverClass& cls : cover.classes) {
      if (cancelled(options)) return bail("cancelled");
      if (deadline.expired()) return bail("budget");
      const std::string key =
          probe_key(cls.canon.key, ccanon.key, problem.swap_duration, k);
      Library::Probe probe;
      if (std::optional<Library::Probe> hit = library.lookup(key)) {
        probe = std::move(*hit);
        ++out.library_hits;
      } else {
        const device::Device canon_dev =
            serve::apply_device_canon(cls.rep.device, cls.canon);
        const layout::Problem sub{&canon_circ, &canon_dev,
                                  problem.swap_duration};
        std::optional<Library::Probe> decided =
            decide_probe(sub, k, config, options, deadline);
        ++out.probes;
        count("subarch_probes_total", "Ladder feasibility probes solved");
        if (!decided) return bail(cancelled(options) ? "cancelled" : "budget");
        probe = std::move(*decided);
        // Conclusive probes only: the canonical answer is instance-exact
        // even when the canonical *search* was inexact (inexact forms
        // split keys, never merge them), so memoization is always sound.
        library.insert(key, probe);
      }
      if (probe.status != 'S') continue;

      // Round k SAT after rounds < k were all-UNSAT: the lifted SWAP
      // count is the certified optimum.
      lad.ok = true;
      lad.k = k;
      lad.winner = cls.rep;
      const serve::InstanceCanon icanon{ccanon, cls.canon,
                                        problem.swap_duration};
      const layout::Problem rep_problem{&circ, &cls.rep.device,
                                        problem.swap_duration};
      lad.sub_result =
          serve::untransfer_result(probe.result, icanon, rep_problem);
      out.certified = true;
      out.sub_qubits = cls.rep.device.num_qubits();
      out.swap_optimum = lad.sub_result.swap_count;
      out.to_full = cls.rep.to_full;
      out.reduction_ratio =
          static_cast<double>(dev.num_qubits()) /
          static_cast<double>(std::max(1, out.sub_qubits));
      count("subarch_certified_total",
            "Ladder runs that closed with a certified optimum");
      if (m::enabled()) {
        m::Registry::instance()
            .histogram("subarch_reduction_ratio",
                       "Full-device qubits / winning subdevice qubits")
            .observe(out.reduction_ratio);
      }
      if (span.live()) {
        span.arg("k", k);
        span.arg("sub_qubits", out.sub_qubits);
        span.arg("probes", out.probes);
        span.arg("library_hits", out.library_hits);
      }
      return lad;
    }
    // Every class UNSAT at bound k: the full-device optimum exceeds k.
  }
  return bail("ladder cap (k>" + std::to_string(subopts.max_extra_qubits) +
              ")");
}

void fill(SubarchOutcome* outcome, const SubarchOutcome& value) {
  if (outcome != nullptr) *outcome = value;
}

}  // namespace

Cover ladder_cover(const device::Device& dev, int size,
                   const ExtractOptions& options) {
  if (size < dev.num_qubits()) return enumerate_cover(dev, size, options);
  // The "subarchitecture" is the whole device: one trivial class. Its
  // probe is then a plain bounded solve, which keeps the ladder total on
  // small devices (the fuzz oracle's regime).
  CoverClass cls;
  std::vector<int> all(dev.num_qubits());
  for (int p = 0; p < dev.num_qubits(); ++p) all[p] = p;
  cls.rep = make_subdevice(dev, std::move(all));
  cls.canon = serve::canonicalize_device(cls.rep.device);
  cls.members = 1;
  cls.induced_edges = dev.num_edges();
  Cover cover;
  cover.size = dev.num_qubits();
  cover.complete = true;
  cover.enumerated = 1;
  cover.classes.push_back(std::move(cls));
  return cover;
}

bool should_engage(const layout::Problem& problem,
                   const SubarchOptions& subopts) {
  return subopts.enable &&
         problem.device->num_qubits() >= subopts.min_device_qubits &&
         problem.circuit->num_qubits() <= subopts.extract.max_sub_qubits &&
         problem.circuit->num_qubits() < problem.device->num_qubits();
}

layout::Result tb_synthesize_swap_optimal(const layout::Problem& problem,
                                          const layout::EncodingConfig& config,
                                          const layout::OptimizerOptions& options,
                                          const SubarchOptions& subopts,
                                          SubarchOutcome* outcome) {
  const Deadline deadline(options.time_budget_ms);
  LadderResult lad = run_ladder(problem, config, options, subopts, deadline);
  if (lad.ok) {
    layout::Result lifted =
        lift_result(lad.sub_result, lad.winner, *problem.device);
    const layout::Verdict verdict =
        layout::verify_transition_based(problem, lifted);
    if (verdict.ok) {
      lifted.hit_budget = false;
      fill(outcome, lad.outcome);
      return lifted;
    }
    // A lift that fails the independent verifier is a library bug; never
    // surface it (the fuzz differential flags the optimum instead).
    lad.outcome = SubarchOutcome{};
    lad.outcome.fallback_reason = "lift verification failed";
  }
  fill(outcome, lad.outcome);
  if (const std::optional<layout::OptimizerOptions> direct =
          within(options, deadline)) {
    return layout::tb_synthesize_swap_optimal(problem, config, *direct);
  }
  layout::Result spent;
  spent.hit_budget = true;
  spent.wall_ms = deadline.elapsed_ms();
  return spent;
}

plan::PlanResult plan_synthesize(const layout::Problem& problem,
                                 const plan::PlanOptions& options,
                                 const SubarchOptions& subopts,
                                 SubarchOutcome* outcome) {
  layout::OptimizerOptions lopts;  // the ladder reads only the cancel flag
  lopts.cancel = options.cancel;
  const Deadline deadline(options.time_budget_ms);
  LadderResult lad = run_ladder(problem, {}, lopts, subopts, deadline);
  if (lad.ok) {
    const layout::Problem sub{problem.circuit, &lad.winner.device,
                              problem.swap_duration};
    plan::PlanResult planned;
    if (const std::optional<plan::PlanOptions> sub_options =
            within(options, deadline)) {
      planned = plan::synthesize(sub, *sub_options);
    }
    // The ladder certified the optimum; the sub-device plan must land on
    // it (it hosts a witness, and anything cheaper would lift below a
    // certified bound). A mismatch is an internal inconsistency - degrade.
    if (planned.solved && planned.optimal &&
        planned.swap_count == lad.sub_result.swap_count) {
      plan::PlanResult lifted =
          lift_plan_result(planned, lad.winner, *problem.device);
      const layout::Verdict verdict =
          layout::verify_transition_based(problem, lifted.layout);
      if (verdict.ok) {
        fill(outcome, lad.outcome);
        return lifted;
      }
    }
    lad.outcome = SubarchOutcome{};
    lad.outcome.fallback_reason = "plan sub-solve mismatch";
    count("subarch_fallbacks_total",
          "Pre-pass invocations that degraded to the direct solve");
  }
  fill(outcome, lad.outcome);
  if (const std::optional<plan::PlanOptions> direct =
          within(options, deadline)) {
    return plan::synthesize(problem, *direct);
  }
  plan::PlanResult spent;
  spent.hit_budget = true;
  spent.layout.hit_budget = true;
  spent.wall_ms = deadline.elapsed_ms();
  spent.layout.wall_ms = spent.wall_ms;
  return spent;
}

}  // namespace olsq2::subarch
