// Paper-workload benchmark: one process, one client thread.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//   tb-swap    TB-OLSQ2 SWAP-optimal synthesis on the Table IV family rows
//   depth      OLSQ2 depth-optimal synthesis on the Table III family rows
//   serve-mix  a closed loop of 8-request serve_batch calls: fresh small
//              instances, fresh eagle127 region instances (subarch ladder)
//              and relabeled / commuting-reordered duplicates
//
// The benchmark only calls public entry points (layout::tb_synthesize_swap_
// optimal, layout::synthesize_depth_optimal, serve::Server::serve_batch,
// layout::verify*, the Model/TbModel constructors) and reads the public
// result records. Budgets, solver options and thread counts keep the
// library defaults, except a 30 s per-call budget (the paper benches'
// default) that turns a runaway call into a counted failure.
//
// --trace 0 measures whole untraced passes for about --seconds seconds (at
// least one) and reports the end-to-end metrics; set-up is repeated and
// setup_s is the fastest repetition. --trace 1 runs every item (a row, or
// a batch) untraced and traced back to back and reports per-layer metrics
// folded from the program's obs spans plus the benchmark's own spans
// around each call. The last stdout line is the result JSON.
//
// Usage:
//   perfbench --workload <tb-swap|depth|serve-mix> --seed <n>
//                    --seconds <s> --trace <0|1> [--workdir <dir>]
//   perfbench --selfcheck [--workdir <dir>]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bengen/rng.h"
#include "bengen/workloads.h"
#include "device/presets.h"
#include "fuzz/generator.h"
#include "fuzz/metamorphic.h"
#include "layout/model.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/batch.h"

namespace {

using namespace olsq2;
using Clock = std::chrono::steady_clock;

constexpr double kCallBudgetMs = 30000.0;
constexpr int kBatchSize = 8;
constexpr int kServeBatches = 600;
constexpr std::size_t kLruEntries = 32;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Per-pass record: everything one pass over a workload measured or counted.

struct PassStats {
  double wall_ms = 0.0;
  /// Latency of each timed call: one entry-point call per instance
  /// (tb-swap, depth) or one serve_batch call (serve-mix).
  std::vector<double> item_ms;
  /// Latency of each batch: a serve_batch call, or a whole tb-swap/depth
  /// pass (its rows form one batch; percentiles over 7-8 rows of unequal
  /// size would pick one row's noise).
  std::vector<double> batch_ms;
  int attempted = 0;  // instances or requests
  int failed = 0;     // unsolved, budget hit, wrong objective or verifier
  bool correct = true;
  std::vector<std::string> errors;

  // Counts read from the public result records (Result::calls).
  std::uint64_t call_conflicts = 0;
  std::uint64_t calls_sat = 0;
  std::uint64_t calls_unsat = 0;

  // Final-bound encodings the benchmark builds itself (traced items only).
  double encode_ms = 0.0;
  std::int64_t encode_vars = 0;
  std::int64_t encode_clauses = 0;

  // serve-mix only.
  int hits = 0;
  int disk_hits = 0;
  double certify_ms = 0.0;
  std::uint64_t proof_steps = 0;
  std::uint64_t unproven = 0;  // requested certificates that did not certify
  serve::CacheStats cache;
  subarch::Library::Stats library;

  void fail(const std::string& what, bool wrong_answer) {
    ++failed;
    if (wrong_answer) correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Solver workloads: tb-swap and depth.

struct SolverRow {
  std::string name;
  std::shared_ptr<const device::Device> device;
  circuit::Circuit circuit;
  int swap_duration = 1;
  int pinned = -1;  // SWAP optimum (tb-swap) or depth optimum (depth)
};

circuit::Circuit queko_on(const device::Device& dev, int depth, int gates) {
  bengen::QuekoSpec spec;
  spec.depth = depth;
  spec.gate_count = gates;
  spec.seed = 1;
  return bengen::queko(dev, spec);
}

/// Table IV family rows that certify well inside the budget. The seed only
/// permutes the row order: QAOA graph and QUEKO draws other than the
/// paper's swing one row's solve time from under a second to the budget,
/// which no run-to-run bound can absorb.
std::vector<SolverRow> tb_swap_rows(bool reduced) {
  auto g23 = std::make_shared<const device::Device>(device::grid(2, 3));
  auto g33 = std::make_shared<const device::Device>(device::grid(3, 3));
  auto g24 = std::make_shared<const device::Device>(device::grid(2, 4));
  auto aspen = std::make_shared<const device::Device>(device::rigetti_aspen4());
  std::vector<SolverRow> rows;
  rows.push_back({"grid2x3/qft4", g23, bengen::qft(4), 3, 2});
  rows.push_back({"grid2x3/tof3", g23, bengen::tof(3), 3, 3});
  if (reduced) return rows;
  rows.push_back({"grid2x3/barenco_tof3", g23, bengen::barenco_tof(3), 3, 3});
  rows.push_back({"grid2x3/qft5", g23, bengen::qft(5), 3, 3});
  rows.push_back({"grid3x3/qaoa8", g33, bengen::qaoa_3regular(8, 1), 1, 2});
  rows.push_back({"grid2x4/tof4", g24, bengen::tof(4), 3, 4});
  rows.push_back({"grid2x4/qft5", g24, bengen::qft(5), 3, 3});
  rows.push_back({"aspen4/qaoa6", aspen, bengen::qaoa_3regular(6, 1), 1, 3});
  return rows;
}

/// Table III family rows; QUEKO depths are the generator's planted optima.
std::vector<SolverRow> depth_rows(bool reduced) {
  auto syc =
      std::make_shared<const device::Device>(device::google_sycamore54());
  auto aspen = std::make_shared<const device::Device>(device::rigetti_aspen4());
  std::vector<SolverRow> rows;
  rows.push_back({"sycamore/qaoa8", syc, bengen::qaoa_3regular(8, 1), 1, 6});
  rows.push_back({"aspen4/queko16_37", aspen, queko_on(*aspen, 5, 37), 3, 5});
  if (reduced) return rows;
  rows.push_back({"sycamore/qft4", syc, bengen::qft(4), 3, 21});
  rows.push_back({"sycamore/qaoa10", syc, bengen::qaoa_3regular(10, 1), 1, 8});
  rows.push_back({"sycamore/queko54_60", syc, queko_on(*syc, 5, 60), 3, 5});
  rows.push_back({"aspen4/queko16_60", aspen, queko_on(*aspen, 8, 60), 3, 8});
  rows.push_back({"aspen4/queko16_90", aspen, queko_on(*aspen, 12, 90), 3, 12});
  return rows;
}

struct SolverInputs {
  bool tb = false;
  std::vector<SolverRow> rows;  // in seed-permuted order
};

SolverInputs make_solver_inputs(bool tb, std::uint64_t seed, bool reduced) {
  SolverInputs in;
  in.tb = tb;
  in.rows = tb ? tb_swap_rows(reduced) : depth_rows(reduced);
  bengen::Rng rng(fuzz::derive_seed(seed, 0));
  rng.shuffle(in.rows);
  return in;
}

/// Encode the instance at its final bound and add the model size to `st`
/// (the intermediate-representation size an encoding change should move).
void measure_encoding(const layout::Problem& problem,
                      const layout::Result& result, PassStats& st) {
  const auto start = Clock::now();
  obs::Span span("bench.encode");
  if (result.transition_based) {
    layout::TbModel model(problem, std::max(1, result.depth), {});
    st.encode_vars += model.solver().num_vars();
    st.encode_clauses += model.solver().num_clauses();
  } else {
    layout::Model model(problem, std::max(1, result.depth), {});
    st.encode_vars += model.solver().num_vars();
    st.encode_clauses += model.solver().num_clauses();
  }
  st.encode_ms += ms_since(start);
}

/// One row: the entry-point call, its checks and (traced) its encoding.
void run_row(const SolverInputs& in, const SolverRow& row, bool traced,
             bool print, PassStats& st) {
  const layout::Problem problem{&row.circuit, row.device.get(),
                                row.swap_duration};
  layout::OptimizerOptions options;
  options.time_budget_ms = kCallBudgetMs;
  layout::Result result;
  const auto call_start = Clock::now();
  {
    obs::Span call("bench.call");
    result = in.tb ? layout::tb_synthesize_swap_optimal(problem, {}, options)
                   : layout::synthesize_depth_optimal(problem, {}, options);
  }
  const double call_ms = ms_since(call_start);
  st.item_ms.push_back(call_ms);
  ++st.attempted;
  for (const layout::SolveCall& call : result.calls) {
    st.call_conflicts += call.conflicts;
    if (call.status == 'S') ++st.calls_sat;
    if (call.status == 'U') ++st.calls_unsat;
  }

  layout::Verdict verdict;
  {
    obs::Span verify("bench.verify");
    verdict = in.tb ? layout::verify_transition_based(problem, result)
                    : layout::verify(problem, result);
  }
  const int objective = in.tb ? result.swap_count : result.depth;
  if (!result.solved) {
    st.fail(row.name + ": unsolved", false);
  } else if (result.hit_budget) {
    st.fail(row.name + ": hit the budget", false);
  } else if (!verdict.ok) {
    st.fail(row.name + ": verifier: " + verdict.errors.front(), true);
  } else if (objective != row.pinned) {
    st.fail(row.name + ": objective " + std::to_string(objective) +
                " != pinned " + std::to_string(row.pinned),
            true);
  }
  if (traced && result.solved) measure_encoding(problem, result, st);
  if (print) {
    std::printf("row %-22s obj=%-3d pinned=%-3d calls=%-3zu %10.1f ms\n",
                row.name.c_str(), objective, row.pinned, result.calls.size(),
                call_ms);
  }
}

// ---------------------------------------------------------------------------
// serve-mix.

/// A served instance. Devices are shared: only physical relabelings get a
/// device of their own, so 127-qubit copies stay few.
struct ServeInstance {
  circuit::Circuit circuit;
  std::shared_ptr<const device::Device> device;
  int swap_duration = 1;
};

struct ServeRequestSpec {
  std::size_t instance = 0;  // index into ServeInputs::pool
  serve::Engine engine = serve::Engine::kSwap;
  bool certify = false;
  /// Request whose objective this one must reproduce (a duplicate's
  /// source); -1 for fresh requests.
  int source = -1;
};

struct ServeInputs {
  std::vector<ServeInstance> pool;
  std::vector<std::vector<ServeRequestSpec>> batches;
};

constexpr serve::Engine kSmallEngines[] = {
    serve::Engine::kDepth, serve::Engine::kSwap, serve::Engine::kTbSwap,
    serve::Engine::kPlan};

/// A relabeled or commuting-reordered copy of `base` (same optimum).
ServeInstance duplicate_of(const ServeInstance& base, bengen::Rng& rng) {
  const fuzz::Instance inst{base.circuit, *base.device, base.swap_duration};
  switch (rng.below_int(3)) {
    case 0: {
      fuzz::Instance out = fuzz::relabel_program_qubits(inst, rng);
      return {std::move(out.circuit), base.device, base.swap_duration};
    }
    case 1: {
      fuzz::Instance out = fuzz::relabel_physical_qubits(inst, rng);
      return {std::move(out.circuit),
              std::make_shared<const device::Device>(std::move(out.device)),
              base.swap_duration};
    }
    default: {
      fuzz::Instance out = fuzz::commuting_reorder(inst, rng);
      return {std::move(out.circuit), base.device, base.swap_duration};
    }
  }
}

ServeInputs make_serve_inputs(std::uint64_t seed, int num_batches) {
  ServeInputs in;
  fuzz::GeneratorOptions small;
  small.min_qubits = 3;
  small.max_qubits = 4;
  small.min_gates = 4;
  small.max_gates = 8;
  const auto eagle =
      std::make_shared<const device::Device>(device::ibm_eagle127());

  std::vector<int> fresh;  // global request ids of fresh requests so far
  std::vector<ServeRequestSpec> all;
  bengen::Rng rng(fuzz::derive_seed(seed, 1));
  for (int b = 0; b < num_batches; ++b) {
    std::vector<ServeRequestSpec> batch;
    auto add = [&](ServeInstance inst, serve::Engine engine, bool certify,
                   int source) {
      in.pool.push_back(std::move(inst));
      const ServeRequestSpec spec{in.pool.size() - 1, engine, certify, source};
      if (source < 0) fresh.push_back(static_cast<int>(all.size()));
      all.push_back(spec);
      batch.push_back(spec);
    };
    const serve::Engine small_engine = kSmallEngines[b % 4];
    fuzz::Instance tiny =
        fuzz::random_instance(fuzz::derive_seed(seed, 2 * b + 2), small);
    add({std::move(tiny.circuit),
         std::make_shared<const device::Device>(std::move(tiny.device)),
         tiny.swap_duration},
        small_engine,
        small_engine == serve::Engine::kDepth ||
            small_engine == serve::Engine::kSwap,
        -1);
    // A 4-qubit region of the 127-qubit heavy-hex device with one
    // cross-region gate: the ladder certifies it on small subdevices.
    const std::uint64_t region_seed = fuzz::derive_seed(seed, 2 * b + 3);
    add({bengen::region_workload(*eagle, 4,
                                 8 + static_cast<int>(region_seed % 3), 1,
                                 region_seed),
         eagle, 1},
        serve::Engine::kTbSwap, false, -1);
    while (static_cast<int>(batch.size()) < kBatchSize) {
      // Half the duplicates revisit the 16 most recent fresh requests (LRU
      // hits), half any earlier one (mostly persistent-tier hits).
      const std::size_t window = std::min<std::size_t>(16, fresh.size());
      const int source = rng.chance(0.5)
                             ? fresh[fresh.size() - 1 - rng.below(window)]
                             : fresh[rng.below(fresh.size())];
      const ServeRequestSpec src = all[source];
      add(duplicate_of(in.pool[src.instance], rng), src.engine, src.certify,
          source);
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

bool is_transition_based(serve::Engine engine) {
  return engine == serve::Engine::kTbSwap ||
         engine == serve::Engine::kTbBlock || engine == serve::Engine::kPlan;
}

/// One serving client's state: its server, whose persistent tier lives
/// in a fresh directory, and the objective of every request it was sent.
struct ServeClient {
  std::unique_ptr<serve::Server> server;
  std::string cache_dir;
  std::vector<int> objective;  // per global request id
};

/// One batch: the serve_batch call and the checks of every response.
void run_batch(const ServeInputs& in,
               const std::vector<ServeRequestSpec>& batch, bool traced,
               ServeClient& client, PassStats& st) {
  std::vector<serve::Request> requests;
  for (const ServeRequestSpec& spec : batch) {
    const ServeInstance& inst = in.pool[spec.instance];
    serve::Request req;
    req.circuit = &inst.circuit;
    req.device = inst.device.get();
    req.swap_duration = inst.swap_duration;
    req.engine = spec.engine;
    req.certify = spec.certify;
    req.options.time_budget_ms = kCallBudgetMs;
    requests.push_back(req);
  }
  const auto call_start = Clock::now();
  std::vector<serve::Response> responses;
  {
    obs::Span call("bench.call");
    responses = client.server->serve_batch(requests);
  }
  st.item_ms.push_back(ms_since(call_start));

  std::vector<int>& objective = client.objective;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const ServeRequestSpec& spec = batch[i];
    const serve::Response& resp = responses[i];
    const layout::Result& result = resp.result;
    const int id = static_cast<int>(objective.size());
    const std::string name = "request " + std::to_string(id) + " (" +
                             serve::engine_tag(spec.engine) + ")";
    const bool depth_engine = spec.engine == serve::Engine::kDepth;
    const int obj = depth_engine ? result.depth : result.swap_count;
    objective.push_back(obj);
    ++st.attempted;
    if (resp.cache_hit) ++st.hits;
    if (resp.from_disk) ++st.disk_hits;
    if (!resp.cache_hit) {
      for (const layout::Certificate* cert :
           {resp.has_depth_cert ? &resp.depth_cert : nullptr,
            resp.has_swap_cert ? &resp.swap_cert : nullptr}) {
        if (cert == nullptr) continue;
        st.certify_ms += cert->wall_ms;
        st.proof_steps += cert->proof_steps;
      }
    }

    const layout::Problem problem{requests[i].circuit, requests[i].device,
                                  requests[i].swap_duration};
    layout::Verdict verdict;
    {
      obs::Span verify("bench.verify");
      verdict = result.transition_based
                    ? layout::verify_transition_based(problem, result)
                    : layout::verify(problem, result);
    }
    if (!result.solved) {
      st.fail(name + ": unsolved", false);
    } else if (result.hit_budget) {
      st.fail(name + ": hit the budget", false);
    } else if (result.transition_based != is_transition_based(spec.engine)) {
      st.fail(name + ": wrong result kind", true);
    } else if (!verdict.ok) {
      st.fail(name + ": verifier: " + verdict.errors.front(), true);
    } else if (spec.source >= 0 && obj != objective[spec.source]) {
      st.fail(name + ": objective " + std::to_string(obj) +
                  " differs from its source's " +
                  std::to_string(objective[spec.source]),
              true);
    }
    // A requested certificate that does not refute the next-tighter bound
    // leaves a correct, verified answer unproven: counted in the certify
    // layer, not as a failed request.
    const bool has_cert =
        depth_engine ? resp.has_depth_cert : resp.has_swap_cert;
    const layout::Certificate& cert =
        depth_engine ? resp.depth_cert : resp.swap_cert;
    if (spec.certify && obj >= 1 && !(has_cert && cert.certified())) {
      ++st.unproven;
    }
    // Final-bound encoding of the fresh small instances (the region
    // instances are encoded on subdevices inside the ladder).
    if (traced && !resp.cache_hit && result.solved &&
        problem.device->num_qubits() <= 16) {
      measure_encoding(problem, result, st);
    }
  }
}

// ---------------------------------------------------------------------------
// Folding the traced items' spans into layers.

struct LayerFold {
  double root_ms = 0.0;  // the bench.item spans
  std::map<std::string, double> self_ms;  // layer -> summed self time
  double sat_ms[3] = {0.0, 0.0, 0.0};     // sat, unsat, other (budget)
  std::uint64_t calls[3] = {0, 0, 0};
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;
  double canonicalize_ms = 0.0;  // outermost serve.canonicalize* spans
  double ladder_ms = 0.0;        // outermost subarch.ladder spans
};

/// The src/ module a span belongs to ("unattributed" for the benchmark's
/// own loop). Encoding spans of the layout engines count as encode.
std::string layer_of(const std::string& name) {
  if (name == "bench.verify") return "verify";
  if (name == "bench.encode" || name.ends_with(".encode")) return "encode";
  if (name.starts_with("sat.")) return "sat";
  if (name.starts_with("serve.")) return "serve";
  if (name.starts_with("subarch.")) return "subarch";
  if (name.starts_with("plan.")) return "plan";
  if (name == "bench.call" || name.starts_with("olsq2.") ||
      name.starts_with("tb.") || name.starts_with("windowed.") ||
      name.starts_with("portfolio.")) {
    return "layout";
  }
  return "unattributed";
}

const std::string* find_arg(const obs::Event& e, const char* key) {
  for (const obs::Arg& a : e.args) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

std::uint64_t arg_u64(const obs::Event& e, const char* key) {
  const std::string* v = find_arg(e, key);
  return v == nullptr ? 0 : std::strtoull(v->c_str(), nullptr, 10);
}

/// Add one capture's spans to `fold`.
void fold_spans(std::vector<obs::Event> events, LayerFold& fold) {
  std::erase_if(events, [](const obs::Event& e) {
    return e.kind != obs::Event::Kind::kSpan;
  });
  // Outer spans first at equal start so containment nests correctly.
  std::sort(events.begin(), events.end(),
            [](const obs::Event& a, const obs::Event& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.dur > b.dur;
            });
  struct Open {
    const obs::Event* event;
    obs::TimeNs end;
    obs::TimeNs child_ns;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& open) {
    const double self = static_cast<double>(open.event->dur - open.child_ns);
    fold.self_ms[layer_of(open.event->name)] += self / 1e6;
  };
  auto enclosing = [&](const char* prefix) {
    return std::any_of(stack.begin(), stack.end(), [&](const Open& o) {
      return o.event->name.starts_with(prefix);
    });
  };
  std::uint32_t tid = 0;
  for (const obs::Event& e : events) {
    if (e.tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = e.tid;
    }
    while (!stack.empty() && e.ts >= stack.back().end) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_ns += e.dur;
    const double dur_ms = static_cast<double>(e.dur) / 1e6;
    if (e.name == "bench.item") fold.root_ms += dur_ms;
    if (e.name == "sat.solve") {
      const std::string* result = find_arg(e, "result");
      const int slot = result == nullptr ? 2
                       : *result == "sat" ? 0
                       : *result == "unsat" ? 1
                                            : 2;
      fold.sat_ms[slot] += dur_ms;
      ++fold.calls[slot];
      fold.conflicts += arg_u64(e, "conflicts");
      fold.propagations += arg_u64(e, "propagations");
      fold.decisions += arg_u64(e, "decisions");
    }
    if (e.name.starts_with("serve.canonicalize") &&
        !enclosing("serve.canonicalize")) {
      fold.canonicalize_ms += dur_ms;
    }
    if (e.name == "subarch.ladder" && !enclosing("subarch.ladder")) {
      fold.ladder_ms += dur_ms;
    }
    stack.push_back({&e, e.ts + e.dur, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Output.

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    std::ostringstream out;
    out.precision(17);
    out << "\"" << name << "\": {\"value\": " << value << ", \"unit\": \""
        << unit << "\"}";
    items_.push_back(out.str());
  }
  void add_count(const std::string& name, std::uint64_t value) {
    items_.push_back("\"" + name + "\": {\"value\": " +
                     std::to_string(value) + ", \"unit\": \"count\"}");
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      out += items_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> items_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool selfcheck = false;
  std::string workdir = ".bench_work";
};

Args parse_args(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::runtime_error(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      args.workload = value(i);
    } else if (arg == "--seed") {
      args.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value(i));
    } else if (arg == "--trace") {
      args.trace = value(i) != "0";
    } else if (arg == "--workdir") {
      args.workdir = value(i);
    } else if (arg == "--selfcheck") {
      args.selfcheck = true;
    } else {
      throw std::runtime_error("unknown argument: " + arg);
    }
  }
  if (!args.selfcheck && args.workload != "tb-swap" &&
      args.workload != "depth" && args.workload != "serve-mix") {
    throw std::runtime_error("--workload must be tb-swap, depth or serve-mix");
  }
  return args;
}

/// One workload bound to one seed: its set-up, and its passes item by
/// item (a row of tb-swap/depth, a batch of serve-mix).
class Workload {
 public:
  /// `reduced` keeps two solver rows; `batches` sizes a serve-mix pass.
  Workload(std::string name, std::uint64_t seed, std::string workdir,
           bool reduced, int batches)
      : name_(std::move(name)),
        seed_(seed),
        workdir_(std::move(workdir)),
        reduced_(reduced),
        batches_(batches) {}
  ~Workload() {
    for (const std::string& dir : cache_dirs_) {
      std::filesystem::remove_all(dir);
    }
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  bool serving() const { return name_ == "serve-mix"; }

  /// Generate the inputs and, for serve-mix, construct the server of the
  /// next pass; returns the set-up wall time in ms.
  double setup() {
    const auto start = Clock::now();
    if (serving()) {
      serve_ = std::make_unique<ServeInputs>(
          make_serve_inputs(seed_, batches_));
      next_client_ = std::make_unique<ServeClient>(make_client());
    } else {
      solver_ = std::make_unique<SolverInputs>(
          make_solver_inputs(name_ == "tb-swap", seed_, reduced_));
    }
    return ms_since(start);
  }

  /// One untraced pass. Each serving pass starts from a cold server.
  PassStats pass(bool print) {
    PassStats st;
    ServeClient client = take_client();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < num_items(); ++i) {
      run_item(i, /*traced=*/false, print, client, st);
    }
    st.wall_ms = ms_since(start);
    st.batch_ms = serving() ? st.item_ms : std::vector<double>{st.wall_ms};
    finish(client, st);
    return st;
  }

  struct TracedRun {
    PassStats untraced;
    PassStats traced;
    LayerFold fold;
  };

  /// Every item twice, untraced and traced back to back (alternating
  /// which goes first), each side on its own server: the tracing overhead
  /// is measured under the same machine conditions, and the traced side's
  /// spans fold into layers.
  TracedRun traced_run(bool print) {
    TracedRun run;
    ServeClient plain = take_client();
    ServeClient traced = take_client();
    obs::Trace& trace = obs::Trace::instance();
    for (std::size_t i = 0; i < num_items(); ++i) {
      for (const bool traced_side : {i % 2 == 1, i % 2 == 0}) {
        const auto start = Clock::now();
        if (!traced_side) {
          run_item(i, false, false, plain, run.untraced);
          run.untraced.wall_ms += ms_since(start);
          continue;
        }
        trace.begin_capture("");
        {
          obs::Span item("bench.item");
          run_item(i, true, print, traced, run.traced);
        }
        run.traced.wall_ms += ms_since(start);
        fold_spans(trace.snapshot(), run.fold);
        trace.end_capture();
      }
    }
    finish(plain, run.untraced);
    finish(traced, run.traced);
    return run;
  }

 private:
  std::size_t num_items() const {
    return serving() ? serve_->batches.size() : solver_->rows.size();
  }

  void run_item(std::size_t i, bool traced, bool print, ServeClient& client,
                PassStats& st) {
    if (serving()) {
      run_batch(*serve_, serve_->batches[i], traced, client, st);
    } else {
      run_row(*solver_, solver_->rows[i], traced, print, st);
    }
  }

  ServeClient make_client() {
    ServeClient client;
    client.cache_dir = workdir_ + "/serve-cache-" + std::to_string(::getpid()) +
                       "-" + std::to_string(cache_dirs_.size());
    cache_dirs_.push_back(client.cache_dir);
    std::filesystem::remove_all(client.cache_dir);
    std::filesystem::create_directories(client.cache_dir);
    serve::ServerOptions options;
    options.cache.max_entries = kLruEntries;
    options.cache.disk_dir = client.cache_dir;
    client.server = std::make_unique<serve::Server>(options);
    return client;
  }

  ServeClient take_client() {
    if (!serving()) return {};
    if (next_client_ == nullptr) return make_client();
    ServeClient client = std::move(*next_client_);
    next_client_.reset();
    return client;
  }

  /// Read the server's counters, then drop it and its persistent tier.
  static void finish(ServeClient& client, PassStats& st) {
    if (client.server == nullptr) return;
    st.cache = client.server->cache().stats();
    st.library = client.server->subarch_library().stats();
    client.server.reset();
    std::filesystem::remove_all(client.cache_dir);
  }

  std::string name_;
  std::uint64_t seed_;
  std::string workdir_;
  bool reduced_;
  int batches_;
  std::unique_ptr<SolverInputs> solver_;
  std::unique_ptr<ServeInputs> serve_;
  std::unique_ptr<ServeClient> next_client_;
  std::vector<std::string> cache_dirs_;
};

void add_end_to_end(MetricsJson& m, const std::vector<PassStats>& passes,
                    double setup_ms) {
  std::vector<double> walls, geomeans, batches;
  double total_wall_ms = 0.0;
  int attempted = 0, failed = 0;
  for (const PassStats& p : passes) {
    walls.push_back(p.wall_ms);
    geomeans.push_back(geomean(p.item_ms));
    batches.insert(batches.end(), p.batch_ms.begin(), p.batch_ms.end());
    total_wall_ms += p.wall_ms;
    attempted += p.attempted;
    failed += p.failed;
  }
  m.add("wall_s", median(walls) / 1e3, "s");
  m.add("setup_s", setup_ms / 1e3, "s");
  m.add("geomean_ms", median(geomeans), "ms");
  m.add("requests_per_s", attempted / (total_wall_ms / 1e3), "1/s");
  m.add("batch_ms_p50", median(batches), "ms");
  m.add("batch_ms_p90", percentile(batches, 0.9), "ms");
  m.add("ok_frac",
        attempted > 0 ? static_cast<double>(attempted - failed) / attempted
                      : 0.0,
        "fraction");
  m.add("peak_rss_mb",
        static_cast<double>(obs::metrics::peak_rss_bytes()) / (1024.0 * 1024.0),
        "MB");
}

void add_per_layer(MetricsJson& m, const PassStats& st, const LayerFold& f,
                   double untraced_wall_ms) {
  const double sat_total_ms = f.sat_ms[0] + f.sat_ms[1] + f.sat_ms[2];
  m.add("sat.sat_ms", f.sat_ms[0], "ms");
  m.add("sat.unsat_ms", f.sat_ms[1], "ms");
  m.add("sat.budget_ms", f.sat_ms[2], "ms");
  m.add_count("sat.conflicts", f.conflicts);
  m.add_count("sat.propagations", f.propagations);
  m.add_count("sat.decisions", f.decisions);
  m.add_count("sat.calls_sat", f.calls[0]);
  m.add_count("sat.calls_unsat", f.calls[1]);
  m.add("sat.conflicts_per_s",
        sat_total_ms > 0 ? f.conflicts / (sat_total_ms / 1e3) : 0.0, "1/s");

  auto self = [&](const char* layer) {
    const auto it = f.self_ms.find(layer);
    return it == f.self_ms.end() ? 0.0 : it->second;
  };
  m.add("layout.self_ms", self("layout"), "ms");
  m.add("layout.verify_ms", self("verify"), "ms");
  m.add("encode.ms", st.encode_ms, "ms");
  m.add_count("encode.vars", static_cast<std::uint64_t>(st.encode_vars));
  m.add_count("encode.clauses", static_cast<std::uint64_t>(st.encode_clauses));

  const double requests = std::max(1, st.attempted);
  m.add("serve.canonicalize_ms", f.canonicalize_ms, "ms");
  m.add("serve.hit_frac", st.hits / requests, "fraction");
  m.add("serve.disk_hit_frac", st.disk_hits / requests, "fraction");
  m.add_count("serve.inserts", st.cache.inserts);
  m.add_count("serve.evictions", st.cache.evictions);
  m.add_count("serve.bytes_written", st.cache.bytes_written);
  m.add_count("serve.bytes_read", st.cache.bytes_read);

  m.add("subarch.ladder_ms", f.ladder_ms, "ms");
  m.add_count("subarch.library_hits", st.library.hits);
  m.add_count("subarch.library_misses", st.library.misses);

  m.add("certify.ms", st.certify_ms, "ms");
  m.add_count("certify.proof_steps", st.proof_steps);
  m.add_count("certify.unproven", st.unproven);

  // Tracing overhead over the same work: the traced side minus the
  // final-bound encodings only it builds.
  m.add("obs.trace_overhead_frac",
        (st.wall_ms - st.encode_ms) / untraced_wall_ms - 1.0, "fraction");

  // Wall-time attribution of the traced side: span self time per src/
  // module; the benchmark loop's own self time is the remainder.
  const double root = std::max(f.root_ms, 1e-9);
  const char* layers[] = {"sat",   "encode",  "layout", "verify",
                          "serve", "subarch", "plan"};
  double named = 0.0;
  for (const char* layer : layers) {
    m.add(std::string("attr.") + layer + "_ms", self(layer), "ms");
    named += self(layer);
  }
  m.add("attr.unattributed_ms", root - named, "ms");
  m.add("attr.named_frac", named / root, "fraction");
  m.add("attr.wall_ms", f.root_ms, "ms");
}

void print_result(const std::vector<PassStats>& passes,
                  const MetricsJson& m) {
  bool correct = true;
  int attempted = 0, failed = 0;
  for (const PassStats& p : passes) {
    correct = correct && p.correct;
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& e : p.errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.str().c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  Workload workload(args.workload, args.seed, args.workdir, false,
                    kServeBatches);
  // Set-up is repeated; setup_s is the fastest repetition. Its median is
  // bimodal across processes (the same binary and seed reads ~0.03 or
  // ~0.05 ms on tb-swap), while the minimum repeats.
  const int setup_reps = args.trace ? 1 : workload.serving() ? 5 : 1001;
  std::vector<double> setups;
  for (int i = 0; i < setup_reps; ++i) setups.push_back(workload.setup());

  MetricsJson metrics;
  std::vector<PassStats> passes;
  if (!args.trace) {
    // Whole passes while the next one is expected to fit in --seconds.
    const auto start = Clock::now();
    while (true) {
      passes.push_back(workload.pass(/*print=*/passes.empty()));
      const double elapsed = ms_since(start);
      if (elapsed + passes.back().wall_ms > args.seconds * 1e3) break;
    }
    add_end_to_end(metrics, passes,
                   *std::min_element(setups.begin(), setups.end()));
  } else {
    Workload::TracedRun run = workload.traced_run(/*print=*/true);
    PassStats& st = run.traced;
    const LayerFold& fold = run.fold;
    // The program's span record and its per-call records must agree, and
    // tracing must not change the search.
    if (!workload.serving() &&
        (st.call_conflicts != fold.conflicts ||
         st.calls_sat != fold.calls[0] || st.calls_unsat != fold.calls[1])) {
      st.correct = false;
      st.errors.push_back("sat.solve spans disagree with Result::calls");
    }
    if (run.untraced.call_conflicts != st.call_conflicts ||
        run.untraced.hits != st.hits) {
      st.correct = false;
      st.errors.push_back("the untraced and traced runs diverged");
    }
    add_per_layer(metrics, st, fold, run.untraced.wall_ms);
    passes.push_back(std::move(run.untraced));
    passes.push_back(std::move(st));
  }
  print_result(passes, metrics);
  return 0;
}

/// Deterministic counts of one reduced traced run. Cache byte counts are
/// left out: entries serialize their solve's wall time.
std::string fingerprint(const PassStats& st, const LayerFold& f) {
  std::ostringstream out;
  out << "conflicts=" << f.conflicts << " call_conflicts=" << st.call_conflicts
      << " calls_sat=" << f.calls[0] << " calls_unsat=" << f.calls[1]
      << " hits=" << st.hits << "/" << st.attempted
      << " disk_hits=" << st.disk_hits << " cache{hits=" << st.cache.hits
      << " disk=" << st.cache.disk_hits << " misses=" << st.cache.misses
      << " inserts=" << st.cache.inserts
      << " evictions=" << st.cache.evictions << "} library{hits="
      << st.library.hits << " misses=" << st.library.misses
      << " inserts=" << st.library.inserts << "} unproven=" << st.unproven
      << " failed=" << st.failed;
  return out.str();
}

/// Two reduced passes per workload with one seed must agree on every
/// deterministic count; a nondeterministic change fails here before its
/// timings are trusted.
int selfcheck(const Args& args) {
  bool ok = true;
  for (const char* name : {"tb-swap", "depth", "serve-mix"}) {
    std::string prints[2];
    for (std::string& print : prints) {
      Workload workload(name, 1, args.workdir, /*reduced=*/true,
                        /*batches=*/40);
      workload.setup();
      const Workload::TracedRun run = workload.traced_run(/*print=*/false);
      print = fingerprint(run.traced, run.fold);
      if (!run.traced.correct || run.traced.failed > 0 ||
          run.fold.conflicts == 0 ||
          fingerprint(run.untraced, run.fold) != print) {
        std::printf("%s: run not clean: %s\n", name, print.c_str());
        ok = false;
      }
    }
    const bool same = prints[0] == prints[1];
    std::printf("%s %s: %s\n", same ? "OK  " : "FAIL", name,
                prints[0].c_str());
    if (!same) std::printf("     second pass: %s\n", prints[1].c_str());
    ok = ok && same;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.workdir);
    return args.selfcheck ? selfcheck(args) : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
