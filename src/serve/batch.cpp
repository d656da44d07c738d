#include "serve/batch.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "circuit/dependency.h"
#include "layout/certify.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "plan/plan.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/transfer.h"

namespace olsq2::serve {

const char* engine_tag(Engine engine) {
  switch (engine) {
    case Engine::kDepth: return "depth";
    case Engine::kSwap: return "swap";
    case Engine::kTbSwap: return "tb-swap";
    case Engine::kTbBlock: return "tb-block";
    case Engine::kPlan: return "plan";
  }
  return "?";
}

Engine engine_from_tag(const std::string& tag) {
  if (tag == "depth") return Engine::kDepth;
  if (tag == "swap") return Engine::kSwap;
  if (tag == "tb-swap") return Engine::kTbSwap;
  if (tag == "tb-block") return Engine::kTbBlock;
  if (tag == "plan") return Engine::kPlan;
  throw std::runtime_error("serve: unknown engine '" + tag + "'");
}

namespace {

bool transition_based(Engine engine) {
  // The planning engine emits transition-based results (one SWAP per
  // block transition, unconstrained depth).
  return engine == Engine::kTbSwap || engine == Engine::kTbBlock ||
         engine == Engine::kPlan;
}

layout::Result run_engine(Engine engine, const layout::Problem& problem,
                          const layout::EncodingConfig& config,
                          layout::OptimizerOptions options,
                          subarch::SubarchOptions subarch_options) {
  // Transparent subarchitecture pre-pass for the engines whose SWAP
  // optima are reduction-invariant (certified ladder + lift; any failure
  // inside the wrappers degrades to the direct engine below). The
  // time-resolved kSwap/kDepth sweeps are excluded: their depth choice is
  // not invariant under device reduction (DESIGN.md §14.5).
  const bool engage =
      (engine == Engine::kTbSwap || engine == Engine::kPlan) &&
      subarch::should_engage(problem, subarch_options);
  switch (engine) {
    case Engine::kDepth:
      return layout::synthesize_depth_optimal(problem, config, options);
    case Engine::kSwap:
      return layout::synthesize_swap_optimal(problem, config, options);
    case Engine::kTbSwap:
      if (engage) {
        return subarch::tb_synthesize_swap_optimal(problem, config, options,
                                                   subarch_options);
      }
      return layout::tb_synthesize_swap_optimal(problem, config, options);
    case Engine::kTbBlock:
      return layout::tb_synthesize_block_optimal(problem, config, options);
    case Engine::kPlan: {
      plan::PlanOptions popt;
      popt.time_budget_ms = options.time_budget_ms;
      popt.cancel = options.cancel;
      if (options.seed != 0) popt.seed = options.seed;
      // PlanResult::layout reports hit_budget for non-certified plans, so
      // the cache (which skips hit_budget results) never pins one.
      if (engage) {
        return subarch::plan_synthesize(problem, popt, subarch_options)
            .layout;
      }
      return plan::synthesize(problem, popt).layout;
    }
  }
  return {};
}

/// Certificates live in canonical space (like the cached result): the bound
/// they refute is relabeling-invariant, so one DRAT check serves the whole
/// equivalence class.
void maybe_certify(const Request& request, const layout::Problem& canonical,
                   CacheEntry& entry) {
  if (!request.certify || !entry.result.solved || entry.result.hit_budget ||
      transition_based(request.engine)) {
    return;
  }
  const double budget = request.options.time_budget_ms;
  if (request.engine == Engine::kDepth && entry.result.depth >= 1) {
    // The horizon must reach the bound being refuted: the optimizer relaxes
    // past the default horizon when the optimum lies above it.
    const circuit::DependencyGraph deps(*canonical.circuit);
    entry.depth_cert = layout::certify_depth_lower_bound(
        canonical, std::max(deps.default_upper_bound(), entry.result.depth),
        entry.result.depth - 1, request.config, budget);
    entry.has_depth_cert = true;
  } else if (request.engine == Engine::kSwap && entry.result.swap_count >= 1) {
    entry.swap_cert = layout::certify_swap_lower_bound(
        canonical, entry.result.depth, entry.result.swap_count - 1,
        request.config, budget);
    entry.has_swap_cert = true;
  }
}

void fill_certs(const CacheEntry& entry, Response& response) {
  response.has_depth_cert = entry.has_depth_cert;
  response.has_swap_cert = entry.has_swap_cert;
  response.depth_cert = entry.depth_cert;
  response.swap_cert = entry.swap_cert;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache) {}

Response Server::serve(const Request& request) {
  return serve_batch({request}).front();
}

std::vector<Response> Server::serve_batch(
    const std::vector<Request>& requests) {
  obs::Span span("serve.batch");
  if (span.live()) {
    span.arg("requests", static_cast<int>(requests.size()));
  }

  // End-to-end request latency: batch entry to the moment the response is
  // filled (cache hits record in the lookup pass, dedup followers when the
  // leader's solve lands), so histogram _count == requests served.
  const auto batch_start = std::chrono::steady_clock::now();
  const bool metered = obs::metrics::enabled();
  auto observe_request = [&] {
    if (!metered) return;
    namespace m = obs::metrics;
    static m::Counter& total = m::Registry::instance().counter(
        "serve_requests_total", "Requests served (cache hits + solves)");
    static m::Histogram& latency = m::Registry::instance().histogram(
        "serve_request_duration_ms",
        "End-to-end latency from batch entry to response fill");
    total.inc();
    latency.observe(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - batch_start)
                        .count());
  };

  struct Item {
    InstanceCanon canon;
    std::string key;
  };
  std::vector<Item> items(requests.size());
  std::vector<Response> responses(requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    if (req.circuit == nullptr || req.device == nullptr) {
      throw std::runtime_error("serve: request without circuit or device");
    }
    Item& item = items[i];
    item.canon = canonicalize(*req.circuit, *req.device, req.swap_duration);
    item.key = item.canon.instance_key() + "|" + engine_tag(req.engine) + "|" +
               req.config.label();
    responses[i].key = item.key;
    responses[i].canonical_exact =
        item.canon.circuit.exact && item.canon.device.exact;
  }

  // Residual work after cache lookups, deduplicated by key. The request
  // that *first* presents a key pays for the solve.
  std::map<std::string, std::vector<std::size_t>> residual;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const layout::Problem original{req.circuit, req.device,
                                   req.swap_duration};
    if (options_.use_cache) {
      bool from_disk = false;
      if (std::optional<CacheEntry> entry =
              cache_.lookup(items[i].key, &from_disk)) {
        // A cached entry may lack a certificate the request wants; treat
        // that as a miss so the solve path can attach one.
        if (!req.certify || entry->has_depth_cert || entry->has_swap_cert ||
            transition_based(req.engine)) {
          responses[i].result =
              untransfer_result(entry->result, items[i].canon, original);
          responses[i].cache_hit = true;
          responses[i].from_disk = from_disk;
          fill_certs(*entry, responses[i]);
          observe_request();
          continue;
        }
      }
    }
    // With the cache off (bench baseline) every request pays its own
    // solve: suffix the grouping key so nothing coalesces.
    std::string group_key = items[i].key;
    if (!options_.use_cache) {
      group_key += '#';
      group_key += std::to_string(i);
    }
    residual[group_key].push_back(i);
  }

  for (const auto& [key, indices] : residual) {
    const std::size_t leader = indices.front();
    const Request& req = requests[leader];
    const Item& item = items[leader];
    obs::Span solve_span("serve.solve");
    if (solve_span.live()) {
      solve_span.arg("key_hash",
                     static_cast<std::int64_t>(fnv1a64(key) & 0x7fffffff));
      solve_span.arg("engine", engine_tag(req.engine));
      solve_span.arg("dedup", static_cast<int>(indices.size()));
    }

    const circuit::Circuit canon_circ =
        apply_circuit_canon(*req.circuit, item.canon.circuit);
    const device::Device canon_dev =
        apply_device_canon(*req.device, item.canon.device);
    const layout::Problem canonical{&canon_circ, &canon_dev,
                                    req.swap_duration};

    subarch::SubarchOptions subarch_options = options_.subarch;
    subarch_options.library = &subarch_library_;

    CacheEntry entry;
    entry.result = run_engine(req.engine, canonical, req.config, req.options,
                              subarch_options);
    maybe_certify(req, canonical, entry);

    if (options_.use_cache && entry.result.solved &&
        !entry.result.hit_budget) {
      cache_.insert(key, entry);
    }

    for (const std::size_t i : indices) {
      const Request& r = requests[i];
      const layout::Problem original{r.circuit, r.device, r.swap_duration};
      responses[i].result =
          untransfer_result(entry.result, items[i].canon, original);
      responses[i].cache_hit = i != leader;  // cross-request dedup hits
      fill_certs(entry, responses[i]);
      observe_request();
    }
  }

  if (span.live()) {
    span.arg("hits", static_cast<std::int64_t>(cache_.stats().hits));
    span.arg("solves", static_cast<std::int64_t>(residual.size()));
  }
  return responses;
}

}  // namespace olsq2::serve
