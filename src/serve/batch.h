// Batch request serving with canonicalization-keyed result caching.
//
// A Server owns a two-tier ResultCache (serve/cache.h) and a subarch probe
// library. Each request is canonicalized (serve/canonical.h); the cache key
// is
//
//   <canonical circuit>|<canonical device>|S<swap_duration>|<engine>|<config>
//
// so two requests that differ only by program-qubit relabeling, coupling-
// graph relabeling, or commuting gate reorder share one entry. Optimizer
// options (budget, seed) are deliberately *excluded*: they steer the
// search, not the optimum, and a cached optimum answers any budget.
// Results that expired their budget - unsolved, or solved but possibly
// suboptimal (hit_budget) - are never cached.
//
// serve_batch() answers what it can from cache, deduplicates the residual
// work by key (the first request with a key pays the solve; later ones are
// cross-request hits) and solves each residual key independently, with no
// clause or bound-fact sharing between solves. Solving happens in
// canonical space; every response is un-relabeled through the request's
// own witness (serve/transfer.h).
// Concurrency: a Server may be shared by concurrent callers. The cache and
// the subarch library lock internally; nothing else is shared between
// batches, so concurrent batches solve in parallel. Two batches that miss
// on the same key both solve it (the later insert overwrites an equal
// optimum).
#pragma once

#include <string>
#include <vector>

#include "layout/types.h"
#include "serve/cache.h"
#include "serve/canonical.h"
#include "subarch/solve.h"

namespace olsq2::serve {

enum class Engine { kDepth, kSwap, kTbSwap, kTbBlock, kPlan };

/// Stable tag used in cache keys and manifests ("depth", "swap",
/// "tb-swap", "tb-block", "plan").
const char* engine_tag(Engine engine);
/// Inverse of engine_tag; throws std::runtime_error on unknown tags.
Engine engine_from_tag(const std::string& tag);

struct Request {
  const circuit::Circuit* circuit = nullptr;
  const device::Device* device = nullptr;
  int swap_duration = 1;
  Engine engine = Engine::kSwap;
  layout::EncodingConfig config;
  /// Per-request optimizer options.
  layout::OptimizerOptions options;
  /// Additionally produce (and cache) an optimality certificate: a DRAT-
  /// checked UNSAT proof at the next-tighter bound (layout/certify.h).
  /// Depth engines certify the depth bound, SWAP engines the SWAP bound;
  /// transition-based requests ignore this (their optima are per-block).
  bool certify = false;
  /// Caller label for reports; not part of the cache key.
  std::string tag;
};

struct Response {
  /// Result in the *request's* label space.
  layout::Result result;
  /// Served from cache (including a solve performed earlier in the same
  /// batch for an equivalent request).
  bool cache_hit = false;
  /// The hit was satisfied by the persistent tier.
  bool from_disk = false;
  /// Full cache key (canonical instance + engine + config).
  std::string key;
  /// Both canonical searches completed within budget; equivalent requests
  /// are guaranteed to collide on `key`. False only for pathologically
  /// symmetric instances (see serve/canonical.h).
  bool canonical_exact = true;
  bool has_depth_cert = false;
  bool has_swap_cert = false;
  layout::Certificate depth_cert;
  layout::Certificate swap_cert;
};

struct ServerOptions {
  CacheOptions cache;
  /// Disable all lookups/inserts (bench baseline: every request solves).
  bool use_cache = true;
  /// Transparent subarchitecture pre-pass (subarch/solve.h): tb-swap and
  /// plan requests on large devices route through the certified ladder
  /// and lift, sharing probe work via the server's subarch library; any
  /// ladder failure degrades to the direct engine, so behavior is
  /// identical except for speed. Only the engines whose SWAP optima are
  /// reduction-invariant theorems are routed (kSwap/kDepth time-resolved
  /// sweeps are not - DESIGN.md §14.5).
  subarch::SubarchOptions subarch;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Serve one request (equivalent to a one-element batch).
  Response serve(const Request& request);

  /// Serve a batch: cache hits answered first, residual work deduplicated
  /// and solved in key order. Responses are in request order. Thread-safe
  /// (see header comment).
  std::vector<Response> serve_batch(const std::vector<Request>& requests);

  ResultCache& cache() { return cache_; }
  /// The server's subarchitecture probe library (shared across requests,
  /// engines, and batches; isomorphic subdevices collide by design).
  subarch::Library& subarch_library() { return subarch_library_; }

 private:
  ServerOptions options_;
  ResultCache cache_;
  subarch::Library subarch_library_;
};

}  // namespace olsq2::serve
