#include "plan/plan.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "circuit/circuit.h"
#include "device/device.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "plan/heuristic.h"
#include "plan/space.h"

namespace olsq2::plan {

namespace {

struct VecHash {
  std::size_t operator()(const std::vector<int>& v) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int x : v) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared budget/cancel bookkeeping for both strategies.
struct Budget {
  double start_ms;
  double budget_ms;
  const std::atomic<bool>* cancel;
  std::int64_t max_expansions;
  bool tripped = false;

  bool check(std::int64_t expansions) {
    if (tripped) return true;
    if (expansions >= max_expansions) {
      tripped = true;
    } else if (cancel != nullptr &&
               cancel->load(std::memory_order_relaxed)) {
      tripped = true;
    } else if (budget_ms > 0 && now_ms() - start_ms > budget_ms) {
      tripped = true;
    }
    return tripped;
  }
};

/// The chosen plan: a root placement plus SWAP edges in execution order.
struct Incumbent {
  bool valid = false;
  std::vector<int> initial_mapping;
  std::vector<int> edges;

  int cost() const {
    return valid ? static_cast<int>(edges.size()) : Heuristic::kUnreachable;
  }
};

struct Node {
  Space::State state;
  int g = 0;
  int h = 0;
  int parent = -1;
  int via_edge = -1;
};

/// Root of `idx`'s ancestor chain plus the edges walked from it.
Incumbent path_to(const std::vector<Node>& pool, int idx,
                  const std::vector<int>& tail) {
  std::vector<int> edges;
  int cur = idx;
  while (pool[cur].parent >= 0) {
    edges.push_back(pool[cur].via_edge);
    cur = pool[cur].parent;
  }
  std::reverse(edges.begin(), edges.end());
  edges.insert(edges.end(), tail.begin(), tail.end());
  Incumbent inc;
  inc.valid = true;
  inc.initial_mapping = pool[cur].state.mapping;
  inc.edges = std::move(edges);
  return inc;
}

/// Replay the plan to build a transition-based layout::Result (one SWAP
/// per transition; gate times = the block whose closure executed them).
void fill_layout(const Space& space, PlanResult* result) {
  layout::Result& out = result->layout;
  out.solved = true;
  out.transition_based = true;
  out.swap_count = static_cast<int>(result->swap_edges.size());
  out.depth = out.swap_count + 1;
  out.gate_time.assign(space.total_gates(), -1);

  Space::State state;
  state.mapping = result->initial_mapping;
  state.inv.assign(space.num_physical_qubits(), -1);
  for (int q = 0; q < space.num_program_qubits(); ++q) {
    state.inv[state.mapping[q]] = q;
  }
  state.next.assign(space.num_program_qubits(), 0);

  std::vector<int> executed;
  for (int k = 0; k <= out.swap_count; ++k) {
    out.mapping.push_back(state.mapping);
    executed.clear();
    space.closure(&state, &executed);
    for (int g : executed) out.gate_time[g] = k;
    if (k < out.swap_count) {
      const int e = result->swap_edges[k];
      out.swaps.push_back(layout::SwapOp{e, k});
      space.apply_swap(&state, e);
    }
  }
  assert(space.is_goal(state));
  result->final_mapping = state.mapping;
}

void astar_search(const Space& space, const Heuristic& h,
                  std::vector<Space::State> roots, bool roots_complete,
                  Budget* budget, Incumbent* incumbent, PlanResult* result) {
  std::vector<Node> pool;
  std::unordered_map<std::vector<int>, int, VecHash> best_g;

  struct Entry {
    int f;
    int h;
    int idx;
    bool operator>(const Entry& o) const {
      if (f != o.f) return f > o.f;
      if (h != o.h) return h > o.h;  // prefer deeper nodes on f-ties
      return idx > o.idx;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> open;

  int best_root_h = Heuristic::kUnreachable;
  int best_root_idx = -1;
  for (Space::State& root : roots) {
    space.closure(&root);
    std::vector<int> k = space.key(root);
    auto [it, inserted] = best_g.emplace(std::move(k), 0);
    if (!inserted) continue;  // duplicate root modulo inactive placement
    const int hv = h(root);
    if (hv >= Heuristic::kUnreachable) continue;
    const int idx = static_cast<int>(pool.size());
    pool.push_back(Node{std::move(root), 0, hv, -1, -1});
    open.push(Entry{hv, hv, idx});
    if (hv < best_root_h) {
      best_root_h = hv;
      best_root_idx = idx;
    }
  }
  roots.clear();

  // Seed the anytime incumbent greedily from the most promising root.
  if (best_root_idx >= 0) {
    std::vector<int> tail;
    if (greedy_completion(space, pool[best_root_idx].state, &tail) >= 0) {
      *incumbent = path_to(pool, best_root_idx, tail);
    }
  }

  bool closed = false;
  while (!open.empty()) {
    const Entry top = open.top();
    if (incumbent->valid && top.f >= incumbent->cost()) {
      closed = true;  // every remaining node costs at least the incumbent
      break;
    }
    open.pop();
    {
      auto it = best_g.find(space.key(pool[top.idx].state));
      if (it != best_g.end() && it->second < pool[top.idx].g) {
        continue;  // superseded by a cheaper reopening
      }
    }
    if (space.is_goal(pool[top.idx].state)) {
      *incumbent = path_to(pool, top.idx, {});
      closed = true;  // admissible h: first goal expansion is optimal
      break;
    }
    if (budget->check(result->nodes_expanded)) break;
    ++result->nodes_expanded;

    std::vector<int> edges;
    space.candidate_edges(pool[top.idx].state, &edges);
    for (int e : edges) {
      Space::State child = pool[top.idx].state;
      space.apply_swap(&child, e);
      space.closure(&child);
      ++result->nodes_generated;
      const int g2 = pool[top.idx].g + 1;
      std::vector<int> k2 = space.key(child);
      auto [it, inserted] = best_g.emplace(k2, g2);
      if (!inserted) {
        if (it->second <= g2) {
          ++result->tt_hits;
          continue;
        }
        it->second = g2;  // reopen with the cheaper path
      }
      const int h2 = h(child);
      if (h2 >= Heuristic::kUnreachable) continue;
      if (incumbent->valid && g2 + h2 >= incumbent->cost()) continue;
      const int idx2 = static_cast<int>(pool.size());
      pool.push_back(Node{std::move(child), g2, h2, top.idx, e});
      open.push(Entry{g2 + h2, h2, idx2});
    }

    // Periodically tighten the anytime bound from the node just expanded.
    if ((result->nodes_expanded & 2047) == 0) {
      std::vector<int> tail;
      const int len = greedy_completion(space, pool[top.idx].state, &tail);
      if (len >= 0 && pool[top.idx].g + len < incumbent->cost()) {
        *incumbent = path_to(pool, top.idx, tail);
      }
    }
  }
  if (open.empty()) closed = true;  // search space exhausted

  result->hit_budget = budget->tripped;
  result->solved = incumbent->valid;
  result->optimal = roots_complete && closed && !budget->tripped;
}

struct IdaContext {
  const Space* space;
  const Heuristic* h;
  Budget* budget;
  Incumbent* incumbent;
  PlanResult* result;
  const std::vector<int>* root_mapping;
  std::vector<int> path;
  int bound = 0;
  int next_bound = Heuristic::kUnreachable;
};

void ida_dfs(IdaContext* ctx, const Space::State& state, int g, int last_edge) {
  if (ctx->budget->tripped) return;
  const int hv = (*ctx->h)(state);
  if (hv >= Heuristic::kUnreachable) return;
  const int f = g + hv;
  if (ctx->incumbent->valid && f >= ctx->incumbent->cost()) return;
  if (f > ctx->bound) {
    ctx->next_bound = std::min(ctx->next_bound, f);
    return;
  }
  if (ctx->space->is_goal(state)) {
    ctx->incumbent->valid = true;
    ctx->incumbent->initial_mapping = *ctx->root_mapping;
    ctx->incumbent->edges = ctx->path;
    return;
  }
  if (ctx->budget->check(ctx->result->nodes_expanded)) return;
  ++ctx->result->nodes_expanded;

  std::vector<int> edges;
  ctx->space->candidate_edges(state, &edges);
  for (int e : edges) {
    if (e == last_edge) continue;  // a SWAP is its own inverse
    Space::State child = state;
    ctx->space->apply_swap(&child, e);
    ctx->space->closure(&child);
    ++ctx->result->nodes_generated;
    ctx->path.push_back(e);
    ida_dfs(ctx, child, g + 1, e);
    ctx->path.pop_back();
    if (ctx->budget->tripped) return;
  }
}

void ida_search(const Space& space, const Heuristic& h,
                std::vector<Space::State> roots, bool roots_complete,
                Budget* budget, Incumbent* incumbent, PlanResult* result) {
  // Closure + dedupe the roots once (no transposition table afterwards).
  std::vector<Space::State> unique_roots;
  {
    std::unordered_set<std::vector<int>, VecHash> seen;
    for (Space::State& root : roots) {
      space.closure(&root);
      if (!seen.insert(space.key(root)).second) continue;
      unique_roots.push_back(std::move(root));
    }
  }
  roots.clear();

  int bound = Heuristic::kUnreachable;
  int best_root = -1;
  for (std::size_t i = 0; i < unique_roots.size(); ++i) {
    const int hv = h(unique_roots[i]);
    if (hv < bound) {
      bound = hv;
      best_root = static_cast<int>(i);
    }
  }
  if (best_root >= 0) {
    std::vector<int> tail;
    if (greedy_completion(space, unique_roots[best_root], &tail) >= 0) {
      incumbent->valid = true;
      incumbent->initial_mapping = unique_roots[best_root].mapping;
      incumbent->edges = std::move(tail);
    }
  }

  bool closed = bound >= Heuristic::kUnreachable;  // nothing reachable
  while (!closed && !budget->tripped) {
    IdaContext ctx;
    ctx.space = &space;
    ctx.h = &h;
    ctx.budget = budget;
    ctx.incumbent = incumbent;
    ctx.result = result;
    ctx.bound = bound;
    for (const Space::State& root : unique_roots) {
      ctx.root_mapping = &root.mapping;
      ida_dfs(&ctx, root, 0, -1);
      if (budget->tripped) break;
    }
    if (budget->tripped) break;
    if (ctx.next_bound >= Heuristic::kUnreachable ||
        (incumbent->valid && ctx.next_bound >= incumbent->cost())) {
      closed = true;  // no cheaper plan exists below the incumbent
      break;
    }
    bound = ctx.next_bound;
  }

  result->hit_budget = budget->tripped;
  result->solved = incumbent->valid;
  result->optimal = roots_complete && closed && !budget->tripped;
}

}  // namespace

PlanResult synthesize(const layout::Problem& problem,
                      const PlanOptions& options) {
  obs::Span span("plan.synthesize");
  const double start = now_ms();
  PlanResult result;

  const circuit::Circuit& circ = *problem.circuit;
  const device::Device& dev = *problem.device;
  if (circ.num_qubits() > dev.num_qubits()) {
    result.optimal = true;  // trivially infeasible: not enough qubits
    result.wall_ms = now_ms() - start;
    return result;
  }

  const Space space(problem);
  const Heuristic h(space);

  std::vector<Space::State> roots;
  const bool roots_complete =
      space.roots(std::max<std::int64_t>(1, options.max_roots), options.seed,
                  &roots);
  result.roots = static_cast<std::int64_t>(roots.size());

  Budget budget{start, options.time_budget_ms, options.cancel,
                std::max<std::int64_t>(0, options.max_expansions)};
  Incumbent incumbent;
  if (options.strategy == Strategy::kAstar) {
    astar_search(space, h, std::move(roots), roots_complete, &budget,
                 &incumbent, &result);
  } else {
    ida_search(space, h, std::move(roots), roots_complete, &budget,
               &incumbent, &result);
  }

  if (incumbent.valid) {
    result.swap_count = static_cast<int>(incumbent.edges.size());
    result.initial_mapping = std::move(incumbent.initial_mapping);
    result.swap_edges = std::move(incumbent.edges);
    fill_layout(space, &result);
  }
  result.wall_ms = now_ms() - start;
  result.layout.wall_ms = result.wall_ms;
  // A non-certified plan must never be pinned as an optimum downstream
  // (serve cache, golden replay): surface it as a budget-limited result.
  result.layout.hit_budget = result.solved && !result.optimal;

  if (obs::metrics::enabled()) {
    auto& reg = obs::metrics::Registry::instance();
    static obs::metrics::Counter& expanded = reg.counter(
        "plan_nodes_expanded", "planning-engine A*/IDA* node expansions");
    static obs::metrics::Counter& tt_hits = reg.counter(
        "plan_tt_hits", "planning-engine transposition-table hits");
    static obs::metrics::Histogram& latency = reg.histogram(
        "plan_solve_duration_ms", "planning-engine per-solve wall time");
    expanded.inc(static_cast<std::uint64_t>(result.nodes_expanded));
    tt_hits.inc(static_cast<std::uint64_t>(result.tt_hits));
    latency.observe(result.wall_ms);
  }
  if (span.live()) {
    span.arg("strategy",
             options.strategy == Strategy::kAstar ? "astar" : "idastar");
    span.arg("roots", result.roots);
    span.arg("expanded", result.nodes_expanded);
    span.arg("tt_hits", result.tt_hits);
    span.arg("swaps", result.swap_count);
    span.arg("optimal", result.optimal ? "yes" : "no");
  }
  return result;
}

}  // namespace olsq2::plan
