// JSON serialization of synthesis results for downstream tooling
// (visualizers, regression dashboards). No external dependency; the schema
// is documented in the function comment.
#pragma once

#include <string>
#include <string_view>

#include "layout/types.h"

namespace olsq2::layout {

/// Serialize a result as a single JSON object:
/// {
///   "circuit": "QAOA(16/24)", "device": "sycamore",
///   "solved": true, "transition_based": false,
///   "depth": 9, "swap_count": 3,
///   "gate_times": [..], "initial_mapping": [..], "final_mapping": [..],
///   "swaps": [{"edge": [p0, p1], "end_time": t}, ..],
///   "pareto": [[depth, swaps], ..],
///   "search": {"sat_calls": n, "conflicts": n, "wall_ms": x,
///              "hit_budget": false,
///              "calls": [{"depth_bound": d, "swap_bound": s,
///                         "status": "sat"|"unsat"|"unknown",
///                         "conflicts": n, "propagations": n,
///                         "decisions": n, "wall_ms": x}, ..]}
/// }
/// "calls" holds per-call telemetry for every incremental SAT call in
/// order (for TB results "depth_bound" is the block bound; -1 = bound not
/// assumed on that call). String fields are JSON-escaped.
std::string result_to_json(const Problem& problem, const Result& result);

/// Serialize a result for the serve-layer cache: everything needed to
/// reconstruct the Result struct, nothing tied to a live Problem (swaps are
/// stored as device edge *indices*; the cache stores results against the
/// canonical device, whose edge order is fixed, so indices are
/// stable). Search diagnostics are reduced to the fields a cache hit can
/// honestly report (original wall_ms / sat_calls / conflicts of the solve
/// that produced the entry):
/// {
///   "solved": true, "transition_based": false,
///   "depth": 9, "swap_count": 3,
///   "gate_times": [..], "mapping": [[..], ..],
///   "swaps": [[edge, end_time], ..], "pareto": [[d, s], ..],
///   "wall_ms": x, "sat_calls": n, "conflicts": n, "hit_budget": false
/// }
std::string result_to_cache_json(const Result& result);

/// Parse result_to_cache_json output. Throws std::runtime_error on
/// malformed input.
Result result_from_cache_json(std::string_view json);

}  // namespace olsq2::layout
