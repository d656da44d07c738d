// Portfolio scaling study: wall-clock for the bundled QASM benchmarks when
// the portfolio races 1, 2, and 4 independent strategies (paper §V). Emits
// BENCH_parallel.json (see --out) so runs are
// machine-comparable; `make bench_parallel_json` regenerates it.
//
// Usage: bench_parallel [--out=FILE] [--budget-ms=N] [--runs=N]
//   --out        JSON output path (default BENCH_parallel.json)
//   --budget-ms  per-run optimizer budget (default bench::case_budget_ms())
//   --runs       repetitions per configuration; the median is reported
//                (default 3)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "device/presets.h"
#include "layout/portfolio.h"
#include "qasm/parser.h"

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

namespace {

using namespace olsq2;

struct Case {
  std::string name;
  std::string qasm;
  std::string device_name;
  device::Device device;
  layout::Objective objective;
};

struct Sample {
  int entries = 0;
  std::vector<double> runs_ms;
  double median_ms = 0;
  bool solved = false;
  int depth = -1;
  int swap_count = -1;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// First `count` racing strategies: cycle the default portfolio with
/// distinct seeds when more entries are requested than it defines.
std::vector<layout::PortfolioEntry> take_entries(layout::Objective objective,
                                                 int count, double budget_ms) {
  layout::OptimizerOptions base;
  base.time_budget_ms = budget_ms;
  const auto pool = layout::default_portfolio(objective, base);
  std::vector<layout::PortfolioEntry> entries;
  for (int i = 0; i < count; ++i) {
    layout::PortfolioEntry e = pool[i % pool.size()];
    e.options.seed = i + 1;
    if (i >= static_cast<int>(pool.size())) {
      e.name += "#" + std::to_string(i / pool.size());
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

void emit_json(const std::string& path, double budget_ms, int runs,
               const std::vector<Case>& cases,
               const std::vector<std::vector<Sample>>& samples) {
  std::ofstream out(path);
  out << "{" << bench::json_stamp("parallel") << "\"budget_ms\":" << budget_ms
      << ",\"runs\":" << runs << ",\"benchmarks\":[";
  for (std::size_t c = 0; c < cases.size(); ++c) {
    if (c) out << ",";
    out << "{\"name\":\"" << cases[c].name << "\",\"device\":\""
        << cases[c].device_name << "\",\"objective\":\""
        << (cases[c].objective == layout::Objective::kDepth ? "depth" : "swap")
        << "\",\"threads\":[";
    for (std::size_t s = 0; s < samples[c].size(); ++s) {
      const Sample& sm = samples[c][s];
      if (s) out << ",";
      out << "{\"entries\":" << sm.entries << ",\"median_ms\":" << sm.median_ms
          << ",\"runs_ms\":[";
      for (std::size_t r = 0; r < sm.runs_ms.size(); ++r) {
        if (r) out << ",";
        out << sm.runs_ms[r];
      }
      out << "],\"solved\":" << (sm.solved ? "true" : "false")
          << ",\"depth\":" << sm.depth << ",\"swap_count\":" << sm.swap_count
          << "}";
    }
    out << "]}";
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallel.json";
  double budget_ms = bench::case_budget_ms();
  int runs = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      budget_ms = std::atof(arg.c_str() + 12);
    } else if (arg.rfind("--runs=", 0) == 0) {
      runs = std::max(1, std::atoi(arg.c_str() + 7));
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  const std::string dir = OLSQ2_BENCHMARK_DIR;
  std::vector<Case> cases;
  cases.push_back({"ghz5", dir + "/ghz5.qasm", "grid1x5", device::grid(1, 5),
                   layout::Objective::kDepth});
  cases.push_back({"toffoli_qx2", dir + "/toffoli_qx2.qasm", "ibm_qx2",
                   device::ibm_qx2(), layout::Objective::kDepth});
  cases.push_back({"qaoa_triangle", dir + "/qaoa_triangle.qasm", "grid1x4",
                   device::grid(1, 4), layout::Objective::kSwap});
  cases.push_back({"bv5", dir + "/bv5.qasm", "grid2x3", device::grid(2, 3),
                   layout::Objective::kDepth});

  const std::vector<int> thread_counts = {1, 2, 4};
  bench::Table table({"benchmark", "entries", "median", "speedup"});

  std::vector<std::vector<Sample>> samples(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Case& cs = cases[c];
    const auto circ = qasm::parse_file(cs.qasm);
    const layout::Problem problem{&circ, &cs.device, 2};
    double base_ms = 0;
    for (const int n : thread_counts) {
      bench::ScopedCaseTrace trace(cs.name + "-x" + std::to_string(n));
      Sample sm;
      sm.entries = n;
      layout::PortfolioResult last;
      for (int r = 0; r < runs; ++r) {
        const double t0 = bench::now_ms();
        last = layout::synthesize_portfolio(
            problem, cs.objective, take_entries(cs.objective, n, budget_ms));
        sm.runs_ms.push_back(bench::now_ms() - t0);
      }
      sm.median_ms = median(sm.runs_ms);
      sm.solved = last.best.solved;
      sm.depth = last.best.solved ? last.best.depth : -1;
      sm.swap_count = last.best.solved ? last.best.swap_count : -1;
      if (n == 1) base_ms = sm.median_ms;
      table.print_row(
          {cs.name, std::to_string(n),
           bench::fmt_ms(sm.median_ms, !sm.solved),
           sm.median_ms > 0 ? bench::fmt_ratio(base_ms / sm.median_ms) : "-"});
      samples[c].push_back(std::move(sm));
    }
  }

  emit_json(out_path, budget_ms, runs, cases, samples);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
