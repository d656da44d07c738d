// Tests for portfolio (parallel) synthesis: the race of independent
// strategies (paper §V) and its agreement with the sequential engines.
#include <gtest/gtest.h>

#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/portfolio.h"
#include "layout/verifier.h"
#include "qasm/parser.h"

namespace olsq2::layout {
namespace {

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

std::string corpus(const std::string& name) {
  return std::string(OLSQ2_BENCHMARK_DIR) + "/" + name;
}

TEST(Portfolio, DefaultEntriesCoverBothObjectives) {
  const auto depth_entries = default_portfolio(Objective::kDepth);
  const auto swap_entries = default_portfolio(Objective::kSwap);
  EXPECT_GE(depth_entries.size(), 3u);
  EXPECT_GT(swap_entries.size(), depth_entries.size());
  for (const auto& e : depth_entries) EXPECT_FALSE(e.name.empty());
}

TEST(Portfolio, DepthWinnerMatchesSequential) {
  const auto c = bengen::qaoa_3regular(6, 4);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result sequential = synthesize_depth_optimal(problem);
  ASSERT_TRUE(sequential.solved);

  const PortfolioResult portfolio =
      synthesize_portfolio(problem, Objective::kDepth,
                           default_portfolio(Objective::kDepth));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_GE(portfolio.winner, 0);
  EXPECT_EQ(portfolio.best.depth, sequential.depth);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

TEST(Portfolio, SwapWinnerMatchesSequential) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result sequential = synthesize_swap_optimal(problem);
  ASSERT_TRUE(sequential.solved);

  const PortfolioResult portfolio = synthesize_portfolio(
      problem, Objective::kSwap, default_portfolio(Objective::kSwap));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_EQ(portfolio.best.swap_count, sequential.swap_count);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

TEST(Portfolio, EmptyPortfolioReturnsUnsolved) {
  const auto c = bengen::qaoa_3regular(4, 1);
  const auto dev = device::grid(2, 2);
  const Problem problem{&c, &dev, 1};
  const PortfolioResult r =
      synthesize_portfolio(problem, Objective::kDepth, {});
  EXPECT_FALSE(r.best.solved);
  EXPECT_EQ(r.winner, -1);
}

TEST(Portfolio, TinyBudgetReportsBestPartial) {
  const auto c = bengen::qaoa_3regular(10, 3);
  const auto dev = device::grid(4, 4);
  const Problem problem{&c, &dev, 1};
  OptimizerOptions base;
  base.time_budget_ms = 5.0;  // nobody can finish
  const PortfolioResult r = synthesize_portfolio(
      problem, Objective::kDepth, default_portfolio(Objective::kDepth, base));
  // Either someone got lucky or nothing solved; both must be consistent.
  if (r.best.solved) {
    EXPECT_GE(r.winner, 0);
  } else {
    EXPECT_EQ(r.winner, -1);
  }
}

TEST(Portfolio, RecordsPerEntryWallClock) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const PortfolioResult r = synthesize_portfolio(
      problem, Objective::kSwap, default_portfolio(Objective::kSwap));
  ASSERT_TRUE(r.best.solved);
  for (const Result& entry : r.all) EXPECT_GT(entry.wall_ms, 0.0);
}

// A race of one is the sequential engine: the entry gets its own model and
// solver and shares nothing, so it issues exactly the SAT calls
// synthesize_depth_optimal issues with the same options.
TEST(Portfolio, SingleEntryRunsLikeTheSequentialEngine) {
  const auto c = bengen::qaoa_3regular(6, 4);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  std::vector<PortfolioEntry> entries = default_portfolio(Objective::kDepth);
  entries.resize(1);
  const Result sequential = synthesize_depth_optimal(
      problem, entries[0].config, entries[0].options);
  ASSERT_TRUE(sequential.solved);
  const PortfolioResult portfolio =
      synthesize_portfolio(problem, Objective::kDepth, entries);
  ASSERT_EQ(portfolio.winner, 0);
  const Result& raced = portfolio.best;
  EXPECT_EQ(raced.depth, sequential.depth);
  ASSERT_EQ(raced.calls.size(), sequential.calls.size());
  for (std::size_t i = 0; i < raced.calls.size(); ++i) {
    EXPECT_EQ(raced.calls[i].depth_bound, sequential.calls[i].depth_bound) << i;
    EXPECT_EQ(raced.calls[i].status, sequential.calls[i].status) << i;
    EXPECT_EQ(raced.calls[i].conflicts, sequential.calls[i].conflicts) << i;
  }
}

// Differential: the portfolio must land on exactly the optima the
// sequential optimizer proves, on real QASM inputs.
TEST(Portfolio, MatchesSequentialOnQasmCorpusDepth) {
  const auto c = qasm::parse_file(corpus("toffoli_qx2.qasm"));
  const auto dev = device::ibm_qx2();
  const Problem problem{&c, &dev, 3};
  const Result sequential = synthesize_depth_optimal(problem);
  ASSERT_TRUE(sequential.solved);
  const PortfolioResult portfolio = synthesize_portfolio(
      problem, Objective::kDepth, default_portfolio(Objective::kDepth));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_EQ(portfolio.best.depth, sequential.depth);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

TEST(Portfolio, MatchesSequentialOnQasmCorpusSwap) {
  const auto c = qasm::parse_file(corpus("qaoa_triangle.qasm"));
  const auto dev = device::grid(1, 4);
  const Problem problem{&c, &dev, 2};
  const Result sequential = synthesize_swap_optimal(problem);
  ASSERT_TRUE(sequential.solved);
  const PortfolioResult portfolio = synthesize_portfolio(
      problem, Objective::kSwap, default_portfolio(Objective::kSwap));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_EQ(portfolio.best.swap_count, sequential.swap_count);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

// Seeded races reproduce their optima across repeated runs, whichever
// entry wins each time.
TEST(Portfolio, SeededRacesReproduceOptima) {
  const auto c = bengen::qaoa_3regular(6, 3);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  OptimizerOptions base;
  base.seed = 7;
  int depth = -1;
  for (int run = 0; run < 3; ++run) {
    const PortfolioResult r = synthesize_portfolio(
        problem, Objective::kDepth, default_portfolio(Objective::kDepth, base));
    ASSERT_TRUE(r.best.solved);
    if (run == 0) {
      depth = r.best.depth;
    } else {
      EXPECT_EQ(r.best.depth, depth);
    }
  }
}

}  // namespace
}  // namespace olsq2::layout
