#include "analysis/card_audit.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "encode/cardinality.h"
#include "encode/cnf.h"
#include "encode/totalizer.h"
#include "sat/solver.h"

namespace olsq2::analysis {

namespace {

// Each obligation is a tiny incremental solve; the budget only guards
// against a pathologically broken formula blowing up the audit itself.
constexpr std::int64_t kConflictBudget = 200000;

std::string indices_to_string(std::span<const int> indices) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i > 0) out << ",";
    out << indices[i];
  }
  out << "}";
  return out.str();
}

// Discharge one obligation: solve under `assumptions`, expect `expect_sat`.
void check_pattern(sat::Solver& solver, std::span<const sat::Lit> assumptions,
                   bool expect_sat, const std::string& what,
                   AuditResult& result) {
  result.checks++;
  solver.set_conflict_budget(kConflictBudget);
  const sat::LBool status = solver.solve(assumptions);
  if (status == sat::LBool::kUndef) {
    result.fail("inconclusive (conflict budget expired): " + what);
    return;
  }
  const bool sat = status == sat::LBool::kTrue;
  if (sat != expect_sat) {
    result.fail(what + ": expected " + (expect_sat ? "SAT" : "UNSAT") +
                ", got " + (sat ? "SAT" : "UNSAT"));
  }
}

}  // namespace

const char* card_kind_name(CardKind kind) {
  switch (kind) {
    case CardKind::kSeqCounter: return "seqcounter";
    case CardKind::kTotalizer: return "totalizer";
    case CardKind::kAdder: return "adder";
  }
  return "unknown";
}

CardFormula encode_at_most_k(CardKind kind, int n, int k) {
  sat::Solver solver;
  solver.set_clause_log(true);
  encode::CnfBuilder builder(solver);
  CardFormula formula;
  formula.k = k;
  formula.inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) formula.inputs.push_back(builder.new_lit());
  switch (kind) {
    case CardKind::kSeqCounter:
      encode::at_most_k_seqcounter(builder, formula.inputs, k);
      break;
    case CardKind::kAdder:
      encode::at_most_k_adder(builder, formula.inputs, k);
      break;
    case CardKind::kTotalizer: {
      const encode::Totalizer totalizer(builder, formula.inputs);
      totalizer.assert_leq(builder, k);
      break;
    }
  }
  formula.num_vars = solver.num_vars();
  formula.clauses = solver.clause_log();
  return formula;
}

AuditResult audit_at_most_k(int num_vars,
                            const std::vector<sat::Clause>& clauses,
                            std::span<const sat::Lit> inputs, int k,
                            int exhaustive_limit) {
  AuditResult result;
  const int n = static_cast<int>(inputs.size());
  if (k < 0) {
    result.fail("audit_at_most_k requires k >= 0");
    return result;
  }

  sat::Solver solver;
  for (int v = 0; v < num_vars; ++v) solver.new_var();
  bool root_ok = true;
  for (const sat::Clause& clause : clauses) {
    if (!solver.add_clause(clause)) root_ok = false;
  }
  if (!root_ok || !solver.okay()) {
    // At-most-k is always satisfiable (set every input false), so a
    // root-level contradiction is itself an encoding bug.
    result.fail("formula is root-level unsatisfiable");
    return result;
  }

  std::vector<sat::Lit> assumptions;
  if (n <= exhaustive_limit && n < 24) {
    // Exhaustive sweep: every input assignment, SAT iff <= k inputs true.
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      assumptions.clear();
      int count = 0;
      for (int i = 0; i < n; ++i) {
        const bool on = ((mask >> i) & 1u) != 0;
        if (on) count++;
        assumptions.push_back(on ? inputs[i] : ~inputs[i]);
      }
      std::ostringstream what;
      what << "input mask 0x" << std::hex << mask << std::dec << " ("
           << count << " of " << n << " true, k=" << k << ")";
      check_pattern(solver, assumptions, count <= k, what.str(), result);
    }
    solver.clear_budgets();
    return result;
  }

  // Structural audit for large n: canonical <= k patterns must be SAT.
  {
    assumptions.clear();
    for (int i = 0; i < n; ++i) assumptions.push_back(~inputs[i]);
    check_pattern(solver, assumptions, true, "all inputs false", result);
  }
  const int m = std::min(k, n);
  for (const bool from_front : {true, false}) {
    assumptions.clear();
    for (int i = 0; i < n; ++i) {
      const bool on = from_front ? i < m : i >= n - m;
      assumptions.push_back(on ? inputs[i] : ~inputs[i]);
    }
    check_pattern(solver, assumptions, true,
                  std::string(from_front ? "first " : "last ") +
                      std::to_string(m) + " inputs true, rest false",
                  result);
  }

  // Every k+1-subset must be infeasible; sample windows reproducibly.
  if (k < n) {
    std::set<std::vector<int>> windows;
    std::vector<int> window;
    auto contiguous = [&](int start) {
      window.clear();
      for (int i = 0; i <= k; ++i) window.push_back((start + i) % n);
      std::sort(window.begin(), window.end());
      windows.insert(window);
    };
    contiguous(0);
    contiguous(n - k - 1);
    for (int r = 1; r < 8; ++r) contiguous(r * n / 8);
    window.clear();
    for (int i = 0; i <= k; ++i) window.push_back(i * (n - 1) / std::max(k, 1));
    std::sort(window.begin(), window.end());
    window.erase(std::unique(window.begin(), window.end()), window.end());
    if (static_cast<int>(window.size()) == k + 1) windows.insert(window);

    for (const std::vector<int>& w : windows) {
      assumptions.clear();
      for (const int i : w) assumptions.push_back(inputs[i]);
      check_pattern(solver, assumptions, false,
                    std::to_string(k + 1) + " inputs " +
                        indices_to_string(w) + " true (k=" +
                        std::to_string(k) + ")",
                    result);
    }
  }
  solver.clear_budgets();
  return result;
}

AuditResult audit_card_encoding(CardKind kind, int n, int k,
                                int exhaustive_limit) {
  const CardFormula formula = encode_at_most_k(kind, n, k);
  AuditResult result = audit_at_most_k(formula.num_vars, formula.clauses,
                                       formula.inputs, k, exhaustive_limit);
  if (!result.ok) {
    result.errors.insert(result.errors.begin(),
                         std::string("encoder ") + card_kind_name(kind) +
                             " n=" + std::to_string(n) +
                             " k=" + std::to_string(k) + " failed audit");
  }
  return result;
}

}  // namespace olsq2::analysis
