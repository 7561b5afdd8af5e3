#include "strategy/solution.h"

#include <iterator>

#include "common/string_util.h"

namespace pcqe {

namespace {

/// The one list of `SolverEffort` counters, in declaration order.
struct EffortField {
  const char* name;
  uint64_t SolverEffort::*member;
};

constexpr EffortField kEffortFields[] = {
    {"nodes_expanded", &SolverEffort::nodes_expanded},
    {"incumbent_prunes", &SolverEffort::incumbent_prunes},
    {"h2_prunes", &SolverEffort::h2_prunes},
    {"h3_prunes", &SolverEffort::h3_prunes},
    {"h4_prunes", &SolverEffort::h4_prunes},
    {"incumbent_updates", &SolverEffort::incumbent_updates},
    {"costbeta_evals", &SolverEffort::costbeta_evals},
    {"greedy_phase1_iterations", &SolverEffort::greedy_phase1_iterations},
    {"greedy_phase2_steps", &SolverEffort::greedy_phase2_steps},
    {"greedy_fallback_picks", &SolverEffort::greedy_fallback_picks},
    {"greedy_stale_recomputes", &SolverEffort::greedy_stale_recomputes},
    {"dnc_groups_solved", &SolverEffort::dnc_groups_solved},
    {"dnc_waves", &SolverEffort::dnc_waves},
    {"dnc_invalidations", &SolverEffort::dnc_invalidations},
    {"dnc_topup_iterations", &SolverEffort::dnc_topup_iterations},
};

// A counter added to the struct but not to the table fails here.
static_assert(sizeof(SolverEffort) == std::size(kEffortFields) * sizeof(uint64_t));

}  // namespace

void SolverEffort::MergeFrom(const SolverEffort& other) {
  for (const EffortField& f : kEffortFields) this->*f.member += other.*f.member;
}

std::vector<std::pair<const char*, uint64_t>> SolverEffort::Items() const {
  std::vector<std::pair<const char*, uint64_t>> items;
  items.reserve(std::size(kEffortFields));
  for (const EffortField& f : kEffortFields) items.emplace_back(f.name, this->*f.member);
  return items;
}

std::vector<IncrementAction> IncrementSolution::Actions(
    const IncrementProblem& problem) const {
  std::vector<IncrementAction> actions;
  for (size_t i = 0; i < new_confidence.size(); ++i) {
    double from = problem.base(i).confidence;
    double to = new_confidence[i];
    if (to > from + kEpsilon) {
      actions.push_back(
          {problem.base(i).id, from, to, problem.base(i).cost->Increment(from, to)});
    }
  }
  return actions;
}

std::string IncrementSolution::ToString(const IncrementProblem& problem) const {
  const std::string_view stop_name = SolveStopToString(stop);
  std::string out = StrFormat("%s: cost=%s, satisfied=%zu, feasible=%s, stop=%.*s",
                              algorithm.c_str(), FormatDouble(total_cost, 4).c_str(),
                              satisfied_results, feasible ? "yes" : "no",
                              static_cast<int>(stop_name.size()), stop_name.data());
  for (const auto& [name, value] : effort.Items()) {
    if (value != 0) {
      out += StrFormat(" %s=%llu", name, static_cast<unsigned long long>(value));
    }
  }
  out += "\n";
  for (const IncrementAction& a : Actions(problem)) {
    out += StrFormat("  tuple %llu: %s -> %s (cost %s)\n",
                     static_cast<unsigned long long>(a.base_tuple),
                     FormatDouble(a.from, 4).c_str(), FormatDouble(a.to, 4).c_str(),
                     FormatDouble(a.cost, 4).c_str());
  }
  return out;
}

Status ValidateSolution(const IncrementProblem& problem,
                        const IncrementSolution& solution) {
  if (solution.new_confidence.size() != problem.num_base_tuples()) {
    return Status::Internal(
        StrFormat("solution covers %zu base tuples, problem has %zu",
                  solution.new_confidence.size(), problem.num_base_tuples()));
  }
  double cost = 0.0;
  for (size_t i = 0; i < solution.new_confidence.size(); ++i) {
    const BaseTupleSpec& b = problem.base(i);
    double v = solution.new_confidence[i];
    if (v < b.confidence - kEpsilon) {
      return Status::Internal(
          StrFormat("base %zu lowered below initial confidence (%g < %g)", i, v,
                    b.confidence));
    }
    if (v > b.max_confidence + kEpsilon) {
      return Status::Internal(StrFormat("base %zu raised above its ceiling (%g > %g)", i,
                                        v, b.max_confidence));
    }
    cost += b.cost->Increment(b.confidence, v);
  }
  if (!ApproxEqual(cost, solution.total_cost, 1e-6)) {
    return Status::Internal(StrFormat("reported cost %g != recomputed cost %g",
                                      solution.total_cost, cost));
  }
  size_t satisfied = 0;
  std::vector<size_t> per_query(problem.num_queries(), 0);
  for (size_t r = 0; r < problem.num_results(); ++r) {
    double f = problem.EvalResult(r, solution.new_confidence);
    if (ClearsThreshold(f, problem.beta())) {
      ++satisfied;
      ++per_query[problem.query_of_result(r)];
    }
  }
  if (satisfied != solution.satisfied_results) {
    return Status::Internal(StrFormat("reported satisfied %zu != recomputed %zu",
                                      solution.satisfied_results, satisfied));
  }
  bool feasible = true;
  for (size_t q = 0; q < problem.num_queries(); ++q) {
    if (per_query[q] < problem.required(q)) feasible = false;
  }
  if (feasible != solution.feasible) {
    return Status::Internal(StrFormat("reported feasible=%d != recomputed %d",
                                      solution.feasible ? 1 : 0, feasible ? 1 : 0));
  }
  return Status::OK();
}

IncrementSolution MakeSolution(const ConfidenceState& state, std::string algorithm) {
  IncrementSolution s;
  s.new_confidence = state.probs();
  s.total_cost = state.total_cost();
  s.feasible = state.Feasible();
  s.satisfied_results = state.total_satisfied();
  s.algorithm = std::move(algorithm);
  return s;
}

}  // namespace pcqe
