#include "strategy/brute_force.h"

namespace pcqe {

namespace {

class BruteForcer {
 public:
  BruteForcer(const IncrementProblem& problem, const BruteForceOptions& options)
      : problem_(problem), options_(options), state_(problem) {}

  Result<IncrementSolution> Run() {
    // Seed "best" with the do-nothing assignment so infeasible problems
    // still return the cheapest best-satisfaction attempt found.
    best_ = MakeSolution(state_, "brute_force");
    PCQE_RETURN_NOT_OK(Recurse(0));
    best_.effort.nodes_expanded = visited_;
    return best_;
  }

 private:
  Status Recurse(size_t depth) {  // NOLINT(misc-no-recursion)
    if (++visited_ > options_.max_assignments) {
      return Status::ResourceExhausted("brute force exceeded assignment budget");
    }
    if (depth == problem_.num_base_tuples()) {
      Consider();
      return Status::OK();
    }
    double original = state_.prob(depth);
    size_t steps = problem_.NumSteps(depth);
    for (size_t s = 0; s <= steps; ++s) {
      state_.SetProb(depth, problem_.ValueAtStep(depth, s));
      PCQE_RETURN_NOT_OK(Recurse(depth + 1));
    }
    state_.SetProb(depth, original);
    return Status::OK();
  }

  void Consider() {
    bool feasible = state_.Feasible();
    // Lexicographic preference: feasibility first, then cost, then (for
    // infeasible candidates) satisfaction count.
    bool better;
    if (feasible != best_.feasible) {
      better = feasible;
    } else if (feasible) {
      better = state_.total_cost() < best_.total_cost - kEpsilon;
    } else {
      better = state_.total_satisfied() > best_.satisfied_results ||
               (state_.total_satisfied() == best_.satisfied_results &&
                state_.total_cost() < best_.total_cost - kEpsilon);
    }
    if (better) best_ = MakeSolution(state_, "brute_force");
  }

  const IncrementProblem& problem_;
  const BruteForceOptions& options_;
  ConfidenceState state_;
  IncrementSolution best_;
  size_t visited_ = 0;
};

}  // namespace

Result<IncrementSolution> SolveBruteForce(const IncrementProblem& problem,
                                          const BruteForceOptions& options) {
  BruteForcer solver(problem, options);
  return solver.Run();
}

}  // namespace pcqe
