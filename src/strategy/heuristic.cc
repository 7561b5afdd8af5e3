#include "strategy/heuristic.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "strategy/greedy.h"

namespace pcqe {

namespace {

/// Under a finite deadline, a greedy-primed search that has less than this
/// much budget left after the greedy pass returns the greedy plan instead.
constexpr double kPrimedSearchMinSeconds = 0.010;

/// costβ against a caller-owned scratch vector holding the problem's current
/// initial probabilities. Only `scratch[base_index]` is written, and it is
/// restored before returning, so one scratch serves a whole chunk of tuples
/// without the per-call `InitialProbs()` copy.
double CostBetaScratch(const IncrementProblem& problem, size_t base_index,
                       std::vector<double>* scratch) {
  const BaseTupleSpec& b = problem.base(base_index);
  std::vector<double>& probs = *scratch;
  const double initial = probs[base_index];
  size_t steps = problem.NumSteps(base_index);
  double f_max = 0.0;
  for (size_t s = 1; s <= steps; ++s) {
    double v = problem.ValueAtStep(base_index, s);
    probs[base_index] = v;
    for (uint32_t r : problem.results_of_base(base_index)) {
      double f = problem.EvalResult(r, probs);
      if (ClearsThreshold(f, problem.beta())) {
        probs[base_index] = initial;
        return b.cost->Increment(b.confidence, v);
      }
      f_max = std::max(f_max, f);
    }
  }
  probs[base_index] = initial;
  // Raising this tuple alone can never push a result over beta. The paper
  // adjusts costβ to cost / (Fmax / β), i.e. cost · β / Fmax, inflating the
  // ranking weight of tuples that get nowhere near the threshold.
  double full_cost = b.cost->Increment(b.confidence, b.max_confidence);
  if (f_max <= kEpsilon) {
    // No progress at all (e.g. tuple already at its ceiling, or every
    // result pinned at zero by another tuple): rank it last/first by an
    // effectively infinite costβ.
    return std::numeric_limits<double>::infinity();
  }
  return full_cost * problem.beta() / f_max;
}

/// The only cross-lane state of the wave search: the node budget and the
/// stop latch. Everything that affects the *result* (bounds, incumbents,
/// counters) is unit-local and combined at wave barriers in root-step
/// order, so the search is deterministic at any lane count.
struct SearchBudget {
  std::atomic<size_t> nodes{0};
  /// First stop cause wins (a `SolveStop` value; 0 = still running).
  std::atomic<uint8_t> stop{0};

  void RecordStop(SolveStop cause) {
    uint8_t expected = 0;
    stop.compare_exchange_strong(expected, static_cast<uint8_t>(cause),
                                 std::memory_order_relaxed);
  }
  bool stopped() const { return stop.load(std::memory_order_relaxed) != 0; }
};

/// Outcome of exploring one root step (one wave unit).
struct UnitResult {
  std::vector<double> best_assignment;
  double best_cost = std::numeric_limits<double>::infinity();
  bool have_best = false;
  /// The root-level sibling loop asked to stop (bound prune, feasible leaf,
  /// or H2): higher root steps would not have been explored sequentially.
  bool stop_after = false;
  SolverEffort effort;
};

/// One branch-and-bound unit: owns its `ConfidenceState` (and optimistic H3
/// state) and explores a single root step of the first ordered variable
/// against a bound fixed at the wave start, recording a local incumbent and
/// plain-integer effort counters.
class SearchWorker {
 public:
  SearchWorker(const IncrementProblem& problem, const HeuristicOptions& options,
               const std::vector<size_t>& order,
               const std::vector<double>& suffix_min_step, SolveControl* control,
               SearchBudget* budget, double wave_bound)
      : problem_(problem),
        options_(options),
        order_(order),
        suffix_min_step_(suffix_min_step),
        control_(control),
        budget_(budget),
        bound_(wave_bound),
        state_(problem),
        opt_state_(problem) {
    if (options_.use_h3) {
      for (size_t i = 0; i < problem_.num_base_tuples(); ++i) {
        opt_state_.SetProb(i, problem_.base(i).max_confidence);
      }
    }
  }

  /// Explores root step `s` of `order[0]` and returns the unit outcome.
  UnitResult RunRootStep(size_t s) {
    if (!order_.empty()) {
      size_t var = order_[0];
      double initial = state_.prob(var);
      result_.stop_after = !Visit(0, var, s);
      state_.SetProb(var, initial);
    }
    return std::move(result_);
  }

 private:
  /// kComplete when the search may continue; the stop cause otherwise.
  SolveStop BudgetCheck(size_t total_nodes) {
    if (total_nodes > options_.max_nodes) return SolveStop::kNodeBudget;
    // Amortize the deadline/cancel poll; a node is microseconds, so the
    // budget is observed within ~1024 shared node expansions at any lane
    // count (plus the wave-boundary check in SolveHeuristic).
    if ((total_nodes & 0x3FF) == 0 && control_->StopNow()) {
      return control_->cause();
    }
    return SolveStop::kComplete;
  }

  /// One (tuple, value) node: count it, set the value, prune/record/recurse.
  /// Returns false when the sibling loop at this depth should stop.
  bool Visit(size_t depth, size_t var, size_t s) {
    ++result_.effort.nodes_expanded;
    size_t total = budget_->nodes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (SolveStop stop = BudgetCheck(total); stop != SolveStop::kComplete) {
      budget_->RecordStop(stop);
      return false;
    }
    double value = problem_.ValueAtStep(var, s);
    state_.SetProb(var, value);
    if (options_.use_h3) opt_state_.SetProb(var, value);

    // Incumbent bound: values only grow along the sibling axis, so the
    // whole remaining value range is pruned together. `bound_` is the wave
    // bound lowered by this unit's own incumbents — never another lane's,
    // which is what keeps the explored tree lane-count-independent.
    if (state_.total_cost() >= bound_ - kEpsilon) {
      ++result_.effort.incumbent_prunes;
      return false;
    }

    if (state_.Feasible()) {
      // Monotone problem: any further increment (deeper or higher
      // sibling) only adds cost. The check above proved it beats the
      // current local bound.
      ++result_.effort.incumbent_updates;
      result_.best_cost = state_.total_cost();
      result_.best_assignment = state_.probs();
      result_.have_best = true;
      bound_ = result_.best_cost;
      return false;
    }

    bool recurse = depth + 1 < order_.size();

    // H3: optimistic completion (remaining tuples at their ceilings)
    // still infeasible -> nothing below this node can succeed. Higher
    // values of the current tuple may still help, so continue siblings.
    if (recurse && options_.use_h3 && !opt_state_.Feasible()) {
      ++result_.effort.h3_prunes;
      recurse = false;
    }

    // H4: the current spend plus the cheapest possible single δ-step on
    // any *remaining* tuple already busts the incumbent, so no descendant
    // can win. Siblings are not covered (their extra spend is on the
    // current tuple, which is not in the suffix), so only recursion is
    // pruned.
    if (recurse && options_.use_h4 && std::isfinite(suffix_min_step_[depth + 1]) &&
        state_.total_cost() + suffix_min_step_[depth + 1] >= bound_ - kEpsilon) {
      ++result_.effort.h4_prunes;
      recurse = false;
    }

    if (recurse) Dfs(depth + 1);

    // H2: every result this tuple touches is already above beta; raising
    // it further cannot help any unsatisfied result.
    if (options_.use_h2) {
      bool all_satisfied = true;
      for (uint32_t r : problem_.results_of_base(var)) {
        if (!ClearsThreshold(state_.result_confidence(r), problem_.beta())) {
          all_satisfied = false;
          break;
        }
      }
      if (all_satisfied) {
        ++result_.effort.h2_prunes;
        return false;
      }
    }
    return true;
  }

  void Dfs(size_t depth) {  // NOLINT(misc-no-recursion)
    if (depth >= order_.size() || budget_->stopped()) {
      return;
    }
    size_t var = order_[depth];
    double initial = state_.prob(var);
    double ceiling = problem_.base(var).max_confidence;
    size_t steps = problem_.NumSteps(var);

    for (size_t s = 0; s <= steps; ++s) {
      if (!Visit(depth, var, s)) break;
    }

    state_.SetProb(var, initial);
    if (options_.use_h3) opt_state_.SetProb(var, ceiling);
  }

  const IncrementProblem& problem_;
  const HeuristicOptions& options_;
  const std::vector<size_t>& order_;
  const std::vector<double>& suffix_min_step_;
  SolveControl* control_;
  SearchBudget* budget_;
  double bound_;  ///< unit-local incumbent bound (starts at the wave bound)
  ConfidenceState state_;
  ConfidenceState opt_state_;
  UnitResult result_;
};

}  // namespace

double CostBeta(const IncrementProblem& problem, size_t base_index) {
  std::vector<double> probs = problem.InitialProbs();
  return CostBetaScratch(problem, base_index, &probs);
}

Result<IncrementSolution> SolveHeuristic(const IncrementProblem& problem,
                                         const HeuristicOptions& options) {
  SolveControl control(options.deadline, options.cancel,
                       fault_sites::kHeuristicDeadline);
  if (!problem.is_monotone()) {
    return Status::InvalidArgument(
        "heuristic solver requires a monotone problem (no negation in lineage); "
        "use the greedy solver as a best-effort fallback");
  }

  ConfidenceState initial_state(problem);
  if (initial_state.Feasible()) {
    // Already satisfied with no spend.
    return MakeSolution(initial_state, "heuristic");
  }
  {
    // Global feasibility check: everything at its ceiling.
    ConfidenceState ceiling_state(problem);
    for (size_t i = 0; i < problem.num_base_tuples(); ++i) {
      ceiling_state.SetProb(i, problem.base(i).max_confidence);
    }
    if (!ceiling_state.Feasible()) {
      // Infeasible even at every ceiling: report the do-nothing assignment.
      return MakeSolution(initial_state, "heuristic");
    }
  }

  SolverEffort effort;
  double best_cost =
      options.initial_upper_bound.value_or(std::numeric_limits<double>::infinity());
  const std::vector<double>* initial_assignment =
      options.initial_assignment.has_value() ? &*options.initial_assignment : nullptr;

  // Greedy priming under a finite deadline: B&B then only explores subtrees
  // that can beat the greedy plan, and if the deadline lands mid-search that
  // plan is already a feasible anytime answer. When the greedy pass alone
  // ate the budget, return its plan without searching (feasible, not proven
  // optimal). Un-deadlined solves never prime, so they stay byte-identical.
  IncrementSolution primed;
  if (!options.deadline.infinite() && !options.initial_upper_bound.has_value()) {
    GreedyOptions primer;
    primer.parallelism = options.parallelism;
    primer.deadline = options.deadline;
    primer.cancel = options.cancel;
    PCQE_ASSIGN_OR_RETURN(primed, SolveGreedy(problem, primer));
    effort.MergeFrom(primed.effort);
    if (primed.feasible) {
      if (options.deadline.RemainingSeconds() < kPrimedSearchMinSeconds) {
        primed.algorithm = "heuristic";
        primed.effort = effort;
        if (!primed.partial()) primed.stop = SolveStop::kDeadline;
        return primed;
      }
      best_cost = primed.total_cost;
      initial_assignment = &primed.new_confidence;
    }
  }

  // H1 (or natural) variable ordering. costβ of each tuple is independent of
  // every other, so the precompute fans out in chunks, one scratch each.
  std::vector<size_t> order(problem.num_base_tuples());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (options.use_h1_ordering) {
    std::vector<double> cost_beta(order.size());
    ParallelForChunks(options.parallelism, order.size(),
                      [&](size_t, size_t lo, size_t hi) {
                        std::vector<double> scratch = problem.InitialProbs();
                        for (size_t i = lo; i < hi; ++i) {
                          cost_beta[i] = CostBetaScratch(problem, i, &scratch);
                        }
                      });
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return cost_beta[a] > cost_beta[b];
    });
  }

  // Cheapest single δ-step per tuple (a valid lower bound on any further
  // spend), plus suffix minima in search order for H4.
  std::vector<double> min_step_cost(problem.num_base_tuples(),
                                    std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < problem.num_base_tuples(); ++i) {
    size_t steps = problem.NumSteps(i);
    double prev_level = problem.CostLevel(i, problem.ValueAtStep(i, 0));
    for (size_t s = 1; s <= steps; ++s) {
      double level = problem.CostLevel(i, problem.ValueAtStep(i, s));
      min_step_cost[i] = std::min(min_step_cost[i], level - prev_level);
      prev_level = level;
    }
  }
  std::vector<double> suffix_min_step(order.size() + 1,
                                      std::numeric_limits<double>::infinity());
  for (size_t d = order.size(); d-- > 0;) {
    suffix_min_step[d] = std::min(suffix_min_step[d + 1], min_step_cost[order[d]]);
  }

  SearchBudget budget;
  if (options.use_h1_ordering) effort.costbeta_evals += order.size();

  std::vector<double> best_assignment;
  bool have_best = false;

  // Wave search over the first ordered variable's δ-steps: each wave runs
  // `kHeuristicRootWaveWidth` independent units seeded with the incumbent
  // bound as of the wave start, then combines them in root-step order.
  // Lanes only decide how many of a wave's units run concurrently, so the
  // combined result and counters are identical at any lane count. An
  // equal-cost unit never displaces an earlier one (`improves` is strict),
  // which is the tie-break to the smallest root step.
  size_t root_values = order.empty() ? 0 : problem.NumSteps(order[0]) + 1;
  bool stopped = false;
  for (size_t wave_start = 0; wave_start < root_values && !stopped;
       wave_start += kHeuristicRootWaveWidth) {
    // Wave-boundary poll: small instances may never reach the amortized
    // per-1024-node check, and an already-expired deadline must stop the
    // search before the first expansion.
    if (control.StopNow()) {
      budget.RecordStop(control.cause());
      break;
    }
    PCQE_INJECT_FAULT(fault_sites::kHeuristicWave);
    size_t wave_size = std::min(kHeuristicRootWaveWidth, root_values - wave_start);
    std::vector<UnitResult> units(wave_size);
    double wave_bound = best_cost;
    ParallelFor(options.parallelism, wave_size, [&](size_t u) {
      SearchWorker worker(problem, options, order, suffix_min_step, &control,
                          &budget, wave_bound);
      units[u] = worker.RunRootStep(wave_start + u);
    });
    for (size_t u = 0; u < wave_size; ++u) {
      UnitResult& unit = units[u];
      effort.MergeFrom(unit.effort);
      if (unit.have_best && unit.best_cost < best_cost - kEpsilon) {
        best_cost = unit.best_cost;
        best_assignment = std::move(unit.best_assignment);
        have_best = true;
      }
      if (unit.stop_after) {
        // The sequential sibling loop would have stopped here: later units
        // of this wave are speculation whose effort is not counted, and no
        // further waves launch.
        stopped = true;
        break;
      }
    }
    if (budget.stopped()) stopped = true;
  }

  IncrementSolution out;
  if (have_best) {
    // Rebuild the winning state to produce exact bookkeeping.
    ConfidenceState final_state(problem);
    for (size_t i = 0; i < best_assignment.size(); ++i) {
      final_state.SetProb(i, best_assignment[i]);
    }
    out = MakeSolution(final_state, "heuristic");
  } else if (initial_assignment != nullptr && std::isfinite(best_cost)) {
    // The supplied or primed incumbent was never beaten; return it.
    ConfidenceState final_state(problem);
    for (size_t i = 0; i < initial_assignment->size(); ++i) {
      final_state.SetProb(i, (*initial_assignment)[i]);
    }
    out = MakeSolution(final_state, "heuristic");
  } else {
    out = MakeSolution(initial_state, "heuristic");  // infeasible best effort
  }
  out.effort = effort;
  out.stop = static_cast<SolveStop>(budget.stop.load());
  return out;
}

}  // namespace pcqe
