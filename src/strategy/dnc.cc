#include "strategy/dnc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace pcqe {

namespace {

/// Whether the budget is spent, read straight off the deadline and the
/// cancel flag. Unlike `SolveControl::StopNow` this consumes no injected
/// deadline probe, so the `FaultInjector::hits()` positions that replays of
/// an injected expiry rely on stay where the phase-boundary polls put them.
bool BudgetSpent(const DncOptions& options) {
  return options.deadline.Expired() ||
         (options.cancel != nullptr && options.cancel->cancelled());
}

/// A group posed as a standalone sub-problem plus solver artifacts.
struct GroupWork {
  std::vector<uint32_t> sub_bases;          ///< global base index per sub index
  std::vector<LineageRef> sub_lineages;     ///< still-unsatisfied results
  std::vector<uint32_t> sub_query_of;       ///< compact query id per result
  std::vector<uint32_t> sub_queries_orig;   ///< compact -> original query
  std::vector<size_t> sub_available;       ///< unsat results per compact query
};

/// Collects the group's still-relevant results and base tuples against the
/// current global state. Returns an empty sub_lineages when nothing in the
/// group can still help.
Result<GroupWork> CollectGroup(const IncrementProblem& problem,
                               const ConfidenceState& global,
                               const PartitionGroup& group, bool respect_deficit) {
  GroupWork work;
  std::vector<uint32_t> query_remap(problem.num_queries(), UINT32_MAX);
  for (uint32_t r : group.results) {
    uint32_t q = problem.query_of_result(r);
    if (respect_deficit && global.Deficit(q) == 0) continue;
    if (ClearsThreshold(global.result_confidence(r), problem.beta())) continue;
    if (query_remap[q] == UINT32_MAX) {
      query_remap[q] = static_cast<uint32_t>(work.sub_queries_orig.size());
      work.sub_queries_orig.push_back(q);
      work.sub_available.push_back(0);
    }
    work.sub_lineages.push_back(problem.result_lineage(r));
    work.sub_query_of.push_back(query_remap[q]);
    ++work.sub_available[query_remap[q]];
  }
  if (work.sub_lineages.empty()) return work;

  for (const LineageRef ref : work.sub_lineages) {
    for (LineageVarId id : problem.arena()->Variables(ref)) {
      PCQE_ASSIGN_OR_RETURN(size_t idx, problem.BaseIndexOf(id));
      work.sub_bases.push_back(static_cast<uint32_t>(idx));
    }
  }
  std::sort(work.sub_bases.begin(), work.sub_bases.end());
  work.sub_bases.erase(std::unique(work.sub_bases.begin(), work.sub_bases.end()),
                       work.sub_bases.end());
  return work;
}

/// Builds the sub-problem for a collected group, with each base tuple's
/// floor at its *current* global confidence.
Result<IncrementProblem> BuildSubProblem(const IncrementProblem& problem,
                                         const ConfidenceState& global,
                                         const GroupWork& work,
                                         std::vector<size_t> sub_required) {
  std::vector<BaseTupleSpec> sub_specs;
  sub_specs.reserve(work.sub_bases.size());
  for (uint32_t b : work.sub_bases) {
    BaseTupleSpec spec = problem.base(b);
    spec.confidence = global.prob(b);
    sub_specs.push_back(std::move(spec));
  }
  ProblemOptions sub_options;
  sub_options.beta = problem.beta();
  sub_options.delta = problem.delta();
  return IncrementProblem::Build(problem.arena(), work.sub_lineages, work.sub_query_of,
                                 std::move(sub_required), std::move(sub_specs),
                                 sub_options);
}

/// Folds the D&C-level budget into a greedy sub-configuration so every
/// sub-solve observes the same absolute deadline and cancel flag.
GreedyOptions WithDncBudget(GreedyOptions greedy, const DncOptions& options) {
  greedy.deadline = Deadline::Sooner(greedy.deadline, options.deadline);
  if (greedy.cancel == nullptr) greedy.cancel = options.cancel;
  return greedy;
}

/// Per-group sub-solvers always run sequentially: the group grid is the
/// parallel axis, and nested fan-out would only add queue churn.
GreedyOptions SequentialGreedy(const DncOptions& options) {
  GreedyOptions greedy = WithDncBudget(options.greedy, options);
  greedy.parallelism.threads = 1;
  return greedy;
}

/// The τ-bounded exact pass over a group sub-problem: one-lane
/// branch-and-bound under the D&C node budget and deadline, seeded with
/// `upper_bound` (and `assignment`, when given). Merges its effort into
/// `effort`; the caller decides whether the result replaces its greedy plan.
Result<IncrementSolution> SolveExactTail(const IncrementProblem& sub,
                                         const DncOptions& options, double upper_bound,
                                         std::optional<std::vector<double>> assignment,
                                         SolverEffort* effort) {
  HeuristicOptions h;
  h.initial_upper_bound = upper_bound;
  h.initial_assignment = std::move(assignment);
  h.max_nodes = options.heuristic_max_nodes;
  h.deadline = options.deadline;
  h.cancel = options.cancel;
  h.parallelism.threads = 1;
  PCQE_ASSIGN_OR_RETURN(IncrementSolution exact, SolveHeuristic(sub, h));
  effort->MergeFrom(exact.effort);
  return exact;
}

struct GroupCurve {
  std::vector<uint32_t> sub_bases;
  std::vector<GreedyCheckpoint> checkpoints;
};

/// Builds one group's marginal-cost curve (greedy checkpoints toward full
/// in-group satisfaction, with the bounded exact tail replacement for small
/// groups). Reads `global` only — a pure function of (problem, global,
/// group) — so curves for many groups can be built concurrently.
/// Accumulates the sub-solver effort into `effort`; a curve with no
/// checkpoints means the group has nothing to contribute.
Status BuildGroupCurve(const IncrementProblem& problem, const ConfidenceState& global,
                       const PartitionGroup& group, const DncOptions& options,
                       GroupCurve* out, SolverEffort* effort) {
  PCQE_INJECT_FAULT(fault_sites::kDncGroup);
  // A spent budget contributes no curve: the groups already built are the
  // anytime result.
  if (BudgetSpent(options)) return Status::OK();
  PCQE_ASSIGN_OR_RETURN(GroupWork work,
                        CollectGroup(problem, global, group,
                                     /*respect_deficit=*/false));
  if (work.sub_lineages.empty()) return Status::OK();
  // Target everything in the group; the combiner decides how much to use.
  std::vector<size_t> all(work.sub_available.begin(), work.sub_available.end());
  PCQE_ASSIGN_OR_RETURN(IncrementProblem sub,
                        BuildSubProblem(problem, global, work, std::move(all)));
  ConfidenceState sub_state(sub);
  GroupCurve curve;
  curve.sub_bases = work.sub_bases;
  GreedyRaise(&sub_state, SequentialGreedy(options), &curve.checkpoints, effort);

  // Small groups: replace the full-satisfaction tail with the exact
  // search, seeded by the greedy incumbent (Figure 10's bounded
  // heuristic refinement).
  if (options.tau > 0 && sub.num_base_tuples() < options.tau && sub.is_monotone() &&
      !curve.checkpoints.empty() && sub_state.Feasible()) {
    PCQE_ASSIGN_OR_RETURN(
        IncrementSolution exact,
        SolveExactTail(sub, options, sub_state.total_cost(), std::nullopt, effort));
    GreedyCheckpoint& tail = curve.checkpoints.back();
    if (exact.feasible && exact.total_cost < tail.cost - kEpsilon) {
      tail.cost = exact.total_cost;
      tail.raised.clear();
      for (size_t i = 0; i < exact.new_confidence.size(); ++i) {
        if (exact.new_confidence[i] > sub.base(i).confidence + kEpsilon) {
          tail.raised.emplace_back(i, exact.new_confidence[i]);
        }
      }
    }
  }
  if (!curve.checkpoints.empty()) *out = std::move(curve);
  return Status::OK();
}

/// Single-query path: build a marginal-cost curve per group (greedy
/// checkpoints toward full in-group satisfaction), then buy satisfactions
/// from the curves cheapest-rate-first until the deficit is covered. This
/// is the "combine the result in a greedy way" step with global cost
/// awareness: expensive results in cheap groups are *not* forced.
///
/// The global state is read-only until the accepted prefixes are applied,
/// so the curve builds fan out over groups; each curve lands in its own
/// slot — effort counters included — and is consumed in group order, making
/// the combine, the final assignment, and the counters identical to the
/// sequential pass.
Status SolveSingleQuery(const IncrementProblem& problem, ConfidenceState* global,
                        const std::vector<PartitionGroup>& groups,
                        const DncOptions& options, SolverEffort* effort,
                        SolveControl* control) {
  // Phase-boundary poll; the per-group curve builds observe the budget
  // internally via their greedy/heuristic options.
  if (control->StopNow()) return Status::OK();
  std::vector<GroupCurve> built(groups.size());
  std::vector<SolverEffort> built_effort(groups.size());
  std::vector<Status> built_status(groups.size());
  const ConfidenceState& frozen = *global;
  ParallelFor(options.parallelism, groups.size(), [&](size_t g) {
    built_status[g] = BuildGroupCurve(problem, frozen, groups[g], options, &built[g],
                                      &built_effort[g]);
  });

  std::vector<GroupCurve> curves;
  curves.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    if (!built_status[g].ok()) return built_status[g];
    effort->MergeFrom(built_effort[g]);
    if (!built[g].checkpoints.empty()) curves.push_back(std::move(built[g]));
  }

  // Buy checkpoint packages cheapest-rate-first until the deficit closes.
  struct Package {
    double rate;  // marginal cost per newly satisfied result
    size_t curve;
    size_t index;  // checkpoint index this package advances to
    bool operator<(const Package& other) const { return rate > other.rate; }
  };
  std::priority_queue<Package> queue;
  auto package_for = [&](size_t c, size_t index) -> Package {
    const std::vector<GreedyCheckpoint>& cps = curves[c].checkpoints;
    double prev_cost = index == 0 ? 0.0 : cps[index - 1].cost;
    size_t prev_sat = index == 0 ? 0 : cps[index - 1].satisfied;
    size_t gained = cps[index].satisfied - prev_sat;
    double rate = gained == 0 ? std::numeric_limits<double>::infinity()
                              : (cps[index].cost - prev_cost) / static_cast<double>(gained);
    return {rate, c, index};
  };
  for (size_t c = 0; c < curves.size(); ++c) queue.push(package_for(c, 0));

  size_t bought = 0;
  size_t deficit = global->Deficit(0);
  std::vector<size_t> accepted(curves.size(), 0);  // #checkpoints taken per curve
  while (bought < deficit && !queue.empty()) {
    Package p = queue.top();
    queue.pop();
    const std::vector<GreedyCheckpoint>& cps = curves[p.curve].checkpoints;
    size_t prev_sat = p.index == 0 ? 0 : cps[p.index - 1].satisfied;
    bought += cps[p.index].satisfied - prev_sat;
    accepted[p.curve] = p.index + 1;
    if (p.index + 1 < cps.size()) queue.push(package_for(p.curve, p.index + 1));
  }

  // Apply the accepted prefixes to the global state (max-combine; sub
  // floors equal the global state, so the new value is the max).
  for (size_t c = 0; c < curves.size(); ++c) {
    if (accepted[c] == 0) continue;
    ++effort->dnc_groups_solved;
    const GreedyCheckpoint& cp = curves[c].checkpoints[accepted[c] - 1];
    for (const auto& [sub_idx, value] : cp.raised) {
      uint32_t global_idx = curves[c].sub_bases[sub_idx];
      if (value > global->prob(global_idx) + kEpsilon) {
        global->SetProb(global_idx, value);
      }
    }
  }
  return Status::OK();
}

/// One group's sub-solve against a frozen view of the global state (the
/// live state in the sequential path, a wave snapshot in the parallel one).
struct GroupSolve {
  bool skip = true;  ///< nothing in the group can still help
  GroupWork work;
  IncrementSolution solution;
  SolverEffort effort;  ///< sub-solver effort (greedy + bounded exact tail)
};

Result<GroupSolve> SolveOneGroup(const IncrementProblem& problem,
                                 const ConfidenceState& view,
                                 const PartitionGroup& group,
                                 const DncOptions& options) {
  GroupSolve out;
  PCQE_INJECT_FAULT(fault_sites::kDncGroup);
  if (BudgetSpent(options)) return out;
  PCQE_ASSIGN_OR_RETURN(GroupWork work,
                        CollectGroup(problem, view, group,
                                     /*respect_deficit=*/true));
  if (work.sub_lineages.empty()) return out;

  std::vector<size_t> sub_required(work.sub_queries_orig.size());
  for (size_t cq = 0; cq < work.sub_queries_orig.size(); ++cq) {
    sub_required[cq] =
        std::min(view.Deficit(work.sub_queries_orig[cq]), work.sub_available[cq]);
  }
  PCQE_ASSIGN_OR_RETURN(IncrementProblem sub,
                        BuildSubProblem(problem, view, work, std::move(sub_required)));

  PCQE_ASSIGN_OR_RETURN(IncrementSolution sub_solution,
                        SolveGreedy(sub, SequentialGreedy(options)));
  out.effort.MergeFrom(sub_solution.effort);

  if (options.tau > 0 && sub.num_base_tuples() < options.tau && sub.is_monotone()) {
    PCQE_ASSIGN_OR_RETURN(IncrementSolution exact,
                          SolveExactTail(sub, options, sub_solution.total_cost,
                                         sub_solution.new_confidence, &out.effort));
    bool better = (exact.feasible && !sub_solution.feasible) ||
                  (exact.feasible == sub_solution.feasible &&
                   exact.total_cost < sub_solution.total_cost - kEpsilon);
    if (better) sub_solution = std::move(exact);
  }

  out.skip = false;
  out.work = std::move(work);
  out.solution = std::move(sub_solution);
  return out;
}

/// Max-combines a sub-solution into the global state (sub floors equal the
/// view the group was solved against, so the new value is the max).
void ApplyGroupSolution(ConfidenceState* global, const GroupSolve& solve) {
  for (size_t sb = 0; sb < solve.work.sub_bases.size(); ++sb) {
    double v = solve.solution.new_confidence[sb];
    if (v > global->prob(solve.work.sub_bases[sb]) + kEpsilon) {
      global->SetProb(solve.work.sub_bases[sb], v);
    }
  }
}

/// Everything a group's sub-solve reads from the global state: the probs of
/// its base tuples (which also determine its results' confidences) and the
/// deficits of its results' queries. When none of those moved since
/// `snapshot`, a solve against the snapshot is byte-identical to one
/// against the live state — the speculation can be applied as-is.
bool GroupViewUnchanged(const IncrementProblem& problem, const PartitionGroup& group,
                        const ConfidenceState& snapshot,
                        const ConfidenceState& global) {
  for (uint32_t b : group.base_tuples) {
    if (global.prob(b) != snapshot.prob(b)) return false;
  }
  for (uint32_t r : group.results) {
    uint32_t q = problem.query_of_result(r);
    if (global.Deficit(q) != snapshot.Deficit(q)) return false;
  }
  return true;
}

/// Multi-query path: paper-style sequential fill (each group satisfies as
/// much of the remaining per-query deficits as it can), processed in
/// fixed-width waves of `kDncWaveWidth` groups.
///
/// With more than one lane a wave is first solved speculatively, all its
/// groups concurrently against one wave-start snapshot of the global state.
/// Then, at any lane count, the wave is applied in group order: a group
/// whose view earlier applies changed (a shared base tuple on a group
/// boundary, or a deficit another group just covered) counts an
/// invalidation and is solved against the live state, as is every group
/// when nothing was speculated. A solve against an unchanged view is
/// byte-identical to a live one, so the applied sequence — and every
/// `SolverEffort` counter — is the sequential fill's at any lane count; a
/// wasted speculative solve is not counted.
Status SolveMultiQuery(const IncrementProblem& problem, ConfidenceState* global,
                       const std::vector<PartitionGroup>& groups,
                       const DncOptions& options, SolverEffort* effort,
                       SolveControl* control) {
  const bool speculate = options.parallelism.Resolve() > 1;
  size_t g = 0;
  while (g < groups.size()) {
    if (global->Feasible()) break;
    // Wave-boundary poll: the merged state so far is the anytime result.
    if (control->StopNow()) break;

    const size_t wave_size = std::min(g + kDncWaveWidth, groups.size()) - g;
    ++effort->dnc_waves;
    const ConfidenceState snapshot = *global;
    std::vector<GroupSolve> wave(wave_size);
    std::vector<Status> wave_status(wave_size);
    if (speculate) {
      ParallelFor(options.parallelism, wave_size, [&](size_t w) {
        Result<GroupSolve> r = SolveOneGroup(problem, snapshot, groups[g + w], options);
        if (r.ok()) {
          wave[w] = std::move(*r);
        } else {
          wave_status[w] = r.status();
        }
      });
    }

    for (size_t w = 0; w < wave_size; ++w, ++g) {
      if (global->Feasible()) return Status::OK();
      if (!wave_status[w].ok()) return wave_status[w];
      const bool unchanged = GroupViewUnchanged(problem, groups[g], snapshot, *global);
      if (!unchanged) ++effort->dnc_invalidations;
      if (!speculate || !unchanged) {
        PCQE_ASSIGN_OR_RETURN(wave[w], SolveOneGroup(problem, *global, groups[g], options));
      }
      effort->MergeFrom(wave[w].effort);
      if (!wave[w].skip) {
        ++effort->dnc_groups_solved;
        ApplyGroupSolution(global, wave[w]);
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<IncrementSolution> SolveDnc(const IncrementProblem& problem,
                                   const DncOptions& options) {
  SolveControl control(options.deadline, options.cancel,
                       fault_sites::kDncDeadline);
  ConfidenceState global(problem);
  SolverEffort effort;

  // Deadline-bounded greedy priming (as in SolveHeuristic): under a finite
  // budget the fill can be cut off mid-raise, and the merged partial may then
  // be infeasible even though a feasible plan was within easy reach. Run the
  // whole-problem greedy pass first — it observes the same absolute deadline
  // — and keep a feasible result as the incumbent to fall back on. Gated on
  // a finite deadline so un-deadlined solves (including the recorded
  // micro_parallel cost/effort baselines and injected-expiry replays, which
  // run without a real deadline) stay byte-identical.
  std::optional<IncrementSolution> incumbent;
  if (!options.deadline.infinite() && !global.Feasible()) {
    GreedyOptions primer = WithDncBudget(options.greedy, options);
    primer.parallelism = options.parallelism;
    PCQE_ASSIGN_OR_RETURN(IncrementSolution primed, SolveGreedy(problem, primer));
    effort.MergeFrom(primed.effort);
    if (primed.feasible) incumbent = std::move(primed);
  }

  // Partitioning is unpolled work; a primer that used up the budget skips it.
  if (!global.Feasible() && !BudgetSpent(options)) {
    std::vector<PartitionGroup> groups = PartitionResults(problem, options.partition);

    PCQE_RETURN_NOT_OK(
        problem.num_queries() == 1 && problem.is_monotone()
            ? SolveSingleQuery(problem, &global, groups, options, &effort, &control)
            : SolveMultiQuery(problem, &global, groups, options, &effort, &control));

    // Top-up: per-group curves can leave a residual deficit (a group's
    // greedy stalled, or rounding in package sizes); close it globally.
    if (!global.Feasible() && !control.StopNow()) {
      GreedyOptions top_up = WithDncBudget(options.greedy, options);
      top_up.parallelism = options.parallelism;
      effort.dnc_topup_iterations += GreedyRaise(&global, top_up);
    }

    // Global refinement over the combined assignment (phase-2 style).
    if (!control.stopped()) {
      effort.greedy_phase2_steps +=
          RefineDown(&global, options.greedy.gain_mode, &control);
    }
  }

  IncrementSolution out = MakeSolution(global, "dnc");
  out.effort = effort;
  // Final poll: a budget that expired anywhere — including inside a group's
  // greedy/exact sub-solve, which shares the same absolute deadline — tags
  // the merged result partial. This is deliberately the last probe of the
  // solve, so tests can position an injected expiry at the very end.
  if (control.StopNow()) {
    out.stop = control.cause();
    // A stopped fill that never reached feasibility loses to the greedy
    // incumbent: return the feasible plan (still tagged partial — it makes
    // no optimality claim) instead of the infeasible merged state.
    if (!out.feasible && incumbent.has_value()) {
      IncrementSolution fallback = std::move(*incumbent);
      fallback.algorithm = out.algorithm;
      fallback.effort = effort;
      fallback.stop = out.stop;
      return fallback;
    }
  }
  return out;
}

}  // namespace pcqe
