// Copyright (c) PCQE contributors.
// Exact branch-and-bound solver with the paper's heuristics H1-H4 (§4.1).

#ifndef PCQE_STRATEGY_HEURISTIC_H_
#define PCQE_STRATEGY_HEURISTIC_H_

#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "strategy/problem.h"
#include "strategy/solution.h"

namespace pcqe {

/// Root steps per wave of the multi-root branch-and-bound search. A
/// lane-count-independent constant: wave boundaries (where incumbent bounds
/// synchronize) must not move with `SolverParallelism`, or node and prune
/// counts would differ between lane counts.
inline constexpr size_t kHeuristicRootWaveWidth = 8;

/// \brief Toggles and budgets for the branch-and-bound search.
///
/// With every heuristic disabled the search is the paper's "Naive" variant:
/// depth-first enumeration pruned only by the incumbent cost. Figures 11(a)
/// and 11(d) sweep these toggles.
struct HeuristicOptions {
  /// H1: order base tuples by descending costβ (the minimum cost at which
  /// raising the tuple alone pushes one of its results over β; unreachable
  /// tuples use the paper's `cost · β / Fmax` adjustment).
  bool use_h1_ordering = true;
  /// H2: when every result touching the current tuple already clears β,
  /// prune the higher-value siblings (raising this tuple further only
  /// benefits already-satisfied results).
  bool use_h2 = true;
  /// H3: when even raising all remaining tuples to their ceilings cannot
  /// reach the required count, prune the subtree below the current node.
  bool use_h3 = true;
  /// H4: when the current cost plus the cheapest possible single δ-step on
  /// any remaining tuple already meets the incumbent, prune.
  bool use_h4 = true;

  /// Optional externally supplied incumbent (e.g. the greedy solution, the
  /// paper's Figure 11(d) setup): `bound` primes the cost bound, and
  /// `assignment`, when set, is returned if the search finds nothing
  /// cheaper.
  std::optional<double> initial_upper_bound;
  std::optional<std::vector<double>> initial_assignment;

  /// Node budget; on exhaustion the best incumbent is returned tagged
  /// `SolveStop::kNodeBudget` (partial). Shared across lanes.
  size_t max_nodes = 500'000'000;
  /// Absolute budget: the only way wall clock enters the search. On expiry
  /// the search stops within a bounded number of node expansions (checked
  /// every 1024 shared nodes and at every wave boundary) and the best
  /// feasible incumbent — or `initial_assignment`, when supplied and never
  /// beaten — is returned tagged `partial` / `SolveStop::kDeadline`.
  ///
  /// A finite deadline with no `initial_upper_bound` first runs a greedy
  /// pass bounded by the same deadline: a feasible greedy plan primes the
  /// search's bound and incumbent, and when less than 10 ms of budget is
  /// left after it, that plan is returned tagged partial without searching.
  /// An infinite `initial_upper_bound` keeps a deadlined search unprimed.
  Deadline deadline;
  /// Optional caller-owned cancellation flag, checked on the same cadence.
  const CancelToken* cancel = nullptr;

  /// Multi-root parallel search over fixed-width waves: the first
  /// H1-ordered variable's δ-steps are processed in waves of
  /// `kHeuristicRootWaveWidth` independent units, each seeded with the
  /// incumbent bound as of the wave start and explored with its own local
  /// bound; unit results (best assignment and `SolverEffort` counters) are
  /// combined in root-step order at the wave barrier. Because the wave
  /// width is a constant — not the lane count — the explored tree, the
  /// returned solution *and every effort counter* are bit-identical at any
  /// setting (equal-cost ties go to the smallest root step); lanes only
  /// decide how many units of a wave run concurrently. The exceptions are
  /// a multi-lane `max_nodes` abort and a deadline stop, where the budget
  /// trips at a scheduling-dependent point; a single-lane `max_nodes` abort
  /// is deterministic.
  SolverParallelism parallelism;
};

/// \brief Exact cost-minimal solver (complete search; worst case O(d^k)).
///
/// Requires a monotone problem (`IncrementProblem::is_monotone()`): the
/// satisfied-stop rule and H2/H3 rely on result confidences being
/// non-decreasing in base confidences. Returns `kInvalidArgument` otherwise.
///
/// When the problem is infeasible even with every tuple at its ceiling, the
/// do-nothing assignment is returned with `feasible = false`.
[[nodiscard]] Result<IncrementSolution> SolveHeuristic(const IncrementProblem& problem,
                                         const HeuristicOptions& options = {});

/// Computes the H1 ordering's costβ for one base tuple (exposed for tests).
double CostBeta(const IncrementProblem& problem, size_t base_index);

}  // namespace pcqe

#endif  // PCQE_STRATEGY_HEURISTIC_H_
