// Copyright (c) PCQE contributors.
// Solver output: a confidence assignment plus bookkeeping.

#ifndef PCQE_STRATEGY_SOLUTION_H_
#define PCQE_STRATEGY_SOLUTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "strategy/problem.h"

namespace pcqe {

/// \brief Search-effort counters every solver fills in alongside its
/// solution — the telemetry layer's audit trail of *where the work went*.
///
/// Determinism contract (same as cost/iterations since the parallel-solving
/// PR): every field is bit-identical at any `SolverParallelism` lane count,
/// provided the search ran to completion (`search_complete`). A node or
/// wall-clock budget abort is the one exception — where the budget lands
/// depends on scheduling. Counters are plain integers summed in a fixed
/// order by the owning solver, never shared atomics.
struct SolverEffort {
  /// \name Branch-and-bound (heuristic solver, also the D&C exact tails).
  /// @{
  uint64_t nodes_expanded = 0;     ///< (tuple, value) nodes visited
  uint64_t incumbent_prunes = 0;   ///< sibling ranges cut by the cost bound
  uint64_t h2_prunes = 0;          ///< all-results-satisfied sibling stops
  uint64_t h3_prunes = 0;          ///< optimistic-completion subtree cuts
  uint64_t h4_prunes = 0;          ///< cheapest-remaining-step subtree cuts
  uint64_t incumbent_updates = 0;  ///< feasible offers that improved a bound
  uint64_t costbeta_evals = 0;     ///< H1 ordering costβ computations
  /// @}

  /// \name Two-phase greedy.
  /// @{
  uint64_t greedy_phase1_iterations = 0;  ///< δ-increments applied
  uint64_t greedy_phase2_steps = 0;       ///< δ-steps walked back down
  uint64_t greedy_fallback_picks = 0;     ///< raw-gain fallback selections
  uint64_t greedy_stale_recomputes = 0;   ///< lazy-queue stale pops recomputed
  /// @}

  /// \name Divide and conquer.
  /// @{
  uint64_t dnc_groups_solved = 0;   ///< group sub-solves in the applied sequence
  uint64_t dnc_waves = 0;           ///< speculative waves started (fixed width)
  uint64_t dnc_invalidations = 0;   ///< group views invalidated within a wave
  uint64_t dnc_topup_iterations = 0;  ///< global top-up greedy increments
  /// @}

  void MergeFrom(const SolverEffort& other);

  /// (name, value) pairs in declaration order — one reflection point for the
  /// registry export, trace annotations and tests.
  std::vector<std::pair<const char*, uint64_t>> Items() const;

  bool operator==(const SolverEffort&) const = default;
};

/// \brief Why a solver returned when it did.
///
/// Anything other than `kComplete` marks the solution `partial`: the
/// algorithm was stopped before its natural end and returned its best
/// anytime state (B&B's incumbent, greedy's phase-1 state, D&C's merged
/// partial). Partial solutions still satisfy every `ValidateSolution`
/// invariant — the β filter is never relaxed — they just drop the
/// optimality / full-coverage claim.
enum class SolveStop : uint8_t {
  kComplete = 0,    ///< natural end: the algorithm's full answer
  kNodeBudget = 1,  ///< `max_nodes` exhausted (exact searches)
  kDeadline = 2,    ///< the `Deadline` expired
  kCancelled = 3,   ///< the caller's `CancelToken` fired
};

/// Canonical lowercase name ("complete", "deadline", ...).
std::string_view SolveStopToString(SolveStop stop);

/// \brief One base-tuple confidence increment in a reported plan.
struct IncrementAction {
  LineageVarId base_tuple = 0;
  double from = 0.0;
  double to = 0.0;
  double cost = 0.0;
};

/// \brief Result of running a strategy-finding algorithm.
struct IncrementSolution {
  /// New confidence per base tuple (dense, parallel to the problem's base
  /// indices; >= initial confidence, on the δ grid).
  std::vector<double> new_confidence;
  /// Σ increment cost of `new_confidence` over the initial assignment.
  double total_cost = 0.0;
  /// True iff every query reaches its required above-threshold count under
  /// `new_confidence`. Solvers return their best attempt either way.
  bool feasible = false;
  /// Results above threshold under `new_confidence` (all queries).
  size_t satisfied_results = 0;

  /// \name Diagnostics.
  /// @{
  std::string algorithm;       ///< "heuristic", "greedy", "dnc", "brute_force"
  double solve_seconds = 0.0;  ///< wall-clock solve time
  size_t nodes_explored = 0;   ///< search-tree nodes (B&B) or iterations (greedy)
  /// Detailed search-effort counters (see SolverEffort for the determinism
  /// contract). `nodes_explored` remains the headline aggregate.
  SolverEffort effort;
  /// False when a node/time budget stopped an exact search early, in which
  /// case the solution is the best found so far and optimality is not
  /// guaranteed. Kept in sync with `partial` (`search_complete == !partial`)
  /// for callers predating the anytime contract.
  bool search_complete = true;
  /// Why the solve returned; anything but `kComplete` implies `partial`.
  SolveStop stop = SolveStop::kComplete;
  /// True when a deadline, cancellation or search budget stopped the solver
  /// early and this is its best anytime state. Always β-compliant
  /// (`ValidateSolution` holds), never optimal-claiming.
  bool partial = false;
  /// @}

  /// The non-trivial increments, for reporting to the user (paper: "the
  /// increment cost and the data whose confidence needs to be improved will
  /// be reported").
  std::vector<IncrementAction> Actions(const IncrementProblem& problem) const;

  /// Human-readable plan summary.
  std::string ToString(const IncrementProblem& problem) const;
};

/// \brief Recomputes a solution's cost/satisfaction from scratch and checks
/// its invariants against `problem`:
/// - assignment size matches;
/// - every confidence lies in [initial, max] for its tuple;
/// - `total_cost` matches the recomputed cost;
/// - `feasible`/`satisfied_results` match the recomputed satisfaction.
/// Returns `kInternal` describing the first violation — used by tests and
/// by the engine as a safety net before applying improvements.
[[nodiscard]] Status ValidateSolution(const IncrementProblem& problem, const IncrementSolution& solution);

/// Builds the solution record for the state a solver ended in.
IncrementSolution MakeSolution(const ConfidenceState& state, std::string algorithm);

}  // namespace pcqe

#endif  // PCQE_STRATEGY_SOLUTION_H_
