// Copyright (c) PCQE contributors.
// Solver output: a confidence assignment plus bookkeeping.

#ifndef PCQE_STRATEGY_SOLUTION_H_
#define PCQE_STRATEGY_SOLUTION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "strategy/problem.h"

namespace pcqe {

/// \brief Search-effort counters every solver fills in alongside its
/// solution — the telemetry layer's audit trail of *where the work went*.
///
/// Determinism contract (the same as the plan's cost and assignment): every
/// field is bit-identical at any `SolverParallelism` lane count,
/// provided the solve ran to its natural end (`stop == kComplete`). A
/// multi-lane node-budget abort and a `Deadline`/cancel stop are the
/// exceptions — where the budget lands depends on scheduling. Counters are
/// plain integers summed in a fixed order by the owning solver, never
/// shared atomics.
///
/// Every counter is a `uint64_t` listed once more in solution.cc's field
/// table, which `MergeFrom` and `Items` both walk.
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

/// \brief One base-tuple confidence increment in a reported plan.
struct IncrementAction {
  LineageVarId base_tuple = 0;
  double from = 0.0;
  double to = 0.0;
  double cost = 0.0;
};

/// \brief Result of running a strategy-finding algorithm: the plan, the
/// effort it took, and why the solve stopped. Solvers read no clock; the
/// engine times the solver call (`StrategyProposal::solve_seconds`).
struct IncrementSolution {
  /// \name The plan.
  /// @{
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
  std::string algorithm;  ///< "heuristic", "greedy", "dnc", "brute_force"
  /// @}

  /// Search-effort counters (see SolverEffort for the determinism contract).
  SolverEffort effort;
  /// Why the solve returned. Anything but `kComplete` means a deadline,
  /// cancellation or search budget stopped the solver early and the plan is
  /// its best anytime state: always β-compliant (`ValidateSolution` holds),
  /// never optimal-claiming.
  SolveStop stop = SolveStop::kComplete;

  bool partial() const { return stop != SolveStop::kComplete; }

  /// The non-trivial increments, for reporting to the user (paper: "the
  /// increment cost and the data whose confidence needs to be improved will
  /// be reported").
  std::vector<IncrementAction> Actions(const IncrementProblem& problem) const;

  /// Human-readable plan summary: the plan, the stop and the non-zero
  /// effort counters, then one line per increment.
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
