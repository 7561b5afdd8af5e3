// Copyright (c) PCQE contributors.
// Divide-and-conquer solver (paper §4.3, Figure 10).

#ifndef PCQE_STRATEGY_DNC_H_
#define PCQE_STRATEGY_DNC_H_

#include "common/result.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "strategy/partition.h"
#include "strategy/problem.h"
#include "strategy/solution.h"

namespace pcqe {

/// Groups per speculation wave of the multi-query fill. A
/// lane-count-independent constant: wave boundaries (where the global-state
/// snapshot is taken and invalidations are counted) must not move with
/// `SolverParallelism`, or `SolverEffort` counters would differ between
/// lane counts.
inline constexpr size_t kDncWaveWidth = 8;

/// \brief Options for the divide-and-conquer solver.
struct DncOptions {
  /// Graph-partitioning parameters (γ and the group-size cap).
  PartitionOptions partition;
  /// Per-group greedy configuration.
  GreedyOptions greedy;
  /// τ: groups with fewer base tuples than this also get an exact
  /// branch-and-bound pass, seeded with the group's greedy cost as the
  /// initial upper bound. 0 disables the heuristic pass entirely.
  size_t tau = 12;
  /// Node budget for each per-group heuristic pass (Figure 10 notes each
  /// sub-problem must stay "solvable in reasonable time"). The pass runs on
  /// one lane, so where this budget trips is deterministic; wall clock only
  /// stops it through `deadline`.
  size_t heuristic_max_nodes = 2'000'000;
  /// Lane budget for the group-level fan-out: single-query curve builds run
  /// fully concurrently (the global state is read-only during that phase);
  /// multi-query sub-solves run speculatively in fixed-width waves of
  /// `kDncWaveWidth` groups against a snapshot and are applied — after
  /// validation, re-solving when an earlier apply invalidated the
  /// speculation — in group order. Both paths produce bit-identical
  /// solutions *and `SolverEffort` counters* at any setting (a wasted
  /// speculative lane is not counted; the sequential path counts the same
  /// invalidations against its wave-start snapshot); per-group sub-solvers
  /// always run sequentially (the group grid is the parallel axis). The
  /// global top-up `GreedyRaise` inherits this budget for its gain
  /// precompute.
  SolverParallelism parallelism;
  /// Absolute budget, folded into every sub-solver (group greedy, bounded
  /// exact tails, top-up, refinement), polled at wave/phase boundaries and
  /// checked before partitioning and before each group's setup.
  /// On expiry the merged partial — whatever the applied group solves have
  /// contributed so far — is returned tagged `partial`. Deadline-stopped
  /// runs are exempt from the lane-count determinism contract (where the
  /// budget lands depends on scheduling), exactly like node-budget aborts.
  Deadline deadline;
  /// Optional caller-owned cancellation flag, same poll points.
  const CancelToken* cancel = nullptr;
};

/// \brief Partition → per-group solve → combine → refine.
///
/// 1. Results are partitioned by shared base tuples (`PartitionResults`).
/// 2. Groups are processed in descending result count; each group is posed
///    as a sub-problem over the group's still-unsatisfied results — capped
///    at the remaining global requirement — and solved with the greedy
///    algorithm (plus a bounded heuristic search when the group has fewer
///    than τ base tuples).
/// 3. Sub-solutions are combined: each shared base tuple takes the maximum
///    confidence any group assigned it (sub-problems start from the running
///    global state, so the maximum is simply the latest value).
/// 4. A global `RefineDown` pass removes increments made redundant by the
///    combination (paper: "a refinement process similar to the second phase
///    of the greedy algorithm").
[[nodiscard]] Result<IncrementSolution> SolveDnc(const IncrementProblem& problem,
                                   const DncOptions& options = {});

}  // namespace pcqe

#endif  // PCQE_STRATEGY_DNC_H_
