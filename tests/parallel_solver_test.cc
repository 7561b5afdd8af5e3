// Tests for the solver parallelism layer: the shared thread pool itself,
// and the determinism contract — every solver must produce the same
// solution at parallelism 1 and parallelism 8. Runs under TSan in
// scripts/analyze.sh (same bar as the service stress tests), so the pool,
// the D&C group fan-out and the shared branch-and-bound incumbent are all
// exercised with real concurrency here.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/thread_pool.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "workload/generator.h"

namespace pcqe {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), 8, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForSingleLaneRunsInline) {
  ThreadPool pool(2);
  // In-order execution is part of the lanes<=1 contract.
  std::vector<size_t> visited;
  pool.ParallelFor(64, 1, [&](size_t i) { visited.push_back(i); });
  ASSERT_EQ(visited.size(), 64u);
  for (size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // More lanes than workers at both levels: the caller-participates design
  // must make progress even with every worker busy.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(6, 6, [&](size_t) {
    pool.ParallelFor(6, 6, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 36);
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ParallelForChunksPartitionsContiguously) {
  std::vector<char> seen(257, 0);
  SolverParallelism par{4};
  ParallelForChunks(par, seen.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) seen[i] = 1;
  });
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << "index " << i;
}

// ---------------------------------------------------------------------------
// Determinism: parallelism 1 vs 8 across seeded workloads.
// ---------------------------------------------------------------------------

constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 11};

WorkloadParams SolverParams(uint64_t seed) {
  WorkloadParams params;
  params.num_base_tuples = 120;
  params.num_results = 48;
  params.bases_per_result = 5;
  params.theta = 0.5;
  params.seed = seed;
  return params;
}

/// The telemetry contract: search-effort counters are part of the solver's
/// deterministic output, so every one of them must be bit-identical across
/// lane counts — a drift in any counter means the searches explored
/// different trees and the "same solution" guarantee is luck.
void ExpectSameEffort(const SolverEffort& seq, const SolverEffort& par,
                      uint64_t seed) {
  std::vector<std::pair<const char*, uint64_t>> seq_items = seq.Items();
  std::vector<std::pair<const char*, uint64_t>> par_items = par.Items();
  ASSERT_EQ(seq_items.size(), par_items.size());
  for (size_t i = 0; i < seq_items.size(); ++i) {
    EXPECT_EQ(seq_items[i].second, par_items[i].second)
        << "seed " << seed << " counter " << seq_items[i].first;
  }
  EXPECT_EQ(seq, par) << "seed " << seed;  // catches fields Items() misses
}

void ExpectSameSolution(const IncrementSolution& seq, const IncrementSolution& par,
                        bool bit_identical, uint64_t seed) {
  EXPECT_EQ(seq.feasible, par.feasible) << "seed " << seed;
  ExpectSameEffort(seq.effort, par.effort, seed);
  if (bit_identical) {
    // The parallel path replays the sequential arithmetic on the same
    // values in the same combine order: not just close — equal.
    EXPECT_EQ(seq.total_cost, par.total_cost) << "seed " << seed;
    ASSERT_EQ(seq.new_confidence.size(), par.new_confidence.size());
    for (size_t i = 0; i < seq.new_confidence.size(); ++i) {
      EXPECT_EQ(seq.new_confidence[i], par.new_confidence[i])
          << "seed " << seed << " base " << i;
    }
  } else {
    EXPECT_NEAR(seq.total_cost, par.total_cost, 1e-9) << "seed " << seed;
  }
}

TEST(ParallelDeterminismTest, GreedyIdenticalAt1And8) {
  for (uint64_t seed : kSeeds) {
    IncrementProblem p = *GenerateWorkload(SolverParams(seed)).ToProblem();
    GreedyOptions seq;
    seq.parallelism.threads = 1;
    GreedyOptions par;
    par.parallelism.threads = 8;
    ExpectSameSolution(*SolveGreedy(p, seq), *SolveGreedy(p, par),
                       /*bit_identical=*/true, seed);
  }
}

TEST(ParallelDeterminismTest, DncSingleQueryIdenticalAt1And8) {
  for (uint64_t seed : kSeeds) {
    IncrementProblem p = *GenerateWorkload(SolverParams(seed)).ToProblem();
    DncOptions seq;
    seq.parallelism.threads = 1;
    DncOptions par;
    par.parallelism.threads = 8;
    IncrementSolution s = *SolveDnc(p, seq);
    IncrementSolution l = *SolveDnc(p, par);
    ExpectSameSolution(s, l, /*bit_identical=*/true, seed);
  }
}

TEST(ParallelDeterminismTest, DncMultiQueryIdenticalAt1And8) {
  // At least one seed must invalidate a speculated group, so the apply
  // loop's live re-solve runs at both lane counts.
  uint64_t invalidations = 0;
  for (uint64_t seed : kSeeds) {
    WorkloadParams params = SolverParams(seed);
    params.num_results = 30;  // per query
    MultiQueryWorkload w = GenerateMultiQueryWorkload(params, 3);
    IncrementProblem p = *w.ToProblem();
    DncOptions seq;
    seq.parallelism.threads = 1;
    DncOptions par;
    par.parallelism.threads = 8;
    IncrementSolution s = *SolveDnc(p, seq);
    IncrementSolution l = *SolveDnc(p, par);
    ExpectSameSolution(s, l, /*bit_identical=*/true, seed);
    invalidations += s.effort.dnc_invalidations;
  }
  EXPECT_GT(invalidations, 0u);
}

TEST(ParallelDeterminismTest, DncNodeBudgetStopIdenticalAcrossRunsAndLanes) {
  // Each small group's exact pass runs on one lane and stops only on its
  // node budget (no deadline here), so where that budget trips depends on
  // the group alone — never on timing or on the D&C lane count.
  constexpr size_t kTinyBudget = 40;
  for (uint64_t seed : kSeeds) {
    IncrementProblem p = *GenerateWorkload(SolverParams(seed)).ToProblem();
    DncOptions roomy;
    roomy.parallelism.threads = 1;
    DncOptions tight = roomy;
    tight.heuristic_max_nodes = kTinyBudget;
    IncrementSolution reference = *SolveDnc(p, tight);
    // The budget really trips: the same solve with room to finish expands
    // more nodes.
    EXPECT_LT(reference.effort.nodes_expanded, SolveDnc(p, roomy)->effort.nodes_expanded)
        << "seed " << seed;
    ExpectSameSolution(reference, *SolveDnc(p, tight), /*bit_identical=*/true, seed);
    for (size_t lanes : {4, 8}) {
      DncOptions par = tight;
      par.parallelism.threads = lanes;
      IncrementSolution l = *SolveDnc(p, par);
      ExpectSameSolution(reference, l, /*bit_identical=*/true, seed);
    }
  }
}

TEST(ParallelDeterminismTest, HeuristicCostIdenticalAt1And8) {
  for (uint64_t seed : kSeeds) {
    WorkloadParams params;
    params.num_base_tuples = 10;
    params.num_results = 6;
    params.bases_per_result = 5;
    params.or_group_size = 3;
    params.theta = 0.5;
    params.seed = seed;
    IncrementProblem p = *GenerateWorkload(params).ToProblem();
    HeuristicOptions seq;
    seq.parallelism.threads = 1;
    HeuristicOptions par;
    par.parallelism.threads = 8;
    IncrementSolution s = *SolveHeuristic(p, seq);
    IncrementSolution l = *SolveHeuristic(p, par);
    // Both searches run to completion, so both costs are the optimum; the
    // assignment tie-break keeps equal-cost winners deterministic too.
    ASSERT_EQ(s.stop, SolveStop::kComplete);
    ASSERT_EQ(l.stop, SolveStop::kComplete);
    ExpectSameSolution(s, l, /*bit_identical=*/false, seed);
    EXPECT_GT(s.effort.nodes_expanded, 0u) << "seed " << seed;
    Status valid = ValidateSolution(p, l);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
}

TEST(ParallelDeterminismTest, HeuristicGreedyBoundedIdenticalAt1And8) {
  // The Figure 11(d) configuration: greedy primes the incumbent. The
  // external bound plus multi-root workers is the trickiest incumbent
  // interaction, so it gets its own determinism check.
  for (uint64_t seed : kSeeds) {
    WorkloadParams params;
    params.num_base_tuples = 10;
    params.num_results = 6;
    params.bases_per_result = 5;
    params.or_group_size = 3;
    params.theta = 0.5;
    params.seed = seed;
    IncrementProblem p = *GenerateWorkload(params).ToProblem();
    IncrementSolution greedy = *SolveGreedy(p);
    HeuristicOptions seq;
    seq.parallelism.threads = 1;
    seq.initial_upper_bound = greedy.total_cost;
    seq.initial_assignment = greedy.new_confidence;
    HeuristicOptions par = seq;
    par.parallelism.threads = 8;
    IncrementSolution s = *SolveHeuristic(p, seq);
    IncrementSolution l = *SolveHeuristic(p, par);
    ASSERT_EQ(s.stop, SolveStop::kComplete);
    ASSERT_EQ(l.stop, SolveStop::kComplete);
    ExpectSameSolution(s, l, /*bit_identical=*/false, seed);
  }
}

TEST(ParallelDeterminismTest, CostBetaStableUnderRepeatedCalls) {
  // The H1 precompute reuses one scratch vector per chunk; a missed restore
  // in `CostBetaScratch` would leak one tuple's probe value into the next
  // call. Walking every tuple twice over the same problem (the second pass
  // in reverse) must reproduce the first pass exactly.
  IncrementProblem p = *GenerateWorkload(SolverParams(9)).ToProblem();
  std::vector<double> first(p.num_base_tuples());
  for (size_t i = 0; i < p.num_base_tuples(); ++i) first[i] = CostBeta(p, i);
  for (size_t i = p.num_base_tuples(); i-- > 0;) {
    EXPECT_EQ(CostBeta(p, i), first[i]) << "base " << i;
  }
}

}  // namespace
}  // namespace pcqe
