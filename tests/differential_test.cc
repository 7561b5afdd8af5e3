// Randomized differential harness: every solver against the brute-force
// ground truth over hundreds of seeded small instances.
//
// For each instance the enforced contract is:
//  - every solver's output passes `ValidateSolution` (grid-aligned, cost
//    recomputes, satisfaction recomputes) — feasibility claims are never
//    taken on faith;
//  - the branch-and-bound heuristic is exact: same feasibility verdict and
//    (when feasible) the same optimal cost as brute force;
//  - the approximate solvers (greedy in all three configurations, divide-
//    and-conquer) agree on feasibility — the instances are monotone, where
//    greedy provably reaches the ceiling — and their cost lands in the
//    documented band [optimum, cost of raising every tuple to its ceiling];
//  - two-phase greedy never costs more than one-phase (refinement only
//    removes redundant spend).
//
// Instances are derived deterministically from a small seed; on failure the
// seed is printed so the exact instance replays with
// `GenerateWorkload(DiffParams(seed))`.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fault_injection.h"
#include "strategy/brute_force.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "strategy/problem.h"
#include "strategy/solution.h"
#include "workload/generator.h"

namespace pcqe {
namespace {

// >= 200 instances x 5 solver configurations (the harness contract).
constexpr uint64_t kNumInstances = 210;

// Every 7th seed is made provably infeasible (ceilings pinned below β) so
// the feasibility cross-check exercises both verdicts.
bool InfeasibleSeed(uint64_t seed) { return seed % 7 == 3; }

WorkloadParams DiffParams(uint64_t seed) {
  WorkloadParams params;
  params.num_base_tuples = 3 + seed % 5;  // 3..7: brute force stays tiny
  params.num_results = 2 + seed % 4;
  params.bases_per_result = 2 + seed % 2;
  params.or_group_size = 1 + seed % 3;  // pure AND .. mixed AND/OR
  params.beta = 0.3 + 0.05 * static_cast<double>(seed % 5);
  params.theta = 0.4 + 0.1 * static_cast<double>(seed % 3);
  params.delta = 0.25;  // coarse grid keeps the enumeration small
  params.seed = 0x9E3779B97F4A7C15ull ^ (seed + 1);
  if (InfeasibleSeed(seed)) {
    // Ceilings below β: an AND/OR over tuples capped at 0.2 can reach at
    // most 1-(1-0.2)^3 < 0.5 < β, so no assignment satisfies any result.
    params.beta = 0.6;
  }
  return params;
}

Workload DiffInstance(uint64_t seed) {
  Workload w = GenerateWorkload(DiffParams(seed));
  if (InfeasibleSeed(seed)) {
    for (BaseTupleSpec& spec : w.base_tuples) spec.max_confidence = 0.2;
  }
  return w;
}

// Cost of raising every base tuple from its initial confidence to its
// ceiling — the trivially feasible assignment on monotone feasible
// instances, hence an upper bound no sane solver should exceed.
double CeilingCost(const IncrementProblem& p) {
  double cost = 0.0;
  for (size_t i = 0; i < p.num_base_tuples(); ++i) {
    cost += p.CostLevel(i, p.base(i).max_confidence) -
            p.CostLevel(i, p.base(i).confidence);
  }
  return cost;
}

constexpr const char* kConfigNames[] = {
    "heuristic", "greedy_two_phase", "greedy_one_phase", "greedy_raw_gain",
    "dnc"};

Result<IncrementSolution> RunConfig(size_t config, const IncrementProblem& p) {
  switch (config) {
    case 0:
      return SolveHeuristic(p);
    case 1:
      return SolveGreedy(p);
    case 2: {
      GreedyOptions options;
      options.two_phase = false;
      return SolveGreedy(p, options);
    }
    case 3: {
      GreedyOptions options;
      options.gain_mode = GainMode::kRawAll;
      return SolveGreedy(p, options);
    }
    case 4:
      return SolveDnc(p);
    default:
      return Status::Internal("unknown config");
  }
}

TEST(DifferentialTest, AllSolversAgreeWithBruteForce) {
  size_t feasible_instances = 0;
  size_t infeasible_instances = 0;
  for (uint64_t seed = 0; seed < kNumInstances; ++seed) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " — replay with GenerateWorkload(DiffParams("
                 << seed << "))");
    Workload w = DiffInstance(seed);
    Result<IncrementProblem> problem = w.ToProblem();
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    ASSERT_TRUE(problem->is_monotone());

    Result<IncrementSolution> brute = SolveBruteForce(*problem);
    ASSERT_TRUE(brute.ok()) << brute.status().ToString();
    ASSERT_TRUE(ValidateSolution(*problem, *brute).ok());
    if (brute->feasible) {
      ++feasible_instances;
    } else {
      ++infeasible_instances;
    }
    double ceiling = CeilingCost(*problem);

    double two_phase_cost = 0.0;
    double one_phase_cost = 0.0;
    for (size_t config = 0; config < 5; ++config) {
      SCOPED_TRACE(kConfigNames[config]);
      Result<IncrementSolution> solved = RunConfig(config, *problem);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      Status valid = ValidateSolution(*problem, *solved);
      ASSERT_TRUE(valid.ok()) << valid.ToString();
      EXPECT_FALSE(solved->partial());
      EXPECT_EQ(solved->stop, SolveStop::kComplete);

      // Monotone instances: feasibility is decidable by the ceiling, which
      // both the exact solvers and the greedy family reach.
      EXPECT_EQ(solved->feasible, brute->feasible);

      if (config == 0 && brute->feasible) {
        // The B&B heuristic is exact — cost-identical to the enumeration.
        EXPECT_NEAR(solved->total_cost, brute->total_cost, 1e-6);
      }
      if (config != 0 && brute->feasible && solved->feasible) {
        EXPECT_GE(solved->total_cost, brute->total_cost - 1e-6);
        EXPECT_LE(solved->total_cost, ceiling + 1e-6);
      }
      if (config == 1) two_phase_cost = solved->total_cost;
      if (config == 2) one_phase_cost = solved->total_cost;
    }
    if (brute->feasible) {
      EXPECT_LE(two_phase_cost, one_phase_cost + 1e-9);
    }
  }
  // The sweep must exercise both verdicts or the feasibility check is
  // vacuous.
  EXPECT_GT(feasible_instances, 0u);
  EXPECT_GT(infeasible_instances, 0u);
}

TEST(DifferentialTest, DeadlineBoundedDncMatchesBruteFeasibility) {
  // Anytime contract for a *bare* kDnc under a finite deadline: the result
  // must still be grid-valid and agree with brute force on feasibility.
  // Every seed runs twice under a budget of seconds, which the
  // deadline-bounded greedy primer (microseconds on these tiny monotone
  // instances) cannot miss even on a loaded machine: once uncut, and once
  // with an injected `strategy.dnc.deadline` expiry that cuts the fill off
  // at its first poll. The cut run must fall back to the primer's feasible
  // incumbent — the regression this sweep pins down. Costs stay in the
  // documented band; optimality/completeness claims are not checked (a
  // deadline-stopped run is exempt from the bit-determinism contract).
  constexpr int64_t kBudgetMs = 10'000;
  for (uint64_t seed = 0; seed < kNumInstances; ++seed) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " — replay with GenerateWorkload(DiffParams("
                 << seed << "))");
    Workload w = DiffInstance(seed);
    Result<IncrementProblem> problem = w.ToProblem();
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();

    Result<IncrementSolution> brute = SolveBruteForce(*problem);
    ASSERT_TRUE(brute.ok()) << brute.status().ToString();

    for (bool cut : {false, true}) {
      SCOPED_TRACE(cut ? "fill cut by an injected expiry" : "uncut");
      if (cut) FaultInjector::Global().Arm(fault_sites::kDncDeadline, {});
      DncOptions options;
      options.deadline = Deadline::AfterMillis(kBudgetMs);
      Result<IncrementSolution> dnc = SolveDnc(*problem, options);
      FaultInjector::Global().DisarmAll();
      ASSERT_TRUE(dnc.ok()) << dnc.status().ToString();
      Status valid = ValidateSolution(*problem, *dnc);
      ASSERT_TRUE(valid.ok()) << valid.ToString();
      EXPECT_EQ(dnc->feasible, brute->feasible);
      EXPECT_EQ(dnc->partial(), cut);
      if (brute->feasible) {
        EXPECT_GE(dnc->total_cost, brute->total_cost - 1e-6);
        EXPECT_LE(dnc->total_cost, CeilingCost(*problem) + 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace pcqe
