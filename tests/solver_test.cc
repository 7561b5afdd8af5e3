// Tests for the strategy solvers: brute force, heuristic B&B, greedy, D&C.

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "strategy/brute_force.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "workload/generator.h"

namespace pcqe {
namespace {

/// The paper's running instance: result (t2 | t3) & t13 with β = 0.06.
/// Raising t3 by one δ (cost 10) is the provably cheapest fix.
struct RunningExample {
  std::shared_ptr<LineageArena> arena = std::make_shared<LineageArena>();
  LineageRef result;
  std::vector<BaseTupleSpec> specs;

  RunningExample() {
    result = arena->And(arena->Or(arena->Var(2), arena->Var(3)), arena->Var(13));
    specs = {
        {2, 0.3, 1.0, *MakeLinearCost(1000.0)},
        {3, 0.4, 1.0, *MakeLinearCost(100.0)},
        {13, 0.1, 1.0, *MakeLinearCost(10000.0)},
    };
  }

  IncrementProblem Problem(double beta = 0.06) const {
    ProblemOptions options;
    options.beta = beta;
    options.delta = 0.1;
    return *IncrementProblem::BuildSingle(arena, {result}, specs, 1, options);
  }
};

void ExpectValid(const IncrementProblem& p, const IncrementSolution& s) {
  Status v = ValidateSolution(p, s);
  EXPECT_TRUE(v.ok()) << v.ToString();
}

TEST(BruteForceTest, FindsPaperOptimum) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution s = *SolveBruteForce(p);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
  EXPECT_NEAR(s.total_cost, 10.0, 1e-9);
  auto actions = s.Actions(p);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].base_tuple, 3u);
  EXPECT_NEAR(actions[0].to, 0.5, 1e-9);
}

TEST(BruteForceTest, ZeroCostWhenAlreadySatisfied) {
  RunningExample ex;
  IncrementProblem p = ex.Problem(/*beta=*/0.01);  // 0.058 already clears
  IncrementSolution s = *SolveBruteForce(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_NEAR(s.total_cost, 0.0, 1e-12);
  EXPECT_TRUE(s.Actions(p).empty());
}

TEST(BruteForceTest, BudgetEnforced) {
  WorkloadParams params;
  params.num_base_tuples = 20;
  params.num_results = 8;
  params.bases_per_result = 5;
  params.seed = 1;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();
  BruteForceOptions options;
  options.max_assignments = 1000;
  EXPECT_TRUE(SolveBruteForce(p, options).status().IsResourceExhausted());
}

TEST(HeuristicTest, MatchesPaperOptimum) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution s = *SolveHeuristic(p);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.stop, SolveStop::kComplete);
  EXPECT_NEAR(s.total_cost, 10.0, 1e-9);
}

TEST(HeuristicTest, EveryToggleComboStaysOptimal) {
  // H1-H4 are pruning heuristics: they must never change the optimum.
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  for (int mask = 0; mask < 16; ++mask) {
    HeuristicOptions options;
    options.use_h1_ordering = mask & 1;
    options.use_h2 = mask & 2;
    options.use_h3 = mask & 4;
    options.use_h4 = mask & 8;
    IncrementSolution s = *SolveHeuristic(p, options);
    EXPECT_TRUE(s.feasible) << "mask " << mask;
    EXPECT_NEAR(s.total_cost, 10.0, 1e-9) << "mask " << mask;
  }
}

TEST(HeuristicTest, HeuristicsReduceExploredNodes) {
  WorkloadParams params;
  params.num_base_tuples = 8;
  params.num_results = 5;
  params.bases_per_result = 4;
  params.or_group_size = 4;
  params.theta = 0.6;
  params.seed = 3;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();

  // One lane for clarity only: the fixed-width root waves make node counts
  // identical at any lane count.
  HeuristicOptions naive;
  naive.parallelism.threads = 1;
  naive.use_h1_ordering = naive.use_h2 = naive.use_h3 = naive.use_h4 = false;
  IncrementSolution s_naive = *SolveHeuristic(p, naive);
  HeuristicOptions all;
  all.parallelism.threads = 1;
  IncrementSolution s_all = *SolveHeuristic(p, all);
  ASSERT_TRUE(s_naive.feasible);
  ASSERT_TRUE(s_all.feasible);
  EXPECT_NEAR(s_naive.total_cost, s_all.total_cost, 1e-6);
  EXPECT_LT(s_all.effort.nodes_expanded, s_naive.effort.nodes_expanded);
}

TEST(HeuristicTest, GreedyBoundSpeedsSearch) {
  WorkloadParams params;
  params.num_base_tuples = 8;
  params.num_results = 5;
  params.bases_per_result = 4;
  params.or_group_size = 4;
  params.theta = 0.6;
  params.seed = 5;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();

  IncrementSolution greedy = *SolveGreedy(p);
  ASSERT_TRUE(greedy.feasible);

  // Sequential lanes: see HeuristicsReduceExploredNodes.
  HeuristicOptions unbounded_options;
  unbounded_options.parallelism.threads = 1;
  IncrementSolution unbounded = *SolveHeuristic(p, unbounded_options);
  HeuristicOptions bounded_options;
  bounded_options.parallelism.threads = 1;
  bounded_options.initial_upper_bound = greedy.total_cost;
  bounded_options.initial_assignment = greedy.new_confidence;
  IncrementSolution bounded = *SolveHeuristic(p, bounded_options);
  EXPECT_TRUE(bounded.feasible);
  EXPECT_NEAR(bounded.total_cost, unbounded.total_cost, 1e-6);
  EXPECT_LE(bounded.effort.nodes_expanded, unbounded.effort.nodes_expanded);
}

TEST(HeuristicTest, InfeasibleProblemReportsInfeasible) {
  // Result is an AND with one tuple capped below what β requires.
  auto arena = std::make_shared<LineageArena>();
  LineageRef f = arena->And(arena->Var(1), arena->Var(2));
  std::vector<BaseTupleSpec> specs = {{1, 0.1, 0.3, nullptr}, {2, 0.1, 1.0, nullptr}};
  ProblemOptions options;
  options.beta = 0.5;
  IncrementProblem p = *IncrementProblem::BuildSingle(arena, {f}, specs, 1, options);
  IncrementSolution s = *SolveHeuristic(p);
  EXPECT_FALSE(s.feasible);
  ExpectValid(p, s);
}

TEST(HeuristicTest, RejectsNonMonotoneProblem) {
  auto arena = std::make_shared<LineageArena>();
  LineageRef f = arena->And(arena->Var(1), arena->Not(arena->Var(2)));
  std::vector<BaseTupleSpec> specs = {{1, 0.4, 1.0, nullptr}, {2, 0.1, 1.0, nullptr}};
  ProblemOptions options;
  options.beta = 0.3;
  IncrementProblem p = *IncrementProblem::BuildSingle(arena, {f}, specs, 1, options);
  EXPECT_TRUE(SolveHeuristic(p).status().IsInvalidArgument());
}

TEST(HeuristicTest, NodeBudgetReturnsIncomplete) {
  WorkloadParams params;
  params.num_base_tuples = 12;
  params.num_results = 8;
  params.bases_per_result = 6;
  params.or_group_size = 2;
  params.seed = 7;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();
  HeuristicOptions options;
  options.max_nodes = 50;
  IncrementSolution s = *SolveHeuristic(p, options);
  EXPECT_EQ(s.stop, SolveStop::kNodeBudget);
  ExpectValid(p, s);
}

TEST(HeuristicTest, CostBetaMatchesSingleTupleFix) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  // t3 alone: 0.4 -> 0.5 gives 0.065 > 0.06; costβ = 10.
  EXPECT_NEAR(CostBeta(p, *p.BaseIndexOf(3)), 10.0, 1e-9);
  // t2 alone: 0.3 -> 0.4 gives 0.064 > 0.06; costβ = 100.
  EXPECT_NEAR(CostBeta(p, *p.BaseIndexOf(2)), 100.0, 1e-9);
  // t13 alone: 0.1 -> 0.2 gives 0.116 > 0.06; costβ = 1000.
  EXPECT_NEAR(CostBeta(p, *p.BaseIndexOf(13)), 1000.0, 1e-9);
}

TEST(GreedyTest, SolvesRunningExample) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution s = *SolveGreedy(p);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
  // Greedy picks t3 (best ΔF per cost) and needs exactly one step.
  EXPECT_NEAR(s.total_cost, 10.0, 1e-9);
  EXPECT_EQ(s.algorithm, "greedy");
}

TEST(GreedyTest, TwoPhaseNeverCostsMoreThanOnePhase) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    WorkloadParams params;
    params.num_base_tuples = 60;
    params.num_results = 30;
    params.bases_per_result = 5;
    params.seed = seed;
    Workload w = GenerateWorkload(params);
    IncrementProblem p = *w.ToProblem();

    GreedyOptions one_phase;
    one_phase.two_phase = false;
    IncrementSolution s1 = *SolveGreedy(p, one_phase);
    IncrementSolution s2 = *SolveGreedy(p);
    ExpectValid(p, s1);
    ExpectValid(p, s2);
    EXPECT_EQ(s1.feasible, s2.feasible) << "seed " << seed;
    if (s1.feasible) {
      EXPECT_LE(s2.total_cost, s1.total_cost + 1e-9) << "seed " << seed;
    }
  }
}

TEST(GreedyTest, PaperLiteralGainModeAlsoSolves) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  GreedyOptions options;
  options.gain_mode = GainMode::kRawAll;
  IncrementSolution s = *SolveGreedy(p, options);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
}

TEST(GreedyTest, InfeasibleReturnsBestEffort) {
  auto arena = std::make_shared<LineageArena>();
  LineageRef f = arena->And(arena->Var(1), arena->Var(2));
  std::vector<BaseTupleSpec> specs = {{1, 0.1, 0.3, nullptr}, {2, 0.1, 1.0, nullptr}};
  ProblemOptions options;
  options.beta = 0.5;
  IncrementProblem p = *IncrementProblem::BuildSingle(arena, {f}, specs, 1, options);
  IncrementSolution s = *SolveGreedy(p);
  EXPECT_FALSE(s.feasible);
  ExpectValid(p, s);
}

TEST(GreedyTest, StalledZeroDerivativeProblemStillProgresses) {
  // F = t1 AND t2 with both at confidence 0: every single δ step has
  // ΔF = 0, which stalls naive gain greedy. The fallback path must still
  // reach feasibility.
  auto arena = std::make_shared<LineageArena>();
  LineageRef f = arena->And(arena->Var(1), arena->Var(2));
  std::vector<BaseTupleSpec> specs = {{1, 0.0, 1.0, nullptr}, {2, 0.0, 1.0, nullptr}};
  ProblemOptions options;
  options.beta = 0.5;
  IncrementProblem p = *IncrementProblem::BuildSingle(arena, {f}, specs, 1, options);
  IncrementSolution s = *SolveGreedy(p);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
}

TEST(GreedyTest, RefineDownRemovesRedundantIncrements) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  ConfidenceState state(p);
  // Overshoot: raise both t2 and t3 far beyond what is needed.
  state.SetProb(*p.BaseIndexOf(2), 0.8);
  state.SetProb(*p.BaseIndexOf(3), 0.9);
  ASSERT_TRUE(state.Feasible());
  double before = state.total_cost();
  RefineDown(&state, GainMode::kCappedUnsatisfied);
  EXPECT_TRUE(state.Feasible());
  EXPECT_LT(state.total_cost(), before);
}

TEST(DncTest, SolvesRunningExample) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution s = *SolveDnc(p);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.algorithm, "dnc");
  EXPECT_NEAR(s.total_cost, 10.0, 1e-9);  // tiny group gets the exact pass
}

TEST(DncTest, FeasibleOnClusteredWorkload) {
  WorkloadParams params;
  params.num_base_tuples = 200;
  params.num_results = 80;
  params.bases_per_result = 5;
  params.seed = 11;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();
  IncrementSolution s = *SolveDnc(p);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
}

TEST(DncTest, CostCompetitiveWithGreedy) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    WorkloadParams params;
    params.num_base_tuples = 150;
    params.num_results = 60;
    params.bases_per_result = 5;
    params.seed = seed;
    Workload w = GenerateWorkload(params);
    IncrementProblem p = *w.ToProblem();
    IncrementSolution greedy = *SolveGreedy(p);
    IncrementSolution dnc = *SolveDnc(p);
    ASSERT_TRUE(greedy.feasible);
    ASSERT_TRUE(dnc.feasible);
    // Both are approximations; D&C must stay within 2x of greedy (it is
    // usually at or below greedy thanks to the per-group exact passes).
    EXPECT_LT(dnc.total_cost, greedy.total_cost * 2.0 + 1e-9) << "seed " << seed;
  }
}

TEST(DncTest, AlreadySatisfiedShortCircuits) {
  RunningExample ex;
  IncrementProblem p = ex.Problem(/*beta=*/0.01);
  IncrementSolution s = *SolveDnc(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_NEAR(s.total_cost, 0.0, 1e-12);
}

TEST(MultiQueryTest, AllSolversSatisfyEveryQuery) {
  // Two queries sharing base tuples; each requires one result.
  auto arena = std::make_shared<LineageArena>();
  LineageRef q0r0 = arena->And(arena->Var(1), arena->Var(2));
  LineageRef q0r1 = arena->Var(3);
  LineageRef q1r0 = arena->And(arena->Var(2), arena->Var(3));
  LineageRef q1r1 = arena->Var(4);
  std::vector<BaseTupleSpec> specs = {{1, 0.2, 1.0, *MakeLinearCost(10.0)},
                                      {2, 0.2, 1.0, *MakeLinearCost(20.0)},
                                      {3, 0.2, 1.0, *MakeLinearCost(30.0)},
                                      {4, 0.2, 1.0, *MakeLinearCost(5.0)}};
  ProblemOptions options;
  options.beta = 0.4;
  IncrementProblem p = *IncrementProblem::Build(arena, {q0r0, q0r1, q1r0, q1r1},
                                                {0, 0, 1, 1}, {1, 1}, specs, options);

  IncrementSolution brute = *SolveBruteForce(p);
  IncrementSolution heuristic = *SolveHeuristic(p);
  IncrementSolution greedy = *SolveGreedy(p);
  IncrementSolution dnc = *SolveDnc(p);
  for (const IncrementSolution* s : {&brute, &heuristic, &greedy, &dnc}) {
    ExpectValid(p, *s);
    EXPECT_TRUE(s->feasible) << s->algorithm;
  }
  // Heuristic is exact: must match brute force.
  EXPECT_NEAR(heuristic.total_cost, brute.total_cost, 1e-9);
  // Approximations never beat the optimum.
  EXPECT_GE(greedy.total_cost, brute.total_cost - 1e-9);
  EXPECT_GE(dnc.total_cost, brute.total_cost - 1e-9);
}

TEST(AnytimeTest, PreExpiredDeadlineReturnsValidatedPartial) {
  // A deadline that has already passed: every deadline-aware solver must
  // return a clean, grid-valid anytime result tagged partial — never an
  // error, never a fabricated completion claim.
  WorkloadParams params;
  params.num_base_tuples = 20;
  params.num_results = 10;
  params.bases_per_result = 3;
  params.or_group_size = 2;
  params.seed = 5;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();
  Deadline expired = Deadline::AfterMillis(-1);

  GreedyOptions greedy_options;
  greedy_options.deadline = expired;
  IncrementSolution greedy = *SolveGreedy(p, greedy_options);
  ExpectValid(p, greedy);
  EXPECT_TRUE(greedy.partial());
  EXPECT_EQ(greedy.stop, SolveStop::kDeadline);

  DncOptions dnc_options;
  dnc_options.deadline = expired;
  IncrementSolution dnc = *SolveDnc(p, dnc_options);
  ExpectValid(p, dnc);
  EXPECT_TRUE(dnc.partial());
  EXPECT_EQ(dnc.stop, SolveStop::kDeadline);

  HeuristicOptions heuristic_options;
  heuristic_options.deadline = expired;
  IncrementSolution heuristic = *SolveHeuristic(p, heuristic_options);
  ExpectValid(p, heuristic);
  EXPECT_TRUE(heuristic.partial());
  EXPECT_EQ(heuristic.stop, SolveStop::kDeadline);
}

TEST(AnytimeTest, DncTightDeadlineFallsBackToFeasibleGreedyPlan) {
  // The old ROADMAP bug: a bare kDnc under a very tight deadline stopped
  // mid-raise and returned an *infeasible* merged partial even though a
  // feasible plan was one greedy pass away. SolveDnc now primes with the
  // deadline-bounded greedy pass (as SolveHeuristic does) and falls back to
  // that incumbent when the fill is cut off before feasibility. The
  // injected expiry makes "cut off from the first wave" deterministic
  // regardless of machine speed, while the real budget of seconds — which
  // the microsecond primer cannot miss, even on a loaded machine — lets the
  // primer finish.
  WorkloadParams params;
  params.num_base_tuples = 20;
  params.num_results = 10;
  params.bases_per_result = 3;
  params.or_group_size = 2;
  params.seed = 5;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();
  ASSERT_TRUE(SolveGreedy(p)->feasible);  // the incumbent the fallback keeps

  FaultInjector::Global().Arm(fault_sites::kDncDeadline,
                              FaultInjector::SiteConfig{});
  DncOptions options;
  options.deadline = Deadline::AfterMillis(10'000);
  Result<IncrementSolution> dnc = SolveDnc(p, options);
  FaultInjector::Global().DisarmAll();

  ASSERT_TRUE(dnc.ok()) << dnc.status().ToString();
  ExpectValid(p, *dnc);
  EXPECT_TRUE(dnc->feasible);
  EXPECT_TRUE(dnc->partial());
  EXPECT_EQ(dnc->stop, SolveStop::kDeadline);
  EXPECT_EQ(dnc->algorithm, "dnc");
}

TEST(AnytimeTest, DeadlinedHeuristicPrimesItselfWithGreedy) {
  // No incumbent from the caller and a 50 ms deadline on an instance whose
  // exact search cannot finish: six DISTINCT-style results, each an OR of
  // five tuples at confidence 0.1, β = 0.9, δ = 0.02. The solver runs its
  // own deadline-bounded greedy pass, so the anytime answer is feasible.
  auto arena = std::make_shared<LineageArena>();
  std::vector<LineageRef> results;
  std::vector<BaseTupleSpec> specs;
  for (LineageVarId group = 0; group < 6; ++group) {
    std::vector<LineageRef> members;
    for (LineageVarId row = 0; row < 5; ++row) {
      LineageVarId id = group * 5 + row + 1;
      members.push_back(arena->Var(id));
      specs.push_back({id, 0.1, 1.0, *MakeLinearCost(100.0)});
    }
    results.push_back(arena->Or(members));
  }
  ProblemOptions problem_options;
  problem_options.beta = 0.9;
  problem_options.delta = 0.02;
  IncrementProblem p =
      *IncrementProblem::BuildSingle(arena, results, specs, 6, problem_options);

  HeuristicOptions options;
  options.deadline = Deadline::AfterMillis(50);
  Result<IncrementSolution> s = SolveHeuristic(p, options);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExpectValid(p, *s);
  EXPECT_TRUE(s->feasible);
  EXPECT_TRUE(s->partial());
  EXPECT_EQ(s->stop, SolveStop::kDeadline);
  EXPECT_EQ(s->algorithm, "heuristic");
  // The greedy pass's effort is part of the solve's.
  EXPECT_GT(s->effort.greedy_phase1_iterations, 0u);
}

TEST(AnytimeTest, CancelTokenStopsEverySolver) {
  WorkloadParams params;
  params.num_base_tuples = 20;
  params.num_results = 10;
  params.bases_per_result = 3;
  params.or_group_size = 2;
  params.seed = 5;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();
  CancelToken token;
  token.RequestCancel();  // pre-cancelled: observed at the first poll

  GreedyOptions greedy_options;
  greedy_options.cancel = &token;
  IncrementSolution greedy = *SolveGreedy(p, greedy_options);
  ExpectValid(p, greedy);
  EXPECT_TRUE(greedy.partial());
  EXPECT_EQ(greedy.stop, SolveStop::kCancelled);

  DncOptions dnc_options;
  dnc_options.cancel = &token;
  IncrementSolution dnc = *SolveDnc(p, dnc_options);
  ExpectValid(p, dnc);
  EXPECT_TRUE(dnc.partial());
  EXPECT_EQ(dnc.stop, SolveStop::kCancelled);

  HeuristicOptions heuristic_options;
  heuristic_options.cancel = &token;
  IncrementSolution heuristic = *SolveHeuristic(p, heuristic_options);
  ExpectValid(p, heuristic);
  EXPECT_TRUE(heuristic.partial());
  EXPECT_EQ(heuristic.stop, SolveStop::kCancelled);
}

TEST(AnytimeTest, HeuristicDeadlineKeepsBestIncumbentFound) {
  // Seed the search with a feasible incumbent, then expire immediately: the
  // anytime result is exactly that incumbent — feasible, partial, validated.
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution greedy = *SolveGreedy(p);
  ASSERT_TRUE(greedy.feasible);

  HeuristicOptions options;
  options.deadline = Deadline::AfterMillis(-1);
  options.initial_upper_bound = greedy.total_cost;
  options.initial_assignment = greedy.new_confidence;
  IncrementSolution s = *SolveHeuristic(p, options);
  ExpectValid(p, s);
  EXPECT_TRUE(s.feasible);
  EXPECT_TRUE(s.partial());
  EXPECT_NEAR(s.total_cost, greedy.total_cost, 1e-9);
}

TEST(AnytimeTest, GenerousDeadlineDoesNotChangeTheSolve) {
  // A deadline nowhere near expiry must not perturb the result: same cost,
  // same completion claim as the un-deadlined solve.
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution plain = *SolveGreedy(p);

  GreedyOptions options;
  options.deadline = Deadline::AfterSeconds(300.0);
  IncrementSolution timed = *SolveGreedy(p, options);
  EXPECT_FALSE(timed.partial());
  EXPECT_EQ(timed.stop, SolveStop::kComplete);
  EXPECT_DOUBLE_EQ(timed.total_cost, plain.total_cost);
  EXPECT_EQ(timed.new_confidence, plain.new_confidence);
}

TEST(SolutionTest, ActionsListOnlyRealIncrements) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution s = *SolveHeuristic(p);
  auto actions = s.Actions(p);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].base_tuple, 3u);
  EXPECT_NEAR(actions[0].from, 0.4, 1e-9);
  EXPECT_NEAR(actions[0].to, 0.5, 1e-9);
  EXPECT_NEAR(actions[0].cost, 10.0, 1e-9);
  std::string text = s.ToString(p);
  EXPECT_NE(text.find("tuple 3"), std::string::npos);
}

TEST(SolutionTest, ValidateCatchesCorruption) {
  RunningExample ex;
  IncrementProblem p = ex.Problem();
  IncrementSolution s = *SolveHeuristic(p);
  ASSERT_TRUE(ValidateSolution(p, s).ok());
  IncrementSolution wrong_cost = s;
  wrong_cost.total_cost += 5.0;
  EXPECT_TRUE(ValidateSolution(p, wrong_cost).IsInternal());
  IncrementSolution lowered = s;
  lowered.new_confidence[0] = 0.0;
  EXPECT_TRUE(ValidateSolution(p, lowered).IsInternal());
  IncrementSolution wrong_size = s;
  wrong_size.new_confidence.pop_back();
  EXPECT_TRUE(ValidateSolution(p, wrong_size).IsInternal());
}

}  // namespace
}  // namespace pcqe
