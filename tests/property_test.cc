// Property-based sweeps over random instances (parameterized gtest).
//
// Invariants checked across seeds:
//  P1. The heuristic B&B is exact: it matches brute force on every instance
//      small enough to enumerate.
//  P2. Approximate solvers (greedy, D&C) never beat the optimum and always
//      return assignments satisfying the solution invariants.
//  P3. Two-phase greedy never costs more than one-phase.
//  P4. Result confidences are probabilities and are monotone in base
//      confidences (for negation-free lineage).
//  P5. Solutions stay on the δ grid: every increment is a whole number of
//      δ steps (or lands exactly on the tuple's ceiling).

#include <gtest/gtest.h>

#include <cmath>

#include "lineage/evaluate.h"
#include "query/query_engine.h"
#include "strategy/brute_force.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "workload/generator.h"

namespace pcqe {
namespace {

WorkloadParams SmallParams(uint64_t seed) {
  WorkloadParams params;
  params.num_base_tuples = 5;
  params.num_results = 4;
  params.bases_per_result = 3;
  params.or_group_size = 2;
  params.theta = 0.5;
  params.beta = 0.4;
  params.seed = seed;
  return params;
}

class SmallInstanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmallInstanceTest, HeuristicMatchesBruteForceOptimum) {
  Workload w = GenerateWorkload(SmallParams(GetParam()));
  IncrementProblem p = *w.ToProblem();
  IncrementSolution brute = *SolveBruteForce(p);
  IncrementSolution exact = *SolveHeuristic(p);
  ASSERT_TRUE(ValidateSolution(p, brute).ok());
  ASSERT_TRUE(ValidateSolution(p, exact).ok());
  EXPECT_EQ(brute.feasible, exact.feasible);
  if (brute.feasible) {
    EXPECT_NEAR(exact.total_cost, brute.total_cost, 1e-6)
        << "seed " << GetParam();
  }
}

TEST_P(SmallInstanceTest, EveryHeuristicToggleComboIsExact) {
  Workload w = GenerateWorkload(SmallParams(GetParam()));
  IncrementProblem p = *w.ToProblem();
  IncrementSolution brute = *SolveBruteForce(p);
  if (!brute.feasible) GTEST_SKIP() << "infeasible instance";
  for (int mask = 0; mask < 16; ++mask) {
    HeuristicOptions options;
    options.use_h1_ordering = mask & 1;
    options.use_h2 = mask & 2;
    options.use_h3 = mask & 4;
    options.use_h4 = mask & 8;
    IncrementSolution s = *SolveHeuristic(p, options);
    ASSERT_TRUE(ValidateSolution(p, s).ok());
    EXPECT_TRUE(s.feasible) << "seed " << GetParam() << " mask " << mask;
    EXPECT_NEAR(s.total_cost, brute.total_cost, 1e-6)
        << "seed " << GetParam() << " mask " << mask;
  }
}

TEST_P(SmallInstanceTest, ApproximationsNeverBeatOptimum) {
  Workload w = GenerateWorkload(SmallParams(GetParam()));
  IncrementProblem p = *w.ToProblem();
  IncrementSolution brute = *SolveBruteForce(p);
  IncrementSolution greedy = *SolveGreedy(p);
  IncrementSolution dnc = *SolveDnc(p);
  ASSERT_TRUE(ValidateSolution(p, greedy).ok());
  ASSERT_TRUE(ValidateSolution(p, dnc).ok());
  if (brute.feasible) {
    if (greedy.feasible) {
      EXPECT_GE(greedy.total_cost, brute.total_cost - 1e-6);
    }
    if (dnc.feasible) {
      EXPECT_GE(dnc.total_cost, brute.total_cost - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallInstanceTest,
                         ::testing::Range<uint64_t>(1, 16));

WorkloadParams MediumParams(uint64_t seed) {
  WorkloadParams params;
  params.num_base_tuples = 120;
  params.num_results = 50;
  params.bases_per_result = 5;
  params.seed = seed;
  return params;
}

class MediumInstanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MediumInstanceTest, GreedyAndDncProduceValidFeasibleSolutions) {
  Workload w = GenerateWorkload(MediumParams(GetParam()));
  IncrementProblem p = *w.ToProblem();
  IncrementSolution greedy = *SolveGreedy(p);
  IncrementSolution dnc = *SolveDnc(p);
  ASSERT_TRUE(ValidateSolution(p, greedy).ok());
  ASSERT_TRUE(ValidateSolution(p, dnc).ok());
  // Everything is raisable to 1.0, so these workloads are always feasible.
  EXPECT_TRUE(greedy.feasible);
  EXPECT_TRUE(dnc.feasible);
}

TEST_P(MediumInstanceTest, TwoPhaseDominatesOnePhase) {
  Workload w = GenerateWorkload(MediumParams(GetParam()));
  IncrementProblem p = *w.ToProblem();
  GreedyOptions one_phase;
  one_phase.two_phase = false;
  IncrementSolution s1 = *SolveGreedy(p, one_phase);
  IncrementSolution s2 = *SolveGreedy(p);
  ASSERT_TRUE(s1.feasible);
  ASSERT_TRUE(s2.feasible);
  EXPECT_LE(s2.total_cost, s1.total_cost + 1e-9);
}

TEST_P(MediumInstanceTest, SolutionsStayOnTheDeltaGrid) {
  Workload w = GenerateWorkload(MediumParams(GetParam()));
  IncrementProblem p = *w.ToProblem();
  for (const IncrementSolution& s : {*SolveGreedy(p), *SolveDnc(p)}) {
    for (size_t i = 0; i < s.new_confidence.size(); ++i) {
      double from = p.base(i).confidence;
      double to = s.new_confidence[i];
      if (ApproxEqual(from, to) || ApproxEqual(to, p.base(i).max_confidence)) continue;
      double steps = (to - from) / p.delta();
      EXPECT_NEAR(steps, std::round(steps), 1e-6)
          << "base " << i << " moved off-grid: " << from << " -> " << to;
    }
  }
}

TEST_P(MediumInstanceTest, ConfidencesAreProbabilitiesAndMonotone) {
  Workload w = GenerateWorkload(MediumParams(GetParam()));
  IncrementProblem p = *w.ToProblem();
  std::vector<double> probs = p.InitialProbs();
  Rng rng(GetParam() * 7919);
  for (size_t r = 0; r < p.num_results(); ++r) {
    double f = p.EvalResult(r, probs);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // Raise a random tuple; every affected result must not decrease (P4).
  for (int trial = 0; trial < 20; ++trial) {
    size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(p.num_base_tuples()) - 1));
    std::vector<double> before_vals;
    for (uint32_t r : p.results_of_base(i)) before_vals.push_back(p.EvalResult(r, probs));
    double old = probs[i];
    probs[i] = std::min(1.0, old + 0.2);
    size_t idx = 0;
    for (uint32_t r : p.results_of_base(i)) {
      EXPECT_GE(p.EvalResult(r, probs), before_vals[idx++] - 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumInstanceTest,
                         ::testing::Range<uint64_t>(100, 108));

// Failure injection: cost functions with extreme coefficients, ceilings
// below beta, and required == all results.
TEST(StressTest, CeilingsBelowBetaMakeInstanceInfeasible) {
  auto arena = std::make_shared<LineageArena>();
  std::vector<LineageRef> results;
  std::vector<BaseTupleSpec> specs;
  for (LineageVarId i = 0; i < 6; ++i) {
    results.push_back(arena->Var(i));
    specs.push_back({i, 0.1, 0.4, nullptr});  // ceiling 0.4 < beta 0.6
  }
  ProblemOptions options;
  options.beta = 0.6;
  IncrementProblem p = *IncrementProblem::BuildSingle(arena, results, specs, 3, options);
  for (const IncrementSolution& s :
       {*SolveBruteForce(p), *SolveHeuristic(p), *SolveGreedy(p), *SolveDnc(p)}) {
    EXPECT_FALSE(s.feasible) << s.algorithm;
    ASSERT_TRUE(ValidateSolution(p, s).ok()) << s.algorithm;
  }
}

TEST(StressTest, RequiredEqualsAllResults) {
  WorkloadParams params;
  params.num_base_tuples = 40;
  params.num_results = 15;
  params.bases_per_result = 4;
  params.theta = 1.0;
  params.seed = 33;
  Workload w = GenerateWorkload(params);
  IncrementProblem p = *w.ToProblem();
  EXPECT_EQ(p.required(0), 15u);
  IncrementSolution greedy = *SolveGreedy(p);
  IncrementSolution dnc = *SolveDnc(p);
  EXPECT_TRUE(greedy.feasible);
  EXPECT_TRUE(dnc.feasible);
  ASSERT_TRUE(ValidateSolution(p, greedy).ok());
  ASSERT_TRUE(ValidateSolution(p, dnc).ok());
}

TEST(StressTest, ExtremeCostScalesStayFinite) {
  auto arena = std::make_shared<LineageArena>();
  LineageRef f = arena->Or(arena->Var(1), arena->Var(2));
  std::vector<BaseTupleSpec> specs = {
      {1, 0.1, 1.0, *MakeExponentialCost(1e6, 3.0)},
      {2, 0.1, 1.0, *MakeLogarithmicCost(1e-3, 20.0)},
  };
  ProblemOptions options;
  options.beta = 0.5;
  IncrementProblem p = *IncrementProblem::BuildSingle(arena, {f}, specs, 1, options);
  IncrementSolution s = *SolveHeuristic(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_TRUE(std::isfinite(s.total_cost));
  // The log-cost tuple is dramatically cheaper; the optimum must use it.
  auto actions = s.Actions(p);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].base_tuple, 2u);
}

// Random relational workloads: lineage produced by the query engine obeys
// the probabilistic-database laws.
class QueryLineageTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    Table* left = *catalog_.CreateTable(
        "l", Schema({{"k", DataType::kInt64, ""}, {"v", DataType::kInt64, ""}}));
    Table* right = *catalog_.CreateTable(
        "r", Schema({{"k", DataType::kInt64, ""}, {"w", DataType::kInt64, ""}}));
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(left->Insert({Value::Int(rng.UniformInt(0, 5)),
                                Value::Int(rng.UniformInt(0, 100))},
                               rng.Uniform(0.05, 0.95))
                      .ok());
      ASSERT_TRUE(right->Insert({Value::Int(rng.UniformInt(0, 5)),
                                 Value::Int(rng.UniformInt(0, 100))},
                                rng.Uniform(0.05, 0.95))
                      .ok());
    }
  }

  Catalog catalog_;
};

TEST_P(QueryLineageTest, ConfidenceMatchesExactEvaluationWhenReadOnce) {
  // P6. For every produced row, the engine's confidence (independence
  // semantics) equals the exact Shannon evaluation whenever the lineage is
  // read-once, and both stay in [0, 1] regardless.
  for (const char* sql :
       {"SELECT DISTINCT k FROM l",
        "SELECT l.k FROM l JOIN r ON l.k = r.k AND l.v < r.w",
        "SELECT k FROM l UNION SELECT k FROM r",
        "SELECT k FROM l EXCEPT SELECT k FROM r WHERE w > 50",
        "SELECT k FROM l INTERSECT SELECT k FROM r"}) {
    QueryResult result = *RunQuery(catalog_, sql);
    ConfidenceMap probs = *SnapshotConfidences(catalog_, result);
    for (const QueryResult::Row& row : result.rows) {
      EXPECT_GE(row.confidence, 0.0) << sql;
      EXPECT_LE(row.confidence, 1.0) << sql;
      if (result.arena->IsReadOnce(row.lineage)) {
        EXPECT_NEAR(row.confidence, *EvaluateExact(*result.arena, row.lineage, probs),
                    1e-9)
            << sql;
      }
    }
  }
}

TEST_P(QueryLineageTest, DistinctDominatesAndJoinIsDominated) {
  // P7. OR-merging never lowers confidence below the best duplicate; AND
  // never exceeds either operand.
  QueryResult raw = *RunQuery(catalog_, "SELECT k FROM l");
  QueryResult distinct = *RunQuery(catalog_, "SELECT DISTINCT k FROM l");
  for (const QueryResult::Row& d : distinct.rows) {
    double best_dup = 0.0;
    for (const QueryResult::Row& r : raw.rows) {
      if (r.values[0].Equals(d.values[0])) best_dup = std::max(best_dup, r.confidence);
    }
    EXPECT_GE(d.confidence, best_dup - 1e-12);
  }

  QueryResult join =
      *RunQuery(catalog_, "SELECT l.k FROM l JOIN r ON l.k = r.k");
  ConfidenceMap probs = *SnapshotConfidences(catalog_, join);
  for (const QueryResult::Row& row : join.rows) {
    for (LineageVarId id : join.arena->Variables(row.lineage)) {
      EXPECT_LE(row.confidence, probs.Get(id) + 1e-12);
    }
  }
}

TEST_P(QueryLineageTest, ImprovementMonotonicityEndToEnd) {
  // P8. Raising any base tuple's confidence never lowers any negation-free
  // query result's confidence.
  QueryResult result = *RunQuery(
      catalog_, "SELECT DISTINCT l.k FROM l JOIN r ON l.k = r.k");
  std::vector<double> before;
  before.reserve(result.rows.size());
  for (const auto& row : result.rows) before.push_back(row.confidence);

  Rng rng(GetParam() * 31);
  const Table* l = *catalog_.GetTable("l");
  for (int trial = 0; trial < 5; ++trial) {
    size_t row = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(l->num_tuples()) - 1));
    const Tuple& t = l->tuples()[row];
    ASSERT_TRUE(
        catalog_.SetConfidence(t.id(), std::min(1.0, t.confidence() + 0.3)).ok());
  }
  ConfidenceMap fresh = *SnapshotConfidences(catalog_, result);
  result.RecomputeConfidences(fresh);
  for (size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_GE(result.rows[i].confidence, before[i] - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryLineageTest, ::testing::Range<uint64_t>(1, 7));

TEST(StressTest, ZeroRequiredIsTriviallyFeasible) {
  auto arena = std::make_shared<LineageArena>();
  LineageRef f = arena->Var(1);
  std::vector<BaseTupleSpec> specs = {{1, 0.1, 1.0, nullptr}};
  ProblemOptions options;
  options.beta = 0.9;
  IncrementProblem p = *IncrementProblem::BuildSingle(arena, {f}, specs, 0, options);
  for (const IncrementSolution& s :
       {*SolveBruteForce(p), *SolveHeuristic(p), *SolveGreedy(p), *SolveDnc(p)}) {
    EXPECT_TRUE(s.feasible) << s.algorithm;
    EXPECT_NEAR(s.total_cost, 0.0, 1e-12) << s.algorithm;
  }
}

}  // namespace
}  // namespace pcqe
