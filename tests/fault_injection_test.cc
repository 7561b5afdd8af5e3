// Fault-injection coverage: every registered probe site is reachable, every
// injected failure surfaces as a clean `Status` (no crash, no leaked lock,
// no policy-violating row), and injected deadline expiries produce
// `partial`-tagged anytime results that still validate.
//
// The replay trick used for the deadline sites: arm the site with
// `fire_after = UINT64_MAX` (never fires, only counts), run once to learn
// the probe count n, then re-arm with `fire_after = n - 1` so the *final*
// poll of the solve fires — at that point the solver state is fully refined,
// so the anytime contract (feasible + partial) is checkable exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "service/query_service.h"
#include "service_counts.h"
#include "storage/storage_manager.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "strategy/solution.h"
#include "workload/generator.h"

namespace pcqe {
namespace {

constexpr const char* kCandidateQuery =
    "SELECT ci.company, ci.income "
    "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
    "JOIN companyinfo AS ci ON c.company = ci.company";

/// The running-example catalog behind an engine, plus `DisarmAll` teardown so
/// no armed site leaks into later tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* proposal = *catalog_.CreateTable(
        "Proposal", Schema({{"company", DataType::kString, ""},
                            {"proposal", DataType::kString, ""},
                            {"funding", DataType::kDouble, ""}}));
    ASSERT_TRUE(proposal
                    ->Insert({Value::String("AlphaTech"), Value::String("expansion"),
                              Value::Double(2e6)},
                             0.5)
                    .ok());
    ASSERT_TRUE(proposal
                    ->Insert({Value::String("BlueSky"), Value::String("marketing"),
                              Value::Double(8e5)},
                             0.3, *MakeLinearCost(1000.0))
                    .ok());
    ASSERT_TRUE(proposal
                    ->Insert({Value::String("BlueSky"), Value::String("research"),
                              Value::Double(5e5)},
                             0.4, *MakeLinearCost(100.0))
                    .ok());
    Table* info = *catalog_.CreateTable(
        "CompanyInfo",
        Schema({{"company", DataType::kString, ""}, {"income", DataType::kDouble, ""}}));
    ASSERT_TRUE(
        info->Insert({Value::String("AlphaTech"), Value::Double(3e5)}, 0.8).ok());
    ASSERT_TRUE(info->Insert({Value::String("BlueSky"), Value::Double(1.2e5)}, 0.1,
                             *MakeLinearCost(10000.0))
                    .ok());

    RoleGraph roles;
    ASSERT_TRUE(roles.AddRole("Manager").ok());
    ASSERT_TRUE(roles.AddUser("mary").ok());
    ASSERT_TRUE(roles.AssignRole("mary", "Manager").ok());
    PolicyStore policies;
    ASSERT_TRUE(policies.AddPolicy(roles, {"Manager", "investment", 0.06}).ok());
    engine_ = std::make_unique<PcqeEngine>(&catalog_, std::move(roles),
                                           std::move(policies));
  }

  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  QueryRequest MaryRequest() {
    QueryRequest request;
    request.sql = kCandidateQuery;
    request.user = "mary";
    request.purpose = "investment";
    request.required_fraction = 1.0;
    return request;
  }

  Catalog catalog_;
  std::unique_ptr<PcqeEngine> engine_;
};

/// A medium monotone instance with enough greedy iterations and D&C groups
/// for the deadline probes to be polled repeatedly.
WorkloadParams MediumParams() {
  WorkloadParams params;
  params.num_base_tuples = 40;
  params.num_results = 20;
  params.bases_per_result = 3;
  params.or_group_size = 2;
  params.beta = 0.4;
  params.theta = 0.6;
  params.delta = 0.25;
  params.seed = 7;
  return params;
}

/// Small enough for the branch-and-bound search to finish instantly.
WorkloadParams SmallParams() {
  WorkloadParams params;
  params.num_base_tuples = 6;
  params.num_results = 5;
  params.bases_per_result = 3;
  params.or_group_size = 2;
  params.beta = 0.4;
  params.theta = 0.6;
  params.delta = 0.25;
  params.seed = 11;
  return params;
}

FaultInjector::SiteConfig CountOnly() {
  FaultInjector::SiteConfig config;
  config.fire_after = UINT64_MAX;  // never fires, only counts probes
  return config;
}

FaultInjector::SiteConfig SyntheticOutage() {
  FaultInjector::SiteConfig config;
  config.message = "synthetic outage";
  return config;
}

TEST_F(FaultInjectionTest, KnownSitesEnumeratesEveryProbePoint) {
  const std::vector<const char*>& sites = FaultInjector::KnownSites();
  EXPECT_EQ(sites.size(), 17u);
  std::set<std::string> unique(sites.begin(), sites.end());
  EXPECT_EQ(unique.size(), sites.size());
}

TEST_F(FaultInjectionTest, EveryRegisteredSiteIsReachable) {
  FaultInjector& injector = FaultInjector::Global();
  for (const char* site : FaultInjector::KnownSites()) {
    injector.Arm(site, CountOnly());
  }

  // Solver sites, straight on generated problems (all three solvers).
  Workload medium = GenerateWorkload(MediumParams());
  IncrementProblem medium_problem = *medium.ToProblem();
  ASSERT_TRUE(SolveGreedy(medium_problem).ok());
  ASSERT_TRUE(SolveDnc(medium_problem).ok());
  Workload small = GenerateWorkload(SmallParams());
  IncrementProblem small_problem = *small.ToProblem();
  ASSERT_TRUE(SolveHeuristic(small_problem).ok());

  // Storage sites: opening a fresh directory checkpoints (checkpoint +
  // manifest probes), the durable accept below logs (append + sync), and
  // the final recovery replays.
  std::string dir = ::testing::TempDir() + "/fault_site_sweep";
  std::filesystem::remove_all(dir);
  StorageManager storage;
  ASSERT_TRUE(storage.Open({.dir = dir}, &catalog_).ok());
  engine_->AttachStorage(&storage);

  // Engine + service sites, through a full request + accept cycle.
  QueryService service(engine_.get(), {.num_workers = 1});
  SessionHandle mary = *service.OpenSession("mary", "investment");
  ServiceRequest request;
  request.sql = kCandidateQuery;
  request.required_fraction = 1.0;
  Result<QueryOutcome> outcome = service.Submit(mary, request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->proposal.needed);
  ASSERT_TRUE(service.Accept(outcome->proposal).ok());
  // β-pushdown qualification (fraction 0, safe shape, β > 0) rebuilds the
  // confidence zone map, probing query.index_rebuild.
  ServiceRequest pushed;
  pushed.sql = "SELECT company FROM proposal";
  pushed.required_fraction = 0.0;
  ASSERT_TRUE(service.Submit(mary, pushed).ok());
  service.Shutdown();
  ASSERT_TRUE(storage.Recover().ok());
  engine_->AttachStorage(nullptr);

  for (const char* site : FaultInjector::KnownSites()) {
    EXPECT_GT(injector.hits(site), 0u) << "site never probed: " << site;
  }
}

TEST_F(FaultInjectionTest, SolverErrorSitesPropagateStatusAndRecover) {
  struct Case {
    const char* site;
    Result<IncrementSolution> (*solve)(const IncrementProblem&);
    bool small;
  };
  const Case cases[] = {
      {fault_sites::kHeuristicWave,
       +[](const IncrementProblem& p) { return SolveHeuristic(p); }, true},
      {fault_sites::kGreedySolve,
       +[](const IncrementProblem& p) { return SolveGreedy(p); }, false},
      {fault_sites::kDncGroup,
       +[](const IncrementProblem& p) { return SolveDnc(p); }, false},
  };
  Workload medium = GenerateWorkload(MediumParams());
  IncrementProblem medium_problem = *medium.ToProblem();
  Workload small = GenerateWorkload(SmallParams());
  IncrementProblem small_problem = *small.ToProblem();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    const IncrementProblem& problem = c.small ? small_problem : medium_problem;
    FaultInjector::Global().Arm(c.site, SyntheticOutage());
    Result<IncrementSolution> failed = c.solve(problem);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    EXPECT_NE(failed.status().message().find("synthetic outage"), std::string::npos);
    EXPECT_GT(FaultInjector::Global().hits(c.site), 0u);

    // Disarm and re-run: no leaked lock or poisoned state survives.
    FaultInjector::Global().Disarm(c.site);
    Result<IncrementSolution> recovered = c.solve(problem);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(ValidateSolution(problem, *recovered).ok());
    EXPECT_TRUE(recovered->feasible);
  }
}

TEST_F(FaultInjectionTest, GreedyInjectedDeadlineYieldsFeasiblePartial) {
  Workload w = GenerateWorkload(MediumParams());
  IncrementProblem problem = *w.ToProblem();
  FaultInjector& injector = FaultInjector::Global();

  injector.Arm(fault_sites::kGreedyDeadline, CountOnly());
  Result<IncrementSolution> full = SolveGreedy(problem);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->feasible);
  ASSERT_FALSE(full->partial());
  uint64_t probes = injector.hits(fault_sites::kGreedyDeadline);
  ASSERT_GT(probes, 0u);

  // Fire at the very last poll: both phases have run, so the state is
  // feasible and fully refined — only the completion claim is lost.
  FaultInjector::SiteConfig config;
  config.fire_after = probes - 1;
  injector.Arm(fault_sites::kGreedyDeadline, config);
  Result<IncrementSolution> partial = SolveGreedy(problem);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(ValidateSolution(problem, *partial).ok());
  EXPECT_TRUE(partial->feasible);
  EXPECT_TRUE(partial->partial());
  EXPECT_EQ(partial->stop, SolveStop::kDeadline);
}

TEST_F(FaultInjectionTest, DncInjectedDeadlineYieldsFeasiblePartial) {
  Workload w = GenerateWorkload(MediumParams());
  IncrementProblem problem = *w.ToProblem();
  FaultInjector& injector = FaultInjector::Global();
  DncOptions options;
  options.parallelism = SolverParallelism{1};  // keep the probe order exact

  injector.Arm(fault_sites::kDncDeadline, CountOnly());
  Result<IncrementSolution> full = SolveDnc(problem, options);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->feasible);
  uint64_t probes = injector.hits(fault_sites::kDncDeadline);
  ASSERT_GT(probes, 0u);

  FaultInjector::SiteConfig config;
  config.fire_after = probes - 1;
  injector.Arm(fault_sites::kDncDeadline, config);
  Result<IncrementSolution> partial = SolveDnc(problem, options);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(ValidateSolution(problem, *partial).ok());
  EXPECT_TRUE(partial->feasible);
  EXPECT_TRUE(partial->partial());
  EXPECT_EQ(partial->stop, SolveStop::kDeadline);
}

TEST_F(FaultInjectionTest, HeuristicInjectedDeadlineFallsBackToIncumbent) {
  Workload w = GenerateWorkload(SmallParams());
  IncrementProblem problem = *w.ToProblem();
  Result<IncrementSolution> greedy = SolveGreedy(problem);
  ASSERT_TRUE(greedy.ok() && greedy->feasible);

  // Immediate injected expiry: the search stops before its first wave and
  // must hand back the externally supplied incumbent, tagged partial.
  FaultInjector::Global().Arm(fault_sites::kHeuristicDeadline, {});
  HeuristicOptions options;
  options.initial_upper_bound = greedy->total_cost;
  options.initial_assignment = greedy->new_confidence;
  Result<IncrementSolution> partial = SolveHeuristic(problem, options);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(ValidateSolution(problem, *partial).ok());
  EXPECT_TRUE(partial->feasible);
  EXPECT_TRUE(partial->partial());
  EXPECT_EQ(partial->stop, SolveStop::kDeadline);
}

TEST_F(FaultInjectionTest, EvaluateFaultFailsCleanlyAndRecovers) {
  FaultInjector::Global().Arm(fault_sites::kEngineEvaluate, SyntheticOutage());
  Result<QueryOutcome> failed = engine_->Submit(MaryRequest());
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("synthetic outage"), std::string::npos);

  FaultInjector::Global().Disarm(fault_sites::kEngineEvaluate);
  EXPECT_TRUE(engine_->Submit(MaryRequest()).ok());
}

TEST_F(FaultInjectionTest, AcceptFaultLeavesConfidenceVersionUntouched) {
  Result<QueryOutcome> outcome = engine_->Submit(MaryRequest());
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->proposal.needed);

  uint64_t version = catalog_.confidence_version();
  FaultInjector::Global().Arm(fault_sites::kCatalogAccept, SyntheticOutage());
  EXPECT_EQ(engine_->AcceptProposal(outcome->proposal).code(),
            StatusCode::kInternal);
  EXPECT_EQ(catalog_.confidence_version(), version);

  FaultInjector::Global().Disarm(fault_sites::kCatalogAccept);
  ASSERT_TRUE(engine_->AcceptProposal(outcome->proposal).ok());
  EXPECT_GT(catalog_.confidence_version(), version);
}

TEST_F(FaultInjectionTest, CacheLookupFaultFailsRequestAndRecovers) {
  QueryService service(engine_.get(), {.num_workers = 0});
  SessionHandle mary = *service.OpenSession("mary", "investment");
  ServiceRequest request;
  request.sql = kCandidateQuery;
  request.required_fraction = 0.0;

  FaultInjector::SiteConfig config = SyntheticOutage();
  config.fire_count = 1;
  FaultInjector::Global().Arm(fault_sites::kCacheLookup, config);
  Result<QueryOutcome> failed = service.Submit(mary, request);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("synthetic outage"), std::string::npos);

  // fire_count exhausted: the very next request runs normally — the cache
  // mutex and the catalog lock were released on the error path.
  EXPECT_TRUE(service.Submit(mary, request).ok());
  service.Shutdown();
}

TEST_F(FaultInjectionTest, WorkerProcessFaultFailsPromiseNotThePool) {
  QueryService service(engine_.get(), {.num_workers = 1});
  SessionHandle mary = *service.OpenSession("mary", "investment");
  ServiceRequest request;
  request.sql = kCandidateQuery;
  request.required_fraction = 0.0;

  FaultInjector::SiteConfig config = SyntheticOutage();
  config.fire_count = 1;
  FaultInjector::Global().Arm(fault_sites::kWorkerProcess, config);
  Result<QueryOutcome> failed = service.Submit(mary, request);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("synthetic outage"), std::string::npos);
  EXPECT_EQ(ReadServiceCounts(service).failed, 1u);

  // The worker survived the injected failure and serves the next request.
  EXPECT_TRUE(service.Submit(mary, request).ok());
  service.Shutdown();
}

TEST_F(FaultInjectionTest, ZeroWorkerSubmitProcessesLikeAWorker) {
  // Without workers, Submit runs the worker's request processing on the
  // caller's thread, so the worker-process site fires there too.
  QueryService service(engine_.get(), {.num_workers = 0});
  SessionHandle mary = *service.OpenSession("mary", "investment");
  ServiceRequest request;
  request.sql = kCandidateQuery;
  request.required_fraction = 0.0;

  FaultInjector::SiteConfig config = SyntheticOutage();
  config.fire_count = 1;
  FaultInjector::Global().Arm(fault_sites::kWorkerProcess, config);
  Result<QueryOutcome> failed = service.Submit(mary, request);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("synthetic outage"), std::string::npos);
  EXPECT_EQ(ReadServiceCounts(service).failed, 1u);

  EXPECT_TRUE(service.Submit(mary, request).ok());
  ServiceCounts counts = ReadServiceCounts(service);
  EXPECT_EQ(counts.submitted, 2u);
  EXPECT_EQ(counts.served, 1u);
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(counts.latency_count, 2u);
  service.Shutdown();
}

TEST_F(FaultInjectionTest, AdmissionFaultRejectsBlockingSubmitOnce) {
  QueryService service(engine_.get(), {.num_workers = 1});
  SessionHandle mary = *service.OpenSession("mary", "investment");

  FaultInjector::SiteConfig config;
  config.code = StatusCode::kResourceExhausted;  // fires until disarmed
  FaultInjector::Global().Arm(fault_sites::kAdmission, config);

  ServiceRequest request;
  request.sql = kCandidateQuery;
  request.required_fraction = 0.0;
  Result<QueryOutcome> outcome = service.Submit(mary, request);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsResourceExhausted());
  // One admission attempt, one rejection, nothing enqueued.
  EXPECT_EQ(FaultInjector::Global().hits(fault_sites::kAdmission), 1u);
  ServiceCounts counts = ReadServiceCounts(service);
  EXPECT_EQ(counts.rejected, 1u);
  EXPECT_EQ(counts.submitted, 0u);

  FaultInjector::Global().Disarm(fault_sites::kAdmission);
  EXPECT_TRUE(service.Submit(mary, request).ok());
  EXPECT_EQ(ReadServiceCounts(service).rejected, 1u);
  service.Shutdown();
}

TEST_F(FaultInjectionTest, PartialResultsNeverContainPolicyViolatingRows) {
  // An injected solver deadline must not loosen the β filter: released rows
  // all clear the threshold even when the proposal is partial.
  FaultInjector::Global().Arm(fault_sites::kHeuristicDeadline, {});
  QueryRequest request = MaryRequest();
  request.solver = SolverKind::kHeuristic;
  Result<QueryOutcome> outcome = engine_->Submit(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->proposal.partial);
  for (size_t i : outcome->released) {
    EXPECT_TRUE(outcome->policy.Allows(outcome->intermediate.rows[i].confidence));
  }
}

}  // namespace
}  // namespace pcqe
