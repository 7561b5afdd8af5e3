// Tests for the service layer: sessions, the confidence-result cache,
// admission control, deadlines, shutdown and the request counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "service/query_service.h"
#include "service_counts.h"

namespace pcqe {
namespace {

constexpr const char* kCandidateQuery =
    "SELECT ci.company, ci.income "
    "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
    "JOIN companyinfo AS ci ON c.company = ci.company";

/// The paper's running example behind a service: data, roles (Secretary,
/// Manager), policies P1 = <Secretary, analysis, 0.05> and
/// P2 = <Manager, investment, 0.06>.
class QueryServiceTest : public ::testing::Test {
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
    id03_ = *proposal->Insert(
        {Value::String("BlueSky"), Value::String("research"), Value::Double(5e5)}, 0.4,
        *MakeLinearCost(100.0));
    Table* info = *catalog_.CreateTable(
        "CompanyInfo",
        Schema({{"company", DataType::kString, ""}, {"income", DataType::kDouble, ""}}));
    ASSERT_TRUE(
        info->Insert({Value::String("AlphaTech"), Value::Double(3e5)}, 0.8).ok());
    ASSERT_TRUE(info->Insert({Value::String("BlueSky"), Value::Double(1.2e5)}, 0.1,
                             *MakeLinearCost(10000.0))
                    .ok());

    RoleGraph roles;
    ASSERT_TRUE(roles.AddRole("Secretary").ok());
    ASSERT_TRUE(roles.AddRole("Manager").ok());
    ASSERT_TRUE(roles.AddRole("Auditor").ok());
    ASSERT_TRUE(roles.AddUser("sam").ok());
    ASSERT_TRUE(roles.AddUser("mary").ok());
    ASSERT_TRUE(roles.AddUser("amy").ok());
    ASSERT_TRUE(roles.AssignRole("sam", "Secretary").ok());
    ASSERT_TRUE(roles.AssignRole("mary", "Manager").ok());
    ASSERT_TRUE(roles.AssignRole("amy", "Auditor").ok());
    PolicyStore policies;
    ASSERT_TRUE(policies.AddPolicy(roles, {"Secretary", "analysis", 0.05}).ok());
    ASSERT_TRUE(policies.AddPolicy(roles, {"Manager", "investment", 0.06}).ok());
    // A demanding threshold for the deadline tests: audits release only
    // high-confidence rows, so large instances genuinely need the solver.
    ASSERT_TRUE(policies.AddPolicy(roles, {"Auditor", "audit", 0.9}).ok());
    engine_ = std::make_unique<PcqeEngine>(&catalog_, std::move(roles),
                                           std::move(policies));
  }

  std::unique_ptr<QueryService> MakeService(ServiceOptions options) {
    return std::make_unique<QueryService>(engine_.get(), options);
  }

  Catalog catalog_;
  std::unique_ptr<PcqeEngine> engine_;
  BaseTupleId id03_ = 0;
};

TEST(NormalizeSqlTest, CanonicalizesWhitespaceAndSemicolon) {
  EXPECT_EQ(NormalizeSql("  SELECT   x\n\tFROM t ; "), "SELECT x FROM t");
  EXPECT_EQ(NormalizeSql("SELECT x FROM t"), "SELECT x FROM t");
  // Case is preserved: string literals are case-sensitive.
  EXPECT_EQ(NormalizeSql("select 'A'"), "select 'A'");
  EXPECT_EQ(NormalizeSql(""), "");
}

TEST_F(QueryServiceTest, OpenSessionPinsThreshold) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle mary = *service->OpenSession("mary", "investment");
  EXPECT_EQ(mary.user, "mary");
  EXPECT_DOUBLE_EQ(mary.base_decision.threshold, 0.06);
  EXPECT_NE(mary.ToString().find("mary/investment"), std::string::npos);

  SessionHandle sam = *service->OpenSession("sam", "analysis");
  EXPECT_DOUBLE_EQ(sam.base_decision.threshold, 0.05);
  EXPECT_NE(sam.id, mary.id);
  EXPECT_EQ(service->stats().active_sessions, 2u);

  ASSERT_TRUE(service->CloseSession(sam.id).ok());
  EXPECT_EQ(service->stats().active_sessions, 1u);
  EXPECT_TRUE(service->CloseSession(sam.id).IsNotFound());
}

TEST_F(QueryServiceTest, UnknownUserCannotOpenSession) {
  auto service = MakeService({.num_workers = 1});
  EXPECT_TRUE(service->OpenSession("ghost", "analysis").status().IsNotFound());
}

TEST_F(QueryServiceTest, ServiceMatchesDirectEngineSubmission) {
  auto service = MakeService({.num_workers = 2});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  QueryOutcome via_service =
      *service->Submit(sam, {.sql = kCandidateQuery, .required_fraction = 1.0});
  QueryOutcome direct =
      *engine_->Submit({kCandidateQuery, "sam", "analysis", 1.0});
  EXPECT_EQ(via_service.released.size(), direct.released.size());
  EXPECT_DOUBLE_EQ(via_service.policy.threshold, direct.policy.threshold);
  EXPECT_DOUBLE_EQ(via_service.released_fraction, direct.released_fraction);
}

TEST_F(QueryServiceTest, DistinctSessionsShareOneEvaluation) {
  auto service = MakeService({.num_workers = 2});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  SessionHandle mary = *service->OpenSession("mary", "investment");

  // Same SQL, different β: sam (0.05) sees the 0.058 row, mary (0.06) does
  // not — but the second submission reuses the first one's evaluation.
  QueryOutcome for_sam =
      *service->Submit(sam, {.sql = kCandidateQuery, .required_fraction = 0.0});
  QueryOutcome for_mary =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 0.0});
  EXPECT_EQ(for_sam.released.size(), 1u);
  EXPECT_TRUE(for_mary.released.empty());

  ServiceStatsSnapshot stats = service->stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
  // Whitespace variants hit the same entry.
  ASSERT_TRUE(
      service->Submit(sam, {.sql = std::string("  ") + kCandidateQuery + " ;"}).ok());
  EXPECT_EQ(service->stats().cache_hits, 2u);
}

TEST_F(QueryServiceTest, PushdownModeForksTheCacheKey) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle mary = *service->OpenSession("mary", "investment");
  // Shape-safe query (no DISTINCT/aggregate/LIMIT): the engine resolves
  // mary's β = 0.06 and pushes it below the scan.
  constexpr const char* kSafeQuery = "SELECT company, funding FROM proposal";

  QueryOutcome pushed =
      *service->Submit(mary, {.sql = kSafeQuery, .required_fraction = 0.0});
  EXPECT_TRUE(pushed.intermediate.pushed_down);
  EXPECT_EQ(service->stats().cache_misses, 1u);

  // The same SQL with pushdown off must MISS: a pushed evaluation excludes
  // pruned rows from its intermediate, so serving it to an unpushed request
  // would silently change the audit surface.
  QueryOutcome unpushed = *service->Submit(
      mary, {.sql = kSafeQuery, .required_fraction = 0.0, .pushdown = false});
  EXPECT_FALSE(unpushed.intermediate.pushed_down);
  EXPECT_EQ(service->stats().cache_misses, 2u);
  EXPECT_EQ(service->stats().cache_hits, 0u);
  // Both modes release the same rows (the differential identity claim).
  ASSERT_EQ(unpushed.released.size(), pushed.released.size());
  for (size_t i = 0; i < pushed.released.size(); ++i) {
    EXPECT_EQ(pushed.intermediate.rows[pushed.released[i]].confidence,
              unpushed.intermediate.rows[unpushed.released[i]].confidence);
  }

  // Each mode re-serves from its own entry.
  ASSERT_TRUE(
      service->Submit(mary, {.sql = kSafeQuery, .required_fraction = 0.0}).ok());
  ASSERT_TRUE(service
                  ->Submit(mary, {.sql = kSafeQuery,
                                  .required_fraction = 0.0,
                                  .pushdown = false})
                  .ok());
  EXPECT_EQ(service->stats().cache_hits, 2u);
  EXPECT_EQ(service->stats().cache_misses, 2u);
}

TEST_F(QueryServiceTest, AcceptInvalidatesCacheViaConfidenceVersion) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle mary = *service->OpenSession("mary", "investment");

  uint64_t version_before = catalog_.confidence_version();
  QueryOutcome blocked =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  ASSERT_TRUE(blocked.proposal.needed);
  EXPECT_TRUE(blocked.released.empty());

  ASSERT_TRUE(service->Accept(blocked.proposal).ok());
  EXPECT_GT(catalog_.confidence_version(), version_before);

  // The cached evaluation is stale now; the re-submission must re-evaluate
  // (a miss) and see the improved confidence.
  QueryOutcome after =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  EXPECT_EQ(after.released.size(), 1u);
  EXPECT_FALSE(after.proposal.needed);
  EXPECT_EQ(service->stats().cache_misses, 2u);
}

TEST_F(QueryServiceTest, AdmissionControlRejectsOnOverflow) {
  // Zero workers: nothing drains the queue, so the bound is deterministic.
  auto service = MakeService({.num_workers = 0, .queue_capacity = 2});
  SessionHandle sam = *service->OpenSession("sam", "analysis");

  std::vector<std::future<Result<QueryOutcome>>> accepted;
  for (int i = 0; i < 2; ++i) {
    auto future = service->SubmitAsync(sam, {.sql = kCandidateQuery});
    ASSERT_TRUE(future.ok());
    accepted.push_back(std::move(*future));
  }
  EXPECT_EQ(service->queue_depth(), 2u);
  auto rejected = service->SubmitAsync(sam, {.sql = kCandidateQuery});
  EXPECT_TRUE(rejected.status().IsResourceExhausted());

  service->Shutdown();
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().status().IsResourceExhausted());  // dropped
  }
  ServiceCounts counts = ReadServiceCounts(*service);
  EXPECT_EQ(counts.submitted, 2u);
  EXPECT_EQ(counts.rejected, 1u);
  EXPECT_EQ(counts.shutdown_dropped, 2u);
  EXPECT_EQ(service->stats().queue_depth, 0u);
}

TEST_F(QueryServiceTest, SubmitAfterShutdownIsRejected) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  service->Shutdown();
  EXPECT_TRUE(
      service->SubmitAsync(sam, {.sql = kCandidateQuery}).status().IsResourceExhausted());
  // The blocking path is refused as well, never run on the caller's thread
  // just because the stopped workers are gone.
  EXPECT_TRUE(service->Submit(sam, {.sql = kCandidateQuery}).status().IsResourceExhausted());
  ServiceCounts counts = ReadServiceCounts(*service);
  EXPECT_EQ(counts.rejected, 2u);
  EXPECT_EQ(counts.submitted, 0u);
  service->Shutdown();  // idempotent
}

TEST_F(QueryServiceTest, QueuedDeadlineExpires) {
  // One worker chewing through a backlog: the last request carries a 1ms
  // deadline and sits behind enough work that it must expire in queue.
  auto service = MakeService({.num_workers = 1, .queue_capacity = 64});
  SessionHandle sam = *service->OpenSession("sam", "analysis");

  std::vector<std::future<Result<QueryOutcome>>> backlog;
  for (int i = 0; i < 30; ++i) {
    auto future = service->SubmitAsync(sam, {.sql = kCandidateQuery});
    if (future.ok()) backlog.push_back(std::move(*future));
  }
  auto hurried =
      service->SubmitAsync(sam, {.sql = kCandidateQuery, .timeout_ms = 1});
  ASSERT_TRUE(hurried.ok());
  Result<QueryOutcome> outcome = hurried->get();
  // Either the queue was slow enough (expired) or the machine raced through
  // 30 evaluations in under a millisecond (served); both are legal, but the
  // counters must agree with whichever happened.
  for (auto& future : backlog) (void)future.get();
  ServiceCounts counts = ReadServiceCounts(*service);
  if (!outcome.ok()) {
    EXPECT_TRUE(outcome.status().IsResourceExhausted());
    EXPECT_GE(counts.expired, 1u);
  } else {
    EXPECT_EQ(counts.expired, 0u);
  }
  EXPECT_EQ(counts.submitted, counts.served + counts.expired);
}

TEST_F(QueryServiceTest, EngineErrorsCountAsFailed) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  EXPECT_TRUE(service->Submit(sam, {.sql = "SELEC oops"}).status().IsParseError());
  EXPECT_TRUE(
      service->Submit(sam, {.sql = kCandidateQuery, .required_fraction = 2.0})
          .status()
          .IsInvalidArgument());
  ServiceCounts counts = ReadServiceCounts(*service);
  EXPECT_EQ(counts.failed, 2u);
  EXPECT_EQ(counts.served, 0u);
}

TEST_F(QueryServiceTest, ZeroRowQueryServesWithFullFraction) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle mary = *service->OpenSession("mary", "investment");
  QueryOutcome outcome = *service->Submit(
      mary, {.sql = "SELECT * FROM proposal WHERE company = 'Nobody'",
             .required_fraction = 1.0});
  EXPECT_TRUE(outcome.intermediate.rows.empty());
  EXPECT_DOUBLE_EQ(outcome.released_fraction, 1.0);
  EXPECT_FALSE(outcome.proposal.needed);
}

TEST_F(QueryServiceTest, LruEvictsLeastRecentlyUsedEntry) {
  auto service = MakeService({.num_workers = 1, .cache_capacity = 2});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  const std::string q1 = "SELECT company FROM proposal";
  const std::string q2 = "SELECT funding FROM proposal";
  const std::string q3 = "SELECT proposal FROM proposal";

  ASSERT_TRUE(service->Submit(sam, {.sql = q1}).ok());  // miss -> {q1}
  ASSERT_TRUE(service->Submit(sam, {.sql = q2}).ok());  // miss -> {q2,q1}
  ASSERT_TRUE(service->Submit(sam, {.sql = q1}).ok());  // hit, q1 freshened
  EXPECT_EQ(service->stats().cache_hits, 1u);
  ASSERT_TRUE(service->Submit(sam, {.sql = q3}).ok());  // miss, evicts q2
  ServiceStatsSnapshot stats = service->stats();
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 2u);

  ASSERT_TRUE(service->Submit(sam, {.sql = q2}).ok());  // q2 gone: miss again
  EXPECT_EQ(service->stats().cache_misses, 4u);
  ASSERT_TRUE(service->Submit(sam, {.sql = q3}).ok());  // q3 survived: hit
  EXPECT_EQ(service->stats().cache_hits, 2u);
}

TEST_F(QueryServiceTest, InvalidateCacheForcesReEvaluation) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  ASSERT_TRUE(service->Submit(sam, {.sql = kCandidateQuery}).ok());
  service->InvalidateCache();
  ASSERT_TRUE(service->Submit(sam, {.sql = kCandidateQuery}).ok());
  EXPECT_EQ(service->stats().cache_misses, 2u);
  EXPECT_EQ(service->stats().cache_hits, 0u);
}

TEST_F(QueryServiceTest, StatsSnapshotFormats) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  ASSERT_TRUE(service->Submit(sam, {.sql = kCandidateQuery}).ok());
  std::string rendered = service->stats().ToString();
  EXPECT_NE(rendered.find("hit rate"), std::string::npos);
  EXPECT_NE(rendered.find("active sessions: 1"), std::string::npos);
  // Request counts and latency render with the rest of the registry.
  std::string metrics = service->RenderMetricsText();
  EXPECT_NE(metrics.find("pcqe_service_requests_served_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("pcqe_service_latency_us_count 1"), std::string::npos);
}

TEST_F(QueryServiceTest, DestructorDrainsOutstandingWork) {
  std::vector<std::future<Result<QueryOutcome>>> futures;
  {
    auto service = MakeService({.num_workers = 2});
    SessionHandle sam = *service->OpenSession("sam", "analysis");
    for (int i = 0; i < 10; ++i) {
      auto future = service->SubmitAsync(sam, {.sql = kCandidateQuery});
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(*future));
    }
    // Service destroyed here with requests possibly still queued.
  }
  for (auto& future : futures) {
    Result<QueryOutcome> outcome = future.get();  // never a broken promise
    EXPECT_TRUE(outcome.ok() || outcome.status().IsResourceExhausted());
  }
}

// ---------------------------------------------------------------------------
// Telemetry integration.
// ---------------------------------------------------------------------------

std::vector<std::string> SpanNames(const Trace& trace) {
  std::vector<std::string> names;
  for (const Span& span : trace.spans) names.push_back(span.name);
  return names;
}

bool HasSpan(const Trace& trace, const std::string& name) {
  std::vector<std::string> names = SpanNames(trace);
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST_F(QueryServiceTest, EveryRequestYieldsARetrievableTrace) {
  auto service = MakeService({.num_workers = 1});
  ASSERT_TRUE(service->tracer()->enabled());
  SessionHandle mary = *service->OpenSession("mary", "investment");
  QueryOutcome cold =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});

  ASSERT_NE(cold.trace_id, 0u);
  std::optional<Trace> trace = service->tracer()->Get(cold.trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_GE(trace->spans.size(), 5u) << "got: " << trace->ToString();
  for (const char* name : {"request", "queue-wait", "cache-lookup", "evaluate",
                           "complete", "policy-filter", "solve"}) {
    EXPECT_TRUE(HasSpan(*trace, name)) << name << " missing:\n" << trace->ToString();
  }

  // Warm path: the evaluation comes from the cache, but the trace still has
  // the five named spans the audit trail promises.
  QueryOutcome warm =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  ASSERT_NE(warm.trace_id, cold.trace_id);
  std::optional<Trace> warm_trace = service->tracer()->Get(warm.trace_id);
  ASSERT_TRUE(warm_trace.has_value());
  EXPECT_GE(warm_trace->spans.size(), 5u) << warm_trace->ToString();
  EXPECT_FALSE(HasSpan(*warm_trace, "evaluate")) << warm_trace->ToString();
  EXPECT_TRUE(HasSpan(*warm_trace, "policy-filter"));
}

TEST_F(QueryServiceTest, AuditRingReconstructsEveryServedDecision) {
  auto service = MakeService({.num_workers = 2});
  ASSERT_NE(service->audit(), nullptr);
  ASSERT_TRUE(service->audit()->enabled());
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  SessionHandle mary = *service->OpenSession("mary", "investment");

  // A small session's worth of decisions: different β per session, a cache
  // hit in the middle, a shortfall that engages the solver.
  struct Served {
    SessionHandle* session;
    double fraction;
    QueryOutcome outcome;
  };
  std::vector<Served> served;
  served.push_back({&sam, 0.0, {}});
  served.push_back({&mary, 0.0, {}});
  served.push_back({&mary, 1.0, {}});
  for (Served& s : served) {
    s.outcome = *service->Submit(
        *s.session, {.sql = kCandidateQuery, .required_fraction = s.fraction});
  }

  // Every outcome's audit id resolves to a record that reconstructs the
  // decision: who, for what purpose, which β, against which confidence
  // version, and how many rows each verdict covered.
  for (const Served& s : served) {
    ASSERT_NE(s.outcome.audit_id, 0u);
    std::optional<AuditRecord> record = service->audit()->Get(s.outcome.audit_id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->kind, AuditRecord::Kind::kQuery);
    EXPECT_EQ(record->user, s.session->user);
    EXPECT_EQ(record->purpose, s.session->purpose);
    EXPECT_DOUBLE_EQ(record->beta, s.outcome.policy.threshold);
    EXPECT_EQ(record->confidence_version, catalog_.confidence_version());
    EXPECT_DOUBLE_EQ(record->required_fraction, s.fraction);
    EXPECT_EQ(record->rows_total, s.outcome.intermediate.rows.size());
    EXPECT_EQ(record->rows_released, s.outcome.released.size());
    EXPECT_DOUBLE_EQ(record->released_fraction, s.outcome.released_fraction);
    EXPECT_EQ(record->proposal_needed, s.outcome.proposal.needed);
  }
  // mary's shortfall (required 1.0, released 0) engaged the solver and the
  // record says so.
  EXPECT_TRUE(served[2].outcome.proposal.needed);
  std::optional<AuditRecord> shortfall =
      service->audit()->Get(served[2].outcome.audit_id);
  ASSERT_TRUE(shortfall.has_value());
  EXPECT_TRUE(shortfall->proposal_needed);
  EXPECT_FALSE(shortfall->proposal_algorithm.empty());

  // An accepted proposal lands in the same ring, with the bumped version.
  ASSERT_TRUE(service->Accept(served[2].outcome.proposal).ok());
  std::vector<AuditRecord> all = service->audit()->Snapshot();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().kind, AuditRecord::Kind::kAccept);
  EXPECT_EQ(all.front().confidence_version, catalog_.confidence_version());
}

TEST_F(QueryServiceTest, ProfiledRequestBypassesCacheButPopulatesIt) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle sam = *service->OpenSession("sam", "analysis");

  QueryOutcome profiled = *service->Submit(
      sam, {.sql = kCandidateQuery, .required_fraction = 0.0, .profile = true});
  ASSERT_NE(profiled.profile, nullptr);
  EXPECT_FALSE(profiled.profile->nodes.empty());
  EXPECT_EQ(profiled.profile->mode,
            ExecutionModeToString(engine_->execution_mode));
  // Bypassing the lookup means no hit/miss was counted...
  EXPECT_EQ(service->stats().cache_hits, 0u);
  EXPECT_EQ(service->stats().cache_misses, 0u);

  // ...but the evaluation was inserted: the next unprofiled request hits,
  // and a cache hit has no execution to profile.
  QueryOutcome warm =
      *service->Submit(sam, {.sql = kCandidateQuery, .required_fraction = 0.0});
  EXPECT_EQ(service->stats().cache_hits, 1u);
  EXPECT_EQ(warm.profile, nullptr);
  EXPECT_EQ(warm.released.size(), profiled.released.size());
}

TEST_F(QueryServiceTest, PolicyFilterSpanCarriesAuditAnnotations) {
  auto service = MakeService({.num_workers = 0});
  SessionHandle mary = *service->OpenSession("mary", "investment");
  QueryOutcome outcome =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  std::optional<Trace> trace = service->tracer()->Get(outcome.trace_id);
  ASSERT_TRUE(trace.has_value());
  for (const Span& span : trace->spans) {
    if (span.name != "policy-filter") continue;
    std::vector<std::string> keys;
    for (const auto& [k, v] : span.annotations) keys.push_back(k);
    EXPECT_NE(std::find(keys.begin(), keys.end(), "beta"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "released"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "blocked"), keys.end());
    return;
  }
  FAIL() << "no policy-filter span in:\n" << trace->ToString();
}

TEST_F(QueryServiceTest, RegistryCountersMatchSnapshot) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  ASSERT_TRUE(service->Submit(sam, {.sql = kCandidateQuery}).ok());
  ASSERT_TRUE(service->Submit(sam, {.sql = kCandidateQuery}).ok());

  // The snapshot's cache fields read the same registry instruments.
  ServiceStatsSnapshot snapshot = service->stats();
  TelemetryRegistry* registry = service->telemetry();
  EXPECT_EQ(registry->GetCounter("pcqe_cache_hits_total")->value(),
            snapshot.cache_hits);
  EXPECT_EQ(snapshot.cache_hits, 1u);
  ServiceCounts counts = ReadServiceCounts(*service);
  EXPECT_EQ(counts.submitted, 2u);
  EXPECT_EQ(counts.served, 2u);
  EXPECT_EQ(counts.latency_count, 2u);

  std::string text = service->RenderMetricsText();
  EXPECT_NE(text.find("pcqe_service_requests_served_total 2"), std::string::npos);
  EXPECT_NE(text.find("pcqe_engine_queries_total"), std::string::npos);
  EXPECT_NE(text.find("pcqe_solver_nodes_expanded_total"), std::string::npos);
  EXPECT_NE(text.find("pcqe_service_latency_us_bucket"), std::string::npos);

  std::string json = service->MetricsJson();
  EXPECT_NE(json.find("\"pcqe_service_requests_served_total\":2"),
            std::string::npos);
}

TEST_F(QueryServiceTest, LatencyHistogramHasOneTwoFiveBucketsPerDecade) {
  auto service = MakeService({.num_workers = 1});
  EXPECT_NE(service->MetricsJson().find(
                "\"pcqe_service_latency_us\":{\"bounds\":[100,200,500,1000,2000,5000,"
                "10000,20000,50000,100000,200000,500000,1000000,2000000,5000000,"
                "10000000]"),
            std::string::npos);
}

TEST_F(QueryServiceTest, EngineCountsEachDecisionOnce) {
  // Released/blocked rows, proposals, partial and deadline-stopped solves
  // are the engine's facts: the service exports them only through the
  // engine's counters, never under names of its own.
  auto service = MakeService({.num_workers = 1});
  SessionHandle mary = *service->OpenSession("mary", "investment");
  size_t rows = 0;
  for (int i = 0; i < 2; ++i) {
    Result<QueryOutcome> outcome =
        service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->proposal.needed);
    rows += outcome->intermediate.rows.size();
  }
  TelemetryRegistry* registry = service->telemetry();
  EXPECT_EQ(registry->GetCounter("pcqe_engine_rows_released_total")->value() +
                registry->GetCounter("pcqe_engine_rows_blocked_total")->value(),
            rows);
  EXPECT_EQ(registry->GetCounter("pcqe_engine_proposals_total")->value(), 2u);

  std::string text = service->RenderMetricsText();
  for (const char* name :
       {"pcqe_service_rows_released_total", "pcqe_service_rows_blocked_total",
        "pcqe_service_proposals_total", "pcqe_service_partial_results_total",
        "pcqe_service_solve_deadline_exceeded_total"}) {
    EXPECT_EQ(text.find(name), std::string::npos) << name;
  }
}

TEST_F(QueryServiceTest, AdaptiveSolverLanesExportedAsGauge) {
  auto service = MakeService({.num_workers = 1});
  SessionHandle mary = *service->OpenSession("mary", "investment");
  // required_fraction 1.0 forces a shortfall and thus a solver run.
  ASSERT_TRUE(
      service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0}).ok());
  Gauge* lanes = service->telemetry()->GetGauge("pcqe_service_solver_lanes");
  EXPECT_GE(lanes->value(), 1);
  // A lone in-flight request gets the full hardware budget (capped by the
  // engine's own setting).
  size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  EXPECT_LE(lanes->value(), static_cast<int64_t>(hw));
}

TEST_F(QueryServiceTest, SharedRegistryAcrossEngineAndService) {
  TelemetryRegistry registry;
  Tracer tracer(8);
  engine_->AttachTelemetry(&registry, &tracer);
  ServiceOptions options;
  options.num_workers = 1;
  options.registry = &registry;
  options.tracer = &tracer;
  auto service = MakeService(options);
  EXPECT_EQ(service->telemetry(), &registry);
  EXPECT_EQ(service->tracer(), &tracer);
  SessionHandle sam = *service->OpenSession("sam", "analysis");
  ASSERT_TRUE(service->Submit(sam, {.sql = kCandidateQuery}).ok());
  EXPECT_EQ(registry.GetCounter("pcqe_engine_queries_total")->value(), 1u);
  EXPECT_EQ(tracer.total_recorded(), 1u);
}

TEST_F(QueryServiceTest, DeadlinedSubmitReturnsFeasiblePartialInTime) {
  // The headline anytime contract: a 50ms deadline on a branch-and-bound
  // instance far too large to finish must come back promptly with a
  // feasible plan tagged partial — the primed greedy incumbent at worst.
  //
  // 30 base tuples at confidence 0.1 behind six DISTINCT groups, β = 0.9,
  // δ = 0.02: the exact search space is astronomically larger than 50ms,
  // while one greedy pass is microseconds.
  Table* metrics = *catalog_.CreateTable(
      "Metrics", Schema({{"company", DataType::kString, ""},
                         {"score", DataType::kDouble, ""}}));
  for (int group = 0; group < 6; ++group) {
    for (int row = 0; row < 5; ++row) {
      ASSERT_TRUE(metrics
                      ->Insert({Value::String("corp" + std::to_string(group)),
                                Value::Double(group * 10.0 + row)},
                               0.1, *MakeLinearCost(100.0))
                      .ok());
    }
  }
  engine_->improvement_delta = 0.02;

  auto service = MakeService({.num_workers = 1});
  SessionHandle amy = *service->OpenSession("amy", "audit");
  ServiceRequest request;
  request.sql = "SELECT DISTINCT company FROM metrics";
  request.required_fraction = 1.0;
  request.solver = SolverKind::kHeuristic;
  request.timeout_ms = 50;

  auto started = std::chrono::steady_clock::now();
  Result<QueryOutcome> outcome = service->Submit(amy, request);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  ASSERT_TRUE(outcome->proposal.needed);
  EXPECT_TRUE(outcome->proposal.feasible);
  EXPECT_TRUE(outcome->proposal.partial);
  EXPECT_EQ(outcome->proposal.stop, SolveStop::kDeadline);
  // ~2x the deadline, plus generous scheduler/sanitizer headroom: the
  // solver polls the clock every 1024 node expansions, so even slowed-down
  // builds stop well inside this bound.
  EXPECT_LE(elapsed_ms, 300.0);

  EXPECT_GE(service->telemetry()->GetCounter("pcqe_engine_partial_total")->value(), 1u);
  EXPECT_GE(
      service->telemetry()->GetCounter("pcqe_engine_deadline_exceeded_total")->value(), 1u);
}

TEST_F(QueryServiceTest, QueueOverflowLogsAWarning) {
  CapturingLogSink capture;
  LogSink* previous = LogConfig::set_sink(&capture);
  {
    // Zero workers: queued requests never drain, so the second submission
    // overflows a capacity-1 queue.
    auto service = MakeService({.num_workers = 0, .queue_capacity = 1});
    SessionHandle sam = *service->OpenSession("sam", "analysis");
    auto first = service->SubmitAsync(sam, {.sql = kCandidateQuery});
    ASSERT_TRUE(first.ok());
    auto second = service->SubmitAsync(sam, {.sql = kCandidateQuery});
    EXPECT_TRUE(second.status().IsResourceExhausted());
  }
  LogConfig::set_sink(previous);
  EXPECT_TRUE(capture.Contains("queue full"));
}

std::string FreshServiceDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST_F(QueryServiceTest, DurableAcceptSurvivesServiceRestart) {
  std::string dir = FreshServiceDir("svc_durable_restart");
  ServiceOptions options;
  options.num_workers = 1;
  options.durability.dir = dir;

  uint64_t version = 0;
  double improved = 0.0;
  {
    auto service = MakeService(options);
    ASSERT_TRUE(service->durability_status().ok())
        << service->durability_status().ToString();
    SessionHandle mary = *service->OpenSession("mary", "investment");
    QueryOutcome blocked =
        *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
    ASSERT_TRUE(blocked.proposal.needed);
    ASSERT_TRUE(service->Accept(blocked.proposal).ok());
    QueryOutcome after =
        *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
    EXPECT_EQ(after.released.size(), 1u);
    version = catalog_.confidence_version();
    improved = catalog_.FindTuple(id03_)->confidence();
  }  // service shuts down; the "machine" below restarts from disk alone

  // A fresh catalog + engine + service over the same directory recovers the
  // accepted state during construction and serves the released row on the
  // very first request.
  Catalog revived_catalog;
  RoleGraph roles;
  ASSERT_TRUE(roles.AddRole("Manager").ok());
  ASSERT_TRUE(roles.AddUser("mary").ok());
  ASSERT_TRUE(roles.AssignRole("mary", "Manager").ok());
  PolicyStore policies;
  ASSERT_TRUE(policies.AddPolicy(roles, {"Manager", "investment", 0.06}).ok());
  PcqeEngine revived_engine(&revived_catalog, std::move(roles), std::move(policies));
  QueryService revived(&revived_engine, options);
  ASSERT_TRUE(revived.durability_status().ok())
      << revived.durability_status().ToString();
  EXPECT_EQ(revived_catalog.confidence_version(), version);
  EXPECT_EQ(revived_catalog.FindTuple(id03_)->confidence(), improved);
  SessionHandle mary = *revived.OpenSession("mary", "investment");
  QueryOutcome served =
      *revived.Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  EXPECT_EQ(served.released.size(), 1u);
  EXPECT_FALSE(served.proposal.needed);
}

TEST_F(QueryServiceTest, CheckpointAndRecoverRoundTripThroughService) {
  ServiceOptions options;
  options.num_workers = 1;
  options.durability.dir = FreshServiceDir("svc_checkpoint");
  auto service = MakeService(options);
  ASSERT_TRUE(service->durability_status().ok());
  SessionHandle mary = *service->OpenSession("mary", "investment");
  QueryOutcome blocked =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  ASSERT_TRUE(service->Accept(blocked.proposal).ok());
  uint64_t version = catalog_.confidence_version();

  ASSERT_TRUE(service->Checkpoint().ok());
  ASSERT_TRUE(service->Recover().ok());
  EXPECT_EQ(catalog_.confidence_version(), version);
  QueryOutcome served =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  EXPECT_EQ(served.released.size(), 1u);
}

TEST_F(QueryServiceTest, RecoverClearsStaleVersionKeyedCacheEntries) {
  // The cache keys evaluations on (SQL, confidence_version). Recovery can
  // rewind the version and a later write can re-reach the *same* number
  // with different confidences — a pre-recovery entry served then would be
  // silently wrong. Recover() must drop the whole cache.
  ServiceOptions options;
  options.num_workers = 1;
  options.durability.dir = FreshServiceDir("svc_cache_recovery");
  auto service = MakeService(options);
  ASSERT_TRUE(service->durability_status().ok());
  SessionHandle mary = *service->OpenSession("mary", "investment");

  // A durable baseline: one logged accept.
  QueryOutcome blocked =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  ASSERT_TRUE(blocked.proposal.needed);
  ASSERT_TRUE(service->Accept(blocked.proposal).ok());
  uint64_t logged_version = catalog_.confidence_version();

  // An out-of-band, *unlogged* confidence write (version N = logged + 1),
  // then a submission that caches its evaluation keyed at N.
  ASSERT_TRUE(catalog_.SetConfidence(id03_, 0.9).ok());
  QueryOutcome poisoned =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 0.0});
  uint64_t poisoned_version = catalog_.confidence_version();
  ASSERT_EQ(poisoned_version, logged_version + 1);

  // Recovery rewinds to the logged history (the unlogged write is exactly
  // the kind of state a crash loses)...
  ASSERT_TRUE(service->Recover().ok());
  ASSERT_EQ(catalog_.confidence_version(), logged_version);

  // ...and a different unlogged write re-reaches version N with a
  // *different* confidence.
  ASSERT_TRUE(catalog_.SetConfidence(id03_, 0.2).ok());
  ASSERT_EQ(catalog_.confidence_version(), poisoned_version);

  size_t misses_before = service->stats().cache_misses;
  QueryOutcome fresh =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 0.0});
  // Must be a miss — the stale entry cached at the same version number is
  // gone — and the evaluation must reflect 0.2, not the cached 0.9.
  EXPECT_EQ(service->stats().cache_misses, misses_before + 1);
  ASSERT_EQ(fresh.intermediate.rows.size(), poisoned.intermediate.rows.size());
  bool differs = false;
  for (size_t i = 0; i < fresh.intermediate.rows.size(); ++i) {
    differs |= fresh.intermediate.rows[i].confidence !=
               poisoned.intermediate.rows[i].confidence;
  }
  EXPECT_TRUE(differs);

  // The warm path stays correct after recovery: an immediate re-submission
  // hits the fresh entry and serves the same confidences.
  size_t hits_before = service->stats().cache_hits;
  QueryOutcome warm =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 0.0});
  EXPECT_EQ(service->stats().cache_hits, hits_before + 1);
  ASSERT_EQ(warm.intermediate.rows.size(), fresh.intermediate.rows.size());
  for (size_t i = 0; i < warm.intermediate.rows.size(); ++i) {
    EXPECT_EQ(warm.intermediate.rows[i].confidence,
              fresh.intermediate.rows[i].confidence);
  }
}

TEST_F(QueryServiceTest, RecoverInvalidatesConfidenceZoneMaps) {
  // WAL replay restores the *logged* version counter, and later unlogged
  // writes can re-reach the number a pre-recovery zone map was built at —
  // the (rows, version) validity check alone would then trust bounds
  // describing vanished state and skip a chunk that now holds a releasable
  // row. Recover() must drop the confidence index along with the cache.
  ServiceOptions options;
  options.num_workers = 1;
  options.durability.dir = FreshServiceDir("svc_index_recovery");
  auto service = MakeService(options);
  ASSERT_TRUE(service->durability_status().ok());
  SessionHandle amy = *service->OpenSession("amy", "audit");  // β = 0.9
  constexpr const char* kSafeQuery = "SELECT company FROM proposal";

  // An unlogged write, then a pushed query: the zone map is built at
  // version 1 with every confidence ≤ β, so the whole table is skipped.
  ASSERT_TRUE(catalog_.SetConfidence(id03_, 0.35).ok());
  ASSERT_EQ(catalog_.confidence_version(), 1u);
  QueryOutcome skipped =
      *service->Submit(amy, {.sql = kSafeQuery, .required_fraction = 0.0});
  EXPECT_TRUE(skipped.intermediate.pushed_down);
  EXPECT_TRUE(skipped.released.empty());
  EXPECT_GT(skipped.intermediate.vec_stats.pruned_chunks, 0u);

  // Crash-recover (rewinds to version 0), then a different unlogged write
  // re-reaches version 1 — this time with a row above β.
  ASSERT_TRUE(service->Recover().ok());
  ASSERT_EQ(catalog_.confidence_version(), 0u);
  ASSERT_TRUE(catalog_.SetConfidence(id03_, 0.95).ok());
  ASSERT_EQ(catalog_.confidence_version(), 1u);

  // A stale-but-validating map would skip the chunk and lose the row; the
  // rebuilt one scans per-row and releases it.
  QueryOutcome released =
      *service->Submit(amy, {.sql = kSafeQuery, .required_fraction = 0.0});
  EXPECT_EQ(released.released.size(), 1u);
  EXPECT_EQ(released.intermediate.vec_stats.pruned_chunks, 0u);
}

TEST_F(QueryServiceTest, FailedDurabilityOpenDisablesAcceptsNotReads) {
  // Point the storage directory at a regular file: Open must fail.
  std::string dir = FreshServiceDir("svc_durable_broken");
  { std::ofstream(dir) << "not a directory"; }
  ServiceOptions options;
  options.num_workers = 1;
  options.durability.dir = dir + "/sub";
  auto service = MakeService(options);
  EXPECT_FALSE(service->durability_status().ok());

  // Reads still serve; accepts are refused with the open error.
  SessionHandle mary = *service->OpenSession("mary", "investment");
  QueryOutcome blocked =
      *service->Submit(mary, {.sql = kCandidateQuery, .required_fraction = 1.0});
  ASSERT_TRUE(blocked.proposal.needed);
  Status refused = service->Accept(blocked.proposal);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(catalog_.confidence_version(), 0u);
  EXPECT_TRUE(service->Checkpoint().ok() == false);
  EXPECT_TRUE(service->Recover().ok() == false);
}

}  // namespace
}  // namespace pcqe
