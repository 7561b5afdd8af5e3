// Multi-threaded stress test for the service layer, designed to run under
// ThreadSanitizer (scripts/analyze.sh builds it with -DPCQE_SANITIZE=thread):
// many concurrent sessions hammer overlapping queries while a writer thread
// interleaves AcceptProposal increments, exercising the reader-writer
// catalog lock, the version-keyed cache and the counters simultaneously.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/query_service.h"
#include "service_counts.h"

namespace pcqe {
namespace {

constexpr const char* kCandidateQuery =
    "SELECT ci.company, ci.income "
    "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
    "JOIN companyinfo AS ci ON c.company = ci.company";

class ServiceStressTest : public ::testing::Test {
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
    ASSERT_TRUE(roles.AddRole("Secretary").ok());
    ASSERT_TRUE(roles.AddRole("Manager").ok());
    PolicyStore policies;
    ASSERT_TRUE(policies.AddPolicy(roles, {"Secretary", "analysis", 0.05}).ok());
    ASSERT_TRUE(policies.AddPolicy(roles, {"Manager", "investment", 0.06}).ok());
    // Ten subjects so the test exceeds the eight-concurrent-session bar.
    for (int u = 0; u < 10; ++u) {
      std::string user = "user" + std::to_string(u);
      ASSERT_TRUE(roles.AddUser(user).ok());
      ASSERT_TRUE(
          roles.AssignRole(user, u % 2 == 0 ? "Secretary" : "Manager").ok());
    }
    engine_ = std::make_unique<PcqeEngine>(&catalog_, std::move(roles),
                                           std::move(policies));
  }

  Catalog catalog_;
  std::unique_ptr<PcqeEngine> engine_;
};

TEST_F(ServiceStressTest, ConcurrentSessionsWithInterleavedWrites) {
  QueryService service(engine_.get(),
                       {.num_workers = 4, .queue_capacity = 256, .cache_capacity = 32});

  // Open ten sessions (five Secretaries under β=0.05, five Managers under
  // β=0.06) before the traffic starts.
  std::vector<SessionHandle> sessions;
  for (int u = 0; u < 10; ++u) {
    std::string user = "user" + std::to_string(u);
    sessions.push_back(*service.OpenSession(
        user, u % 2 == 0 ? "analysis" : "investment"));
  }
  ASSERT_EQ(service.stats().active_sessions, 10u);

  const std::vector<std::string> query_mix = {
      kCandidateQuery,
      "SELECT company FROM proposal WHERE funding < 1000000",
      "SELECT company, income FROM companyinfo",
      "SELECT funding FROM proposal WHERE funding > 100000",
  };

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> overload_count{0};
  std::atomic<uint64_t> accepted_writes{0};

  {
    // Client threads: each drives one session with a rotating query mix.
    std::vector<std::jthread> clients;
    clients.reserve(sessions.size() + 2);
    for (size_t s = 0; s < sessions.size(); ++s) {
      clients.emplace_back([&, s] {
        const SessionHandle& session = sessions[s];
        for (int i = 0; i < 40; ++i) {
          ServiceRequest request;
          request.sql = query_mix[(s + static_cast<size_t>(i)) % query_mix.size()];
          request.required_fraction = 0.0;  // read path only on this thread
          Result<QueryOutcome> outcome = service.Submit(session, request);
          if (outcome.ok()) {
            ok_count.fetch_add(1, std::memory_order_relaxed);
          } else if (outcome.status().IsResourceExhausted()) {
            overload_count.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << outcome.status().ToString();
          }
        }
      });
    }

    // Audit reader thread: snapshots and renders the compliance ring while
    // workers append to it — TSan exercises the Record/Snapshot lock pair.
    clients.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        std::vector<AuditRecord> records = service.audit()->Snapshot();
        for (const AuditRecord& r : records) {
          if (r.id == 0) ADD_FAILURE() << "audit record without an id";
        }
        std::string json = service.audit()->RenderJson();
        if (json.empty()) ADD_FAILURE() << "empty audit export";
        std::this_thread::yield();
      }
    });

    // Writer thread: keeps demanding full release and accepting whatever
    // proposal comes back, interleaving catalog writes with the readers.
    clients.emplace_back([&] {
      SessionHandle writer = *service.OpenSession("user1", "investment");
      for (int i = 0; i < 10; ++i) {
        Result<QueryOutcome> outcome = service.Submit(
            writer, {.sql = kCandidateQuery, .required_fraction = 1.0});
        if (!outcome.ok()) {  // overload is fine here
          overload_count.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ok_count.fetch_add(1, std::memory_order_relaxed);
        if (!outcome->proposal.needed) break;  // confidence already improved
        // A concurrent Accept may have raced this proposal stale; both
        // outcomes (applied or rejected as no-longer-an-increase) are legal.
        if (service.Accept(outcome->proposal).ok()) {
          accepted_writes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }  // jthreads join

  // The writer must have pushed at least one increment through, and the
  // improved confidence must now release the candidate row to Managers.
  EXPECT_GE(accepted_writes.load(), 1u);
  EXPECT_GT(catalog_.confidence_version(), 0u);
  QueryOutcome final_outcome = *service.Submit(
      sessions[1], {.sql = kCandidateQuery, .required_fraction = 1.0});
  EXPECT_EQ(final_outcome.released.size(), 1u);

  // Counter reconciliation once the system is idle.
  ServiceCounts counts = ReadServiceCounts(service);
  EXPECT_EQ(counts.submitted,
            counts.served + counts.failed + counts.expired + counts.shutdown_dropped);
  EXPECT_EQ(counts.served, ok_count.load() + 1 /* final_outcome */);
  EXPECT_EQ(counts.failed, 0u);
  EXPECT_EQ(counts.rejected, overload_count.load());
  EXPECT_EQ(counts.latency_count, counts.served + counts.failed);
  ServiceStatsSnapshot stats = service.stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);

  // Every served decision appended an audit record (plus one per Accept
  // attempt), so the ring's lifetime count is at least the served count.
  EXPECT_GE(service.audit()->total_recorded(), counts.served);

  service.Shutdown();
}

TEST_F(ServiceStressTest, ParallelSubmitAsyncFloodRespectsAdmission) {
  QueryService service(engine_.get(),
                       {.num_workers = 2, .queue_capacity = 8, .cache_capacity = 16});
  SessionHandle session = *service.OpenSession("user0", "analysis");

  // Several producers flood a tiny queue; every future must resolve and
  // every submission must be either served or cleanly rejected.
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> resolved{0};
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        std::vector<std::future<Result<QueryOutcome>>> futures;
        for (int i = 0; i < 50; ++i) {
          auto future = service.SubmitAsync(
              session, {.sql = "SELECT company FROM proposal"});
          if (future.ok()) {
            futures.push_back(std::move(*future));
          } else {
            ASSERT_TRUE(future.status().IsResourceExhausted());
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (auto& future : futures) {
          ASSERT_TRUE(future.get().ok());
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  ServiceCounts counts = ReadServiceCounts(service);
  EXPECT_EQ(resolved.load() + rejected.load(), 200u);
  EXPECT_EQ(counts.submitted, resolved.load());
  EXPECT_EQ(counts.rejected, rejected.load());
  EXPECT_EQ(counts.served, resolved.load());
}

}  // namespace
}  // namespace pcqe
