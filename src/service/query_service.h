// Copyright (c) PCQE contributors.
// QueryService: the PCQE engine as a multi-client server-in-a-library.
//
// The paper's framework (Figure 1) is a serving architecture — subjects
// submit ⟨Q, pu, perc⟩ requests, the system evaluates, policy-filters and
// proposes increments. This module adds the serving substrate around the
// single-threaded `PcqeEngine`:
//
//   * a fixed-size pool of `std::jthread` workers over a bounded request
//     queue with admission control (one `kResourceExhausted` when the queue
//     is full or the service is shut down) and per-request deadlines that
//     propagate into the engine's solvers (anytime partial results; see
//     `QueryRequest::deadline`);
//   * sessions (session.h) that authenticate once and pin β;
//   * a shared `ConfidenceResultCache` (result_cache.h) so concurrent
//     sessions reuse one lineage evaluation per distinct query;
//   * request counters and a latency histogram (`pcqe_service_*`) in the
//     telemetry registry, read through `telemetry()`.
//
// Concurrency protocol (lock order: engine catalog_mu -> cache-internal
// mutex; queue_mu_ is never held together with either):
//
//   * The engine's `catalog_mu()` is a reader–writer lock over all
//     engine/catalog state. Workers execute the engine's const read path
//     under a shared lock; `Accept` — the only mutator, wrapping
//     `PcqeEngine::AcceptProposal` — takes it exclusively and implicitly
//     invalidates the cache by bumping `Catalog::confidence_version()`.
//     Under clang the engine's `PCQE_REQUIRES*` annotations make this
//     discipline compile-checked (see common/annotations.h).
//   * Role/policy *configuration* must be complete before requests are
//     submitted concurrently (the shell's `.serve` mode obeys this: its REPL
//     is sequential, so config commands never overlap an in-flight request).

#ifndef PCQE_SERVICE_QUERY_SERVICE_H_
#define PCQE_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "engine/pcqe_engine.h"
#include "service/result_cache.h"
#include "service/session.h"
#include "storage/storage_manager.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace pcqe {

/// \brief Sizing and policy knobs for a `QueryService`.
struct ServiceOptions {
  /// Worker threads. 0 is allowed for tests: requests queue up and are only
  /// drained (as shutdown drops) by `Shutdown`; `Submit` executes inline.
  size_t num_workers = 4;
  /// Admission bound: submissions beyond this many queued requests are
  /// rejected with `kResourceExhausted`.
  size_t queue_capacity = 64;
  /// Entry bound of the confidence-result cache; 0 disables caching.
  size_t cache_capacity = 128;
  /// Metrics registry and trace ring the service publishes to. Borrowed
  /// (must outlive the service); null means the service owns private ones
  /// (a 64-trace ring), reachable via `telemetry()` / `tracer()`. The
  /// engine, if it has no telemetry attached yet, is attached to the
  /// service's.
  TelemetryRegistry* registry = nullptr;
  Tracer* tracer = nullptr;
  /// Compliance audit log the engine appends policy decisions to. Borrowed
  /// (must outlive the service); null means the service owns a private
  /// 256-record one, reachable via `audit()`. The engine, if it has no
  /// audit log attached yet, is attached to the service's.
  AuditLog* audit = nullptr;
  /// Durable catalog (src/storage/). With a non-empty `durability.dir` the
  /// service opens (and, when a manifest exists, *recovers*) the directory
  /// on construction and every `Accept` becomes a WAL-logged transaction.
  /// An open/recovery failure is fail-safe: the service still serves
  /// reads, but `Accept` returns the stored failure instead of mutating a
  /// catalog it could not make durable (see `durability_status()`).
  DurabilityOptions durability = {};
};

/// \brief Point-in-time view of the service components that live outside
/// the telemetry registry: the result cache, the queue and the session
/// table. Request counts and latency are registry instruments
/// (`pcqe_service_*`), read through `QueryService::telemetry()`.
struct ServiceStatsSnapshot {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
  size_t queue_depth = 0;  ///< Requests waiting at snapshot time.
  size_t active_sessions = 0;

  /// Hit fraction over all cache lookups; 0 when none happened yet.
  double cache_hit_rate() const {
    uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }

  /// Two-line human-readable rendering (for the shell's `.stats`).
  std::string ToString() const;
};

/// \brief One query submission through a session.
struct ServiceRequest {
  std::string sql;
  /// perc/θ: fraction of the query's results the subject needs released.
  double required_fraction = 0.5;
  SolverKind solver = SolverKind::kAuto;
  /// Deadline measured from submission; a request still queued when it
  /// expires completes with `kResourceExhausted`, and a request that reaches
  /// the engine carries the remaining budget into the strategy solve (on
  /// expiry mid-solve the outcome's proposal is the solver's best anytime
  /// plan, tagged `partial`). 0 = no deadline.
  int64_t timeout_ms = 0;
  /// Optional caller-owned cancellation flag, forwarded into the engine's
  /// solvers; must outlive the request's future.
  const CancelToken* cancel = nullptr;
  /// `EXPLAIN ANALYZE`: collect a per-operator profile for this request
  /// (attached to `QueryOutcome::profile`). A profiled request bypasses the
  /// result cache's lookup — a cache hit executes nothing, so there would be
  /// no operator tree to report — but still populates it for later requests.
  bool profile = false;
  /// Opt-out knob for β pushdown (see `QueryRequest::pushdown`). When the
  /// engine decides pushdown applies, the cache key forks on the resolved β
  /// so a pushed (partial) evaluation can never serve an unpushed request.
  bool pushdown = true;
};

/// \brief Concurrent, policy-compliant query service over one engine.
///
/// The engine (and its catalog) must outlive the service. All public methods
/// are thread-safe.
class QueryService {
 public:
  QueryService(PcqeEngine* engine, ServiceOptions options);

  /// Drains and stops the workers (`Shutdown`).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Authenticates ⟨user, purpose⟩ and opens a session (see SessionManager).
  [[nodiscard]] Result<SessionHandle> OpenSession(const std::string& user,
                                                  const std::string& purpose);

  /// Closes a session. Requests already queued under it still complete.
  [[nodiscard]] Status CloseSession(uint64_t session_id);

  /// Enqueues a request and returns a future for its outcome. Fails
  /// immediately with `kResourceExhausted` when the queue is full or the
  /// service is shut down.
  [[nodiscard]] Result<std::future<Result<QueryOutcome>>> SubmitAsync(
      const SessionHandle& session, ServiceRequest request);

  /// Blocking submission: `SubmitAsync(...)->get()` when there are workers;
  /// with `num_workers == 0` the same request processing runs on the
  /// caller's thread (bypassing queue admission, still counted).
  [[nodiscard]] Result<QueryOutcome> Submit(const SessionHandle& session,
                                            ServiceRequest request);

  /// Applies an improvement proposal under the engine's exclusive catalog
  /// lock. The confidence-version bump makes every cached evaluation stale.
  /// With durability configured the accept is WAL-logged (and synced)
  /// before any confidence changes; a durability failure rejects it whole.
  [[nodiscard]] Status Accept(const StrategyProposal& proposal);

  /// Durability entry points; `kInvalidArgument` when `ServiceOptions`
  /// configured no storage. `Checkpoint` snapshots the catalog and rotates
  /// the WAL under a shared catalog hold; `Recover` rebuilds the catalog
  /// from disk under an exclusive hold (discarding non-durable state) and
  /// drops every cached evaluation — entries keyed on the pre-recovery
  /// version must never be served against replayed confidences.
  [[nodiscard]] Status Checkpoint();
  [[nodiscard]] Status Recover();

  /// OK while durable storage (if configured) is healthy; otherwise the
  /// open/recovery failure that `Accept` now returns.
  [[nodiscard]] Status durability_status() const { return durability_status_; }

  /// The storage manager behind this service (null when not configured).
  StorageManager* storage() const { return storage_; }

  /// Stops admission, lets workers drain the queue, joins them, and fails
  /// any request still queued (0-worker services) with
  /// `kResourceExhausted`. Idempotent.
  void Shutdown();

  /// Cache, queue and session state right now. Request counters live in
  /// `telemetry()`: once the service is idle, `submitted == served + failed
  /// + expired + shutdown_dropped`, refusals count only as `rejected`, and
  /// the latency histogram holds one observation per served or failed
  /// request.
  [[nodiscard]] ServiceStatsSnapshot stats() const;

  /// Requests currently waiting for a worker.
  [[nodiscard]] size_t queue_depth() const;

  /// Drops every cached evaluation and confidence zone map (after
  /// out-of-band catalog edits such as bulk loads, which do not bump the
  /// confidence version — exactly the edits a version-validated index
  /// cannot detect).
  void InvalidateCache() {
    cache_.Clear();
    engine_->confidence_index()->Invalidate();
  }

  size_t num_workers() const { return workers_.size(); }

  /// The registry / trace ring this service publishes to (service-owned
  /// unless supplied via `ServiceOptions`).
  TelemetryRegistry* telemetry() const { return registry_; }
  Tracer* tracer() const { return tracer_; }

  /// The compliance audit log the engine records into (service-owned unless
  /// supplied via `ServiceOptions`). Never null after construction.
  AuditLog* audit() const { return audit_; }

  /// Prometheus-style text exposition of the registry, with the service's
  /// point-in-time gauges (queue depth, sessions, in-flight requests,
  /// cache entries, solver lanes, thread-pool pressure) refreshed first.
  [[nodiscard]] std::string RenderMetricsText();

  /// Same refresh, JSON dump (bench conventions).
  [[nodiscard]] std::string MetricsJson();

 private:
  struct PendingRequest {
    SessionHandle session;
    ServiceRequest request;
    std::chrono::steady_clock::time_point enqueued;
    /// Infinite when the request has no timeout; also the solve budget.
    Deadline deadline;
    std::promise<Result<QueryOutcome>> promise;
  };

  void WorkerLoop(std::stop_token stop);

  /// Wait predicate for WorkerLoop: invoked by `queue_cv_.wait` with
  /// `queue_mu_` held, through a release/re-acquire cycle the analysis
  /// cannot model, so the check is opted out instead of annotated
  /// PCQE_REQUIRES(queue_mu_).
  bool HasPendingRequest() const PCQE_NO_THREAD_SAFETY_ANALYSIS {
    return !queue_.empty();
  }

  /// Executes one request under the shared catalog lock: cache lookup,
  /// evaluation on miss, per-subject completion (the engine counts the
  /// decision itself). `enqueued` is the trace origin (submission time), so
  /// the recorded trace duration covers queue wait too; `deadline` is the
  /// remaining budget handed to the engine's strategy solve.
  Result<QueryOutcome> Execute(const SessionHandle& session,
                               const ServiceRequest& request,
                               std::chrono::steady_clock::time_point enqueued,
                               Deadline deadline);

  /// Stamps a request with its submission time and deadline.
  static PendingRequest MakePending(const SessionHandle& session, ServiceRequest request);

  /// Runs one admitted request end to end (deadline check, execution,
  /// served/failed count, latency) and fulfills its promise — on a worker,
  /// or on the caller's thread when the service has no workers.
  void Process(PendingRequest pending);

  /// Updates the point-in-time gauges from live component state.
  void RefreshGauges();

  PcqeEngine* engine_;
  ServiceOptions options_;

  /// Owned fallbacks when `ServiceOptions` supplies no registry/tracer.
  /// Declared before every member that caches instrument pointers.
  std::unique_ptr<TelemetryRegistry> owned_registry_;
  std::unique_ptr<Tracer> owned_tracer_;
  std::unique_ptr<AuditLog> owned_audit_;
  TelemetryRegistry* registry_;  // never null after construction
  Tracer* tracer_;               // never null after construction
  AuditLog* audit_;              // never null after construction

  /// Service-owned storage when `ServiceOptions::durability` asked for it
  /// and the engine had none attached; `storage_` also covers the case of
  /// a manager attached to the engine before construction. Both set only
  /// in the constructor, immutable afterwards — hence readable lock-free.
  std::unique_ptr<StorageManager> owned_storage_;
  StorageManager* storage_ = nullptr;
  Status durability_status_ = Status::OK();

  SessionManager sessions_;
  ConfidenceResultCache cache_;

  /// Requests currently inside `Execute` (drives the adaptive lane policy).
  std::atomic<size_t> active_requests_{0};

  /// Cached instrument pointers, registered in the constructor. Counters
  /// and the histogram take relaxed increments on the request path; the
  /// gauges are refreshed by `RefreshGauges`.
  struct ServiceMetrics {
    Counter* submitted = nullptr;
    Counter* served = nullptr;
    Counter* failed = nullptr;
    Counter* rejected = nullptr;
    Counter* expired = nullptr;
    Counter* shutdown_dropped = nullptr;
    Histogram* latency_us = nullptr;
    Gauge* queue_depth = nullptr;
    Gauge* active_sessions = nullptr;
    Gauge* active_requests = nullptr;
    Gauge* cache_entries = nullptr;
    Gauge* solver_lanes = nullptr;
    Gauge* pool_queue_depth = nullptr;
    Gauge* pool_busy_workers = nullptr;
  };
  ServiceMetrics metrics_;

  mutable Mutex queue_mu_;
  std::condition_variable_any queue_cv_;
  std::deque<PendingRequest> queue_ PCQE_GUARDED_BY(queue_mu_);
  bool accepting_ PCQE_GUARDED_BY(queue_mu_) = true;

  std::vector<std::jthread> workers_;
};

}  // namespace pcqe

#endif  // PCQE_SERVICE_QUERY_SERVICE_H_
