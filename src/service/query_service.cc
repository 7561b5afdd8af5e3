#include "service/query_service.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace pcqe {

namespace {

using Clock = std::chrono::steady_clock;

/// Capacities of the trace and audit rings a service owns when
/// `ServiceOptions` injects none.
constexpr size_t kOwnedTraceCapacity = 64;
constexpr size_t kOwnedAuditCapacity = 256;

/// Bounds of the end-to-end latency histogram (microseconds): 1-2-5 per
/// decade from 100 µs to 10 s, with the histogram's +Inf bucket above.
constexpr std::array<double, 16> kLatencyBoundsUs = {
    100, 200, 500, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7};

uint64_t ElapsedUs(Clock::time_point since) {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - since)
             .count()));
}

}  // namespace

QueryService::QueryService(PcqeEngine* engine, ServiceOptions options)
    : engine_(engine),
      options_(options),
      owned_registry_(options.registry == nullptr ? std::make_unique<TelemetryRegistry>()
                                                  : nullptr),
      owned_tracer_(options.tracer == nullptr
                        ? std::make_unique<Tracer>(kOwnedTraceCapacity)
                        : nullptr),
      owned_audit_(options.audit == nullptr
                       ? std::make_unique<AuditLog>(kOwnedAuditCapacity)
                       : nullptr),
      registry_(options.registry != nullptr ? options.registry : owned_registry_.get()),
      tracer_(options.tracer != nullptr ? options.tracer : owned_tracer_.get()),
      audit_(options.audit != nullptr ? options.audit : owned_audit_.get()),
      cache_(options.cache_capacity) {
  cache_.AttachTelemetry(registry_);
  tracer_->AttachTelemetry(registry_);
  audit_->AttachTelemetry(registry_);
  if (engine_->telemetry() == nullptr) {
    engine_->AttachTelemetry(registry_, tracer_);
  }
  if (engine_->audit() == nullptr) {
    engine_->AttachAudit(audit_);
  }
  metrics_ = ServiceMetrics{
      .submitted = registry_->GetCounter("pcqe_service_requests_submitted_total",
                                         "Requests accepted into the queue"),
      .served = registry_->GetCounter("pcqe_service_requests_served_total",
                                      "Requests completed with an OK outcome"),
      .failed = registry_->GetCounter("pcqe_service_requests_failed_total",
                                      "Requests completed with a non-OK status"),
      .rejected = registry_->GetCounter(
          "pcqe_service_requests_rejected_total",
          "Requests refused at admission (queue full or service shut down)"),
      .expired = registry_->GetCounter("pcqe_service_requests_expired_total",
                                       "Requests whose deadline passed while queued"),
      .shutdown_dropped =
          registry_->GetCounter("pcqe_service_requests_shutdown_dropped_total",
                                "Requests still queued when the service stopped"),
      .latency_us = registry_->GetHistogram("pcqe_service_latency_us",
                                            {kLatencyBoundsUs.begin(), kLatencyBoundsUs.end()},
                                            "End-to-end request latency (microseconds)"),
      .queue_depth =
          registry_->GetGauge("pcqe_service_queue_depth", "Requests waiting for a worker"),
      .active_sessions = registry_->GetGauge("pcqe_service_active_sessions", "Open sessions"),
      .active_requests = registry_->GetGauge("pcqe_service_active_requests",
                                             "Requests currently executing"),
      .cache_entries =
          registry_->GetGauge("pcqe_cache_entries", "Confidence-result cache entries"),
      .solver_lanes = registry_->GetGauge("pcqe_service_solver_lanes",
                                          "Solver lane budget of the most recent request"),
      .pool_queue_depth = registry_->GetGauge("pcqe_threadpool_queue_depth",
                                              "Shared pool tasks awaiting a worker"),
      .pool_busy_workers = registry_->GetGauge("pcqe_threadpool_busy_workers",
                                               "Shared pool workers executing a task"),
  };
  if (options_.durability.enabled() && engine_->storage() == nullptr) {
    owned_storage_ = std::make_unique<StorageManager>();
    Status opened;
    {
      // Exclusive: opening an existing directory recovers, which rewrites
      // the catalog wholesale.
      WriterLock lock(engine_->catalog_mu());
      opened = owned_storage_->Open(options_.durability, engine_->catalog());
    }
    if (opened.ok()) {
      storage_ = owned_storage_.get();
      storage_->AttachTelemetry(registry_);
      engine_->AttachStorage(storage_);
      // Anything cached — evaluations and confidence zone maps — predates
      // the recovered state, and the monotone confidence version cannot be
      // trusted to have moved across a replay.
      cache_.Clear();
      engine_->confidence_index()->Invalidate();
    } else {
      durability_status_ = opened.WithContext("durable storage failed to open");
      owned_storage_.reset();
      PCQE_LOG(Error) << durability_status_.ToString()
                      << "; accepts are disabled, reads still serve";
    }
  } else if (engine_->storage() != nullptr) {
    storage_ = engine_->storage();
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this](std::stop_token stop) { WorkerLoop(stop); });
  }
}

QueryService::~QueryService() {
  Shutdown();
  // The engine may outlive this service; never leave it pointing at the
  // storage manager that dies with us.
  if (owned_storage_ != nullptr && engine_->storage() == owned_storage_.get()) {
    engine_->AttachStorage(nullptr);
  }
  if (owned_audit_ != nullptr && engine_->audit() == owned_audit_.get()) {
    engine_->AttachAudit(nullptr);
  }
}

Result<SessionHandle> QueryService::OpenSession(const std::string& user,
                                                const std::string& purpose) {
  // Shared lock: session opening reads role/policy configuration, which the
  // exclusive path (Accept) never touches, but holding the read lock keeps
  // the resolved β consistent with any concurrently completing requests.
  ReaderLock lock(engine_->catalog_mu());
  return sessions_.Open(*engine_->roles(), *engine_->policies(), user, purpose);
}

Status QueryService::CloseSession(uint64_t session_id) {
  return sessions_.Close(session_id);
}

QueryService::PendingRequest QueryService::MakePending(const SessionHandle& session,
                                                      ServiceRequest request) {
  PendingRequest pending;
  pending.session = session;
  pending.request = std::move(request);
  pending.enqueued = Clock::now();
  pending.deadline = pending.request.timeout_ms > 0
                         ? Deadline::At(pending.enqueued + std::chrono::milliseconds(
                                                               pending.request.timeout_ms))
                         : Deadline::Infinite();
  return pending;
}

Result<std::future<Result<QueryOutcome>>> QueryService::SubmitAsync(
    const SessionHandle& session, ServiceRequest request) {
  PendingRequest pending = MakePending(session, std::move(request));
  std::future<Result<QueryOutcome>> future = pending.promise.get_future();

  {
    MutexLock guard(queue_mu_);
    Status admitted;
    if (!accepting_) {
      admitted = Status::ResourceExhausted("query service is shut down");
    } else if (queue_.size() >= options_.queue_capacity) {
      PCQE_LOG(Warning) << "rejecting request: queue full (" << queue_.size()
                        << " pending)";
      admitted = Status::ResourceExhausted(
          StrFormat("request queue full (%zu pending); retry later", queue_.size()));
    } else if (FaultInjector::Global().enabled()) {
      admitted = FaultInjector::Global().Probe(fault_sites::kAdmission);
    }
    if (!admitted.ok()) {
      metrics_.rejected->Increment();
      return admitted;
    }
    queue_.push_back(std::move(pending));
  }
  metrics_.submitted->Increment();
  queue_cv_.notify_one();
  return future;
}

Result<QueryOutcome> QueryService::Submit(const SessionHandle& session,
                                          ServiceRequest request) {
  if (options_.num_workers > 0) {
    PCQE_ASSIGN_OR_RETURN(std::future<Result<QueryOutcome>> future,
                          SubmitAsync(session, std::move(request)));
    return future.get();
  }
  // No workers to hand off to: process on the caller's thread.
  PendingRequest pending = MakePending(session, std::move(request));
  std::future<Result<QueryOutcome>> future = pending.promise.get_future();
  metrics_.submitted->Increment();
  Process(std::move(pending));
  return future.get();
}

Result<QueryOutcome> QueryService::Execute(const SessionHandle& session,
                                           const ServiceRequest& request,
                                           Clock::time_point enqueued,
                                           Deadline deadline) {
  size_t active = active_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  // One trace per request; the origin is submission time, so the root span
  // includes queue wait. Null when tracing is off — every span below is
  // tolerant of that.
  std::optional<TraceBuilder> trace;
  if (tracer_->enabled()) trace.emplace("request", enqueued);
  TraceBuilder* tb = trace.has_value() ? &*trace : nullptr;

  Result<QueryOutcome> outcome = [&]() -> Result<QueryOutcome> {
    ScopedSpan request_span(tb, "request");
    {
      ScopedSpan wait_span(tb, "queue-wait");
      wait_span.Annotate("wait_us", StrFormat("%llu", static_cast<unsigned long long>(
                                                          ElapsedUs(enqueued))));
    }

    // No `const PcqeEngine&` alias here: the thread-safety analysis matches
    // capability expressions syntactically, so the locked object and the
    // call targets must both spell `engine_->`.
    ReaderLock lock(engine_->catalog_mu());

    // The version is read under the same shared lock as the evaluation, so
    // a cached entry can never mix confidences from before and after an
    // interleaved Accept.
    uint64_t version = engine_->catalog()->confidence_version();

    QueryRequest engine_request;
    engine_request.sql = request.sql;
    engine_request.user = session.user;
    engine_request.purpose = session.purpose;
    engine_request.required_fraction = request.required_fraction;
    engine_request.solver = request.solver;
    engine_request.deadline = deadline;
    engine_request.cancel = request.cancel;
    engine_request.pushdown = request.pushdown;

    // A pushed evaluation omits sub-β rows, so it may only serve requests
    // that resolve to the *same* pushdown β — the key forks on it. Resolved
    // under the same shared lock as the lookup, so the decision and the
    // served entry read one catalog state.
    std::optional<double> push_beta = engine_->ResolvePushdownBeta(engine_request);
    std::string key = NormalizeSql(request.sql);
    if (push_beta.has_value()) {
      key += StrFormat("|pd=%.17g", *push_beta);
    }
    // A profiled request bypasses the cache lookup — a hit executes nothing,
    // so there would be no operator tree to report — but still populates the
    // cache for later (unprofiled) requests.
    std::shared_ptr<OperatorProfile> profile;
    if (request.profile) profile = std::make_shared<OperatorProfile>();
    std::shared_ptr<const QueryResult> evaluated;
    if (profile == nullptr) {
      ScopedSpan lookup_span(tb, "cache-lookup");
      PCQE_INJECT_FAULT(fault_sites::kCacheLookup);
      evaluated = cache_.Lookup(key, version);
      lookup_span.Annotate("hit", evaluated != nullptr ? "true" : "false");
    }
    if (evaluated == nullptr) {
      PCQE_ASSIGN_OR_RETURN(
          QueryResult fresh,
          engine_->Evaluate(request.sql, tb, profile.get(), push_beta));
      // The cache shares one entry (and its lineage arena) across concurrent
      // completions read-only; interning deferred lineage on demand would be
      // a write. Box it here, while this thread still owns the result.
      fresh.MaterializeLineage();
      evaluated = cache_.Insert(key, version, std::move(fresh));
    }

    // Share the hardware between in-flight requests: a lone request fans
    // the solver out to the engine's full budget, a saturated service
    // degrades toward one lane each (`max(1, hardware_threads /
    // active_requests)`, capped at the engine's budget). Counters and
    // solutions are lane-count independent, so this only trades wall clock.
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    size_t budget = engine_->solver_parallelism.Resolve();
    size_t lanes = std::max<size_t>(
        1, std::min(budget, hw / std::max<size_t>(1, active)));
    engine_request.solver_lanes = SolverParallelism{lanes};
    metrics_.solver_lanes->Set(static_cast<int64_t>(lanes));
    // Completion copies the shared evaluation into the outcome: rows are
    // duplicated, the lineage arena is shared by shared_ptr and read-only.
    PCQE_ASSIGN_OR_RETURN(QueryOutcome completed,
                          engine_->Complete(engine_request, *evaluated, tb));
    completed.profile = std::move(profile);
    return completed;
  }();

  if (trace.has_value()) {
    uint64_t trace_id = tracer_->Record(trace->Finish());
    if (outcome.ok()) outcome->trace_id = trace_id;
  }
  active_requests_.fetch_sub(1, std::memory_order_relaxed);
  return outcome;
}

void QueryService::Process(PendingRequest pending) {
  Status injected;
  if (FaultInjector::Global().enabled()) {
    injected = FaultInjector::Global().Probe(fault_sites::kWorkerProcess);
  }
  if (injected.ok() && pending.deadline.Expired()) {
    metrics_.expired->Increment();
    uint64_t waited_ms = ElapsedUs(pending.enqueued) / 1000;
    PCQE_LOG(Warning) << "request expired after " << waited_ms << "ms in queue";
    pending.promise.set_value(Status::ResourceExhausted(StrFormat(
        "deadline expired after %llums in queue", static_cast<unsigned long long>(waited_ms))));
    return;
  }
  Result<QueryOutcome> outcome =
      injected.ok()
          ? Execute(pending.session, pending.request, pending.enqueued, pending.deadline)
          : Result<QueryOutcome>(std::move(injected));
  (outcome.ok() ? metrics_.served : metrics_.failed)->Increment();
  metrics_.latency_us->Observe(static_cast<double>(ElapsedUs(pending.enqueued)));
  pending.promise.set_value(std::move(outcome));
}

void QueryService::WorkerLoop(std::stop_token stop) {
  while (true) {
    PendingRequest pending;
    {
      MutexLock lock(queue_mu_);
      // Wakes on new work or stop; after a stop request the predicate still
      // wins while the queue is non-empty, so shutdown drains gracefully.
      bool has_work = queue_cv_.wait(lock, stop, [this] { return HasPendingRequest(); });
      if (!has_work) return;  // stop requested and queue drained
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Process(std::move(pending));
  }
}

Status QueryService::Accept(const StrategyProposal& proposal) {
  // Fail-safe: with durability configured but broken, refusing the accept
  // beats committing confidence changes that would vanish on restart.
  if (!durability_status_.ok()) return durability_status_;
  // Exclusive: the single writer. AcceptProposal routes every confidence
  // write through Catalog::SetConfidence, which bumps the version and thus
  // retires all cached evaluations keyed on the old one.
  WriterLock lock(engine_->catalog_mu());
  return engine_->AcceptProposal(proposal);
}

Status QueryService::Checkpoint() {
  if (!durability_status_.ok()) return durability_status_;
  if (storage_ == nullptr) {
    return Status::InvalidArgument("durability is not configured");
  }
  // Shared hold: a checkpoint is a consistent read of the catalog; accepts
  // wait, concurrent queries proceed.
  ReaderLock lock(engine_->catalog_mu());
  return storage_->Checkpoint(*engine_->catalog());
}

Status QueryService::Recover() {
  if (!durability_status_.ok()) return durability_status_;
  if (storage_ == nullptr) {
    return Status::InvalidArgument("durability is not configured");
  }
  Status recovered;
  {
    WriterLock lock(engine_->catalog_mu());
    recovered = storage_->Recover();
  }
  // Even a failed recovery may have partially rewritten the catalog;
  // entries keyed on pre-recovery versions must not be served either way.
  // The confidence index needs the same treatment: replay restores durable
  // confidences but `RestoreConfidenceVersion` is monotone, so a zone map
  // built over unlogged pre-crash mutations could still validate — and a
  // stale map may wrongly *skip* rows, not just over-scan.
  cache_.Clear();
  engine_->confidence_index()->Invalidate();
  return recovered;
}

void QueryService::Shutdown() {
  {
    MutexLock guard(queue_mu_);
    if (!accepting_ && workers_.empty() && queue_.empty()) return;  // already down
    accepting_ = false;
  }
  for (std::jthread& worker : workers_) worker.request_stop();
  queue_cv_.notify_all();
  workers_.clear();  // jthread dtor joins; workers drain the queue first

  // With zero workers (test configurations) requests may still be queued:
  // fail them rather than breaking their promises.
  std::deque<PendingRequest> leftover;
  {
    MutexLock guard(queue_mu_);
    leftover.swap(queue_);
  }
  for (PendingRequest& pending : leftover) {
    metrics_.shutdown_dropped->Increment();
    pending.promise.set_value(
        Status::ResourceExhausted("query service shut down before execution"));
  }
}

std::string ServiceStatsSnapshot::ToString() const {
  return StrFormat(
      "cache: %llu hits, %llu misses (%.1f%% hit rate), %llu evictions, %zu entries\n"
      "queue depth: %zu; active sessions: %zu\n",
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), cache_hit_rate() * 100.0,
      static_cast<unsigned long long>(cache_evictions), cache_entries, queue_depth,
      active_sessions);
}

ServiceStatsSnapshot QueryService::stats() const {
  ConfidenceResultCache::Stats cache_stats = cache_.stats();
  return ServiceStatsSnapshot{.cache_hits = cache_stats.hits,
                              .cache_misses = cache_stats.misses,
                              .cache_evictions = cache_stats.evictions,
                              .cache_entries = cache_stats.entries,
                              .queue_depth = queue_depth(),
                              .active_sessions = sessions_.active_count()};
}

size_t QueryService::queue_depth() const {
  MutexLock guard(queue_mu_);
  return queue_.size();
}

void QueryService::RefreshGauges() {
  metrics_.queue_depth->Set(static_cast<int64_t>(queue_depth()));
  metrics_.active_sessions->Set(static_cast<int64_t>(sessions_.active_count()));
  metrics_.active_requests->Set(
      static_cast<int64_t>(active_requests_.load(std::memory_order_relaxed)));
  metrics_.cache_entries->Set(static_cast<int64_t>(cache_.stats().entries));
  ThreadPool& pool = ThreadPool::Shared();
  metrics_.pool_queue_depth->Set(static_cast<int64_t>(pool.queue_depth()));
  metrics_.pool_busy_workers->Set(static_cast<int64_t>(pool.busy_workers()));
}

std::string QueryService::RenderMetricsText() {
  RefreshGauges();
  return registry_->RenderText();
}

std::string QueryService::MetricsJson() {
  RefreshGauges();
  return registry_->RenderJson();
}

}  // namespace pcqe
