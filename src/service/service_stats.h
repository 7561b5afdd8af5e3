// Copyright (c) PCQE contributors.
// Built-in counters for the query service: request accounting, cache
// effectiveness, queue pressure and a latency histogram. These are
// registry-backed instruments (`pcqe_service_*`), so the same numbers appear
// in the snapshot API below and in `TelemetryRegistry::RenderText()`. The
// decisions themselves — rows released/blocked, proposals, partial and
// deadline-stopped solves — are the engine's facts, counted once by its
// `pcqe_engine_*` counters.

#ifndef PCQE_SERVICE_SERVICE_STATS_H_
#define PCQE_SERVICE_SERVICE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "telemetry/metrics.h"

namespace pcqe {

/// Upper bounds (inclusive) of the end-to-end latency histogram buckets, in
/// microseconds. The last bucket is unbounded.
inline constexpr std::array<uint64_t, 8> kLatencyBucketBoundsUs = {
    100, 1'000, 5'000, 20'000, 100'000, 500'000, 2'000'000, UINT64_MAX};

/// \brief A coherent-enough point-in-time copy of every counter, safe to
/// read, format and compare after the service has moved on. Counters are
/// sampled individually (no global pause), so sums may be momentarily off by
/// in-flight requests; once the service is idle they reconcile exactly:
/// `submitted == served + failed + rejected + expired + shutdown_dropped`.
struct ServiceStatsSnapshot {
  uint64_t submitted = 0;        ///< Requests accepted into the queue.
  uint64_t served = 0;           ///< Completed with an OK outcome.
  uint64_t failed = 0;           ///< Completed with a non-OK engine status.
  uint64_t rejected = 0;         ///< Refused at admission (queue full or shed).
  uint64_t expired = 0;          ///< Deadline passed while queued.
  uint64_t shutdown_dropped = 0; ///< Still queued when the service stopped.
  /// Breakdown and side counters outside the `submitted` identity: `shed` is
  /// the subset of `rejected` refused at the overload watermark (before the
  /// queue was full); `retried` counts blocking-`Submit` re-attempts after a
  /// retryable rejection (attempts, not requests).
  uint64_t shed = 0;
  uint64_t retried = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
  size_t queue_depth = 0;        ///< Requests waiting at snapshot time.
  size_t active_sessions = 0;
  std::array<uint64_t, kLatencyBucketBoundsUs.size()> latency_buckets{};

  /// Hit fraction over all cache lookups; 0 when none happened yet.
  double cache_hit_rate() const {
    uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }

  /// Multi-line human-readable rendering (for the shell's `.stats`).
  std::string ToString() const;
};

/// \brief The service's request counters as cached registry instruments
/// (`pcqe_service_*`). All increments are relaxed atomics on the instrument
/// — the hot path takes no lock and publishes no other memory. The registry
/// must outlive this object.
class ServiceStats {
 public:
  explicit ServiceStats(TelemetryRegistry* registry);

  void OnSubmitted() { submitted_->Increment(); }
  void OnRejected() { rejected_->Increment(); }
  /// Overload shed: a kind of admission rejection (both counters move, so
  /// the snapshot identity keeps holding and `shed` stays a breakdown).
  void OnShed() {
    rejected_->Increment();
    shed_->Increment();
  }
  void OnRetried() { retried_->Increment(); }
  void OnExpired() { expired_->Increment(); }
  void OnShutdownDropped() { shutdown_dropped_->Increment(); }
  void OnFailed() { failed_->Increment(); }
  void OnServed() { served_->Increment(); }

  void RecordLatencyUs(uint64_t us) { latency_us_->Observe(static_cast<double>(us)); }

  /// Copies the request-side counters into `out` (cache and queue fields are
  /// filled in by the service, which owns those components).
  void FillSnapshot(ServiceStatsSnapshot* out) const;

 private:
  Counter* submitted_;
  Counter* served_;
  Counter* failed_;
  Counter* rejected_;
  Counter* shed_;
  Counter* retried_;
  Counter* expired_;
  Counter* shutdown_dropped_;
  Histogram* latency_us_;
};

}  // namespace pcqe

#endif  // PCQE_SERVICE_SERVICE_STATS_H_
