#include "service/service_stats.h"

#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

namespace pcqe {

namespace {

/// The histogram's explicit bounds: every latency bucket bound except the
/// trailing UINT64_MAX sentinel (the histogram's implicit +Inf bucket).
std::vector<double> LatencyBounds() {
  std::vector<double> bounds;
  for (uint64_t b : kLatencyBucketBoundsUs) {
    if (b != UINT64_MAX) bounds.push_back(static_cast<double>(b));
  }
  return bounds;
}

}  // namespace

ServiceStats::ServiceStats(TelemetryRegistry* registry) {
  PCQE_CHECK(registry != nullptr);
  submitted_ = registry->GetCounter("pcqe_service_requests_submitted_total",
                                    "Requests accepted into the queue");
  served_ = registry->GetCounter("pcqe_service_requests_served_total",
                                 "Requests completed with an OK outcome");
  failed_ = registry->GetCounter("pcqe_service_requests_failed_total",
                                 "Requests completed with a non-OK engine status");
  rejected_ = registry->GetCounter("pcqe_service_requests_rejected_total",
                                   "Requests refused at admission (queue full or shed)");
  shed_ = registry->GetCounter(
      "pcqe_service_requests_shed_total",
      "Admission rejections at the overload watermark (subset of rejected)");
  retried_ = registry->GetCounter(
      "pcqe_service_admission_retries_total",
      "Blocking-Submit re-attempts after a retryable admission rejection");
  expired_ = registry->GetCounter("pcqe_service_requests_expired_total",
                                  "Requests whose deadline passed while queued");
  shutdown_dropped_ =
      registry->GetCounter("pcqe_service_requests_shutdown_dropped_total",
                           "Requests still queued when the service stopped");
  latency_us_ = registry->GetHistogram("pcqe_service_latency_us", LatencyBounds(),
                                       "End-to-end request latency (microseconds)");
}

void ServiceStats::FillSnapshot(ServiceStatsSnapshot* out) const {
  out->submitted = submitted_->value();
  out->served = served_->value();
  out->failed = failed_->value();
  out->rejected = rejected_->value();
  out->shed = shed_->value();
  out->retried = retried_->value();
  out->expired = expired_->value();
  out->shutdown_dropped = shutdown_dropped_->value();
  Histogram::Snapshot latency = latency_us_->snapshot();
  for (size_t b = 0; b < out->latency_buckets.size() && b < latency.counts.size(); ++b) {
    out->latency_buckets[b] = latency.counts[b];
  }
}

std::string ServiceStatsSnapshot::ToString() const {
  std::string out;
  out += StrFormat(
      "requests: %llu submitted, %llu served, %llu failed, %llu rejected, "
      "%llu expired, %llu dropped at shutdown\n",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(shutdown_dropped));
  if (shed + retried > 0) {
    out += StrFormat("overload: %llu shed, %llu admission retries\n",
                     static_cast<unsigned long long>(shed),
                     static_cast<unsigned long long>(retried));
  }
  out += StrFormat(
      "cache: %llu hits, %llu misses (%.1f%% hit rate), %llu evictions, "
      "%zu entries\n",
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), cache_hit_rate() * 100.0,
      static_cast<unsigned long long>(cache_evictions), cache_entries);
  out += StrFormat("queue depth: %zu; active sessions: %zu\n", queue_depth,
                   active_sessions);
  out += "latency (end-to-end):";
  for (size_t b = 0; b < latency_buckets.size(); ++b) {
    if (latency_buckets[b] == 0) continue;
    if (kLatencyBucketBoundsUs[b] == UINT64_MAX) {
      out += StrFormat(" >%llums=%llu",
                       static_cast<unsigned long long>(
                           kLatencyBucketBoundsUs[b - 1] / 1000),
                       static_cast<unsigned long long>(latency_buckets[b]));
    } else if (kLatencyBucketBoundsUs[b] >= 1000) {
      out += StrFormat(
          " <=%llums=%llu",
          static_cast<unsigned long long>(kLatencyBucketBoundsUs[b] / 1000),
          static_cast<unsigned long long>(latency_buckets[b]));
    } else {
      out += StrFormat(" <=%lluus=%llu",
                       static_cast<unsigned long long>(kLatencyBucketBoundsUs[b]),
                       static_cast<unsigned long long>(latency_buckets[b]));
    }
  }
  out += "\n";
  return out;
}

}  // namespace pcqe
