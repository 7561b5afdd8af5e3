// Test helper: a query service's request counters, read from the
// `pcqe_service_*` instruments of its telemetry registry.

#ifndef PCQE_TESTS_SERVICE_COUNTS_H_
#define PCQE_TESTS_SERVICE_COUNTS_H_

#include <cstdint>
#include <string>

#include "service/query_service.h"

namespace pcqe {

struct ServiceCounts {
  uint64_t submitted = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t expired = 0;
  uint64_t shutdown_dropped = 0;
  /// Observations in the `pcqe_service_latency_us` histogram.
  uint64_t latency_count = 0;
};

inline ServiceCounts ReadServiceCounts(const QueryService& service) {
  TelemetryRegistry* registry = service.telemetry();
  auto requests = [registry](const std::string& outcome) {
    return registry->GetCounter("pcqe_service_requests_" + outcome + "_total")->value();
  };
  ServiceCounts counts;
  counts.submitted = requests("submitted");
  counts.served = requests("served");
  counts.failed = requests("failed");
  counts.rejected = requests("rejected");
  counts.expired = requests("expired");
  counts.shutdown_dropped = requests("shutdown_dropped");
  // The histogram is registered with the service's bounds; its total count
  // is read from the text exposition rather than re-registering them here.
  const std::string text = registry->RenderText();
  const std::string key = "\npcqe_service_latency_us_count ";
  size_t at = text.find(key);
  if (at != std::string::npos) counts.latency_count = std::stoull(text.substr(at + key.size()));
  return counts;
}

}  // namespace pcqe

#endif  // PCQE_TESTS_SERVICE_COUNTS_H_
