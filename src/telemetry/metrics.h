// Copyright (c) PCQE contributors.
// Lock-cheap metrics registry: named counters, gauges and histograms with
// Prometheus-style text exposition and a JSON dump.
//
// Design rules (the reason this lives in its own library):
//   * Instruments are registered once (mutex-guarded, idempotent by name)
//     and then updated through plain pointers with relaxed atomics — the
//     hot path takes no lock and publishes no other memory.
//   * Instrument pointers stay valid for the registry's lifetime (deque
//     storage, entries are never removed), so callers cache them in
//     constructors and never look anything up per event.
//   * Names are flat `snake_case` identifiers (`pcqe_<component>_<what>`,
//     counters end in `_total`); there are no labels. One name maps to one
//     instrument forever — re-registering returns the existing one.

#ifndef PCQE_TELEMETRY_METRICS_H_
#define PCQE_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"

namespace pcqe {

/// True unless the environment opts out (`PCQE_TELEMETRY` set to `0`, `off`
/// or `false`, case-insensitive). Read once per process. Gates the *optional*
/// observability work (trace recording); registries themselves always
/// function so tests can rely on them.
bool TelemetryEnabled();

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time signed value (queue depths, active sessions, lane
/// decisions). Settable from any thread.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket distribution: `bounds` are inclusive upper bounds in
/// ascending order, and an implicit +Inf bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// Non-cumulative per-bucket counts (`bounds.size() + 1` entries, the last
  /// is the +Inf bucket), plus total count and sum of observed values.
  struct Snapshot {
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Bucket-interpolated quantile estimate (`q` in [0, 1]), the Prometheus
  /// `histogram_quantile` scheme: the target rank is located in the cumulative
  /// bucket counts and linearly interpolated inside its bucket (lower edge 0
  /// for the first bucket). Observations in the +Inf bucket clamp to the
  /// highest finite bound. Returns 0 for an empty snapshot.
  static double Quantile(const std::vector<double>& bounds, const Snapshot& snap,
                         double q);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};  // CAS add; doubles have no fetch_add pre-C++20 on all ABIs
};

/// \brief Process- or service-scoped collection of named instruments.
///
/// `Get*` is registration and lookup in one: the first call with a name
/// creates the instrument, later calls return the same pointer (the kind and
/// histogram bounds must match — a mismatch is a programming error and
/// PCQE_CHECK-fails). Returned pointers live as long as the registry.
class TelemetryRegistry {
 public:
  TelemetryRegistry() = default;
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds,
                          std::string_view help = "");

  /// Prometheus-style text exposition: `# HELP` / `# TYPE` preambles, one
  /// sample line per counter/gauge, cumulative `_bucket{le="..."}` plus
  /// `_sum` / `_count` per histogram. Instruments render sorted by name.
  std::string RenderText() const;

  /// One-line JSON object (the bench `BENCH {...}` conventions):
  /// `{"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[...],
  /// "counts":[...],"sum":s,"count":n}}}`.
  std::string RenderJson() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    size_t index;  // into the deque for its kind
    std::string help;
  };

  mutable Mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_ PCQE_GUARDED_BY(mu_);
  std::deque<Counter> counters_ PCQE_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ PCQE_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ PCQE_GUARDED_BY(mu_);
};

}  // namespace pcqe

#endif  // PCQE_TELEMETRY_METRICS_H_
