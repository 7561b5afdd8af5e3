// Span ledger of the traced run, plus the small statistics and process
// helpers the report needs.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (nothing under src/ is instrumented). They stay in memory
// and are written out once, at exit. The library's own telemetry/trace.h is
// not used: it is part of the system being measured, it keeps traces in a
// bounded ring, and a change to it must not change the ledger.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  uint64_t request = 0;
  double ms() const { return end_ms - start_ms; }
};

class Ledger {
 public:
  Ledger() : origin_(Clock::now()) {}

  /// Opens a span under `parent` (-1 for a root); returns its index.
  int Open(std::string name, uint64_t request, int parent);
  void Close(int span);
  /// Adds an already-measured child of `parent` ending when `parent` is
  /// closed so far (e.g. `StrategyProposal::solve_seconds` inside Complete).
  int AddMeasured(std::string name, uint64_t request, int parent, double ms);

  const std::vector<Span>& spans() const { return spans_; }
  /// Span duration minus the time its direct children cover.
  double SelfMs(int span) const;
  /// Sum of the durations of the direct children of `span`.
  double ChildMs(int span) const;

  /// One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

/// Closes a ledger span on scope exit; a null ledger records nothing.
class ScopedLedgerSpan {
 public:
  ScopedLedgerSpan(Ledger* ledger, std::string name, uint64_t request, int parent)
      : ledger_(ledger),
        span_(ledger == nullptr ? -1 : ledger->Open(std::move(name), request, parent)) {}
  ~ScopedLedgerSpan() {
    if (ledger_ != nullptr) ledger_->Close(span_);
  }
  ScopedLedgerSpan(const ScopedLedgerSpan&) = delete;
  ScopedLedgerSpan& operator=(const ScopedLedgerSpan&) = delete;
  int index() const { return span_; }

 private:
  Ledger* ledger_;
  int span_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Current and peak resident set of this process, in MiB.
double RssMb();
double PeakRssMb();

/// Host CPU time from /proc/stat, in ticks: all of it and the share the
/// hypervisor gave to other guests (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Steal share of the host CPU time between two readings, in percent.
double StealPct(const CpuTicks& before, const CpuTicks& after);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
