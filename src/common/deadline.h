// Copyright (c) PCQE contributors.
// Deadline / CancelToken / SolveControl: the one cooperative-cancellation
// vocabulary shared by the service, the engine and all three solvers.
//
// A `Deadline` is an absolute point on the steady clock (infinite by
// default), so it composes across layers without re-arming: the service
// stamps it at admission, the engine forwards it into solver options, and
// every solver phase compares against the same instant. `SolveControl`
// bundles the deadline with an optional caller-owned `CancelToken` and a
// fault-injection site, and is the only thing solver loops poll. Solvers
// read no clock of their own: a `Stopwatch` or `*_clock` in src/strategy/,
// or a raw `steady_clock::now()` comparison there or in src/service/, is a
// lint error (`deadline` rule in tools/pcqe_lint.py).

#ifndef PCQE_COMMON_DEADLINE_H_
#define PCQE_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string_view>

#include "common/fault_injection.h"

namespace pcqe {

/// \brief An absolute budget on the steady clock; infinite by default.
///
/// Value type, trivially copyable; pass by value. `Expired()` is one clock
/// read — cheap enough for amortized per-node checks but still worth
/// striding (see `SolveControl::CheckEvery`).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default-constructed deadlines never expire.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline At(Clock::time_point at) { return Deadline(at); }
  static Deadline AfterMillis(int64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }
  static Deadline AfterSeconds(double seconds) {
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  }

  /// The earlier of two deadlines (infinite is later than everything).
  static Deadline Sooner(Deadline a, Deadline b) {
    return a.at_ <= b.at_ ? a : b;
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }
  bool Expired() const { return !infinite() && Clock::now() >= at_; }

  /// Seconds until expiry: negative once expired, +infinity when infinite.
  double RemainingSeconds() const {
    if (infinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }

  Clock::time_point time_point() const { return at_; }

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}

  Clock::time_point at_ = Clock::time_point::max();
};

/// \brief Caller-owned cooperative cancellation flag.
///
/// The requester keeps the token alive for the duration of the call and may
/// `RequestCancel()` from any thread; solvers observe it within a bounded
/// number of steps and return their best anytime result tagged `partial`.
class CancelToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief Why a solver returned when it did.
///
/// Anything other than `kComplete` marks the solution partial: the
/// algorithm was stopped before its natural end and returned its best
/// anytime state (B&B's incumbent, greedy's phase-1 state, D&C's merged
/// partial). Partial solutions still satisfy every `ValidateSolution`
/// invariant — the β filter is never relaxed — they just drop the
/// optimality / full-coverage claim.
enum class SolveStop : uint8_t {
  kComplete = 0,    ///< natural end: the algorithm's full answer
  kNodeBudget = 1,  ///< `max_nodes` exhausted (exact searches)
  kDeadline = 2,    ///< the `Deadline` expired
  kCancelled = 3,   ///< the caller's `CancelToken` fired
};

/// Canonical lowercase name ("complete", "deadline", ...).
inline std::string_view SolveStopToString(SolveStop stop) {
  switch (stop) {
    case SolveStop::kComplete: return "complete";
    case SolveStop::kNodeBudget: return "node_budget";
    case SolveStop::kDeadline: return "deadline";
    case SolveStop::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// \brief The poll object solver loops check at node/phase boundaries.
///
/// Bundles a `Deadline`, an optional `CancelToken` and a fault-injection
/// site (a `fault_sites::k*Deadline` constant) behind one `active()` flag
/// computed at construction: an inert control (no deadline, no token, no
/// armed injector) costs a single branch per check, which keeps the
/// un-deadlined determinism contract untouched.
///
/// `StopNow()` is thread-safe (the first observed cause wins via CAS) and
/// is what parallel lanes share; `CheckEvery()` adds a plain stride counter
/// and is for sequential loops only.
class SolveControl {
 public:
  /// Inert: never stops.
  SolveControl() = default;

  SolveControl(Deadline deadline, const CancelToken* cancel,
               const char* fault_site = nullptr)
      : deadline_(deadline),
        cancel_(cancel),
        fault_site_(fault_site),
        active_(cancel != nullptr || !deadline.infinite() ||
                (fault_site != nullptr && FaultInjector::Global().enabled())) {}

  bool active() const { return active_; }

  /// Full check: cancel token, deadline clock, injected deadline. Latches
  /// the first cause; later calls return true without re-probing.
  bool StopNow() {
    if (!active_) return false;
    if (cause_.load(std::memory_order_relaxed) != 0) return true;
    SolveStop cause = SolveStop::kComplete;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      cause = SolveStop::kCancelled;
    } else if (deadline_.Expired()) {
      cause = SolveStop::kDeadline;
    } else if (fault_site_ != nullptr &&
               FaultInjector::Global().DeadlineFires(fault_site_)) {
      cause = SolveStop::kDeadline;
    }
    if (cause == SolveStop::kComplete) return false;
    uint8_t expected = 0;
    cause_.compare_exchange_strong(expected, static_cast<uint8_t>(cause),
                                   std::memory_order_relaxed);
    return true;
  }

  /// Sequential-loop check: the cancel flag every call, the clock (and the
  /// injector) only every `stride` calls. Not thread-safe.
  bool CheckEvery(uint32_t stride) {
    if (!active_) return false;
    if (cause_.load(std::memory_order_relaxed) != 0) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) return StopNow();
    if (++tick_ % stride != 0) return false;
    return StopNow();
  }

  bool stopped() const { return cause_.load(std::memory_order_relaxed) != 0; }

  /// The latched cause (`kDeadline` or `kCancelled`); `kComplete` while
  /// the control has not stopped.
  SolveStop cause() const {
    return static_cast<SolveStop>(cause_.load(std::memory_order_relaxed));
  }

 private:
  Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  const char* fault_site_ = nullptr;
  bool active_ = false;
  uint32_t tick_ = 0;
  std::atomic<uint8_t> cause_{0};
};

}  // namespace pcqe

#endif  // PCQE_COMMON_DEADLINE_H_
