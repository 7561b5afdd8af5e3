// pcqe-lint-fixture-path: src/strategy/timed_solver.cc
// Fixture: a solver timing itself. Solvers read no clock; wall clock enters
// a solve only through the caller's Deadline, and the engine times the call.
#include "common/stopwatch.h"

namespace pcqe {

double TimedPhase() {
  Stopwatch timer;
  return timer.ElapsedSeconds();
}

}  // namespace pcqe
