// pcqe-lint-fixture-path: src/strategy/deadline_poll.cc
// Fixture: a solver may poll the caller's Deadline and SolveControl,
// RemainingSeconds() included; it just never reads a clock of its own.
#include "common/deadline.h"

namespace pcqe {

bool KeepSearching(const Deadline& deadline, SolveControl* control) {
  if (control->CheckEvery(16)) return false;
  return deadline.RemainingSeconds() > 0.010;
}

}  // namespace pcqe
