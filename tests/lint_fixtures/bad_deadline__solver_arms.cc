// pcqe-lint-fixture-path: src/strategy/private_budget.cc
// Fixture: a solver arming a wall-clock budget of its own. Solvers receive
// the caller's Deadline and never create one.
#include "common/deadline.h"

namespace pcqe {

Deadline SubSolveBudget(const Deadline& request, double seconds) {
  return Deadline::Sooner(request, Deadline::AfterSeconds(seconds));
}

}  // namespace pcqe
