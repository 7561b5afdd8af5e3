#include "strategy/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/deadline.h"
#include "common/fault_injection.h"

namespace pcqe {

namespace {

/// Clock poll stride for the sequential phase-1 loop: the cancel flag is
/// checked every iteration, the clock (and any armed injector) every
/// `kGreedyDeadlineStride` iterations.
constexpr uint32_t kGreedyDeadlineStride = 16;

/// Whether base `i` can still be raised by a step.
bool CanIncrement(const ConfidenceState& state, size_t i) {
  return state.prob(i) + kEpsilon < state.problem().base(i).max_confidence;
}

/// Next grid value one δ up (clamped at the ceiling).
double StepUp(const ConfidenceState& state, size_t i) {
  const IncrementProblem& p = state.problem();
  return std::min(state.prob(i) + p.delta(), p.base(i).max_confidence);
}

/// gain* of raising base `i` one δ (equation 2 or the capped variant).
/// Returns -infinity when `i` cannot be raised.
double ComputeGain(ConfidenceState* state, size_t i, GainMode mode) {
  const IncrementProblem& p = state->problem();
  if (!CanIncrement(*state, i)) return -std::numeric_limits<double>::infinity();
  double from = state->prob(i);
  double to = StepUp(*state, i);
  double marginal = p.CostLevel(i, to) - p.CostLevel(i, from);
  if (marginal <= 0.0) marginal = kEpsilon;  // strictly increasing cost guards this

  // Clamp point just above the threshold: confidence beyond it buys nothing.
  double target = p.beta() + 2 * kEpsilon;
  double sum = 0.0;
  for (uint32_t r : p.results_of_base(i)) {
    double f_old = state->result_confidence(r);
    if (mode == GainMode::kCappedUnsatisfied) {
      if (ClearsThreshold(f_old, p.beta())) continue;             // already satisfied
      if (state->Deficit(p.query_of_result(r)) == 0) continue;    // query already met
      double f_new = state->ProbeResult(r, i, to);
      sum += std::min(f_new, target) - std::min(f_old, target);
    } else {
      double f_new = state->ProbeResult(r, i, to);
      sum += f_new - f_old;
    }
  }
  return sum / marginal;
}

/// Last-resort pick when every queue gain is <= 0 but deficits remain:
/// the raw-gain best among tuples touching a deficit-query unsatisfied
/// result; ties (all raw gains zero) go to the cheapest step. Returns
/// num_base_tuples() when nothing incrementable can possibly help.
size_t PickFallback(ConfidenceState* state) {
  const IncrementProblem& p = state->problem();
  size_t best = p.num_base_tuples();
  double best_raw = -1.0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < p.num_base_tuples(); ++i) {
    if (!CanIncrement(*state, i)) continue;
    bool relevant = false;
    for (uint32_t r : p.results_of_base(i)) {
      if (!ClearsThreshold(state->result_confidence(r), p.beta()) &&
          state->Deficit(p.query_of_result(r)) > 0) {
        relevant = true;
        break;
      }
    }
    if (!relevant) continue;
    double raw = ComputeGain(state, i, GainMode::kRawAll);
    double to = StepUp(*state, i);
    double step_cost = p.CostLevel(i, to) - p.CostLevel(i, state->prob(i));
    if (raw > best_raw + kEpsilon ||
        (ApproxEqual(raw, best_raw) && step_cost < best_cost)) {
      best = i;
      best_raw = raw;
      best_cost = step_cost;
    }
  }
  return best;
}

}  // namespace

size_t RefineDown(ConfidenceState* state, GainMode gain_mode,
                  SolveControl* control) {
  const IncrementProblem& p = state->problem();
  size_t steps_down = 0;
  if (!state->Feasible()) return steps_down;

  // Tuples above their initial confidence, ascending by current gain*:
  // the worst confidence-per-cost increments are walked back first.
  std::vector<std::pair<double, size_t>> raised;
  for (size_t i = 0; i < p.num_base_tuples(); ++i) {
    if (state->prob(i) > p.base(i).confidence + kEpsilon) {
      raised.emplace_back(ComputeGain(state, i, gain_mode), i);
    }
  }
  std::sort(raised.begin(), raised.end());

  for (const auto& [gain, i] : raised) {
    (void)gain;
    // Per-tuple budget poll: stopping here leaves the rest of the phase-1
    // spend in place, which can only keep the state feasible.
    if (control != nullptr && control->StopNow()) break;
    double initial = p.base(i).confidence;
    while (state->prob(i) > initial + kEpsilon) {
      // Step down along the δ-grid anchored at the initial confidence: a
      // value capped at the ceiling (fractional last step) first drops back
      // to the highest full grid point, keeping solutions on-grid.
      double steps = std::ceil((state->prob(i) - initial) / p.delta() - 1e-9);
      double down = steps <= 1.0 ? initial : initial + (steps - 1.0) * p.delta();
      double saved = state->prob(i);
      state->SetProb(i, down);
      if (!state->Feasible()) {
        state->SetProb(i, saved);
        break;
      }
      ++steps_down;
    }
  }
  return steps_down;
}

size_t GreedyRaise(ConfidenceState* state_ptr, const GreedyOptions& options,
                   std::vector<GreedyCheckpoint>* checkpoints, SolverEffort* effort,
                   SolveStop* stop) {
  ConfidenceState& state = *state_ptr;
  const IncrementProblem& problem = state.problem();
  const GainMode gain_mode = options.gain_mode;
  SolveControl control(options.deadline, options.cancel,
                       fault_sites::kGreedyDeadline);
  auto note_stop = [&]() {
    if (stop != nullptr && control.stopped()) {
      *stop = control.cause();
    }
  };
  size_t max_iterations = options.max_iterations;
  size_t fallback_picks = 0;
  size_t stale_recomputes = 0;
  auto account = [&](size_t iterations) {
    if (effort == nullptr) return;
    effort->greedy_phase1_iterations += iterations;
    effort->greedy_fallback_picks += fallback_picks;
    effort->greedy_stale_recomputes += stale_recomputes;
  };

  size_t recorded_satisfied = state.total_satisfied();
  // Sparse raised-set bookkeeping: every base ever lifted above its
  // problem-initial confidence, maintained as increments are applied, so a
  // checkpoint copies O(|raised|) pairs instead of rescanning all k tuples.
  std::vector<size_t> raised_bases;
  std::vector<char> raised_flag;
  if (checkpoints != nullptr) {
    raised_flag.assign(problem.num_base_tuples(), 0);
    for (size_t i = 0; i < problem.num_base_tuples(); ++i) {
      if (state.prob(i) > problem.base(i).confidence + kEpsilon) {
        raised_flag[i] = 1;
        raised_bases.push_back(i);
      }
    }
  }
  auto note_raise = [&](size_t i) {
    if (checkpoints == nullptr || raised_flag[i] != 0) return;
    raised_flag[i] = 1;
    raised_bases.push_back(i);
  };
  auto record_checkpoint = [&]() {
    if (checkpoints == nullptr || state.total_satisfied() <= recorded_satisfied) return;
    recorded_satisfied = state.total_satisfied();
    GreedyCheckpoint cp;
    cp.satisfied = state.total_satisfied();
    cp.cost = state.total_cost();
    std::sort(raised_bases.begin(), raised_bases.end());
    cp.raised.reserve(raised_bases.size());
    for (size_t i : raised_bases) {
      if (state.prob(i) > problem.base(i).confidence + kEpsilon) {
        cp.raised.emplace_back(i, state.prob(i));
      }
    }
    checkpoints->push_back(std::move(cp));
  };

  if (max_iterations == 0) {
    for (size_t i = 0; i < problem.num_base_tuples(); ++i) {
      max_iterations += StepsBetween(state.prob(i), problem.base(i).max_confidence,
                                     problem.delta()) +
                        1;
    }
    max_iterations += 1;  // degenerate zero-step problems still enter the loop
  }

  if (!options.lazy_gain_queue) {
    // Paper-literal phase 1: recompute every gain each iteration and take
    // the maximum (Figure 6 lines 2-11, O(k) per increment).
    size_t iterations = 0;
    while (!state.Feasible() && iterations < max_iterations) {
      if (control.CheckEvery(kGreedyDeadlineStride)) break;
      size_t best = problem.num_base_tuples();
      double best_gain = 0.0;
      for (size_t i = 0; i < problem.num_base_tuples(); ++i) {
        double g = ComputeGain(&state, i, gain_mode);
        if (std::isfinite(g) && g > best_gain) {
          best_gain = g;
          best = i;
        }
      }
      if (best == problem.num_base_tuples()) {
        best = PickFallback(&state);
        if (best == problem.num_base_tuples()) break;  // genuinely stuck
        ++fallback_picks;
      }
      ++iterations;
      state.SetProb(best, StepUp(state, best));
      note_raise(best);
      record_checkpoint();
    }
    account(iterations);
    note_stop();
    return iterations;
  }

  // Lazy max-gain queue: entries carry the stamp they were computed at;
  // stale entries are recomputed on pop instead of being updated in place.
  struct Entry {
    double gain;
    uint32_t base;
    uint64_t stamp;
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  std::priority_queue<Entry> queue;
  std::vector<uint64_t> stamp(problem.num_base_tuples(), 0);
  {
    // Initial build: every gain is a pure probe of the starting state, so
    // the k computations fan out in chunks, each against its own state
    // copy (ProbeResult patches-and-restores, making a shared state racy).
    // The queue itself is filled in index order either way.
    const size_t k = problem.num_base_tuples();
    std::vector<double> initial_gains(k);
    if (options.parallelism.Resolve() <= 1) {
      for (size_t i = 0; i < k; ++i) {
        initial_gains[i] = ComputeGain(&state, i, gain_mode);
      }
    } else {
      ParallelForChunks(options.parallelism, k, [&](size_t, size_t lo, size_t hi) {
        ConfidenceState local(state);
        for (size_t i = lo; i < hi; ++i) {
          initial_gains[i] = ComputeGain(&local, i, gain_mode);
        }
      });
    }
    for (size_t i = 0; i < k; ++i) {
      if (std::isfinite(initial_gains[i])) {
        queue.push({initial_gains[i], static_cast<uint32_t>(i), 0});
      }
    }
  }

  auto apply = [&](size_t i) {
    state.SetProb(i, StepUp(state, i));
    note_raise(i);
    // Gains of every co-occurring base tuple are now stale.
    for (uint32_t r : problem.results_of_base(i)) {
      for (uint32_t j : problem.bases_of_result(r)) ++stamp[j];
    }
    ++stamp[i];  // covers tuples whose results vanished from the index edge case
    double g = ComputeGain(&state, i, gain_mode);
    if (std::isfinite(g)) queue.push({g, static_cast<uint32_t>(i), stamp[i]});
    record_checkpoint();
  };

  size_t iterations = 0;
  while (!state.Feasible() && iterations < max_iterations) {
    if (control.CheckEvery(kGreedyDeadlineStride)) break;
    if (queue.empty()) {
      size_t pick = PickFallback(&state);
      if (pick == problem.num_base_tuples()) break;  // genuinely stuck
      ++fallback_picks;
      ++iterations;
      apply(pick);
      continue;
    }
    Entry top = queue.top();
    queue.pop();
    if (top.stamp != stamp[top.base]) {
      ++stale_recomputes;
      double g = ComputeGain(&state, top.base, gain_mode);
      if (std::isfinite(g)) queue.push({g, top.base, stamp[top.base]});
      continue;
    }
    if (top.gain <= 0.0) {
      // Fresh top is non-positive: the capped gain sees no useful move.
      // Fall back to a raw-gain/cheapest pick to keep making progress.
      size_t pick = PickFallback(&state);
      if (pick == problem.num_base_tuples()) break;
      ++fallback_picks;
      ++iterations;
      apply(pick);
      continue;
    }
    ++iterations;
    apply(top.base);
  }
  account(iterations);
  note_stop();
  return iterations;
}

Result<IncrementSolution> SolveGreedy(const IncrementProblem& problem,
                                      const GreedyOptions& options) {
  PCQE_INJECT_FAULT(fault_sites::kGreedySolve);
  ConfidenceState state(problem);
  SolverEffort effort;

  // ---- Phase 1: aggressive increase. ----
  SolveStop stop = SolveStop::kComplete;
  GreedyRaise(&state, options, nullptr, &effort, &stop);

  // ---- Phase 2: walk unnecessary increments back down. ----
  SolveControl control(options.deadline, options.cancel,
                       fault_sites::kGreedyDeadline);
  if (options.two_phase && stop == SolveStop::kComplete) {
    effort.greedy_phase2_steps += RefineDown(&state, options.gain_mode, &control);
  }
  // Final poll so a budget that expired during (or right after) phase 2
  // still tags the result partial: feasibility holds, but the refinement
  // makes no minimality claim.
  if (stop == SolveStop::kComplete && control.StopNow()) {
    stop = control.cause();
  }

  IncrementSolution out = MakeSolution(state, options.two_phase ? "greedy" : "greedy_1p");
  out.effort = effort;
  out.stop = stop;
  return out;
}

}  // namespace pcqe
