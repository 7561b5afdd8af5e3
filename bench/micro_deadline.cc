// Copyright (c) PCQE contributors.
// Deadline-vs-cost sweep for the anytime solver paths: each solver on a
// fixed instance under shrinking wall-clock budgets. The curve of interest
// is plan cost as a function of the deadline — an anytime solver should
// degrade gracefully (cost drifts up toward the greedy bound as the budget
// shrinks) while staying feasible, never erroring.
//
// The heuristic rows prime the search with a greedy incumbent (upper bound +
// assignment) computed outside the budget, so an expiring deadline falls back
// to a feasible plan instead of an empty one. Because the bound is supplied,
// SolveHeuristic's own deadline priming stays off and its 10 ms early return
// never fires: every row spends its whole budget searching. The D&C rows get
// the same guarantee from SolveDnc itself: under a finite deadline it runs
// a deadline-bounded greedy primer and falls back to that incumbent when
// the budget kills the fill mid-raise, so the `feasible` column should stay
// true down to the tightest budgets (it records the actual verdict either
// way; a primer that itself ran out of time leaves an infeasible partial).
//
// Emits one machine-readable line per (solver, deadline) cell:
//   BENCH {"bench":"micro_deadline","solver":...,"deadline_ms":...,
//          "seconds":...,"cost":...,"feasible":...,"partial":...}
// deadline_ms = 0 encodes "no deadline" (the complete-solve reference row).
//
// Recorded baselines live in bench/baselines/ — see the README there for the
// recording protocol.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/deadline.h"
#include "common/stopwatch.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "workload/generator.h"

namespace pcqe {
namespace bench {
namespace {

void EmitLine(const char* solver, int64_t deadline_ms, double seconds,
              const IncrementSolution& s) {
  std::printf(
      "BENCH {\"bench\":\"micro_deadline\",\"solver\":\"%s\","
      "\"deadline_ms\":%lld,\"seconds\":%.4f,\"cost\":%.6f,"
      "\"feasible\":%s,\"partial\":%s}\n",
      solver, static_cast<long long>(deadline_ms), seconds, s.total_cost,
      s.feasible ? "true" : "false", s.partial() ? "true" : "false");
}

void AddRow(TablePrinter* table, const char* solver, int64_t deadline_ms,
            double seconds, const IncrementSolution& s) {
  table->AddRow({solver,
                 deadline_ms == 0 ? std::string("none")
                                  : std::to_string(deadline_ms) + "ms",
                 FormatSeconds(seconds), FormatCost(s.total_cost),
                 s.feasible ? "yes" : "no", s.partial() ? "yes" : "no"});
}

/// Figure-11(a) shape scaled up so the exact search needs ~100ms even with
/// the greedy bound: the tighter budgets exercise the anytime fallback, the
/// loosest ones complete and prove the greedy plan near-optimal.
WorkloadParams HeuristicParams() {
  WorkloadParams params;
  params.num_base_tuples = 14;
  params.num_results = 8;
  params.bases_per_result = 5;
  params.or_group_size = 3;
  params.theta = 0.5;
  params.seed = 1;
  return params;
}

int SweepHeuristic(const std::vector<int64_t>& deadlines_ms,
                   TablePrinter* table) {
  Workload w = GenerateWorkload(HeuristicParams());
  auto problem = w.ToProblem();
  if (!problem.ok()) return 1;

  auto greedy = SolveGreedy(*problem);
  if (!greedy.ok() || !greedy->feasible) {
    std::fprintf(stderr, "greedy primer failed\n");
    return 1;
  }

  for (int64_t deadline_ms : deadlines_ms) {
    if (deadline_ms == 0) continue;  // un-deadlined B&B here runs for hours
    HeuristicOptions options;
    options.parallelism.threads = 1;
    options.deadline = Deadline::AfterMillis(deadline_ms);
    options.initial_upper_bound = greedy->total_cost;
    options.initial_assignment = greedy->new_confidence;
    Stopwatch timer;
    auto s = SolveHeuristic(*problem, options);
    if (!s.ok()) {
      std::fprintf(stderr, "heuristic error: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    double seconds = timer.ElapsedSeconds();
    EmitLine("heuristic+greedy-bound", deadline_ms, seconds, *s);
    AddRow(table, "heuristic+greedy-bound", deadline_ms, seconds, *s);
  }
  return 0;
}

int SweepDnc(size_t data_size, const std::vector<int64_t>& deadlines_ms,
             TablePrinter* table) {
  WorkloadParams params;
  params.num_base_tuples = data_size;
  params.bases_per_result = data_size >= 10000 ? data_size / 1000 : 5;
  params.seed = 42;
  Workload w = GenerateWorkload(params);
  auto problem = w.ToProblem();
  if (!problem.ok()) {
    std::fprintf(stderr, "workload %zu: %s\n", data_size,
                 problem.status().ToString().c_str());
    return 1;
  }

  for (int64_t deadline_ms : deadlines_ms) {
    DncOptions options;
    options.parallelism.threads = 1;
    if (deadline_ms > 0) options.deadline = Deadline::AfterMillis(deadline_ms);
    Stopwatch timer;
    auto s = SolveDnc(*problem, options);
    if (!s.ok()) {
      std::fprintf(stderr, "dnc error: %s\n", s.status().ToString().c_str());
      return 1;
    }
    double seconds = timer.ElapsedSeconds();
    EmitLine("dnc", deadline_ms, seconds, *s);
    AddRow(table, "dnc", deadline_ms, seconds, *s);
  }
  return 0;
}

int Run() {
  Scale scale = BenchScale();
  std::printf("micro_deadline (scale=%s): anytime cost vs deadline\n",
              ScaleName(scale));
  std::printf(
      "note: deadline 'none' is the complete solve; cost should fall toward "
      "it as the budget grows.\n\n");

  // 0 = no deadline (reference row, D&C only).
  std::vector<int64_t> deadlines = {1, 5, 10, 25, 50, 100, 250, 0};
  size_t dnc_size = 10000;
  if (scale == Scale::kQuick) {
    deadlines = {1, 10, 50, 0};
    dnc_size = 2000;
  }

  TablePrinter table(
      {"solver", "deadline", "time", "cost", "feasible", "partial"});
  if (int rc = SweepDnc(dnc_size, deadlines, &table)) return rc;
  if (int rc = SweepHeuristic(deadlines, &table)) return rc;
  table.Print();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pcqe

int main() { return pcqe::bench::Run(); }
