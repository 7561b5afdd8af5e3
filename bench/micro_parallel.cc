// Copyright (c) PCQE contributors.
// Thread sweep for the parallel solver paths: SolveDnc at Figure-11 scale
// (concurrent per-group curve builds) and SolveHeuristic on the Figure 11(a)
// instance (multi-root branch-and-bound), each at 1/2/4/8 lanes. The paper's
// figures are reproduced single-lane elsewhere; this binary owns the
// thread-count story and doubles as the determinism smoke check: the D&C cost
// and every `SolverEffort` counter must be bit-identical across every lane
// count (each group's exact pass stops on a node budget, never on wall
// clock), and the heuristic cost must match to 1e-9 (both searches are
// complete, so both land on the optimum).
//
// Emits one machine-readable line per (solver, threads) cell:
//   BENCH {"bench":"micro_parallel","solver":...,"threads":...,"seconds":...,
//          "cost":...,"nodes_expanded":...,"speedup_vs_1":...,
//          "cost_matches_1":...}
// For D&C, `cost_matches_1` also requires equal effort counters.
// Unknown argv (e.g. --benchmark_min_time from scripts/check.sh smoke runs)
// is ignored; this is a plain binary, not a google-benchmark one.
//
// Recorded baselines live in bench/baselines/ — see the README there for the
// recording protocol.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/deadline.h"
#include "common/stopwatch.h"
#include "strategy/dnc.h"
#include "strategy/heuristic.h"
#include "workload/generator.h"

namespace pcqe {
namespace bench {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

void EmitLine(const char* solver, size_t data_size, size_t threads,
              double seconds, const IncrementSolution& s,
              double baseline_seconds, bool cost_matches) {
  std::printf(
      "BENCH {\"bench\":\"micro_parallel\",\"solver\":\"%s\","
      "\"data_size\":%zu,\"threads\":%zu,\"seconds\":%.4f,\"cost\":%.6f,"
      "\"nodes_expanded\":%llu,\"speedup_vs_1\":%.2f,\"cost_matches_1\":%s}\n",
      solver, data_size, threads, seconds, s.total_cost,
      static_cast<unsigned long long>(s.effort.nodes_expanded),
      seconds > 0.0 && baseline_seconds > 0.0 ? baseline_seconds / seconds
                                              : 1.0,
      cost_matches ? "true" : "false");
}

/// Figure-11 overall-sweep shape: 5 base tuples per result below 10K,
/// data_size/1000 from 10K up (same rule as bench/fig11_overall.h).
WorkloadParams DncParams(size_t data_size) {
  WorkloadParams params;
  params.num_base_tuples = data_size;
  params.bases_per_result = data_size >= 10000 ? data_size / 1000 : 5;
  params.seed = 42;
  return params;
}

int SweepDnc(size_t data_size, TablePrinter* table) {
  Workload w = GenerateWorkload(DncParams(data_size));
  auto problem = w.ToProblem();
  if (!problem.ok()) {
    std::fprintf(stderr, "workload %zu: %s\n", data_size,
                 problem.status().ToString().c_str());
    return 1;
  }

  double baseline_seconds = 0.0;
  double baseline_cost = 0.0;
  SolverEffort baseline_effort;
  for (size_t threads : kThreadSweep) {
    DncOptions options;
    options.parallelism.threads = threads;
    Stopwatch timer;
    auto s = SolveDnc(*problem, options);
    if (!s.ok()) {
      std::fprintf(stderr, "dnc error: %s\n", s.status().ToString().c_str());
      return 1;
    }
    double seconds = timer.ElapsedSeconds();
    if (threads == 1) {
      baseline_seconds = seconds;
      baseline_cost = s->total_cost;
      baseline_effort = s->effort;
    }
    // The D&C fan-out replays the sequential arithmetic in the same combine
    // order: the cost is bit-identical across lane counts, not just close,
    // and so is every effort counter.
    bool matches = s->total_cost == baseline_cost && s->effort == baseline_effort;
    EmitLine("dnc", data_size, threads, seconds, *s, baseline_seconds, matches);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  seconds > 0.0 ? baseline_seconds / seconds : 1.0);
    table->AddRow({"dnc", std::to_string(data_size), std::to_string(threads),
                   FormatSeconds(seconds), FormatCost(s->total_cost), speedup,
                   matches ? "yes" : "NO"});
    if (!matches) {
      std::fprintf(stderr,
                   "FAIL: dnc diverged at %zu threads (cost %.9f vs %.9f, "
                   "nodes_expanded %llu vs %llu)\n",
                   threads, s->total_cost, baseline_cost,
                   static_cast<unsigned long long>(s->effort.nodes_expanded),
                   static_cast<unsigned long long>(baseline_effort.nodes_expanded));
      return 1;
    }
  }
  return 0;
}

int SweepHeuristic(TablePrinter* table) {
  // Figure 11(a) instance, no greedy bound: small enough for the complete
  // search, hard enough that the naive-order tree gives the roots real work.
  WorkloadParams params;
  params.num_base_tuples = 10;
  params.num_results = 6;
  params.bases_per_result = 5;
  params.or_group_size = 3;
  params.theta = 0.5;
  params.seed = 1;
  Workload w = GenerateWorkload(params);
  auto problem = w.ToProblem();
  if (!problem.ok()) return 1;

  double baseline_seconds = 0.0;
  double baseline_cost = 0.0;
  for (size_t threads : kThreadSweep) {
    HeuristicOptions options;
    options.parallelism.threads = threads;
    // Safety net only. The infinite bound keeps the search unprimed: a
    // deadline without a bound would seed it with the greedy plan.
    options.initial_upper_bound = std::numeric_limits<double>::infinity();
    options.deadline = Deadline::AfterSeconds(300.0);
    Stopwatch timer;
    auto s = SolveHeuristic(*problem, options);
    if (!s.ok()) return 1;
    double seconds = timer.ElapsedSeconds();
    if (threads == 1) {
      baseline_seconds = seconds;
      baseline_cost = s->total_cost;
    }
    // Both searches are complete, so both costs are the optimum; incumbent
    // timing differs across lanes, hence tolerance instead of equality.
    bool matches = !s->partial() &&
                   std::abs(s->total_cost - baseline_cost) <= 1e-9;
    EmitLine("heuristic", params.num_base_tuples, threads, seconds, *s,
             baseline_seconds, matches);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  seconds > 0.0 ? baseline_seconds / seconds : 1.0);
    table->AddRow({"heuristic", std::to_string(params.num_base_tuples),
                   std::to_string(threads), FormatSeconds(seconds),
                   FormatCost(s->total_cost), speedup, matches ? "yes" : "NO"});
    if (!matches) {
      std::fprintf(stderr,
                   "FAIL: heuristic cost diverged at %zu threads "
                   "(%.9f vs %.9f, complete=%d)\n",
                   threads, s->total_cost, baseline_cost,
                   s->partial() ? 0 : 1);
      return 1;
    }
  }
  return 0;
}

int Run() {
  Scale scale = BenchScale();
  std::vector<size_t> dnc_sizes;
  switch (scale) {
    case Scale::kQuick:
      dnc_sizes = {2000};
      break;
    case Scale::kPaper:
      dnc_sizes = {10000};
      break;
    case Scale::kFull:
      dnc_sizes = {10000, 50000};
      break;
  }
  std::printf("micro_parallel (scale=%s): solver thread sweep 1/2/4/8\n",
              ScaleName(scale));
  std::printf("note: speedups depend on available cores; costs (and D&C "
              "effort counters) must match regardless.\n\n");

  TablePrinter table({"solver", "size", "threads", "time", "cost",
                      "speedup_vs_1", "cost==1-lane"});
  for (size_t data_size : dnc_sizes) {
    if (int rc = SweepDnc(data_size, &table); rc != 0) return rc;
  }
  if (int rc = SweepHeuristic(&table); rc != 0) return rc;
  table.Print();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pcqe

int main(int argc, char** argv) {
  // Smoke harnesses pass google-benchmark flags to every micro_* binary;
  // this one has no use for them.
  (void)argc;
  (void)argv;
  return pcqe::bench::Run();
}
