// Copyright (c) PCQE contributors.
// Shared sweep for Figures 11(c) (response time) and 11(f) (minimum cost):
// heuristic vs greedy vs divide-and-conquer across data sizes.
//
// Paper setup (§5.3): data size 10–100K; base tuples per result = 5 below
// 5K and data_size/1000 from 10K up; θ = 50%, β = 0.6. The heuristic only
// handles tiny instances (the paper says "less than one hundred"); the
// paper's greedy becomes impractical ("takes hours") beyond 50K, so the
// default sweep caps the paper-literal greedy and lets D&C continue alone.
// Cells that a scale skips print "-".

#ifndef PCQE_BENCH_FIG11_OVERALL_H_
#define PCQE_BENCH_FIG11_OVERALL_H_

#include <cstdio>
#include <limits>
#include <optional>

#include "bench_common.h"
#include "common/deadline.h"
#include "common/stopwatch.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "workload/generator.h"

namespace pcqe {
namespace bench {

struct OverallCell {
  double seconds = 0.0;
  double cost = 0.0;
  bool exact = true;  ///< search completed (heuristic only)
};

struct OverallRow {
  size_t data_size = 0;
  std::optional<OverallCell> heuristic;
  std::optional<OverallCell> greedy;
  std::optional<OverallCell> dnc;
};

inline WorkloadParams OverallParams(size_t data_size) {
  WorkloadParams params;
  params.num_base_tuples = data_size;
  // Paper: 5 base tuples/result below 5K; data_size/1000 from 10K up.
  params.bases_per_result = data_size >= 10000 ? data_size / 1000 : 5;
  if (data_size <= 100) {
    params.bases_per_result = 5;
    params.num_results = std::max<size_t>(2, data_size / 2);
    params.or_group_size = 3;
  }
  params.seed = 42;
  return params;
}

inline int RunOverallSweep(std::vector<OverallRow>* rows) {
  Scale scale = BenchScale();
  std::vector<size_t> sizes;
  size_t greedy_cap, heuristic_cap;
  switch (scale) {
    case Scale::kQuick:
      sizes = {10, 1000, 5000};
      greedy_cap = 5000;
      heuristic_cap = 10;
      break;
    case Scale::kPaper:
      sizes = {10, 1000, 5000, 10000, 20000, 50000};
      greedy_cap = 10000;
      heuristic_cap = 10;
      break;
    case Scale::kFull:
      sizes = {10, 1000, 5000, 10000, 50000, 100000};
      greedy_cap = 50000;
      heuristic_cap = 50;
      break;
  }

  for (size_t data_size : sizes) {
    OverallRow row;
    row.data_size = data_size;
    Workload w = GenerateWorkload(OverallParams(data_size));
    auto problem = w.ToProblem();
    if (!problem.ok()) {
      std::fprintf(stderr, "workload %zu: %s\n", data_size,
                   problem.status().ToString().c_str());
      return 1;
    }

    if (data_size <= heuristic_cap) {
      // Paper-figure reproduction: all three solvers run single-lane (the
      // paper's algorithms are sequential). bench/micro_parallel.cc owns the
      // thread-count story.
      HeuristicOptions options;
      options.parallelism.threads = 1;
      // Safety net only. The infinite bound keeps the search unprimed: a
      // deadline without a bound would seed it with the greedy plan.
      options.initial_upper_bound = std::numeric_limits<double>::infinity();
      options.deadline = Deadline::AfterSeconds(120.0);
      Stopwatch timer;
      auto s = SolveHeuristic(*problem, options);
      if (!s.ok()) return 1;
      row.heuristic = OverallCell{timer.ElapsedSeconds(), s->total_cost,
                                  !s->partial()};
      EmitEffortLine("fig11_overall",
                     ("heuristic_n" + std::to_string(data_size)).c_str(),
                     s->effort);
    }

    if (data_size <= greedy_cap) {
      GreedyOptions paper_greedy;
      paper_greedy.lazy_gain_queue = false;  // the paper's O(k*l1) procedure
      Stopwatch timer;
      auto s = SolveGreedy(*problem, paper_greedy);
      if (!s.ok()) return 1;
      row.greedy = OverallCell{timer.ElapsedSeconds(), s->total_cost, true};
      EmitEffortLine("fig11_overall",
                     ("greedy_n" + std::to_string(data_size)).c_str(), s->effort);
    }

    {
      DncOptions options;
      options.parallelism.threads = 1;
      options.greedy.lazy_gain_queue = false;  // same greedy inside groups
      Stopwatch timer;
      auto s = SolveDnc(*problem, options);
      if (!s.ok()) return 1;
      row.dnc = OverallCell{timer.ElapsedSeconds(), s->total_cost, true};
      EmitEffortLine("fig11_overall",
                     ("dnc_n" + std::to_string(data_size)).c_str(), s->effort);
    }
    rows->push_back(row);
    std::fprintf(stderr, "  [done %zu]\n", data_size);
  }
  return 0;
}

}  // namespace bench
}  // namespace pcqe

#endif  // PCQE_BENCH_FIG11_OVERALL_H_
