// Figure 11(d): heuristic-algorithm response time by enabled heuristic,
// WITH the greedy solution priming the cost upper bound.
//
// Same instances as Figure 11(a); the minimum cost computed by the greedy
// algorithm seeds the branch-and-bound incumbent, which the paper reports
// improves every variant ("the upper bound provided by the greedy algorithm
// helps pruning the search space from the beginning").

#include <cstdio>
#include <limits>

#include "bench_common.h"
#include "common/deadline.h"
#include "common/stopwatch.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"
#include "workload/generator.h"

namespace pcqe {
namespace {

struct Variant {
  const char* name;
  HeuristicOptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  HeuristicOptions none;
  // Single lane: same sequential-reproduction reasoning as Figure 11(a).
  none.parallelism.threads = 1;
  none.use_h1_ordering = none.use_h2 = none.use_h3 = none.use_h4 = false;
  variants.push_back({"Naive", none});
  for (int h = 0; h < 4; ++h) {
    HeuristicOptions one = none;
    if (h == 0) one.use_h1_ordering = true;
    if (h == 1) one.use_h2 = true;
    if (h == 2) one.use_h3 = true;
    if (h == 3) one.use_h4 = true;
    static const char* kNames[] = {"H1", "H2", "H3", "H4"};
    variants.push_back({kNames[h], one});
  }
  HeuristicOptions all;
  all.parallelism.threads = 1;
  variants.push_back({"All", all});
  return variants;
}

WorkloadParams InstanceParams(uint64_t seed) {
  WorkloadParams params;
  params.num_base_tuples = 10;
  params.num_results = 6;
  params.bases_per_result = 5;
  params.or_group_size = 3;
  params.theta = 0.5;
  params.seed = seed;
  return params;
}

int Run() {
  using namespace bench;
  PrintHeader("Figure 11(d)",
              "heuristic search: response time per heuristic, greedy bound primed");
  Scale scale = BenchScale();
  size_t num_seeds = scale == Scale::kQuick ? 2 : 5;
  std::printf("instance: as Figure 11(a); branch-and-bound seeded with the greedy "
              "cost; averaged over %zu seeds\n\n", num_seeds);

  TablePrinter table(
      {"variant", "time(avg)", "nodes(avg)", "cost(avg)", "vs no-bound"});
  for (const Variant& variant : Variants()) {
    double bounded_time = 0.0;
    double unbounded_time = 0.0;
    double total_cost = 0.0;
    size_t bounded_nodes = 0;
    SolverEffort effort;
    for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
      Workload w = GenerateWorkload(InstanceParams(seed));
      auto problem = w.ToProblem();
      if (!problem.ok()) return 1;

      auto greedy = SolveGreedy(*problem);
      if (!greedy.ok()) return 1;

      HeuristicOptions unbounded_options = variant.options;
      // Safety net only. The infinite bound keeps this search unprimed: a
      // deadline without a bound would seed it with the greedy plan.
      unbounded_options.initial_upper_bound = std::numeric_limits<double>::infinity();
      unbounded_options.deadline = Deadline::AfterSeconds(300.0);
      Stopwatch timer;
      auto unbounded = SolveHeuristic(*problem, unbounded_options);
      if (!unbounded.ok()) return 1;
      unbounded_time += timer.ElapsedSeconds();

      HeuristicOptions bounded_options = unbounded_options;
      bounded_options.initial_upper_bound = greedy->total_cost;
      bounded_options.initial_assignment = greedy->new_confidence;
      bounded_options.deadline = Deadline::AfterSeconds(300.0);
      timer.Restart();
      auto bounded = SolveHeuristic(*problem, bounded_options);
      if (!bounded.ok()) return 1;
      bounded_time += timer.ElapsedSeconds();
      total_cost += bounded->total_cost;
      bounded_nodes += bounded->effort.nodes_expanded;
      effort.MergeFrom(bounded->effort);
    }
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  unbounded_time / std::max(bounded_time, 1e-9));
    table.AddRow({variant.name,
                  FormatSeconds(bounded_time / static_cast<double>(num_seeds)),
                  FormatCount(bounded_nodes / num_seeds),
                  FormatCost(total_cost / static_cast<double>(num_seeds)), ratio});
    EmitEffortLine("fig11_d", variant.name, effort);
  }
  table.Print();
  std::printf("\nExpected shape (paper): every variant at or below its Figure 11(a)\n");
  std::printf("time ('vs no-bound' >= 1x); the greedy bound is nearly optimal, so\n");
  std::printf("it prunes from the first node.\n");
  return 0;
}

}  // namespace
}  // namespace pcqe

int main() { return pcqe::Run(); }
