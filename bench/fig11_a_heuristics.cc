// Figure 11(a): heuristic-algorithm response time by enabled heuristic,
// WITHOUT a greedy initial upper bound.
//
// Paper setup (§5.2): "a small dataset with 10 base tuples. Each query
// requires at least three results with a confidence value above 0.6 and each
// result is linked to 5 base tuples." Variants: Naive (incumbent-cost bound
// only), H1 (costβ ordering), H2, H3, H4, All. The paper reports every
// single heuristic beating Naive and All improving by a factor of ~60.

#include <cstdio>
#include <limits>

#include "bench_common.h"
#include "common/deadline.h"
#include "common/stopwatch.h"
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
  // Single lane throughout: the figure reproduces the paper's sequential
  // search, and node counts are only comparable across variants that way.
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
  params.theta = 0.5;  // >= 3 of 6 results
  params.seed = seed;
  return params;
}

int Run() {
  using namespace bench;
  PrintHeader("Figure 11(a)",
              "heuristic search: response time per enabled heuristic, no greedy bound");
  Scale scale = BenchScale();
  size_t num_seeds = scale == Scale::kQuick ? 2 : 5;
  std::printf("instance: 10 base tuples, 6 results x 5 base tuples each, "
              ">=3 results above beta; averaged over %zu seeds\n\n", num_seeds);

  TablePrinter table({"variant", "time(avg)", "nodes(avg)", "cost(avg)", "vs Naive"});
  double naive_time = 0.0;
  for (const Variant& variant : Variants()) {
    double total_time = 0.0;
    double total_cost = 0.0;
    size_t total_nodes = 0;
    SolverEffort effort;
    for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
      Workload w = GenerateWorkload(InstanceParams(seed));
      auto problem = w.ToProblem();
      if (!problem.ok()) {
        std::fprintf(stderr, "workload error: %s\n", problem.status().ToString().c_str());
        return 1;
      }
      HeuristicOptions options = variant.options;
      // Safety net only. The infinite bound keeps the search unprimed: a
      // deadline without a bound would seed it with the greedy plan.
      options.initial_upper_bound = std::numeric_limits<double>::infinity();
      options.deadline = Deadline::AfterSeconds(300.0);
      Stopwatch timer;
      auto solution = SolveHeuristic(*problem, options);
      if (!solution.ok()) {
        std::fprintf(stderr, "solver error: %s\n", solution.status().ToString().c_str());
        return 1;
      }
      total_time += timer.ElapsedSeconds();
      total_cost += solution->total_cost;
      total_nodes += solution->effort.nodes_expanded;
      effort.MergeFrom(solution->effort);
      if (!solution->feasible) std::fprintf(stderr, "warning: infeasible seed %llu\n",
                                            static_cast<unsigned long long>(seed));
    }
    double avg_time = total_time / static_cast<double>(num_seeds);
    if (std::string(variant.name) == "Naive") naive_time = avg_time;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", naive_time / std::max(avg_time, 1e-9));
    table.AddRow({variant.name, FormatSeconds(avg_time),
                  FormatCount(total_nodes / num_seeds),
                  FormatCost(total_cost / static_cast<double>(num_seeds)), speedup});
    EmitEffortLine("fig11_a", variant.name, effort);
  }
  table.Print();
  std::printf("\nExpected shape (paper): every heuristic beats Naive; All is fastest\n");
  std::printf("(paper reports ~60x for All); identical cost in every row (all\n");
  std::printf("variants are exact searches).\n");
  return 0;
}

}  // namespace
}  // namespace pcqe

int main() { return pcqe::Run(); }
