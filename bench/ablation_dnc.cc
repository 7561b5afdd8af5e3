// Ablation: divide-and-conquer design knobs.
//
//  1. Partition threshold γ — low γ merges aggressively (few big groups:
//     better global view, slower sub-solves); high γ leaves many singleton
//     groups (fast, but the combiner has less structure to exploit).
//  2. Exact-pass threshold τ — groups with fewer than τ base tuples get a
//     bounded branch-and-bound polish seeded with the group's greedy cost;
//     τ = 0 disables it (pure greedy inside groups).

#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"
#include "common/stopwatch.h"
#include "strategy/dnc.h"
#include "strategy/partition.h"
#include "workload/generator.h"

namespace pcqe {
namespace {

Workload AblationWorkload() {
  WorkloadParams params;
  params.num_base_tuples = 2000;
  params.bases_per_result = 5;
  params.seed = 42;
  return GenerateWorkload(params);
}

int Run() {
  using namespace bench;
  PrintHeader("Ablation (D&C)", "partition threshold gamma and exact-pass tau");
  Workload w = AblationWorkload();
  auto problem = w.ToProblem();
  if (!problem.ok()) return 1;
  std::printf("workload: 2000 base tuples, 5/result, theta=50%%, beta=0.6\n");

  std::printf("\n[1] gamma sweep (tau = 12)\n\n");
  TablePrinter gamma_table({"gamma", "groups", "largest", "time", "cost"});
  for (double gamma : {1.0, 2.0, 3.0, 5.0, 10.0}) {
    PartitionOptions popts;
    popts.gamma = gamma;
    std::vector<PartitionGroup> groups = PartitionResults(*problem, popts);
    size_t largest = 0;
    for (const PartitionGroup& g : groups) largest = std::max(largest, g.results.size());

    DncOptions options;
    options.partition.gamma = gamma;
    Stopwatch timer;
    auto s = SolveDnc(*problem, options);
    if (!s.ok()) return 1;
    gamma_table.AddRow({FormatDouble(gamma), FormatCount(groups.size()),
                        FormatCount(largest), FormatSeconds(timer.ElapsedSeconds()),
                        FormatCost(s->total_cost)});
  }
  gamma_table.Print();
  std::printf("\nReading: low gamma merges aggressively (fewer, larger groups);\n");
  std::printf("high gamma leaves near-singletons, which hands the marginal-cost\n");
  std::printf("combiner maximal freedom and often *lowers* cost on weakly coupled\n");
  std::printf("workloads. The default gamma=2 follows the paper; tune per workload.\n");

  std::printf("\n[2] tau sweep (gamma = 2)\n\n");
  TablePrinter tau_table({"tau", "time", "cost", "vs tau=0 cost"});
  double base_cost = 0.0;
  for (size_t tau : {size_t{0}, size_t{6}, size_t{12}, size_t{24}}) {
    DncOptions options;
    options.tau = tau;
    options.heuristic_max_nodes = 200'000;  // keep the sweep bounded
    Stopwatch timer;
    auto s = SolveDnc(*problem, options);
    if (!s.ok()) return 1;
    if (tau == 0) base_cost = s->total_cost;
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+.2f%%",
                  (s->total_cost / base_cost - 1.0) * 100.0);
    tau_table.AddRow({FormatCount(tau), FormatSeconds(timer.ElapsedSeconds()),
                      FormatCost(s->total_cost), delta});
  }
  tau_table.Print();
  std::printf("\nReading: the exact pass polishes each group's full-satisfaction\n");
  std::printf("plan; its benefit is workload-dependent (the combiner may use only\n");
  std::printf("a prefix of the polished plan) and its time grows steeply with tau\n");
  std::printf("since branch-and-bound is exponential in group size.\n");
  return 0;
}

}  // namespace
}  // namespace pcqe

int main() { return pcqe::Run(); }
