// Micro-benchmarks (google-benchmark) for the query engine: parsing,
// planning, operator throughput with lineage propagation — each operator in
// both execution modes (row reference vs. vectorized column chunks).
//
// After the google-benchmark fixtures, a 1M-row scan+join+lineage sweep runs
// both engines head-to-head and emits machine-readable lines:
//   BENCH {"bench":"micro_query","op":...,"mode":"row"|"vec","rows":...,
//          "seconds":...,"krows_per_sec":...}
//   BENCH {"bench":"micro_query","op":...,"rows":...,"speedup_vec_over_row":...}
// then a β-selectivity pushdown sweep (op "pushdown_sweep": β at the
// 10/50/90/99th confidence percentile, pushdown off vs on, hard zero-
// divergence gate on the released surface) and a profiling-overhead gate.
// Scale via PCQE_BENCH_SCALE: quick=100K rows, paper (default)=1M, full=4M.
// Recorded baselines live in bench/baselines/ (see its README.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "query/confidence_index.h"
#include "query/parser.h"
#include "query/query_engine.h"
#include "relational/catalog.h"
#include "relational/column_chunk.h"

namespace pcqe {
namespace {

/// Catalog with `orders(id, customer, amount)` of `n` rows and
/// `customers(customer, region)` of `n / 10` rows. With `clustered` the
/// orders confidences grow with row position (±0.01 jitter) — the
/// ingest-batch clustering that gives the β-pushdown zone maps real chunk
/// skipping power; otherwise they are i.i.d. Uniform(0.05, 0.95).
std::unique_ptr<Catalog> MakeCatalog(size_t n, bool clustered = false) {
  auto catalog = std::make_unique<Catalog>();
  Rng rng(7);
  Table* orders = *catalog->CreateTable(
      "orders", Schema({{"id", DataType::kInt64, ""},
                        {"customer", DataType::kInt64, ""},
                        {"amount", DataType::kDouble, ""}}));
  size_t num_customers = std::max<size_t>(1, n / 10);
  for (size_t i = 0; i < n; ++i) {
    double confidence =
        clustered ? std::clamp(0.05 +
                                   0.9 * static_cast<double>(i) /
                                       static_cast<double>(n) +
                                   rng.Uniform(-0.01, 0.01),
                               0.02, 0.98)
                  : rng.Uniform(0.05, 0.95);
    (void)*orders->Insert(
        {Value::Int(static_cast<int64_t>(i)),
         Value::Int(rng.UniformInt(0, static_cast<int64_t>(num_customers) - 1)),
         Value::Double(rng.Uniform(1.0, 1000.0))},
        confidence);
  }
  Table* customers = *catalog->CreateTable(
      "customers",
      Schema({{"customer", DataType::kInt64, ""}, {"region", DataType::kString, ""}}));
  for (size_t c = 0; c < num_customers; ++c) {
    (void)*customers->Insert(
        {Value::Int(static_cast<int64_t>(c)),
         Value::String(StrFormat("region-%lld", static_cast<long long>(c % 7)))},
        rng.Uniform(0.05, 0.95));
  }
  return catalog;
}

ExecutionMode ModeArg(const benchmark::State& state) {
  return state.range(1) == 0 ? ExecutionMode::kRow : ExecutionMode::kVectorized;
}

void SetModeLabel(benchmark::State& state) {
  state.SetLabel(ExecutionModeToString(ModeArg(state)));
}

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT ci.company, ci.income FROM (SELECT DISTINCT company FROM proposal "
      "WHERE funding < 1000000) AS c JOIN companyinfo AS ci ON c.company = ci.company "
      "ORDER BY ci.income DESC LIMIT 10";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseSelect(sql));
  }
}
BENCHMARK(BM_ParseSelect);

void BM_ScanWithConfidence(benchmark::State& state) {
  auto catalog = MakeCatalog(static_cast<size_t>(state.range(0)));
  SetModeLabel(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunQuery(*catalog, "SELECT * FROM orders", nullptr, ModeArg(state)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanWithConfidence)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_FilterSelective(benchmark::State& state) {
  auto catalog = MakeCatalog(static_cast<size_t>(state.range(0)));
  SetModeLabel(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(*catalog, "SELECT id FROM orders WHERE amount < 100",
                                      nullptr, ModeArg(state)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterSelective)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_HashJoin(benchmark::State& state) {
  auto catalog = MakeCatalog(static_cast<size_t>(state.range(0)));
  SetModeLabel(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunQuery(*catalog,
                 "SELECT o.id, c.region FROM orders AS o JOIN customers AS c "
                 "ON o.customer = c.customer",
                 nullptr, ModeArg(state)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_DistinctWithOrLineage(benchmark::State& state) {
  auto catalog = MakeCatalog(static_cast<size_t>(state.range(0)));
  SetModeLabel(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(*catalog, "SELECT DISTINCT customer FROM orders",
                                      nullptr, ModeArg(state)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistinctWithOrLineage)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SortLimit(benchmark::State& state) {
  auto catalog = MakeCatalog(static_cast<size_t>(state.range(0)));
  SetModeLabel(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunQuery(*catalog, "SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 10",
                 nullptr, ModeArg(state)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortLimit)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The 1M-row sweep: one timed head-to-head per operator, both modes, with the
// full pipeline (execute + lineage + confidence) inside the timed region.

double TimeQuery(const Catalog& catalog, const std::string& sql, ExecutionMode mode,
                 bool materialize_values, size_t* out_rows) {
  double best = 1e99;
  for (int rep = 0; rep < 2; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    Result<QueryResult> result = RunQuery(catalog, sql, nullptr, mode, materialize_values);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "sweep query failed: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    *out_rows = result->rows.size();
    double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best) best = s;
  }
  return best;
}

void RunSweep() {
  using bench::FormatCount;
  using bench::FormatSeconds;
  bench::Scale scale = bench::BenchScale();
  size_t n = scale == bench::Scale::kQuick  ? 100'000
             : scale == bench::Scale::kFull ? 4'000'000
                                            : 1'000'000;
  std::printf("\n== 1M-row scan+join+lineage sweep (rows=%s, scale=%s) ==\n",
              FormatCount(n).c_str(), bench::ScaleName(scale));
  auto catalog = MakeCatalog(n);

  struct Op {
    const char* name;
    std::string sql;
  };
  const Op ops[] = {
      {"scan", "SELECT * FROM orders"},
      {"filter", "SELECT id FROM orders WHERE amount < 100"},
      {"join",
       "SELECT o.id, c.region FROM orders AS o JOIN customers AS c "
       "ON o.customer = c.customer"},
      {"distinct", "SELECT DISTINCT customer FROM orders"},
  };

  // "vec" is the engine's serving configuration (PcqeEngine::Evaluate):
  // confidences computed nodelessly from the factorized result; value boxing
  // and lineage interning deferred until something needs them (display, the
  // shortfall solver). "vec_boxed" materializes everything eagerly for
  // RunQuery API parity — that per-row boxing floor is identical work in
  // both engines, so the architectural difference shows in row-vs-vec.
  bench::TablePrinter table(
      {"op", "rows", "row_engine", "vectorized", "vec_boxed", "speedup"});
  for (const Op& op : ops) {
    size_t out_rows = 0;
    double row_s =
        TimeQuery(*catalog, op.sql, ExecutionMode::kRow, /*materialize=*/true, &out_rows);
    double vec_s = TimeQuery(*catalog, op.sql, ExecutionMode::kVectorized,
                             /*materialize=*/false, &out_rows);
    double boxed_s = TimeQuery(*catalog, op.sql, ExecutionMode::kVectorized,
                               /*materialize=*/true, &out_rows);
    double speedup = row_s / vec_s;
    for (auto [mode, seconds] : {std::pair<const char*, double>{"row", row_s},
                                 std::pair<const char*, double>{"vec", vec_s},
                                 std::pair<const char*, double>{"vec_boxed", boxed_s}}) {
      std::printf(
          "BENCH {\"bench\":\"micro_query\",\"op\":\"%s\",\"mode\":\"%s\","
          "\"rows\":%zu,\"out_rows\":%zu,\"seconds\":%.6f,\"krows_per_sec\":%.1f}\n",
          op.name, mode, n, out_rows, seconds,
          static_cast<double>(n) / seconds / 1e3);
    }
    std::printf(
        "BENCH {\"bench\":\"micro_query\",\"op\":\"%s\",\"rows\":%zu,"
        "\"speedup_vec_over_row\":%.2f}\n",
        op.name, n, speedup);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx", speedup);
    table.AddRow({op.name, FormatCount(n), FormatSeconds(row_s), FormatSeconds(vec_s),
                  FormatSeconds(boxed_s), ratio});
  }
  table.Print();
}

// ---------------------------------------------------------------------------
// β-selectivity pushdown sweep: the scan→join pipeline with β pinned to the
// 10/50/90/99th percentile of the orders confidence distribution, pushdown
// off vs on, over a clustered-confidence catalog (each chunk spans a tight
// range, so the zone maps can skip whole chunks). The differential gate is
// hard: the β-filtered (released) surface of the pushed run must equal the
// unpushed one's confidence-for-confidence, every β, or the process exits
// non-zero — check.sh runs every bench, so this rides every CI build.
// Speedups are report-only (timing-dependent); the expectation is ≥5x at
// the 99th percentile at paper scale, where 99% of the join input vanishes.

void RunPushdownSweep() {
  using bench::FormatCount;
  using bench::FormatSeconds;
  bench::Scale scale = bench::BenchScale();
  size_t n = scale == bench::Scale::kQuick  ? 100'000
             : scale == bench::Scale::kFull ? 4'000'000
                                            : 1'000'000;
  std::printf("\n== beta-selectivity pushdown sweep (rows=%s, clustered) ==\n",
              FormatCount(n).c_str());
  auto catalog = MakeCatalog(n, /*clustered=*/true);
  const std::string sql =
      "SELECT o.id, c.region FROM orders AS o JOIN customers AS c "
      "ON o.customer = c.customer";

  // β values read off the actual stored distribution, not assumed.
  std::vector<double> sorted;
  const Table* orders = *static_cast<const Catalog&>(*catalog).GetTable("orders");
  const TableColumnData& data = orders->column_data();
  sorted.reserve(data.num_rows());
  for (size_t c = 0; c < data.num_chunks(); ++c) {
    const std::vector<double>& chunk = data.confidence_chunk(c);
    sorted.insert(sorted.end(), chunk.begin(), chunk.end());
  }
  std::sort(sorted.begin(), sorted.end());

  ConfidenceIndexCache index;
  auto run = [&](const ConfidencePushdown* pushdown, QueryResult* out) {
    double best = 1e99;
    for (int rep = 0; rep < 2; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      Result<QueryResult> result =
          RunQuery(*catalog, sql, nullptr, ExecutionMode::kVectorized,
                   /*materialize_values=*/false, nullptr, pushdown);
      auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "pushdown sweep query failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      double s = std::chrono::duration<double>(t1 - t0).count();
      if (s < best) {
        best = s;
        *out = std::move(*result);
      }
    }
    return best;
  };

  bench::TablePrinter table({"beta_pct", "beta", "released", "no_pushdown",
                             "pushdown", "speedup", "pruned_chunks"});
  for (int pct : {10, 50, 90, 99}) {
    double beta =
        sorted[std::min(sorted.size() - 1, sorted.size() * static_cast<size_t>(pct) / 100)];
    ConfidencePushdown pushdown;
    pushdown.beta = beta;
    pushdown.index = &index;
    QueryResult off_result;
    QueryResult on_result;
    double off_s = run(nullptr, &off_result);
    double on_s = run(&pushdown, &on_result);

    // Release-identity: the policy keep-test (conf > β + ε) applied to both
    // results must select the same confidence sequence. Pushdown prunes only
    // base tuples that can never clear β, so surviving-but-blocked rows may
    // differ in count — the released surface may not.
    auto released = [beta](const QueryResult& result) {
      std::vector<double> kept;
      for (const QueryResult::Row& row : result.rows) {
        if (row.confidence > beta + kEpsilon) kept.push_back(row.confidence);
      }
      return kept;
    };
    std::vector<double> off_released = released(off_result);
    std::vector<double> on_released = released(on_result);
    if (off_released != on_released) {
      std::fprintf(stderr,
                   "FAIL: pushdown diverged at beta=%.6f (released %zu vs %zu)\n",
                   beta, off_released.size(), on_released.size());
      std::exit(1);
    }

    double speedup = off_s / on_s;
    std::printf(
        "BENCH {\"bench\":\"micro_query\",\"op\":\"pushdown_sweep\","
        "\"beta_pct\":%d,\"beta\":%.4f,\"rows\":%zu,\"released\":%zu,"
        "\"seconds_off\":%.6f,\"seconds_on\":%.6f,\"speedup\":%.2f,"
        "\"pruned_rows\":%llu,\"pruned_chunks\":%llu}\n",
        pct, beta, n, on_released.size(), off_s, on_s, speedup,
        static_cast<unsigned long long>(on_result.vec_stats.pruned_rows),
        static_cast<unsigned long long>(on_result.vec_stats.pruned_chunks));
    char beta_str[16];
    std::snprintf(beta_str, sizeof(beta_str), "%.3f", beta);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx", speedup);
    table.AddRow({std::to_string(pct), beta_str, FormatCount(on_released.size()),
                  FormatSeconds(off_s), FormatSeconds(on_s), ratio,
                  FormatCount(on_result.vec_stats.pruned_chunks)});
  }
  table.Print();
  std::printf("pushdown sweep: zero divergence across all beta percentiles\n");
}

// ---------------------------------------------------------------------------
// Profiling overhead: EXPLAIN ANALYZE must be pay-for-what-you-use. The
// unprofiled leg (the serving default) runs with a null profiler — one
// pointer test per operator, no allocation — so a profiled run over the same
// scan→filter→join pipeline must land within 5% of it (plus an absolute
// floor for timer jitter on loaded CI machines). Exits non-zero on a
// persistent violation so check.sh catches a profiler that leaks cost onto
// the hot path.

void RunProfileOverheadLeg() {
  bench::Scale scale = bench::BenchScale();
  size_t n = scale == bench::Scale::kQuick  ? 100'000
             : scale == bench::Scale::kFull ? 4'000'000
                                            : 1'000'000;
  auto catalog = MakeCatalog(n);
  const std::string sql =
      "SELECT o.id, c.region FROM orders AS o JOIN customers AS c "
      "ON o.customer = c.customer WHERE o.amount < 500";

  auto measure = [&](bool profiled) {
    double best = 1e99;
    for (int rep = 0; rep < 5; ++rep) {
      OperatorProfile profile;
      auto t0 = std::chrono::steady_clock::now();
      Result<QueryResult> result =
          RunQuery(*catalog, sql, nullptr, ExecutionMode::kVectorized,
                   /*materialize_values=*/false, profiled ? &profile : nullptr);
      auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "overhead query failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      if (profiled && profile.nodes.empty()) {
        std::fprintf(stderr, "profiled run collected no operator nodes\n");
        std::exit(1);
      }
      double s = std::chrono::duration<double>(t1 - t0).count();
      if (s < best) best = s;
    }
    return best;
  };

  std::printf("\n== profiling overhead (rows=%s) ==\n", bench::FormatCount(n).c_str());
  // Min-of-5 per leg absorbs most scheduler noise; an absolute slack floor
  // covers short quick-scale runs where 5% is below timer resolution. One
  // remeasure before failing: a single page-cache or frequency blip should
  // not fail the build.
  constexpr double kAbsoluteSlack = 0.005;  // 5ms
  double off = 0.0;
  double on = 0.0;
  bool ok = false;
  for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
    off = measure(/*profiled=*/false);
    on = measure(/*profiled=*/true);
    ok = on <= off * 1.05 + kAbsoluteSlack;
  }
  double overhead_pct = (on / off - 1.0) * 100.0;
  std::printf(
      "BENCH {\"bench\":\"micro_query\",\"op\":\"profile_overhead\",\"rows\":%zu,"
      "\"seconds_off\":%.6f,\"seconds_on\":%.6f,\"overhead_pct\":%.2f}\n",
      n, off, on, overhead_pct);
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: profiled run %.6fs exceeds unprofiled %.6fs by more "
                 "than 5%% + %.0fms slack\n",
                 on, off, kAbsoluteSlack * 1e3);
    std::exit(1);
  }
  double bound_pct = 5.0 + kAbsoluteSlack / off * 100.0;
  std::printf(
      "profiling overhead %.2f%% (unprofiled %s, profiled %s) — within 5%% + %.0fms "
      "(%.2f%% of unprofiled)\n",
      overhead_pct, bench::FormatSeconds(off).c_str(), bench::FormatSeconds(on).c_str(),
      kAbsoluteSlack * 1e3, bound_pct);
}

}  // namespace
}  // namespace pcqe

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pcqe::RunSweep();
  pcqe::RunPushdownSweep();
  pcqe::RunProfileOverheadLeg();
  return 0;
}
