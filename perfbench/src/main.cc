// End-to-end PCQE benchmark: one seeded workload through `QueryService`.
//
//   pcqe_perfbench --workload <release_read|shortfall_solve|mixed_accept>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                  [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 sets the workload up several times (median set-up time), drives
// a closed loop of client threads for --seconds, checks the answers outside
// the timed window and prints the end-to-end metrics.
// --trace 1 runs the same loop once more for the loaded figures, then
// replays a fixed prefix of the same seeded stream with one client three
// times: untraced, traced through the service (pass A), and traced through
// the engine's public functions (pass B). Span self times give the
// per-layer metrics. The last stdout line is always one JSON object.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalogs.h"
#include "checks.h"
#include "common/annotations.h"
#include "common/string_util.h"
#include "engine/pcqe_engine.h"
#include "ledger.h"
#include "query/parser.h"
#include "query/planner.h"
#include "service/query_service.h"
#include "storage/recovery.h"

namespace perfbench {
namespace {

using pcqe::QueryOutcome;
using pcqe::Result;
using pcqe::StrFormat;

// Set-ups per --trace 0 run, whose median is the reported set-up time: at
// least kMinSetupReps, and more, up to kMaxSetupReps, while they have taken
// less than kSetupBudgetS in total (a cheap set-up is a noisy one).
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupBudgetS = 2.0;
// Sampled reads per client for the differential oracle (release_read).
constexpr size_t kReadSamplesPerClient = 2;
// Proposals applied to a catalog copy (shortfall_solve), over all clients.
constexpr size_t kAppliedSamples = 8;

struct Args {
  Workload workload = Workload::kReleaseRead;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pcqe_perfbench --workload "
               "<release_read|shortfall_solve|mixed_accept> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      if (value == "release_read") {
        args.workload = Workload::kReleaseRead;
      } else if (value == "shortfall_solve") {
        args.workload = Workload::kShortfallSolve;
      } else if (value == "mixed_accept") {
        args.workload = Workload::kMixedAccept;
      } else {
        Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

// ---------------------------------------------------------------------------
// Set-up.

struct Instance {
  Workload workload = Workload::kReleaseRead;
  CatalogSizes sizes;
  std::unique_ptr<pcqe::Catalog> catalog;
  std::unique_ptr<pcqe::PcqeEngine> engine;
  std::unique_ptr<pcqe::QueryService> service;
  std::vector<pcqe::SessionHandle> sessions;
  std::string durable_dir;
};

struct SetupTiming {
  double total_s = 0.0;
  double load_s = 0.0;
  double rss_growth_mb = 0.0;
};

/// Loads the result cache (and, through the pushdown reads, the zone maps)
/// with the workload's hot texts. Shortfall texts warm with θ = 0 and
/// pushdown off, which keys them exactly as the θ > 0 requests.
void WarmUp(Instance* inst, uint64_t seed) {
  for (const Op& op : WarmupOps(inst->workload, inst->sizes, seed)) {
    pcqe::ServiceRequest request;
    request.sql = op.sql;
    request.required_fraction = 0.0;
    if (inst->workload == Workload::kShortfallSolve) {
      request.pushdown = false;
      PCQE_CHECK(inst->service->Submit(inst->sessions[kBuyerSession], request).ok());
      continue;
    }
    for (size_t s = 0; s < kBuyerSession; ++s) {
      PCQE_CHECK(inst->service->Submit(inst->sessions[s], request).ok());
    }
  }
}

/// Generate + load + engine/service construction + durable open + warm-up.
std::unique_ptr<Instance> MakeInstance(Workload w, uint64_t seed, const std::string& durable_dir,
                                       SetupTiming* timing) {
  auto start = Clock::now();
  double rss_before = RssMb();
  auto inst = std::make_unique<Instance>();
  inst->workload = w;
  inst->sizes = SizesFor(w);
  inst->catalog = BuildCatalog(inst->sizes, seed);
  timing->load_s = MsBetween(start, Clock::now()) / 1000.0;
  timing->rss_growth_mb = RssMb() - rss_before;
  inst->engine = BuildEngine(inst->catalog.get());
  pcqe::ServiceOptions options;
  if (!durable_dir.empty()) {
    std::filesystem::remove_all(durable_dir);
    options.durability.dir = durable_dir;
    inst->durable_dir = durable_dir;
  }
  inst->service = std::make_unique<pcqe::QueryService>(inst->engine.get(), options);
  PCQE_CHECK(inst->service->durability_status().ok());
  for (const SessionSpec& s : Sessions()) {
    Result<pcqe::SessionHandle> session = inst->service->OpenSession(s.user, s.purpose);
    PCQE_CHECK(session.ok());
    inst->sessions.push_back(*session);
  }
  WarmUp(inst.get(), seed);
  timing->total_s = MsBetween(start, Clock::now()) / 1000.0;
  return inst;
}

// ---------------------------------------------------------------------------
// The timed closed loop.

struct LoopResult {
  std::vector<double> all_ms, read_ms, solve_ms, accept_ms, checkpoint_ms, costs;
  /// Read latencies by query shape (OpClass).
  std::array<std::vector<double>, 3> read_shape_ms;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<Op, QueryOutcome>> read_samples;
  std::vector<SolveSample> solve_samples;

  void Merge(LoopResult&& o) {
    auto append = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    append(&all_ms, o.all_ms);
    append(&read_ms, o.read_ms);
    append(&solve_ms, o.solve_ms);
    append(&accept_ms, o.accept_ms);
    append(&checkpoint_ms, o.checkpoint_ms);
    append(&costs, o.costs);
    for (size_t c = 0; c < read_shape_ms.size(); ++c) append(&read_shape_ms[c], o.read_shape_ms[c]);
    attempted += o.attempted;
    failed += o.failed;
    for (auto& e : o.errors) errors.push_back(std::move(e));
    for (auto& s : o.read_samples) read_samples.push_back(std::move(s));
    for (auto& s : o.solve_samples) solve_samples.push_back(std::move(s));
  }
};

void Fail(LoopResult* r, const std::string& what) {
  ++r->failed;
  if (r->errors.size() < 8) r->errors.push_back(what);
}

void RunClient(Instance* inst, uint64_t seed, size_t client, Clock::time_point end,
               LoopResult* out) {
  Stream stream(inst->workload, inst->sizes, seed, client);
  size_t accepts = 0;
  for (size_t i = 0; Clock::now() < end; ++i) {
    Op op = stream.Next();
    pcqe::ServiceRequest request;
    request.sql = op.sql;
    request.required_fraction = op.theta;
    auto t0 = Clock::now();
    Result<std::future<Result<QueryOutcome>>> future =
        inst->service->SubmitAsync(inst->sessions[op.session], request);
    Result<QueryOutcome> outcome = future.ok() ? future->get() : future.status();
    double ms = MsBetween(t0, Clock::now());
    ++out->attempted;
    if (op.think_ms > 0.0) {
      auto wake = std::min(end, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double, std::milli>(
                                                       op.think_ms)));
      std::this_thread::sleep_until(wake);
    }
    if (!outcome.ok()) {
      Fail(out, op.sql + ": " + outcome.status().ToString());
      continue;
    }
    out->all_ms.push_back(ms);
    const pcqe::StrategyProposal& proposal = outcome->proposal;
    if (op.theta == 0.0) {
      out->read_ms.push_back(ms);
      out->read_shape_ms[static_cast<size_t>(op.cls)].push_back(ms);
      if (inst->workload == Workload::kReleaseRead && i % 8 == 3 &&
          out->read_samples.size() < kReadSamplesPerClient) {
        out->read_samples.emplace_back(op, std::move(*outcome));
        continue;
      }
    } else if (proposal.needed) {
      out->solve_ms.push_back(ms);
      out->costs.push_back(proposal.total_cost);
      std::string flags = CheckProposalFlags(proposal);
      if (!flags.empty()) Fail(out, "proposal check: " + flags);
      if (inst->workload == Workload::kShortfallSolve &&
          out->solve_samples.size() < kAppliedSamples / kClients) {
        out->solve_samples.push_back({op, outcome->intermediate.rows.size(), proposal});
      }
    }
    if (!op.accept || !proposal.needed) continue;
    auto t1 = Clock::now();
    pcqe::Status accepted = inst->service->Accept(proposal);
    double accept_ms = MsBetween(t1, Clock::now());
    ++out->attempted;
    if (!accepted.ok()) {
      Fail(out, "accept: " + accepted.ToString());
      continue;
    }
    out->all_ms.push_back(accept_ms);
    out->accept_ms.push_back(accept_ms);
    if (++accepts % kCheckpointEvery == 0) {
      auto t2 = Clock::now();
      pcqe::Status checkpoint = inst->service->Checkpoint();
      out->checkpoint_ms.push_back(MsBetween(t2, Clock::now()));
      if (!checkpoint.ok()) Fail(out, "checkpoint: " + checkpoint.ToString());
    }
  }
}

struct Loaded {
  LoopResult r;
  double elapsed_s = 0.0;
  double steal_pct = 0.0;
  pcqe::ServiceStatsSnapshot stats;
};

Loaded RunLoop(Instance* inst, uint64_t seed, double seconds) {
  std::vector<LoopResult> per_client(kClients);
  pcqe::ServiceStatsSnapshot before = inst->service->stats();
  CpuTicks ticks = ReadCpuTicks();
  auto start = Clock::now();
  auto end = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, inst, seed, c, end, &per_client[c]);
    }
  }
  Loaded loaded;
  loaded.elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  loaded.steal_pct = StealPct(ticks, ReadCpuTicks());
  for (LoopResult& r : per_client) loaded.r.Merge(std::move(r));
  // The loop's own cache traffic, without the warm-up's.
  loaded.stats = inst->service->stats();
  loaded.stats.cache_hits -= before.cache_hits;
  loaded.stats.cache_misses -= before.cache_misses;
  loaded.stats.cache_evictions -= before.cache_evictions;
  return loaded;
}

// ---------------------------------------------------------------------------
// Answer checks.

struct CheckReport {
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  double recovery_s = 0.0;
  uint64_t replayed_records = 0;
};

/// Recovers `inst`'s durable directory into a fresh catalog (timed) and
/// compares it with the live one. The service must be shut down.
void CheckDurability(Instance* inst, CheckReport* report,
                     std::unique_ptr<pcqe::Catalog>* recovered) {
  *recovered = std::make_unique<pcqe::Catalog>();
  auto t0 = Clock::now();
  Result<pcqe::RecoveryReport> rec =
      pcqe::RecoveryManager(inst->durable_dir).Recover(recovered->get());
  report->recovery_s = MsBetween(t0, Clock::now()) / 1000.0;
  if (!rec.ok()) {
    report->failures.push_back("recovery failed: " + rec.status().ToString());
    recovered->reset();
    return;
  }
  report->replayed_records = rec->replayed_records;
  std::string why = CheckRecovered(*inst->catalog, **recovered, rec->recovered_version);
  if (!why.empty()) report->failures.push_back("durability check: " + why);
  report->notes.push_back(StrFormat(
      "durability check: %zu tables, version %llu, %llu WAL records replayed in %.3f s",
      inst->catalog->TableNames().size(), static_cast<unsigned long long>(rec->recovered_version),
      static_cast<unsigned long long>(rec->replayed_records), report->recovery_s));
}

CheckReport RunChecks(Instance* inst, uint64_t seed, Loaded* loaded) {
  CheckReport report;
  for (const std::string& e : loaded->r.errors) report.failures.push_back("operation failed: " + e);
  std::vector<ReadSample> reads;
  for (auto& [op, outcome] : loaded->r.read_samples) {
    reads.push_back({op, Sessions()[op.session].beta, ReleasedOf(outcome)});
  }
  size_t read_failures = 0;
  for (const ReadSample& s : reads) {
    std::string why = CheckRelease(*inst->engine, s);
    if (why.empty()) continue;
    ++read_failures;
    report.failures.push_back("release check (" + s.op.sql + "): " + why);
  }
  if (!reads.empty()) {
    report.notes.push_back(StrFormat("release check: %zu of %zu sampled reads match the row-engine oracle",
                                     reads.size() - read_failures, reads.size()));
  }
  for (const SolveSample& s : loaded->r.solve_samples) {
    std::string why = CheckProposalApplied(inst->sizes, seed, s);
    if (!why.empty()) report.failures.push_back("proposal check (" + s.op.sql + "): " + why);
  }
  if (inst->workload == Workload::kShortfallSolve) {
    if (loaded->r.solve_samples.empty()) report.failures.push_back("no proposal to check");
    report.notes.push_back(StrFormat(
        "proposal check: %zu proposals checked for feasible-or-partial, %zu applied to a "
        "catalog copy",
        loaded->r.costs.size(), loaded->r.solve_samples.size()));
  }
  std::unique_ptr<pcqe::Catalog> recovered;
  if (inst->workload == Workload::kMixedAccept) {
    inst->service->Shutdown();
    CheckDurability(inst, &report, &recovered);
  }
  if (inst->workload == Workload::kReleaseRead && reads.empty()) {
    report.failures.push_back("no read sampled for the oracle");
  }
  std::vector<std::string> self_test_failures =
      RunSelfTests(*inst->engine, reads, inst->sizes, seed, loaded->r.solve_samples,
                   inst->catalog.get(), recovered.get());
  for (const std::string& f : self_test_failures) report.failures.push_back("self-test: " + f);
  if (self_test_failures.empty()) {
    report.notes.push_back("self-tests: each check rejected its corrupted answer");
  }
  return report;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = StrFormat("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                               correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                      metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                      metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintLoadedReport(Workload w, const Loaded& loaded, const CheckReport& checks) {
  const LoopResult& r = loaded.r;
  auto line = [](const char* name, double v, const char* unit, size_t n) {
    std::printf("e2e %-16s %12.4f %-6s (n=%zu)\n", name, v, unit, n);
  };
  line("read_p50_ms", Quantile(r.read_ms, 0.5), "ms", r.read_ms.size());
  line("read_p95_ms", Quantile(r.read_ms, 0.95), "ms", r.read_ms.size());
  for (OpClass c : {OpClass::kScan, OpClass::kJoin, OpClass::kGrouped}) {
    const std::vector<double>& v = r.read_shape_ms[static_cast<size_t>(c)];
    if (v.empty()) continue;
    std::printf("e2e read_p50_ms.%-7s %12.4f ms     (n=%zu)\n", OpClassName(c), Quantile(v, 0.5),
                v.size());
  }
  line("solve_p50_ms", Quantile(r.solve_ms, 0.5), "ms", r.solve_ms.size());
  line("solve_p90_ms", Quantile(r.solve_ms, 0.9), "ms", r.solve_ms.size());
  line("accept_p50_ms", Quantile(r.accept_ms, 0.5), "ms", r.accept_ms.size());
  line("accept_p90_ms", Quantile(r.accept_ms, 0.9), "ms", r.accept_ms.size());
  line("proposal_cost", Mean(r.costs), "cost", r.costs.size());
  line("checkpoint_ms", Mean(r.checkpoint_ms), "ms", r.checkpoint_ms.size());
  if (w == Workload::kMixedAccept) line("recovery_s", checks.recovery_s, "s", 1);
  line("error_rate", r.attempted == 0 ? 0.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted),
       "ratio", r.attempted);
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the timed window\n",
              loaded.steal_pct);
  std::printf("service: %llu hits, %llu misses, %llu evictions, hit share %.3f\n",
              static_cast<unsigned long long>(loaded.stats.cache_hits),
              static_cast<unsigned long long>(loaded.stats.cache_misses),
              static_cast<unsigned long long>(loaded.stats.cache_evictions),
              loaded.stats.cache_hit_rate());
  for (const std::string& n : checks.notes) std::printf("check: %s\n", n.c_str());
  for (const std::string& f : checks.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
}

// ---------------------------------------------------------------------------
// Traced replay.

/// The merged single-client replay: the clients' streams interleaved
/// round-robin, `count` operations long.
std::vector<Op> ReplayOps(Workload w, const CatalogSizes& sizes, uint64_t seed, size_t count) {
  std::vector<Stream> streams;
  for (size_t c = 0; c < kClients; ++c) streams.emplace_back(w, sizes, seed, c);
  std::vector<Op> ops;
  for (size_t i = 0; i < count; ++i) ops.push_back(streams[i % streams.size()].Next());
  return ops;
}

size_t ReplayLength(Workload w) {
  switch (w) {
    case Workload::kReleaseRead:
      return 48;
    case Workload::kShortfallSolve:
      return 120;
    case Workload::kMixedAccept:
      return 64;
  }
  return 0;
}

struct PassARecord {
  double submit_ms = 0.0;
  bool hit = false;
  bool ok = false;
  bool has_accept = false;
  double accept_ms = 0.0;
  pcqe::StrategyProposal proposal;
};

/// Pass A (traced) or the untraced baseline (null ledger): the ops in order
/// through `QueryService::Submit` / `Accept`. Returns the wall time.
double ReplayThroughService(Instance* inst, const std::vector<Op>& ops, Ledger* ledger,
                            std::vector<PassARecord>* records, std::vector<double>* checkpoint_ms,
                            pcqe::StorageSnapshot* storage_delta) {
  pcqe::StorageSnapshot before;
  if (inst->service->storage() != nullptr) before = inst->service->storage()->snapshot();
  auto start = Clock::now();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    PassARecord rec;
    pcqe::ServiceRequest request;
    request.sql = op.sql;
    request.required_fraction = op.theta;
    uint64_t hits_before = ledger != nullptr ? inst->service->stats().cache_hits : 0;
    Result<QueryOutcome> outcome = pcqe::Status::OK();
    {
      ScopedLedgerSpan span(ledger, "service.request", i, -1);
      auto t0 = Clock::now();
      Result<std::future<Result<QueryOutcome>>> future =
          inst->service->SubmitAsync(inst->sessions[op.session], request);
      outcome = future.ok() ? future->get() : future.status();
      rec.submit_ms = MsBetween(t0, Clock::now());
    }
    rec.ok = outcome.ok();
    if (ledger != nullptr) rec.hit = inst->service->stats().cache_hits > hits_before;
    if (outcome.ok()) {
      rec.proposal = outcome->proposal;
      if (op.accept && outcome->proposal.needed) {
        ScopedLedgerSpan span(ledger, "service.accept", i, -1);
        auto t0 = Clock::now();
        rec.has_accept = inst->service->Accept(outcome->proposal).ok();
        rec.accept_ms = MsBetween(t0, Clock::now());
      }
    }
    if (records != nullptr) records->push_back(std::move(rec));
  }
  double seconds = MsBetween(start, Clock::now()) / 1000.0;
  if (ledger != nullptr && inst->service->storage() != nullptr) {
    pcqe::StorageSnapshot after = inst->service->storage()->snapshot();
    storage_delta->syncs = after.syncs - before.syncs;
    storage_delta->wal_bytes = after.wal_bytes - before.wal_bytes;
    ScopedLedgerSpan span(ledger, "storage.checkpoint", ops.size(), -1);
    auto t0 = Clock::now();
    PCQE_CHECK(inst->service->Checkpoint().ok());
    checkpoint_ms->push_back(MsBetween(t0, Clock::now()));
  }
  return seconds;
}

struct PassBRecord {
  int root = -1;
  std::optional<double> plan_ms;
  std::optional<double> execute_ms;
  std::optional<double> materialize_ms;
  std::optional<double> index_rebuild_ms;
  size_t rows = 0;
  size_t arena_nodes = 0;
  pcqe::VecExecStats vec;
  double complete_ms = 0.0;
  size_t released = 0;
  bool solved = false;
  pcqe::StrategyProposal proposal;
  size_t problem_base_tuples = 0;
  std::optional<double> accept_ms;
};

/// Pass B: the same ops through the engine's public functions in the order
/// the service calls them. Evaluates only where pass A missed the cache.
void ReplayThroughEngine(pcqe::PcqeEngine* engine, const std::vector<Op>& ops,
                         const std::vector<PassARecord>& a, Ledger* ledger,
                         std::vector<PassBRecord>* records) {
  std::map<std::string, std::shared_ptr<const pcqe::QueryResult>> cache;
  // Mirrors the engine's zone-map cache: the confidence version each table's
  // map was built at. `ResolvePushdownBeta` rebuilds stale maps, so its
  // first call after a version bump is the index rebuild.
  std::map<std::string, uint64_t> indexed;
  engine->confidence_index()->Invalidate();
  for (size_t i = 0; i < ops.size() && i < a.size(); ++i) {
    const Op& op = ops[i];
    const SessionSpec& session = Sessions()[op.session];
    pcqe::QueryRequest request;
    request.sql = op.sql;
    request.user = session.user;
    request.purpose = session.purpose;
    request.required_fraction = op.theta;
    // Untimed: the cache key, the tables a pushdown rebuild would index, and
    // the entries pass A found cached from its warm-up.
    std::string key;
    std::vector<std::string> op_tables;
    bool rebuilds = false;
    {
      pcqe::ReaderLock lock(engine->catalog_mu());
      uint64_t version = engine->catalog()->confidence_version();
      std::optional<double> push = engine->ResolvePushdownBeta(request);
      key = op.sql + StrFormat("|v=%llu", static_cast<unsigned long long>(version));
      if (push.has_value()) {
        key += StrFormat("|pd=%.17g", *push);
        auto stmt = pcqe::ParseSelect(op.sql);
        PCQE_CHECK(stmt.ok());
        auto plan = pcqe::PlanQuery(*engine->catalog(), **stmt);
        PCQE_CHECK(plan.ok());
        op_tables = pcqe::CollectScannedTables(**plan);
        for (const std::string& t : op_tables) {
          auto it = indexed.find(t);
          rebuilds = rebuilds || it == indexed.end() || it->second != version;
          indexed[t] = version;
        }
      }
      if (a[i].hit && cache.count(key) == 0) {
        Result<pcqe::QueryResult> fresh = engine->Evaluate(op.sql, nullptr, nullptr, push);
        PCQE_CHECK(fresh.ok());
        fresh->MaterializeLineage();
        cache[key] = std::make_shared<const pcqe::QueryResult>(std::move(*fresh));
      }
      if (rebuilds) {
        // The untimed calls above rebuilt the maps; drop them so the timed
        // `ResolvePushdownBeta` below rebuilds them again.
        engine->confidence_index()->Invalidate();
        indexed.clear();
        for (const std::string& t : op_tables) indexed[t] = version;
      }
    }

    PassBRecord rec;
    rec.root = ledger->Open("engine.request", i, -1);
    pcqe::QueryOutcome outcome;
    {
      pcqe::ReaderLock lock(engine->catalog_mu());
      std::optional<double> push;
      {
        ScopedLedgerSpan span(ledger, rebuilds ? "query.index_rebuild" : "query.plan", i,
                              rec.root);
        auto t0 = Clock::now();
        push = engine->ResolvePushdownBeta(request);
        double ms = MsBetween(t0, Clock::now());
        if (rebuilds) {
          rec.index_rebuild_ms = ms;
        } else {
          rec.plan_ms = ms;
        }
      }
      std::shared_ptr<const pcqe::QueryResult> evaluated;
      if (a[i].hit) {
        evaluated = cache[key];
      } else {
        Result<pcqe::QueryResult> fresh = pcqe::Status::OK();
        {
          ScopedLedgerSpan span(ledger, "query.execute", i, rec.root);
          auto t0 = Clock::now();
          fresh = engine->Evaluate(op.sql, nullptr, nullptr, push);
          rec.execute_ms = MsBetween(t0, Clock::now());
        }
        PCQE_CHECK(fresh.ok());
        {
          ScopedLedgerSpan span(ledger, "lineage.materialize", i, rec.root);
          auto t0 = Clock::now();
          fresh->MaterializeLineage();
          rec.materialize_ms = MsBetween(t0, Clock::now());
        }
        rec.vec = fresh->vec_stats;
        rec.arena_nodes = fresh->arena != nullptr ? fresh->arena->size() : 0;
        evaluated = std::make_shared<const pcqe::QueryResult>(std::move(*fresh));
      }
      cache[key] = evaluated;
      rec.rows = evaluated->rows.size();
      {
        ScopedLedgerSpan span(ledger, "policy.complete", i, rec.root);
        auto t0 = Clock::now();
        Result<QueryOutcome> completed = engine->Complete(request, *evaluated);
        rec.complete_ms = MsBetween(t0, Clock::now());
        PCQE_CHECK(completed.ok());
        outcome = std::move(*completed);
        if (outcome.proposal.needed) {
          ledger->AddMeasured("strategy.solve", i, span.index(),
                              outcome.proposal.solve_seconds * 1000.0);
        }
      }
      rec.released = outcome.released.size();
      rec.solved = outcome.proposal.needed;
      rec.proposal = outcome.proposal;
      if (rec.solved) {
        std::set<pcqe::LineageVarId> vars;
        std::set<size_t> released(outcome.released.begin(), outcome.released.end());
        for (size_t r = 0; r < outcome.intermediate.rows.size(); ++r) {
          if (released.count(r) != 0) continue;
          for (pcqe::LineageVarId v :
               outcome.intermediate.arena->Variables(outcome.intermediate.rows[r].lineage)) {
            vars.insert(v);
          }
        }
        rec.problem_base_tuples = vars.size();
      }
    }
    if (op.accept && outcome.proposal.needed) {
      ScopedLedgerSpan span(ledger, "improve.accept", i, rec.root);
      auto t0 = Clock::now();
      pcqe::WriterLock lock(engine->catalog_mu());
      PCQE_CHECK(engine->AcceptProposal(outcome.proposal).ok());
      rec.accept_ms = MsBetween(t0, Clock::now());
    }
    ledger->Close(rec.root);
    records->push_back(std::move(rec));
  }
}

/// Mean of `f(record)` over records where it yields a value.
template <typename T, typename F>
double MeanOf(const std::vector<T>& records, F f) {
  std::vector<double> v;
  for (const T& r : records) {
    std::optional<double> x = f(r);
    if (x.has_value()) v.push_back(*x);
  }
  return Mean(v);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------

void PrintHeader(const Args& args, const char* mode) {
  CatalogSizes sizes = SizesFor(args.workload);
  std::printf(
      "perfbench workload=%s mode=%s seed=%llu seconds=%g nproc=%u build_type=%s git_sha=%s "
      "source_digest=%s\n",
      WorkloadName(args.workload), mode, static_cast<unsigned long long>(args.seed), args.seconds,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, args.git_sha.c_str(),
      args.source_digest.c_str());
  static const char* kClientRoles[] = {"readers", "shortfall clients", "3 readers + 1 writer"};
  std::printf(
      "catalog: facts=%zu dims=%zu suppliers=%zu parts=%zu; clients=%zu (%s) closed loop; "
      "service workers=%zu cache=%zu%s\n",
      sizes.facts, sizes.dims, sizes.suppliers, sizes.parts(), kClients,
      kClientRoles[static_cast<int>(args.workload)],
      pcqe::ServiceOptions{}.num_workers, pcqe::ServiceOptions{}.cache_capacity,
      args.workload == Workload::kMixedAccept ? ", durable WAL fsync per accept" : "");
  std::fflush(stdout);
}

int RunUntraced(const Args& args) {
  PrintHeader(args, "end_to_end");
  std::string durable =
      args.workload == Workload::kMixedAccept ? args.work_dir + "/durable" : std::string();
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  double spent = 0.0;
  for (int rep = 0; rep < kMinSetupReps || (rep < kMaxSetupReps && spent < kSetupBudgetS);
       ++rep) {
    inst.reset();
    SetupTiming timing;
    inst = MakeInstance(args.workload, args.seed, durable, &timing);
    setup_s.push_back(timing.total_s);
    spent += timing.total_s;
  }
  std::printf("setup: %zu runs, median %.3f s, min %.3f s, max %.3f s\n", setup_s.size(),
              Quantile(setup_s, 0.5), Quantile(setup_s, 0.0), Quantile(setup_s, 1.0));
  Loaded loaded = RunLoop(inst.get(), args.seed, args.seconds);
  CheckReport checks = RunChecks(inst.get(), args.seed, &loaded);
  PrintLoadedReport(args.workload, loaded, checks);
  size_t completed = loaded.r.all_ms.size();
  std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"throughput_rps", static_cast<double>(completed) / loaded.elapsed_s, "1/s"},
      {"latency_p50_ms", Quantile(loaded.r.all_ms, 0.5), "ms"},
      {"latency_p95_ms", Quantile(loaded.r.all_ms, 0.95), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  inst.reset();
  if (!durable.empty()) std::filesystem::remove_all(durable);
  PrintResult(checks.failures.empty(), loaded.r.attempted, loaded.r.failed, metrics);
  return checks.failures.empty() ? 0 : 1;
}

int RunTraced(const Args& args) {
  PrintHeader(args, "traced");
  const Workload w = args.workload;
  const bool mutating = w == Workload::kMixedAccept;
  int dir_seq = 0;
  auto next_dir = [&]() {
    return mutating ? StrFormat("%s/durable-%d", args.work_dir.c_str(), dir_seq++) : std::string();
  };

  // Set-up and the loaded run: cache behaviour, accept latency under load,
  // checkpoints and recovery.
  SetupTiming setup;
  std::unique_ptr<Instance> inst = MakeInstance(w, args.seed, next_dir(), &setup);
  const double rows = static_cast<double>(inst->sizes.rows());
  Loaded loaded = RunLoop(inst.get(), args.seed, args.seconds);
  CheckReport checks = RunChecks(inst.get(), args.seed, &loaded);
  PrintLoadedReport(w, loaded, checks);

  // Replays from the same starting state: untraced, pass A, pass B.
  std::vector<Op> ops = ReplayOps(w, inst->sizes, args.seed, ReplayLength(w));
  auto fresh = [&]() {
    if (mutating) {
      std::string old = inst->durable_dir;
      inst.reset();
      std::filesystem::remove_all(old);
      SetupTiming ignored;
      inst = MakeInstance(w, args.seed, next_dir(), &ignored);
    } else {
      inst->service->InvalidateCache();
      WarmUp(inst.get(), args.seed);
    }
  };
  // Untraced replays run before and after pass A, and the overhead compares
  // pass A with their mean, so the replay order does not bias it.
  fresh();
  double untraced_s = ReplayThroughService(inst.get(), ops, nullptr, nullptr, nullptr, nullptr);
  fresh();
  Ledger ledger;
  std::vector<PassARecord> a;
  std::vector<double> checkpoint_ms = loaded.r.checkpoint_ms;
  pcqe::StorageSnapshot storage_delta;
  double traced_s = ReplayThroughService(inst.get(), ops, &ledger, &a, &checkpoint_ms, &storage_delta);
  fresh();
  untraced_s = (untraced_s +
                ReplayThroughService(inst.get(), ops, nullptr, nullptr, nullptr, nullptr)) /
               2.0;
  std::unique_ptr<pcqe::Catalog> twin_catalog;
  std::unique_ptr<pcqe::PcqeEngine> twin_engine;
  pcqe::PcqeEngine* engine_b = inst->engine.get();
  if (mutating) {
    // Pass A changed the live catalog; pass B starts from a non-durable twin
    // in the initial state, so its accepts time the apply alone.
    twin_catalog = BuildCatalog(inst->sizes, args.seed);
    twin_engine = BuildEngine(twin_catalog.get());
    engine_b = twin_engine.get();
  }
  std::vector<PassBRecord> b;
  ReplayThroughEngine(engine_b, ops, a, &ledger, &b);

  // Ledger: pass A per request against pass B's layer spans.
  std::vector<double> service_self, a_submit;
  double a_total = 0.0, gaps = 0.0;
  size_t requests = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    if (!a[i].ok) continue;
    double b_submit = ledger.spans()[static_cast<size_t>(b[i].root)].ms() -
                      (b[i].accept_ms.has_value() ? *b[i].accept_ms : 0.0);
    service_self.push_back(a[i].submit_ms - b_submit);
    a_submit.push_back(a[i].submit_ms);
    a_total += a[i].submit_ms + a[i].accept_ms;
    gaps += ledger.SelfMs(b[i].root);
    ++requests;
  }
  double median_ms = Quantile(a_submit, 0.5);
  size_t median_i = 0;
  double best = 1e300;
  for (size_t i = 0; i < b.size(); ++i) {
    if (a[i].ok && std::fabs(a[i].submit_ms - median_ms) < best) {
      best = std::fabs(a[i].submit_ms - median_ms);
      median_i = i;
    }
  }

  auto by_class = [&](OpClass c) {
    return MeanOf(b, [&](const PassBRecord& r) -> std::optional<double> {
      size_t i = static_cast<size_t>(&r - b.data());
      return ops[i].cls == c ? r.execute_ms : std::nullopt;
    });
  };
  double scanned = 0, out_rows = 0, pruned = 0, chunks = 0, fallback = 0, arena = 0,
         released = 0, result_rows = 0;
  std::vector<double> solve_ms, nodes, greedy, dnc, base_tuples, complete_ms;
  size_t partial = 0, repeat_cost = 0, repeat_effort = 0, compared = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    const PassBRecord& r = b[i];
    if (r.execute_ms.has_value()) {
      scanned += static_cast<double>(r.vec.rows_scanned);
      out_rows += static_cast<double>(r.rows);
      pruned += static_cast<double>(r.vec.pruned_chunks);
      chunks += static_cast<double>(r.vec.chunks_scanned + r.vec.pruned_chunks);
      fallback += static_cast<double>(r.vec.fallback_rows);
      arena += static_cast<double>(r.arena_nodes);
    }
    released += static_cast<double>(r.released);
    result_rows += static_cast<double>(r.rows);
    if (!r.solved) {
      complete_ms.push_back(r.complete_ms);
      continue;
    }
    solve_ms.push_back(r.proposal.solve_seconds * 1000.0);
    nodes.push_back(static_cast<double>(r.proposal.effort.nodes_expanded));
    greedy.push_back(static_cast<double>(r.proposal.effort.greedy_phase1_iterations +
                                         r.proposal.effort.greedy_phase2_steps));
    dnc.push_back(static_cast<double>(r.proposal.effort.dnc_groups_solved));
    base_tuples.push_back(static_cast<double>(r.problem_base_tuples));
    if (r.proposal.partial) ++partial;
    if (a[i].ok && a[i].proposal.needed) {
      ++compared;
      if (a[i].proposal.total_cost == r.proposal.total_cost) ++repeat_cost;
      if (a[i].proposal.effort == r.proposal.effort) ++repeat_effort;
    }
  }
  double accepts_a = 0, accept_a_ms = 0;
  std::vector<double> accept_a;
  for (const PassARecord& r : a) {
    if (r.has_accept) {
      ++accepts_a;
      accept_a.push_back(r.accept_ms);
      accept_a_ms += r.accept_ms;
    }
  }
  double improve_ms = MeanOf(b, [](const PassBRecord& r) { return r.accept_ms; });
  double overhead_pct = (traced_s - untraced_s) / untraced_s * 100.0;
  double unaccounted = Ratio(gaps, a_total);

  std::vector<Metric> metrics = {
      {"service.self_ms", Mean(service_self), "ms"},
      {"service.cache_hit_ratio", loaded.stats.cache_hit_rate(), "ratio"},
      {"service.cache_evictions", static_cast<double>(loaded.stats.cache_evictions), "count"},
      {"query.plan_ms", MeanOf(b, [](const PassBRecord& r) { return r.plan_ms; }), "ms"},
      {"query.execute_ms.scan", by_class(OpClass::kScan), "ms"},
      {"query.execute_ms.join", by_class(OpClass::kJoin), "ms"},
      {"query.execute_ms.grouped", by_class(OpClass::kGrouped), "ms"},
      {"query.rows_scanned_per_row_out", Ratio(scanned, out_rows), "ratio"},
      {"query.chunks_pruned_ratio", Ratio(pruned, chunks), "ratio"},
      {"query.fallback_rows_ratio", Ratio(fallback, scanned), "ratio"},
      {"query.index_rebuild_ms", MeanOf(b, [](const PassBRecord& r) { return r.index_rebuild_ms; }), "ms"},
      {"lineage.materialize_ms", MeanOf(b, [](const PassBRecord& r) { return r.materialize_ms; }), "ms"},
      {"lineage.arena_nodes_per_row", Ratio(arena, out_rows), "ratio"},
      {"policy.complete_ms", Mean(complete_ms), "ms"},
      {"policy.released_ratio", Ratio(released, result_rows), "ratio"},
      {"strategy.solve_ms", Mean(solve_ms), "ms"},
      {"strategy.nodes_expanded", Mean(nodes), "count"},
      {"strategy.greedy_iterations", Mean(greedy), "count"},
      {"strategy.dnc_groups", Mean(dnc), "count"},
      {"strategy.partial_ratio", Ratio(static_cast<double>(partial), static_cast<double>(solve_ms.size())), "ratio"},
      {"strategy.problem_base_tuples", Mean(base_tuples), "count"},
      {"improve.accept_ms", improve_ms, "ms"},
      {"storage.log_ms", accepts_a > 0 ? accept_a_ms / accepts_a - improve_ms : 0.0, "ms"},
      {"storage.syncs_per_accept", Ratio(static_cast<double>(storage_delta.syncs), accepts_a), "count"},
      {"storage.wal_bytes_per_accept", Ratio(static_cast<double>(storage_delta.wal_bytes), accepts_a), "B"},
      {"storage.checkpoint_ms", Mean(checkpoint_ms), "ms"},
      {"storage.replay_records_per_s", Ratio(static_cast<double>(checks.replayed_records), checks.recovery_s), "1/s"},
      {"engine.lock_wait_ms",
       accept_a.empty() ? 0.0 : Quantile(loaded.r.accept_ms, 0.5) - Quantile(accept_a, 0.5), "ms"},
      {"relational.load_rows_per_s", rows / setup.load_s, "1/s"},
      {"relational.bytes_per_row", setup.rss_growth_mb * 1024.0 * 1024.0 / rows, "B"},
      {"ledger.unaccounted_ratio", unaccounted, "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };

  // Ledger print-out: the layer split of the median request.
  std::printf("ledger: %zu replayed requests; median request #%zu (%s, %s) pass A %.3f ms\n",
              requests, median_i, OpClassName(ops[median_i].cls),
              a[median_i].hit ? "cache hit" : "cache miss", a[median_i].submit_ms);
  const PassBRecord& m = b[median_i];
  double m_accept = m.accept_ms.has_value() ? *m.accept_ms : 0.0;
  std::printf("ledger:   %-22s %10.3f ms\n", "service (A - B)",
              a[median_i].submit_ms - (ledger.spans()[static_cast<size_t>(m.root)].ms() - m_accept));
  for (size_t s = 0; s < ledger.spans().size(); ++s) {
    const Span& span = ledger.spans()[s];
    if (span.request != median_i || span.parent < 0 || span.name == "improve.accept") continue;
    if (span.parent != m.root && ledger.spans()[static_cast<size_t>(span.parent)].parent != m.root) continue;
    std::printf("ledger:   %-22s %10.3f ms (self %.3f)\n", span.name.c_str(), span.ms(),
                ledger.SelfMs(static_cast<int>(s)));
  }
  std::printf("ledger:   %-22s %10.3f ms\n", "unattributed (B gaps)", ledger.SelfMs(m.root) - m_accept);
  std::printf("ledger: unaccounted ratio %.4f over all requests (target < 0.10, reported not gated)\n",
              unaccounted);
  std::printf("ledger: tracing overhead %.2f%% (untraced replays %.3f s on average, traced %.3f s)\n",
              overhead_pct, untraced_s, traced_s);
  if (compared > 0) {
    std::printf(
        "repeat: same stream twice (pass A vs pass B): proposal_cost identical %zu/%zu, "
        "effort counters identical %zu/%zu%s\n",
        repeat_cost, compared, repeat_effort, compared,
        repeat_cost == compared && repeat_effort == compared ? " (exact)" : " (NOT exact; not gated)");
  }
  std::string spans_path = StrFormat("%s/spans-%s-%llu.jsonl", args.work_dir.c_str(),
                                     WorkloadName(w), static_cast<unsigned long long>(args.seed));
  if (ledger.WriteJsonLines(spans_path)) {
    std::printf("spans: %zu written to %s\n", ledger.spans().size(), spans_path.c_str());
  }
  std::string dir = inst->durable_dir;
  inst.reset();
  if (!dir.empty()) std::filesystem::remove_all(dir);
  PrintResult(checks.failures.empty(), loaded.r.attempted, loaded.r.failed, metrics);
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunUntraced(args);
}
