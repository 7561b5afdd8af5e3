#include "catalogs.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "cost/cost_function.h"
#include "relational/column_chunk.h"

namespace perfbench {

using pcqe::DataType;
using pcqe::Rng;
using pcqe::Schema;
using pcqe::StrFormat;
using pcqe::Value;

namespace {

// Read-template geometry. A GROUP BY window covers two whole `grp` groups of
// kGroupRows rows: large enough that the quadratic grouping cost dominates
// the request, small enough that grouped requests do not dominate the run.
constexpr int64_t kGroupRows = 10'000;
constexpr int64_t kGroupedWindow = 2 * kGroupRows;
constexpr int64_t kScanWindow = 20'000;
constexpr int64_t kDistinctWindow = 30'000;
constexpr int64_t kDimTiers = 50;
constexpr int64_t kRegions = 16;
// Hot texts per read template; with 4 templates and 3 reader β the hot keys
// (24) stay resident in the 128-entry cache between reuses. One read in four
// is hot, so the hit share sits near 25%, well away from 50%.
constexpr size_t kHotPerTemplate = 2;
// Read template deck: 7 scan, 5 join, 4 DISTINCT, 4 GROUP BY per 20 reads.
const std::vector<int> kTemplateCards = {0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3};
const std::vector<int> kHotCards = {1, 0, 0, 0};
// Shortfall shapes, drawn from a deck: exact B&B on a join over 8 base
// tuples (card 0), D&C on DISTINCT regions over 32 suppliers (card 1), D&C
// on a join over 64 base tuples (card 2). The first two have similar solve
// times, so the median falls inside one dense mode. Every shortfall request
// gets a fresh key window: a seed's figures average over hundreds of
// independent problems instead of a few reused ones.
const std::vector<int> kSolveCards = {0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2};
constexpr int64_t kSolveJoinWidth = 6;
constexpr int64_t kSolveDistinctWidth = 96;
constexpr int64_t kSolveWideJoinWidth = 48;
// Texts the shortfall warm-up runs (at θ = 0) before timing starts.
constexpr size_t kSolveWarmupTexts = 16;
// Writer window: 12 parts over 4 suppliers.
constexpr int64_t kWriterWindow = 12;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

pcqe::CostFunctionPtr RandomCost(Rng* rng) {
  double a = rng->Uniform(1.0, 50.0);
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return *pcqe::MakeLinearCost(a);
    case 1:
      return *pcqe::MakePolynomialCost(a, static_cast<double>(rng->UniformInt(2, 3)));
    case 2:
      return *pcqe::MakeExponentialCost(a, rng->Uniform(1.0, 3.0));
    default:
      return *pcqe::MakeLogarithmicCost(a, rng->Uniform(5.0, 20.0));
  }
}

std::string ScanSql(int64_t lo, int64_t x) {
  return StrFormat("SELECT id, amount FROM facts WHERE id >= %lld AND id < %lld AND amount < %lld.5",
                   static_cast<long long>(lo), static_cast<long long>(lo + kScanWindow),
                   static_cast<long long>(x));
}

std::string JoinSql(int64_t tier, int64_t x) {
  return StrFormat(
      "SELECT f.id, d.name FROM facts AS f JOIN dims AS d ON f.dim = d.dim "
      "WHERE d.tier = %lld AND f.amount < %lld.5",
      static_cast<long long>(tier), static_cast<long long>(x));
}

std::string DistinctSql(int64_t lo) {
  return StrFormat("SELECT DISTINCT dim FROM facts WHERE id >= %lld AND id < %lld",
                   static_cast<long long>(lo), static_cast<long long>(lo + kDistinctWindow));
}

std::string GroupedSql(int64_t lo, int64_t x) {
  return StrFormat(
      "SELECT grp, COUNT(*) AS n, SUM(amount) AS total FROM facts "
      "WHERE id >= %lld AND id < %lld AND amount < %lld.5 GROUP BY grp",
      static_cast<long long>(lo), static_cast<long long>(lo + kGroupedWindow),
      static_cast<long long>(x));
}

std::string SolveJoinSql(int64_t lo, int64_t width) {
  return StrFormat(
      "SELECT p.pid, s.region FROM parts AS p JOIN suppliers AS s ON p.sid = s.sid "
      "WHERE p.pid >= %lld AND p.pid < %lld",
      static_cast<long long>(lo), static_cast<long long>(lo + width));
}

std::string SolveDistinctSql(int64_t lo, int64_t width) {
  return StrFormat(
      "SELECT DISTINCT s.region FROM parts AS p JOIN suppliers AS s ON p.sid = s.sid "
      "WHERE p.pid >= %lld AND p.pid < %lld",
      static_cast<long long>(lo), static_cast<long long>(lo + width));
}

/// One read request of template `t` (0 scan, 1 join, 2 distinct, 3 grouped).
Op ReadOp(int t, const CatalogSizes& sizes, Rng* rng) {
  const auto n = static_cast<int64_t>(sizes.facts);
  Op op;
  switch (t) {
    case 0:
      op.cls = OpClass::kScan;
      op.sql = ScanSql(rng->UniformInt(0, n - kScanWindow), rng->UniformInt(300, 999));
      break;
    case 1:
      op.cls = OpClass::kJoin;
      op.sql = JoinSql(rng->UniformInt(0, kDimTiers - 1), rng->UniformInt(300, 999));
      break;
    case 2:
      op.cls = OpClass::kGrouped;
      op.sql = DistinctSql(rng->UniformInt(0, n - kDistinctWindow));
      break;
    default:
      // Aligned to `grp`: exactly two groups of kGroupRows rows, thinned by
      // at most 10% through the amount filter.
      op.cls = OpClass::kGrouped;
      op.sql = GroupedSql(kGroupRows * rng->UniformInt(0, n / kGroupRows - 2),
                          rng->UniformInt(900, 999));
      break;
  }
  return op;
}

Op SolveJoinOp(const CatalogSizes& sizes, int64_t width, Rng* rng) {
  Op op;
  op.cls = OpClass::kJoin;
  op.session = kBuyerSession;
  op.sql = SolveJoinSql(3 * rng->UniformInt(0, (static_cast<int64_t>(sizes.parts()) - width) / 3),
                        width);
  return op;
}

Op SolveDistinctOp(const CatalogSizes& sizes, int64_t width, Rng* rng) {
  Op op;
  op.cls = OpClass::kGrouped;
  op.session = kBuyerSession;
  op.sql = SolveDistinctSql(
      3 * rng->UniformInt(0, (static_cast<int64_t>(sizes.parts()) - width) / 3), width);
  return op;
}

Op SolveOp(int card, const CatalogSizes& sizes, Rng* rng) {
  switch (card) {
    case 0:
      return SolveJoinOp(sizes, kSolveJoinWidth, rng);
    case 1:
      return SolveDistinctOp(sizes, kSolveDistinctWidth, rng);
    default:
      return SolveJoinOp(sizes, kSolveWideJoinWidth, rng);
  }
}

double DrawTheta(Rng* rng) {
  return std::round(rng->Uniform(0.3, 0.7) * 100.0) / 100.0;
}

std::vector<Op> HotOps(Workload w, const CatalogSizes& sizes, uint64_t seed) {
  Rng rng(Mix(seed, 1000));
  std::vector<Op> hot;
  if (w == Workload::kShortfallSolve) {
    Deck shapes(kSolveCards);
    for (size_t i = 0; i < kSolveWarmupTexts; ++i) hot.push_back(SolveOp(shapes.Draw(&rng), sizes, &rng));
    return hot;
  }
  for (int t = 0; t < 4; ++t) {
    for (size_t i = 0; i < kHotPerTemplate; ++i) hot.push_back(ReadOp(t, sizes, &rng));
  }
  return hot;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kReleaseRead:
      return "release_read";
    case Workload::kShortfallSolve:
      return "shortfall_solve";
    case Workload::kMixedAccept:
      return "mixed_accept";
  }
  return "?";
}

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kScan:
      return "scan";
    case OpClass::kJoin:
      return "join";
    case OpClass::kGrouped:
      return "grouped";
  }
  return "?";
}

CatalogSizes SizesFor(Workload w) {
  switch (w) {
    case Workload::kReleaseRead:
      return {1'000'000, 1000, 0};
    case Workload::kShortfallSolve:
      return {0, 0, 2000};
    case Workload::kMixedAccept:
      return {200'000, 1000, 10'000};
  }
  return {};
}

std::unique_ptr<pcqe::Catalog> BuildCatalog(const CatalogSizes& sizes, uint64_t seed) {
  auto catalog = std::make_unique<pcqe::Catalog>();
  Rng rng(Mix(seed, 0));
  if (sizes.facts > 0) {
    pcqe::Table* facts = *catalog->CreateTable(
        "facts", Schema({{"id", DataType::kInt64, ""},
                         {"dim", DataType::kInt64, ""},
                         {"grp", DataType::kInt64, ""},
                         {"amount", DataType::kDouble, ""}}));
    // Confidences cluster per column chunk (ingest batches), which gives the
    // β-pushdown zone maps whole chunks to skip.
    double base = 0.0;
    for (size_t i = 0; i < sizes.facts; ++i) {
      if (i % pcqe::kColumnChunkCapacity == 0) base = rng.Uniform(0.05, 0.95);
      auto id = static_cast<int64_t>(i);
      PCQE_CHECK(facts
                     ->Insert({Value::Int(id),
                               Value::Int(rng.UniformInt(0, static_cast<int64_t>(sizes.dims) - 1)),
                               Value::Int(id / kGroupRows),
                               Value::Double(rng.Uniform(0.0, 1000.0))},
                              std::clamp(base + rng.Uniform(-0.05, 0.05), 0.01, 0.99))
                     .ok());
    }
  }
  if (sizes.dims > 0) {
    pcqe::Table* dims = *catalog->CreateTable(
        "dims", Schema({{"dim", DataType::kInt64, ""},
                        {"name", DataType::kString, ""},
                        {"tier", DataType::kInt64, ""}}));
    for (size_t d = 0; d < sizes.dims; ++d) {
      auto id = static_cast<int64_t>(d);
      PCQE_CHECK(dims->Insert({Value::Int(id), Value::String(StrFormat("dim-%lld", static_cast<long long>(id))),
                               Value::Int(id % kDimTiers)},
                              rng.Uniform(0.6, 1.0))
                     .ok());
    }
  }
  if (sizes.suppliers > 0) {
    pcqe::Table* suppliers = *catalog->CreateTable(
        "suppliers",
        Schema({{"sid", DataType::kInt64, ""}, {"region", DataType::kInt64, ""}}));
    for (size_t s = 0; s < sizes.suppliers; ++s) {
      auto id = static_cast<int64_t>(s);
      PCQE_CHECK(suppliers
                     ->Insert({Value::Int(id), Value::Int(id % kRegions)}, rng.Uniform(0.1, 0.3),
                              RandomCost(&rng))
                     .ok());
    }
    pcqe::Table* parts = *catalog->CreateTable(
        "parts", Schema({{"pid", DataType::kInt64, ""},
                         {"sid", DataType::kInt64, ""},
                         {"kind", DataType::kInt64, ""}}));
    for (size_t p = 0; p < sizes.parts(); ++p) {
      auto id = static_cast<int64_t>(p);
      PCQE_CHECK(parts
                     ->Insert({Value::Int(id), Value::Int(id / 3), Value::Int(id % 8)},
                              rng.Uniform(0.1, 0.3), RandomCost(&rng))
                     .ok());
    }
  }
  return catalog;
}

const std::vector<SessionSpec>& Sessions() {
  static const std::vector<SessionSpec> kSessions = {
      {"analyst", "analytics", 0.3},
      {"manager", "analytics", 0.5},
      {"auditor", "analytics", 0.7},
      {"buyer", "sourcing", 0.6},
  };
  return kSessions;
}

std::unique_ptr<pcqe::PcqeEngine> BuildEngine(pcqe::Catalog* catalog) {
  static const char* kRoles[] = {"Analyst", "Manager", "Auditor", "Buyer"};
  pcqe::RoleGraph roles;
  pcqe::PolicyStore policies;
  for (size_t i = 0; i < Sessions().size(); ++i) {
    const SessionSpec& s = Sessions()[i];
    PCQE_CHECK(roles.AddRole(kRoles[i]).ok());
    PCQE_CHECK(roles.AddUser(s.user).ok());
    PCQE_CHECK(roles.AssignRole(s.user, kRoles[i]).ok());
    PCQE_CHECK(policies.AddPolicy(roles, {kRoles[i], s.purpose, s.beta}).ok());
  }
  return std::make_unique<pcqe::PcqeEngine>(catalog, std::move(roles), std::move(policies));
}

Stream::Stream(Workload w, const CatalogSizes& sizes, uint64_t seed, size_t client)
    : workload_(w),
      sizes_(sizes),
      writer_(w == Workload::kMixedAccept && client + 1 == kClients),
      rng_(Mix(seed, 1 + client)),
      hot_(HotOps(w, sizes, seed)),
      templates_(kTemplateCards),
      hot_or_cold_(kHotCards),
      sessions_({0, 1, 2}),
      solve_shapes_(kSolveCards) {}

int Deck::Draw(Rng* rng) {
  if (next_ == cards_.size()) {
    rng->Shuffle(&cards_);
    next_ = 0;
  }
  return cards_[next_++];
}

Op Stream::Next() {
  if (workload_ == Workload::kShortfallSolve) return NextSolve();
  if (writer_) return NextWrite();
  return NextRead();
}

Op Stream::NextRead() {
  int t = templates_.Draw(&rng_);
  Op op;
  if (hot_or_cold_.Draw(&rng_) == 1) {
    op = hot_[static_cast<size_t>(t) * kHotPerTemplate +
              static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(kHotPerTemplate) - 1))];
  } else {
    op = ReadOp(t, sizes_, &rng_);
  }
  op.session = static_cast<size_t>(sessions_.Draw(&rng_));
  if (workload_ == Workload::kMixedAccept) {
    op.think_ms = -kReaderThinkMs * std::log(1.0 - rng_.Uniform(0.0, 1.0));
  }
  return op;
}

Op Stream::NextSolve() {
  Op op = SolveOp(solve_shapes_.Draw(&rng_), sizes_, &rng_);
  op.theta = DrawTheta(&rng_);
  return op;
}

Op Stream::NextWrite() {
  // A fresh key window per iteration keeps every proposal needed: no earlier
  // accept touched these parts or their suppliers.
  const auto windows = static_cast<uint64_t>(static_cast<int64_t>(sizes_.parts()) / kWriterWindow);
  Op op;
  op.cls = OpClass::kJoin;
  op.session = kBuyerSession;
  op.sql = SolveJoinSql(static_cast<int64_t>(window_ % windows) * kWriterWindow, kWriterWindow);
  op.theta = DrawTheta(&rng_);
  op.accept = true;
  op.think_ms = -kWriterThinkMs * std::log(1.0 - rng_.Uniform(0.0, 1.0));
  ++window_;
  return op;
}

std::vector<Op> WarmupOps(Workload w, const CatalogSizes& sizes, uint64_t seed) {
  return HotOps(w, sizes, seed);
}

}  // namespace perfbench
