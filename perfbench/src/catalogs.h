// Seeded catalogs, roles and request streams for the three workloads.
//
// Everything here is a pure function of (workload, seed, client): the same
// seed gives the same tables, the same confidences and cost functions, and
// the same request sequence per client, so a traced replay sees exactly the
// stream the timed run drew from.

#ifndef PERFBENCH_CATALOGS_H_
#define PERFBENCH_CATALOGS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/pcqe_engine.h"
#include "relational/catalog.h"

namespace perfbench {

enum class Workload { kReleaseRead, kShortfallSolve, kMixedAccept };

const char* WorkloadName(Workload w);

/// Table sizes of one workload's catalog. `facts`/`dims` serve the read
/// templates, `parts`/`suppliers` the shortfall queries (three parts per
/// supplier, so join results share supplier tuples).
struct CatalogSizes {
  size_t facts = 0;
  size_t dims = 0;
  size_t suppliers = 0;
  size_t parts() const { return 3 * suppliers; }
  size_t rows() const { return facts + dims + suppliers + parts(); }
};

CatalogSizes SizesFor(Workload w);

/// Client threads of the closed loop, on every workload. One shortfall
/// client would leave vCPUs idle between its millisecond solves, and every
/// solve would then wait for idle vCPUs to wake, so its latency would follow
/// host steal. In `kMixedAccept` the last client is the writer.
inline constexpr size_t kClients = 4;

/// Builds and loads the catalog; confidences of `facts` are clustered per
/// column chunk, those of `parts`/`suppliers` sit around 0.1-0.3.
std::unique_ptr<pcqe::Catalog> BuildCatalog(const CatalogSizes& sizes, uint64_t seed);

/// Roles with different β for the readers (purpose "analytics") and the
/// β = 0.6 buyer role (purpose "sourcing") that shortfall queries run under.
std::unique_ptr<pcqe::PcqeEngine> BuildEngine(pcqe::Catalog* catalog);

/// ⟨user, purpose⟩ of each session a client may use; reader sessions first.
struct SessionSpec {
  const char* user;
  const char* purpose;
  double beta;
};
const std::vector<SessionSpec>& Sessions();
inline constexpr size_t kBuyerSession = 3;

/// Query shape of a request (DISTINCT counts as grouped); the traced run
/// splits query time by it.
enum class OpClass : uint8_t { kScan, kJoin, kGrouped };
const char* OpClassName(OpClass c);

struct Op {
  OpClass cls = OpClass::kScan;
  std::string sql;
  /// perc/θ; 0 for reads, in [0.3, 0.7] for shortfall queries.
  double theta = 0.0;
  size_t session = 0;
  /// Writer only: accept the returned proposal.
  bool accept = false;
  /// Pause before the client's next request (mixed_accept readers only).
  double think_ms = 0.0;
};

/// Draws without replacement from a fixed multiset of cards and reshuffles
/// when it runs out, so every run's mix matches the deck up to one round.
class Deck {
 public:
  explicit Deck(std::vector<int> cards) : cards_(std::move(cards)), next_(cards_.size()) {}
  int Draw(pcqe::Rng* rng);

 private:
  std::vector<int> cards_;
  size_t next_;
};

/// One client's request sequence.
class Stream {
 public:
  Stream(Workload w, const CatalogSizes& sizes, uint64_t seed, size_t client);
  Op Next();

 private:
  Op NextRead();
  Op NextSolve();
  Op NextWrite();

  Workload workload_;
  CatalogSizes sizes_;
  bool writer_;
  pcqe::Rng rng_;
  /// Hot constants shared by every client of a seed, so hits recur.
  std::vector<Op> hot_;
  Deck templates_;
  Deck hot_or_cold_;
  Deck sessions_;
  Deck solve_shapes_;
  uint64_t window_ = 0;
};

/// Reader texts the warm-up loads into the result cache (under every
/// reader session), or a few shortfall texts that warm the solve path.
std::vector<Op> WarmupOps(Workload w, const CatalogSizes& sizes, uint64_t seed);

/// Mean reader think time in `kMixedAccept`. The catalog lock prefers
/// readers, so readers that never pause would hold it shared for the whole
/// run and starve every accept. Longer pauses leave fewer requests in a
/// run, and its p95 less steady.
inline constexpr double kReaderThinkMs = 60.0;
/// Mean writer pause between receiving a proposal and accepting it.
inline constexpr double kWriterThinkMs = 20.0;

/// Accepts between two writer checkpoints in `kMixedAccept`.
inline constexpr size_t kCheckpointEvery = 200;

}  // namespace perfbench

#endif  // PERFBENCH_CATALOGS_H_
