// Copyright (c) PCQE contributors.
// Catalog: the database — a namespace of tables with catalog-wide tuple ids.

#ifndef PCQE_RELATIONAL_CATALOG_H_
#define PCQE_RELATIONAL_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/table.h"

namespace pcqe {

/// \brief Owns all base tables of one confidence-annotated database.
///
/// Table names are case-insensitive. The catalog assigns each table a
/// distinct 32-bit id so `BaseTupleId`s are unique database-wide, which is
/// what lets lineage formulas, policies and improvement plans refer to base
/// tuples without naming their table.
class Catalog {
 public:
  Catalog() = default;

  // Tables hold stable pointers handed out to callers; keep the catalog
  // pinned in place.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table. Returns `kAlreadyExists` on a duplicate name.
  [[nodiscard]] Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Creates an empty table under an explicit (nonzero) table id, for
  /// snapshot restore: `BaseTupleId`s embed the table id, so a reload must
  /// reproduce the original id assignment or every persisted WAL action and
  /// lineage reference would silently point at the wrong tuples. Fresh ids
  /// handed out afterwards continue past the largest restored id. Returns
  /// `kAlreadyExists` on a duplicate name or id.
  [[nodiscard]] Result<Table*> CreateTableWithId(const std::string& name, Schema schema,
                                                 uint32_t table_id);

  /// Looks up a table by (case-insensitive) name.
  [[nodiscard]] Result<Table*> GetTable(const std::string& name);
  [[nodiscard]] Result<const Table*> GetTable(const std::string& name) const;

  /// Removes a table. Its tuple-id prefix is never reused, so stale
  /// `BaseTupleId`s cannot alias new tuples.
  [[nodiscard]] Status DropTable(const std::string& name);

  /// Names of all tables in creation order.
  std::vector<std::string> TableNames() const;

  /// Routes a catalog-wide tuple id to its tuple.
  [[nodiscard]] Result<Tuple> FindTuple(BaseTupleId id) const;

  /// Sets the confidence of the identified tuple (improvement component).
  /// Every successful write bumps `confidence_version()`.
  [[nodiscard]] Status SetConfidence(BaseTupleId id, double confidence);

  /// Monotone counter of committed confidence writes. Cross-request caches
  /// key result sets on this value: a bump invalidates every entry computed
  /// against the older confidences without the catalog knowing about any
  /// cache. Safe to read concurrently with `SetConfidence`.
  [[nodiscard]] uint64_t confidence_version() const {
    return confidence_version_.load(std::memory_order_acquire);
  }

  /// Raises `confidence_version()` to at least `version` (snapshot restore).
  /// Monotone — the version never moves backward, so version-keyed caches
  /// stay sound when a snapshot is loaded into a non-empty catalog. After
  /// `Clear()` the counter is 0 and the restore is exact, which is what
  /// recovery relies on to reproduce the pre-crash version bit-for-bit.
  void RestoreConfidenceVersion(uint64_t version);

  /// Drops every table and resets id assignment and `confidence_version()`
  /// to the initial state, so a recovery can rebuild this catalog in place
  /// from a checkpoint + WAL replay.
  void Clear();

 private:
  /// Lowercased lookup key.
  static std::string Key(const std::string& name);

  std::map<std::string, std::unique_ptr<Table>> tables_;  // key: lowercased name
  std::vector<std::string> creation_order_;               // original-cased names
  uint32_t next_table_id_ = 1;
  // A version, not a stat counter:
  std::atomic<uint64_t> confidence_version_{0};  // pcqe-lint: allow(telemetry)
};

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_CATALOG_H_
