// Copyright (c) PCQE contributors.
// Tables: named collections of confidence-annotated tuples — element (1) of
// the paper's framework — and `Tuple`, the view of one stored row.

#ifndef PCQE_RELATIONAL_TABLE_H_
#define PCQE_RELATIONAL_TABLE_H_

#include <ranges>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/column_chunk.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace pcqe {

class Tuple;

/// \brief A base relation: schema plus row storage. The column chunks of
/// `column_data()` are the only copy of each row; `Tuple` reads through.
///
/// Tuple ids are assigned at insertion as `(table_id << 32) | row_index`, so
/// they are unique across a catalog (the catalog hands each table a distinct
/// `table_id`; standalone tables built in tests use table_id 0).
class Table {
 public:
  /// Creates an empty table. `table_id` seeds tuple-id assignment.
  Table(std::string name, Schema schema, uint32_t table_id = 0)
      : name_(std::move(name)), schema_(std::move(schema)), table_id_(table_id) {
    columns_.Reset(schema_);
  }

  /// Table name as registered in the catalog.
  const std::string& name() const { return name_; }

  /// The declared schema.
  const Schema& schema() const { return schema_; }

  /// Number of stored tuples.
  size_t num_tuples() const { return columns_.num_rows(); }

  /// All tuples in insertion order, as `Tuple` views yielded by value (both
  /// by iteration and by `tuples()[row]`).
  auto tuples() const;

  /// \brief Appends a row.
  ///
  /// Validates arity and per-column types (NULL is accepted in any column;
  /// BIGINT widens into DOUBLE columns). A null `cost` stores
  /// `DefaultCostFunction()`. Returns the assigned tuple id.
  [[nodiscard]] Result<BaseTupleId> Insert(std::vector<Value> values, double confidence,
                             CostFunctionPtr cost = nullptr, double max_confidence = 1.0);

  /// Looks up a tuple by id within this table.
  [[nodiscard]] Result<Tuple> FindTuple(BaseTupleId id) const;

  /// Sets the confidence of tuple `id`, clamped to its ceiling. Returns
  /// `kNotFound` for foreign ids and `kInvalidArgument` when `confidence`
  /// is negative or exceeds the ceiling by more than `kEpsilon`.
  [[nodiscard]] Status SetConfidence(BaseTupleId id, double confidence);

  /// The id-space prefix of this table, exposed so the catalog can route a
  /// `BaseTupleId` back to its owning table.
  uint32_t table_id() const { return table_id_; }

  /// The row store of this table, written only by `Insert` and
  /// `SetConfidence`. Vectorized scans borrow its chunks zero-copy.
  const TableColumnData& column_data() const { return columns_; }

 private:
  /// Row index encoded in `id`, or an error if `id` belongs elsewhere.
  [[nodiscard]] Result<size_t> RowOf(BaseTupleId id) const;

  std::string name_;
  Schema schema_;
  uint32_t table_id_;
  TableColumnData columns_;
};

/// \brief A view of one stored row: values plus the paper's confidence
/// annotations.
///
/// Beyond the row data, a base tuple carries
/// - `confidence`: trustworthiness in [0, 1] (assigned by the confidence
///   assignment component, e.g. the provenance technique of Dai et al. 2008);
/// - `max_confidence`: the ceiling achievable by quality improvement (the
///   paper's "1 or its maximum possible confidence level");
/// - a `CostFunction` pricing confidence increments for this tuple.
///
/// The view owns none of these: it reads row `row` of the table's column
/// chunks, so it sees later `Table::SetConfidence` writes.
class Tuple {
 public:
  Tuple(const Table* table, size_t row) : table_(table), row_(row) {}

  /// Catalog-wide id.
  BaseTupleId id() const { return (BaseTupleId{table_->table_id()} << 32) | row_; }

  /// Value of column `i`, boxed; `i` must be in range.
  Value value(size_t i) const { return table_->column_data().value(i, row_); }

  /// Row payload, boxed column by column.
  std::vector<Value> values() const;

  /// Current confidence in [0, max_confidence].
  double confidence() const { return table_->column_data().confidence(row_); }

  /// Ceiling for quality improvement.
  double max_confidence() const { return table_->column_data().max_confidence(row_); }

  /// Cost model for raising this tuple's confidence; never null.
  const CostFunctionPtr& cost_function() const { return table_->column_data().cost(row_); }

  /// "(v1, v2, ...) @ p=<confidence>" for diagnostics.
  std::string ToString() const;

 private:
  const Table* table_;
  size_t row_;
};

inline auto Table::tuples() const {
  return std::views::iota(size_t{0}, num_tuples()) |
         std::views::transform([this](size_t row) { return Tuple(this, row); });
}

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_TABLE_H_
