#include "relational/table.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/string_util.h"

namespace pcqe {

namespace {

// Whether a value may be stored into a column of the declared type.
bool TypeAccepts(DataType declared, const Value& v) {
  if (v.is_null()) return true;
  if (v.type() == declared) return true;
  // Integer literals widen into DOUBLE columns.
  return declared == DataType::kDouble && v.type() == DataType::kInt64;
}

}  // namespace

Result<BaseTupleId> Table::Insert(std::vector<Value> values, double confidence,
                                  CostFunctionPtr cost, double max_confidence) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("table '%s' expects %zu values, got %zu", name_.c_str(),
                  schema_.num_columns(), values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!TypeAccepts(schema_.column(i).type, values[i])) {
      return Status::InvalidArgument(StrFormat(
          "table '%s' column '%s' declared %s, got %s", name_.c_str(),
          schema_.column(i).name.c_str(), DataTypeToString(schema_.column(i).type).c_str(),
          DataTypeToString(values[i].type()).c_str()));
    }
    // Normalize widened integers so downstream hashing sees one type.
    if (schema_.column(i).type == DataType::kDouble &&
        values[i].type() == DataType::kInt64) {
      values[i] = Value::Double(*values[i].AsDouble());
    }
  }
  if (confidence < 0.0 || confidence > 1.0) {
    return Status::InvalidArgument(
        StrFormat("confidence %g outside [0, 1]", confidence));
  }
  if (max_confidence < confidence || max_confidence > 1.0) {
    return Status::InvalidArgument(StrFormat(
        "max_confidence %g must lie in [confidence=%g, 1]", max_confidence, confidence));
  }
  const size_t row = columns_.num_rows();
  if (row >= (1ULL << 32)) {
    return Status::ResourceExhausted(
        StrFormat("table '%s' exceeds 2^32 tuples", name_.c_str()));
  }
  columns_.AppendRow(values, confidence, max_confidence,
                     cost ? std::move(cost) : DefaultCostFunction());
  return (static_cast<BaseTupleId>(table_id_) << 32) | static_cast<BaseTupleId>(row);
}

Result<size_t> Table::RowOf(BaseTupleId id) const {
  if (static_cast<uint32_t>(id >> 32) != table_id_) {
    return Status::NotFound(
        StrFormat("tuple id %llu does not belong to table '%s'",
                  static_cast<unsigned long long>(id), name_.c_str()));
  }
  size_t row = static_cast<size_t>(id & 0xFFFFFFFFULL);
  if (row >= columns_.num_rows()) {
    return Status::NotFound(StrFormat("tuple id %llu out of range for table '%s'",
                                      static_cast<unsigned long long>(id), name_.c_str()));
  }
  return row;
}

Result<Tuple> Table::FindTuple(BaseTupleId id) const {
  PCQE_ASSIGN_OR_RETURN(size_t row, RowOf(id));
  return Tuple(this, row);
}

std::vector<Value> Tuple::values() const {
  std::vector<Value> out;
  out.reserve(table_->schema().num_columns());
  for (size_t c = 0; c < table_->schema().num_columns(); ++c) out.push_back(value(c));
  return out;
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  for (const Value& v : values()) parts.push_back(v.ToString());
  return StrFormat("(%s) @ p=%s", JoinStrings(parts, ", ").c_str(),
                   FormatDouble(confidence(), 6).c_str());
}

Status Table::SetConfidence(BaseTupleId id, double confidence) {
  PCQE_ASSIGN_OR_RETURN(size_t row, RowOf(id));
  const double max = columns_.max_confidence(row);
  if (confidence < 0.0 || confidence > max + kEpsilon) {
    return Status::InvalidArgument(
        StrFormat("confidence %g outside [0, max=%g] for tuple %llu", confidence, max,
                  static_cast<unsigned long long>(id)));
  }
  columns_.StoreConfidence(row, std::min(ClampProbability(confidence), max));
  return Status::OK();
}

}  // namespace pcqe
