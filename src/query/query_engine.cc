#include "query/query_engine.h"

#include <algorithm>

#include "common/string_util.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/vec_executor.h"

namespace pcqe {

void QueryResult::RecomputeConfidences(const ConfidenceMap& confidences) {
  MaterializeLineage();
  for (Row& row : rows) {
    row.confidence = EvaluateIndependent(*arena, row.lineage, confidences);
  }
}

std::vector<Value> QueryResult::ValuesOfRow(size_t i) const {
  if (!defer_values || !rows[i].values.empty()) return rows[i].values;
  std::vector<Value> values;
  values.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    values.push_back(columnar->BoxedValue(c, i));
  }
  return values;
}

void QueryResult::MaterializeValues() {
  if (!defer_values) return;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].values.empty()) rows[i].values = ValuesOfRow(i);
  }
  defer_values = false;
  if (!defer_lineage) columnar.reset();
}

void QueryResult::MaterializeLineage() {
  if (!defer_lineage) return;
  arena->Reserve(rows.size());
  std::vector<LineageRef> scratch;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].lineage == kNullLineage) {
      rows[i].lineage = columnar->BoxRowLineage(arena.get(), i, &scratch);
    }
  }
  defer_lineage = false;
  if (!defer_values) columnar.reset();
}

std::string QueryResult::ToTable(size_t max_rows) const {
  // Header + rows, column-aligned.
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  header.reserve(schema.num_columns() + 1);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    header.push_back(schema.column(c).QualifiedName());
  }
  header.push_back("confidence");
  cells.push_back(std::move(header));
  size_t shown = std::min(rows.size(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line;
    line.reserve(schema.num_columns() + 1);
    for (const Value& v : ValuesOfRow(r)) line.push_back(v.ToString());
    line.push_back(FormatDouble(rows[r].confidence, 6));
    cells.push_back(std::move(line));
  }
  std::vector<size_t> widths(cells[0].size(), 0);
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); ++c) widths[c] = std::max(widths[c], line[c].size());
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      out += StrFormat("%-*s", static_cast<int>(widths[c] + 2), cells[r][c].c_str());
    }
    out += "\n";
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); ++c) {
        out += std::string(widths[c], '-') + "  ";
      }
      out += "\n";
    }
  }
  if (rows.size() > shown) {
    out += StrFormat("... (%zu more rows)\n", rows.size() - shown);
  }
  return out;
}

Result<ConfidenceMap> SnapshotConfidences(const Catalog& catalog,
                                          const QueryResult& result) {
  // Every interned variable refers to a base tuple the query scanned, so
  // snapshotting the arena's variable index covers all rows in one pass.
  // (Walking each row's formula with `Variables` is O(rows × arena nodes)
  // and dominated end-to-end time on large results.)
  ConfidenceMap map(0.0);
  for (const auto& [id, ref] : result.arena->variable_index()) {
    (void)ref;
    PCQE_ASSIGN_OR_RETURN(Tuple t, catalog.FindTuple(id));
    map.Set(id, t.confidence());
  }
  return map;
}

namespace {

/// True when the planner actually inserted a β prune node (the pushdown
/// spec alone does not imply it — unsafe shapes plan unchanged).
bool ContainsConfidencePrune(const PlanNode& plan) {  // NOLINT(misc-no-recursion)
  if (plan.kind == PlanKind::kConfidencePrune) return true;
  if (plan.left && ContainsConfidencePrune(*plan.left)) return true;
  return plan.right && ContainsConfidencePrune(*plan.right);
}

}  // namespace

Result<QueryResult> RunQuery(const Catalog& catalog, const std::string& sql,
                             TraceBuilder* trace, ExecutionMode mode,
                             bool materialize_values, OperatorProfile* profile,
                             const ConfidencePushdown* pushdown) {
  if (profile != nullptr) profile->mode = ExecutionModeToString(mode);
  std::unique_ptr<SelectStatement> stmt;
  {
    ScopedSpan span(trace, "parse");
    PCQE_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  }
  std::unique_ptr<PlanNode> plan;
  {
    ScopedSpan span(trace, "plan");
    PCQE_ASSIGN_OR_RETURN(plan, PlanQuery(catalog, *stmt, pushdown));
  }

  QueryResult result;
  result.schema = plan->output_schema;
  result.arena = std::make_shared<LineageArena>();
  result.plan_text = plan->ToString();
  result.mode = mode;
  result.tables = CollectScannedTables(*plan);
  result.pushed_down = ContainsConfidencePrune(*plan);

  OperatorProfiler profiler(profile);

  if (mode == ExecutionMode::kVectorized) {
    VectorExecutor executor(result.arena.get(),
                            profile != nullptr ? &profiler : nullptr);
    size_t num_columns = plan->output_schema.num_columns();
    VecResult vec;
    {
      ScopedSpan span(trace, "execute");
      PCQE_ASSIGN_OR_RETURN(vec, executor.Run(*plan));
      span.Annotate("rows", std::to_string(vec.num_rows));
    }
    // ScanRowConfidence's fixed dedupe scratch bounds the factor count.
    constexpr size_t kMaxDeferredFactors = 8;
    if (!materialize_values && vec.AllScanFactors() &&
        vec.factors.size() <= kMaxDeferredFactors) {
      // Fully deferred serving path: the result stays factorized. Per-row
      // confidences fold nodelessly over the chunks' confidence vectors
      // (bit-identical to evaluating the interned formulas); values box and
      // lineage interns on demand (ValuesOfRow / MaterializeLineage), so
      // nothing per-row is allocated for rows the policy filter releases.
      ScopedSpan span(trace, "lineage");
      result.rows.resize(vec.num_rows);
      for (size_t i = 0; i < vec.num_rows; ++i) {
        result.rows[i].confidence = vec.ScanRowConfidence(i);
      }
      result.vec_stats = executor.stats();
      result.columnar = std::make_shared<const VecResult>(std::move(vec));
      result.defer_values = true;
      result.defer_lineage = true;
      return result;
    }
    {
      ScopedSpan span(trace, "execute-lineage");
      result.arena->Reserve(vec.num_rows);
      result.rows.resize(vec.num_rows);
      for (size_t i = 0; i < vec.num_rows; ++i) {
        result.rows[i].lineage = executor.RowLineage(vec, i);
      }
    }
    {
      // Confidences fold directly over the column chunks' confidence
      // vectors (memoized per lineage node) — bit-identical to the row
      // path's snapshot-then-evaluate, without building a ConfidenceMap.
      ScopedSpan span(trace, "lineage");
      for (QueryResult::Row& row : result.rows) {
        row.confidence = executor.ConfidenceOf(row.lineage);
      }
    }
    result.vec_stats = executor.stats();
    if (materialize_values) {
      ScopedSpan span(trace, "materialize");
      for (size_t i = 0; i < vec.num_rows; ++i) {
        std::vector<Value>& values = result.rows[i].values;
        values.reserve(num_columns);
        for (size_t c = 0; c < num_columns; ++c) {
          values.push_back(vec.BoxedValue(c, i));
        }
      }
    } else {
      // Values-deferred: the factorized payload boxes on demand
      // (ValuesOfRow); lineage is already interned (grouped results carry
      // per-group formulas, so deferral would save nothing).
      result.columnar = std::make_shared<const VecResult>(std::move(vec));
      result.defer_values = true;
    }
    return result;
  }

  {
    ScopedSpan span(trace, "execute");
    Executor executor(result.arena.get(), profile != nullptr ? &profiler : nullptr);
    PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> rows, executor.Run(*plan));
    result.vec_stats = executor.stats();
    result.rows.reserve(rows.size());
    for (ExecRow& row : rows) {
      result.rows.push_back({std::move(row.values), row.lineage, 0.0});
    }
    span.Annotate("rows", std::to_string(result.rows.size()));
  }

  {
    ScopedSpan span(trace, "lineage");
    PCQE_ASSIGN_OR_RETURN(ConfidenceMap confidences,
                          SnapshotConfidences(catalog, result));
    result.RecomputeConfidences(confidences);
  }
  return result;
}

}  // namespace pcqe
