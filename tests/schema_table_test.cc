// Unit tests for relational schema, tuple views, table and catalog.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/math_util.h"
#include "cost/cost_function.h"
#include "relational/catalog.h"
#include "relational/database_io.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace pcqe {
namespace {

Schema ProposalSchema() {
  return Schema({{"company", DataType::kString, ""},
                 {"proposal", DataType::kString, ""},
                 {"funding", DataType::kDouble, ""}});
}

TEST(SchemaTest, IndexOfUnqualified) {
  Schema s = ProposalSchema();
  EXPECT_EQ(*s.IndexOf("company"), 0u);
  EXPECT_EQ(*s.IndexOf("FUNDING"), 2u);  // case-insensitive
  EXPECT_TRUE(s.IndexOf("missing").status().IsNotFound());
}

TEST(SchemaTest, QualifiedLookup) {
  Schema s = ProposalSchema().WithQualifier("p");
  EXPECT_EQ(*s.IndexOf("p.company"), 0u);
  EXPECT_EQ(*s.IndexOf("P.Company"), 0u);
  EXPECT_TRUE(s.IndexOf("q.company").status().IsNotFound());
  EXPECT_EQ(s.column(0).QualifiedName(), "p.company");
}

TEST(SchemaTest, AmbiguousUnqualifiedReferenceIsBindError) {
  Schema joined = ProposalSchema().WithQualifier("a").Concat(
      ProposalSchema().WithQualifier("b"));
  EXPECT_TRUE(joined.IndexOf("company").status().IsBindError());
  EXPECT_EQ(*joined.IndexOf("a.company"), 0u);
  EXPECT_EQ(*joined.IndexOf("b.company"), 3u);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  Schema s = ProposalSchema().Concat(Schema({{"income", DataType::kDouble, ""}}));
  EXPECT_EQ(s.num_columns(), 4u);
  EXPECT_EQ(s.column(3).name, "income");
}

TEST(SchemaTest, ToStringListsColumns) {
  Schema s({{"a", DataType::kInt64, "t"}});
  EXPECT_EQ(s.ToString(), "(t.a BIGINT)");
}

TEST(TupleTest, ClampsConfidenceToCeiling) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}));
  BaseTupleId id = *t.Insert({Value::Int(1)}, 0.5, nullptr, 0.8);
  EXPECT_DOUBLE_EQ(t.FindTuple(id)->max_confidence(), 0.8);
  // Within kEpsilon of the ceiling is accepted and stored as the ceiling.
  ASSERT_TRUE(t.SetConfidence(id, 0.8 + kEpsilon / 2).ok());
  EXPECT_EQ(t.FindTuple(id)->confidence(), 0.8);
  EXPECT_EQ(t.column_data().confidence(0), 0.8);
  EXPECT_TRUE(t.SetConfidence(id, 0.8 + 0.1).IsInvalidArgument());
  EXPECT_EQ(t.FindTuple(id)->confidence(), 0.8);
  ASSERT_TRUE(t.SetConfidence(id, 0.5).ok());
  EXPECT_DOUBLE_EQ(t.FindTuple(id)->confidence(), 0.5);
}

TEST(TupleTest, DefaultsToUnitLinearCost) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}));
  BaseTupleId id = *t.Insert({Value::Int(1)}, 0.3);
  const CostFunctionPtr& cost = t.FindTuple(id)->cost_function();
  ASSERT_NE(cost, nullptr);
  EXPECT_NEAR(cost->Increment(0.3, 0.5), 0.2, 1e-12);
}

TEST(TupleTest, ToStringIncludesConfidence) {
  Table t("x", Schema({{"s", DataType::kString, ""}, {"n", DataType::kInt64, ""}}));
  BaseTupleId id = *t.Insert({Value::String("x"), Value::Int(2)}, 0.3);
  EXPECT_EQ(t.FindTuple(id)->ToString(), "(x, 2) @ p=0.3");
}

TEST(TableTest, InsertValidatesArity) {
  Table t("proposal", ProposalSchema());
  EXPECT_TRUE(t.Insert({Value::String("a")}, 0.5).status().IsInvalidArgument());
}

TEST(TableTest, InsertValidatesTypes) {
  Table t("proposal", ProposalSchema());
  auto bad = t.Insert({Value::Int(1), Value::String("p"), Value::Double(1.0)}, 0.5);
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  // NULL accepted anywhere; BIGINT widens into DOUBLE columns.
  auto ok = t.Insert({Value::Null(), Value::String("p"), Value::Int(100)}, 0.5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(t.tuples()[0].value(2).type(), DataType::kDouble);
}

TEST(TableTest, InsertValidatesConfidence) {
  Table t("proposal", ProposalSchema());
  std::vector<Value> row = {Value::String("a"), Value::String("p"), Value::Double(1.0)};
  EXPECT_TRUE(t.Insert(row, -0.1).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert(row, 1.1).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert(row, 0.5, nullptr, 0.4).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert(row, 0.5, nullptr, 0.9).ok());
}

TEST(TableTest, TupleIdsEncodeTableAndRow) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}), /*table_id=*/7);
  BaseTupleId id0 = *t.Insert({Value::Int(1)}, 0.1);
  BaseTupleId id1 = *t.Insert({Value::Int(2)}, 0.2);
  EXPECT_EQ(id0 >> 32, 7u);
  EXPECT_EQ(id1, id0 + 1);
  EXPECT_EQ(t.FindTuple(id1)->value(0), Value::Int(2));
  EXPECT_TRUE(t.FindTuple((8ULL << 32)).status().IsNotFound());
  EXPECT_TRUE(t.FindTuple(id1 + 1).status().IsNotFound());
}

TEST(TableTest, SetConfidence) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}), 1);
  BaseTupleId id = *t.Insert({Value::Int(1)}, 0.3, nullptr, 0.9);
  EXPECT_TRUE(t.SetConfidence(id, 0.7).ok());
  EXPECT_DOUBLE_EQ(t.FindTuple(id)->confidence(), 0.7);
  EXPECT_TRUE(t.SetConfidence(id, 0.95).IsInvalidArgument());
  EXPECT_TRUE(t.SetConfidence(id + 100, 0.5).IsNotFound());
}

// The row view, id lookup and the column chunks must agree on row `row`.
void ExpectRowAgrees(const Table& t, size_t row) {
  SCOPED_TRACE("row " + std::to_string(row));
  const TableColumnData& data = t.column_data();
  Tuple view = t.tuples()[row];
  Tuple found = *t.FindTuple(view.id());
  EXPECT_EQ(view.id(), (static_cast<BaseTupleId>(t.table_id()) << 32) | row);
  ASSERT_EQ(view.values().size(), data.num_columns());
  for (size_t c = 0; c < data.num_columns(); ++c) {
    EXPECT_EQ(view.value(c).is_null(), data.IsNull(c, row));
    EXPECT_EQ(view.value(c), data.value(c, row));
    EXPECT_EQ(view.values()[c], data.value(c, row));
    EXPECT_EQ(found.value(c), data.value(c, row));
  }
  EXPECT_EQ(view.confidence(), data.confidence(row));
  EXPECT_EQ(found.confidence(), data.confidence(row));
  EXPECT_EQ(view.max_confidence(), data.max_confidence(row));
  EXPECT_EQ(found.max_confidence(), data.max_confidence(row));
  EXPECT_EQ(view.cost_function(), data.cost(row));
  EXPECT_EQ(found.cost_function(), data.cost(row));
}

TEST(TableTest, ChunkBoundaryRowsAgreeAcrossAccessors) {
  struct Row {
    std::vector<Value> values;
    double confidence;
    double max_confidence;
    CostFunctionPtr cost;
  };
  // Rows 2047, 2048 and 2049 straddle the first chunk boundary.
  static_assert(kColumnChunkCapacity == 2048);
  const std::vector<Row> edge = {
      {{Value::Int(2047), Value::Null()}, 0.2, 0.6, *MakeLinearCost(3.0)},
      {{Value::Null(), Value::String("b")}, 0.3, 0.7, *MakeExponentialCost(2.0, 3.0)},
      {{Value::Int(2049), Value::String("c")}, 0.4, 0.8, *MakeStepCost(2.0, 0.05)},
  };
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "edge", Schema({{"n", DataType::kInt64, ""}, {"s", DataType::kString, ""}}));
  for (int64_t i = 0; i < 2047; ++i) {
    ASSERT_TRUE(t->Insert({Value::Int(i), Value::String("f")}, 0.1).ok());
  }
  for (const Row& r : edge) {
    ASSERT_TRUE(t->Insert(r.values, r.confidence, r.cost, r.max_confidence).ok());
  }
  ASSERT_EQ(t->num_tuples(), 2050u);
  ASSERT_EQ(t->column_data().num_chunks(), 2u);

  auto expect_edge = [&](const Table& table, const std::vector<double>& confidences) {
    for (size_t i = 0; i < edge.size(); ++i) {
      size_t row = 2047 + i;
      ExpectRowAgrees(table, row);
      Tuple view = table.tuples()[row];
      for (size_t c = 0; c < edge[i].values.size(); ++c) {
        EXPECT_EQ(view.value(c).is_null(), edge[i].values[c].is_null());
        EXPECT_EQ(view.value(c), edge[i].values[c]);
      }
      EXPECT_EQ(view.confidence(), confidences[i]);
      EXPECT_EQ(view.max_confidence(), edge[i].max_confidence);
      EXPECT_EQ(view.cost_function()->ToString(), edge[i].cost->ToString());
    }
  };
  expect_edge(*t, {0.2, 0.3, 0.4});
  EXPECT_EQ(t->tuples()[2047].cost_function(), edge[0].cost);

  const std::vector<double> raised = {0.55, 0.7, 0.45};
  for (size_t i = 0; i < edge.size(); ++i) {
    ASSERT_TRUE(catalog.SetConfidence(t->tuples()[2047 + i].id(), raised[i]).ok());
  }
  expect_edge(*t, raised);

  std::string dir = ::testing::TempDir() + "/chunk_boundary_db";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDatabase(catalog, dir).ok());
  Catalog loaded;
  ASSERT_TRUE(LoadDatabase(dir, &loaded).ok());
  const Table* lt = *loaded.GetTable("edge");
  ASSERT_EQ(lt->num_tuples(), 2050u);
  EXPECT_EQ(lt->table_id(), t->table_id());
  expect_edge(*lt, raised);
}

TEST(CatalogTest, CreateAndGet) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("Proposal", ProposalSchema()).ok());
  EXPECT_TRUE(c.GetTable("proposal").ok());  // case-insensitive
  EXPECT_TRUE(c.GetTable("PROPOSAL").ok());
  EXPECT_TRUE(c.CreateTable("proposal", ProposalSchema()).status().IsAlreadyExists());
  EXPECT_TRUE(c.GetTable("other").status().IsNotFound());
  EXPECT_TRUE(c.CreateTable("", ProposalSchema()).status().IsInvalidArgument());
}

TEST(CatalogTest, TupleIdsUniqueAcrossTables) {
  Catalog c;
  Table* a = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  Table* b = *c.CreateTable("b", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId ia = *a->Insert({Value::Int(1)}, 0.1);
  BaseTupleId ib = *b->Insert({Value::Int(1)}, 0.2);
  EXPECT_NE(ia, ib);
  EXPECT_DOUBLE_EQ(c.FindTuple(ia)->confidence(), 0.1);
  EXPECT_DOUBLE_EQ(c.FindTuple(ib)->confidence(), 0.2);
}

TEST(CatalogTest, SetConfidenceRoutesToOwningTable) {
  Catalog c;
  Table* a = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId id = *a->Insert({Value::Int(1)}, 0.1);
  EXPECT_TRUE(c.SetConfidence(id, 0.4).ok());
  EXPECT_DOUBLE_EQ(c.FindTuple(id)->confidence(), 0.4);
  EXPECT_TRUE(c.SetConfidence((99ULL << 32), 0.4).IsNotFound());
}

TEST(CatalogTest, DropTableRetiresIdSpace) {
  Catalog c;
  Table* a = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId stale = *a->Insert({Value::Int(1)}, 0.1);
  ASSERT_TRUE(c.DropTable("a").ok());
  EXPECT_TRUE(c.DropTable("a").IsNotFound());
  // Re-created table gets a fresh id prefix; the stale id resolves nowhere.
  Table* a2 = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId fresh = *a2->Insert({Value::Int(2)}, 0.2);
  EXPECT_NE(stale >> 32, fresh >> 32);
  EXPECT_TRUE(c.FindTuple(stale).status().IsNotFound());
}

TEST(CatalogTest, TableNamesInCreationOrder) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("zeta", ProposalSchema()).ok());
  ASSERT_TRUE(c.CreateTable("alpha", ProposalSchema()).ok());
  EXPECT_EQ(c.TableNames(), (std::vector<std::string>{"zeta", "alpha"}));
}

}  // namespace
}  // namespace pcqe
