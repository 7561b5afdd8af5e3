// Tests for whole-database save/load and cost-function serialization.

#include "relational/database_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cost/cost_function.h"

namespace pcqe {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CostSerializationTest, RoundTripsEveryFamily) {
  std::vector<CostFunctionPtr> functions = {
      *MakeLinearCost(2.5),          *MakePolynomialCost(1.5, 3.0),
      *MakeExponentialCost(2.0, 3.5), *MakeLogarithmicCost(4.0, 12.0),
      *MakeStepCost(2.0, 0.05),
  };
  for (const CostFunctionPtr& f : functions) {
    auto parsed = ParseCostFunction(f->ToString());
    ASSERT_TRUE(parsed.ok()) << f->ToString() << ": " << parsed.status().ToString();
    EXPECT_EQ((*parsed)->family(), f->family());
    for (double p : {0.0, 0.1, 0.37, 0.9, 1.0}) {
      EXPECT_NEAR((*parsed)->Level(p), f->Level(p), 1e-9) << f->ToString();
    }
  }
}

TEST(CostSerializationTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseCostFunction("").status().IsParseError());
  EXPECT_TRUE(ParseCostFunction("linear").status().IsParseError());
  EXPECT_TRUE(ParseCostFunction("linear(a=2").status().IsParseError());
  EXPECT_TRUE(ParseCostFunction("linear(b=2)").status().IsParseError());
  EXPECT_TRUE(ParseCostFunction("linear(a=x)").status().IsParseError());
  EXPECT_TRUE(ParseCostFunction("mystery(a=2)").status().IsParseError());
  EXPECT_TRUE(ParseCostFunction("exponential(a=2)").status().IsParseError());
  EXPECT_TRUE(ParseCostFunction("linear(a)").status().IsParseError());
  // Parameters out of range surface the factory's validation.
  EXPECT_TRUE(ParseCostFunction("linear(a=-1)").status().IsInvalidArgument());
}

TEST(DatabaseIoTest, RoundTripsTablesRowsAndAnnotations) {
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "mixed", Schema({{"name", DataType::kString, ""},
                       {"n", DataType::kInt64, ""},
                       {"x", DataType::kDouble, ""},
                       {"flag", DataType::kBool, ""}}));
  ASSERT_TRUE(t->Insert({Value::String("quote\" and, comma"), Value::Int(-7),
                         Value::Double(0.1234567890123456), Value::Bool(true)},
                        0.37, *MakeExponentialCost(2.0, 3.0), 0.9)
                  .ok());
  ASSERT_TRUE(
      t->Insert({Value::Null(), Value::Null(), Value::Null(), Value::Null()}, 0.5)
          .ok());
  ASSERT_TRUE(catalog.CreateTable("empty", Schema({{"a", DataType::kInt64, ""}})).ok());

  std::string dir = FreshDir("dbio_roundtrip");
  ASSERT_TRUE(SaveDatabase(catalog, dir).ok());

  Catalog loaded;
  ASSERT_TRUE(LoadDatabase(dir, &loaded).ok());
  EXPECT_EQ(loaded.TableNames(), catalog.TableNames());

  const Table* lt = *loaded.GetTable("mixed");
  ASSERT_EQ(lt->num_tuples(), 2u);
  EXPECT_EQ(lt->tuples()[0].value(0), Value::String("quote\" and, comma"));
  EXPECT_EQ(lt->tuples()[0].value(1), Value::Int(-7));
  EXPECT_DOUBLE_EQ(*lt->tuples()[0].value(2).AsDouble(), 0.1234567890123456);
  EXPECT_EQ(lt->tuples()[0].value(3), Value::Bool(true));
  EXPECT_DOUBLE_EQ(lt->tuples()[0].confidence(), 0.37);
  EXPECT_DOUBLE_EQ(lt->tuples()[0].max_confidence(), 0.9);
  EXPECT_EQ(lt->tuples()[0].cost_function()->family(), CostFamily::kExponential);
  EXPECT_NEAR(lt->tuples()[0].cost_function()->Level(0.5),
              t->tuples()[0].cost_function()->Level(0.5), 1e-12);
  EXPECT_TRUE(lt->tuples()[1].value(0).is_null());

  const Table* le = *loaded.GetTable("empty");
  EXPECT_EQ(le->num_tuples(), 0u);
  EXPECT_EQ(le->schema().column(0).type, DataType::kInt64);
}

TEST(DatabaseIoTest, SchemaTypesAreAuthoritative) {
  // A column whose only value "123" would infer as BIGINT must stay VARCHAR.
  Catalog catalog;
  Table* t =
      *catalog.CreateTable("codes", Schema({{"code", DataType::kString, ""}}));
  ASSERT_TRUE(t->Insert({Value::String("123")}, 0.5).ok());
  std::string dir = FreshDir("dbio_types");
  ASSERT_TRUE(SaveDatabase(catalog, dir).ok());
  Catalog loaded;
  ASSERT_TRUE(LoadDatabase(dir, &loaded).ok());
  EXPECT_EQ((*loaded.GetTable("codes"))->tuples()[0].value(0), Value::String("123"));
}

TEST(DatabaseIoTest, MissingManifestIsNotFound) {
  Catalog catalog;
  EXPECT_TRUE(LoadDatabase(FreshDir("dbio_missing"), &catalog).IsNotFound());
}

TEST(DatabaseIoTest, CorruptRowsReported) {
  std::string dir = FreshDir("dbio_corrupt");
  {
    std::ofstream(dir + "/manifest.pcqe") << "t\n";
    std::ofstream(dir + "/t.schema") << "n\tBIGINT\n";
    std::ofstream(dir + "/t.csv") << "n,__confidence,__max_confidence,__cost\n"
                                  << "oops,0.5,1,linear(a=1)\n";
  }
  Catalog catalog;
  Status s = LoadDatabase(dir, &catalog);
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("BIGINT"), std::string::npos);
}

TEST(DatabaseIoTest, WrongArityReported) {
  std::string dir = FreshDir("dbio_arity");
  {
    std::ofstream(dir + "/manifest.pcqe") << "t\n";
    std::ofstream(dir + "/t.schema") << "n\tBIGINT\n";
    std::ofstream(dir + "/t.csv") << "n,__confidence\n1,0.5\n";
  }
  Catalog catalog;
  EXPECT_TRUE(LoadDatabase(dir, &catalog).IsParseError());
}

TEST(DatabaseIoTest, LoadIntoOccupiedCatalogDetectsCollision) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""}}));
  ASSERT_TRUE(t->Insert({Value::Int(1)}, 0.5).ok());
  std::string dir = FreshDir("dbio_collision");
  ASSERT_TRUE(SaveDatabase(catalog, dir).ok());
  EXPECT_TRUE(LoadDatabase(dir, &catalog).IsAlreadyExists());
}

TEST(DatabaseIoTest, QueriesWorkAfterReload) {
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "p", Schema({{"company", DataType::kString, ""},
                   {"funding", DataType::kDouble, ""}}));
  ASSERT_TRUE(
      t->Insert({Value::String("BlueSky"), Value::Double(5e5)}, 0.4).ok());
  std::string dir = FreshDir("dbio_query");
  ASSERT_TRUE(SaveDatabase(catalog, dir).ok());
  Catalog loaded;
  ASSERT_TRUE(LoadDatabase(dir, &loaded).ok());
  // (Exercised through the query engine in engine_integration_test-style
  // usage; here we just verify confidences flowed through.)
  EXPECT_DOUBLE_EQ((*loaded.GetTable("p"))->tuples()[0].confidence(), 0.4);
}

TEST(DatabaseIoTest, RejectsNonNumericConfidenceCells) {
  // Regression: these cells used to go through an unchecked strtod, so a
  // garbage confidence silently loaded as 0.0 and every row read as fully
  // blocked. They must be rejected loudly instead.
  std::string dir = FreshDir("dbio_bad_conf");
  {
    std::ofstream(dir + "/manifest.pcqe") << "t\n";
    std::ofstream(dir + "/t.schema") << "n\tBIGINT\n";
    std::ofstream(dir + "/t.csv") << "n,__confidence,__max_confidence,__cost\n"
                                  << "1,0.5x,1,linear(a=1)\n";
  }
  Catalog catalog;
  Status s = LoadDatabase(dir, &catalog);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("__confidence"), std::string::npos) << s.ToString();

  std::ofstream(dir + "/t.csv") << "n,__confidence,__max_confidence,__cost\n"
                                << "1,0.5,,linear(a=1)\n";
  Catalog catalog2;
  Status empty_cell = LoadDatabase(dir, &catalog2);
  EXPECT_TRUE(empty_cell.IsInvalidArgument()) << empty_cell.ToString();
  EXPECT_NE(empty_cell.message().find("__max_confidence"), std::string::npos);
}

TEST(DatabaseIoTest, RejectsConfidenceOutsideUnitInterval) {
  std::string dir = FreshDir("dbio_conf_range");
  {
    std::ofstream(dir + "/manifest.pcqe") << "t\n";
    std::ofstream(dir + "/t.schema") << "n\tBIGINT\n";
    std::ofstream(dir + "/t.csv") << "n,__confidence,__max_confidence,__cost\n"
                                  << "1,1.5,1,linear(a=1)\n";
  }
  Catalog catalog;
  EXPECT_TRUE(LoadDatabase(dir, &catalog).IsInvalidArgument());

  std::ofstream(dir + "/t.csv") << "n,__confidence,__max_confidence,__cost\n"
                                << "1,0.5,-0.25,linear(a=1)\n";
  Catalog catalog2;
  EXPECT_TRUE(LoadDatabase(dir, &catalog2).IsInvalidArgument());
}

TEST(DatabaseIoTest, HeaderRoundTripsConfidenceVersionAndTableIds) {
  Catalog catalog;
  Table* a = *catalog.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  Table* b = *catalog.CreateTable("b", Schema({{"y", DataType::kInt64, ""}}));
  BaseTupleId id_a = *a->Insert({Value::Int(1)}, 0.3);
  BaseTupleId id_b = *b->Insert({Value::Int(2)}, 0.4);
  ASSERT_TRUE(catalog.SetConfidence(id_a, 0.5).ok());
  ASSERT_TRUE(catalog.SetConfidence(id_b, 0.6).ok());
  ASSERT_TRUE(catalog.SetConfidence(id_a, 0.7).ok());
  ASSERT_EQ(catalog.confidence_version(), 3u);

  std::string dir = FreshDir("dbio_header");
  ASSERT_TRUE(SaveDatabase(catalog, dir).ok());
  Catalog loaded;
  ASSERT_TRUE(LoadDatabase(dir, &loaded).ok());
  // The version counter survives, so version-keyed caches stay sound.
  EXPECT_EQ(loaded.confidence_version(), 3u);
  // Tuple ids are reproduced exactly: persisted BaseTupleIds (WAL actions,
  // lineage references) keep resolving to the same tuples.
  EXPECT_DOUBLE_EQ(loaded.FindTuple(id_a)->confidence(), 0.7);
  EXPECT_DOUBLE_EQ(loaded.FindTuple(id_b)->confidence(), 0.6);
  EXPECT_EQ((*loaded.GetTable("a"))->table_id(), a->table_id());
  EXPECT_EQ((*loaded.GetTable("b"))->table_id(), b->table_id());
  // Fresh table ids continue past the restored ones (no aliasing).
  Table* c = *loaded.CreateTable("c", Schema({{"z", DataType::kInt64, ""}}));
  EXPECT_GT(c->table_id(), b->table_id());
}

TEST(DatabaseIoTest, RejectsMalformedHeaders) {
  std::string dir = FreshDir("dbio_bad_header");
  std::ofstream(dir + "/t.schema") << "n\tBIGINT\n";
  std::ofstream(dir + "/t.csv") << "n,__confidence,__max_confidence,__cost\n";
  struct Case {
    const char* manifest;
    bool invalid_argument;  // else: parse error
  };
  const Case cases[] = {
      {"PCQE_DB 3\nconfidence_version 0\ntable 1 t\n", true},
      {"PCQE_DB x\nconfidence_version 0\ntable 1 t\n", true},
      {"PCQE_DB 2\n", true},
      {"PCQE_DB 2\nconfidence_version x\ntable 1 t\n", true},
      {"PCQE_DB 2\nconfidence_version 0\nt\n", false},
      {"PCQE_DB 2\nconfidence_version 0\ntable 0 t\n", true},
      {"PCQE_DB 2\nconfidence_version 0\ntable 1\n", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.manifest);
    std::ofstream(dir + "/manifest.pcqe") << c.manifest;
    Catalog catalog;
    Status s = LoadDatabase(dir, &catalog);
    if (c.invalid_argument) {
      EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    } else {
      EXPECT_TRUE(s.IsParseError()) << s.ToString();
    }
  }
}

TEST(DatabaseIoTest, LegacyHeaderlessManifestStillLoads) {
  std::string dir = FreshDir("dbio_legacy");
  {
    std::ofstream(dir + "/manifest.pcqe") << "t\n";
    std::ofstream(dir + "/t.schema") << "n\tBIGINT\n";
    std::ofstream(dir + "/t.csv") << "n,__confidence,__max_confidence,__cost\n"
                                  << "1,0.5,1,linear(a=1)\n";
  }
  Catalog catalog;
  ASSERT_TRUE(LoadDatabase(dir, &catalog).ok());
  const Table* t = *catalog.GetTable("t");
  EXPECT_EQ(t->num_tuples(), 1u);
  EXPECT_GT(t->table_id(), 0u);       // fresh id assigned
  EXPECT_EQ(catalog.confidence_version(), 0u);  // no version to restore
}

}  // namespace
}  // namespace pcqe
