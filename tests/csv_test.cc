// Tests for CSV import/export.

#include "relational/csv.h"

#include <gtest/gtest.h>

namespace pcqe {
namespace {

TEST(ParseCsvTest, SimpleRows) {
  auto rows = *ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ParseCsvTest, QuotedFields) {
  auto rows = *ParseCsv("\"a,b\",\"line\nbreak\",\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "line\nbreak");
  EXPECT_EQ(rows[0][2], "say \"hi\"");
}

TEST(ParseCsvTest, CrlfAndMissingTrailingNewline) {
  auto rows = *ParseCsv("a,b\r\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "2");
}

TEST(ParseCsvTest, EmptyFieldsPreserved) {
  auto rows = *ParseCsv("a,,c\n,,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "");
  EXPECT_EQ(rows[1].size(), 3u);
}

TEST(ParseCsvTest, AlternateDelimiter) {
  auto rows = *ParseCsv("a;b\n1;2\n", ';');
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
}

TEST(ParseCsvTest, UnterminatedQuoteIsError) {
  EXPECT_TRUE(ParseCsv("\"oops\n").status().IsParseError());
}

TEST(ImportCsvTest, InfersTypes) {
  Catalog catalog;
  Table* t = *ImportCsv(&catalog, "t",
                        "name,age,score,active\n"
                        "ann,30,1.5,true\n"
                        "bob,41,2.0,false\n");
  const Schema& s = t->schema();
  EXPECT_EQ(s.column(0).type, DataType::kString);
  EXPECT_EQ(s.column(1).type, DataType::kInt64);
  EXPECT_EQ(s.column(2).type, DataType::kDouble);
  EXPECT_EQ(s.column(3).type, DataType::kBool);
  ASSERT_EQ(t->num_tuples(), 2u);
  EXPECT_EQ(t->tuples()[0].value(1), Value::Int(30));
  EXPECT_EQ(t->tuples()[1].value(3), Value::Bool(false));
  // Default confidence 1.0 without a confidence column.
  EXPECT_DOUBLE_EQ(t->tuples()[0].confidence(), 1.0);
}

TEST(ImportCsvTest, MixedNumbersWidenToDouble) {
  Catalog catalog;
  Table* t = *ImportCsv(&catalog, "t", "x\n1\n2.5\n");
  EXPECT_EQ(t->schema().column(0).type, DataType::kDouble);
  EXPECT_EQ(t->tuples()[0].value(0), Value::Double(1.0));
}

TEST(ImportCsvTest, EmptyFieldsBecomeNull) {
  Catalog catalog;
  Table* t = *ImportCsv(&catalog, "t", "x,y\n1,\n,b\n");
  EXPECT_TRUE(t->tuples()[0].value(1).is_null());
  EXPECT_TRUE(t->tuples()[1].value(0).is_null());
  EXPECT_EQ(t->schema().column(0).type, DataType::kInt64);
}

TEST(ImportCsvTest, ConfidenceColumnConsumed) {
  Catalog catalog;
  CsvOptions options;
  options.confidence_column = "conf";
  Table* t = *ImportCsv(&catalog, "t", "name,conf\nann,0.3\nbob,0.8\n", options);
  EXPECT_EQ(t->schema().num_columns(), 1u);  // conf stripped from data
  EXPECT_DOUBLE_EQ(t->tuples()[0].confidence(), 0.3);
  EXPECT_DOUBLE_EQ(t->tuples()[1].confidence(), 0.8);
}

TEST(ImportCsvTest, MissingConfidenceColumnIsError) {
  Catalog catalog;
  CsvOptions options;
  options.confidence_column = "trust";
  EXPECT_TRUE(
      ImportCsv(&catalog, "t", "name\nann\n", options).status().IsInvalidArgument());
}

TEST(ImportCsvTest, BadConfidenceValueIsError) {
  Catalog catalog;
  CsvOptions options;
  options.confidence_column = "conf";
  EXPECT_TRUE(ImportCsv(&catalog, "t", "name,conf\nann,high\n", options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ImportCsvTest, RaggedRowsRejected) {
  Catalog catalog;
  EXPECT_TRUE(
      ImportCsv(&catalog, "t", "a,b\n1,2,3\n").status().IsInvalidArgument());
}

TEST(ImportCsvTest, HeaderlessInput) {
  Catalog catalog;
  CsvOptions options;
  options.has_header = false;
  Table* t = *ImportCsv(&catalog, "t", "1,x\n2,y\n", options);
  EXPECT_EQ(t->schema().column(0).name, "col0");
  EXPECT_EQ(t->num_tuples(), 2u);
}

TEST(ImportCsvTest, DefaultCostFunctionAttached) {
  Catalog catalog;
  CsvOptions options;
  options.default_cost = *MakeLinearCost(500.0);
  Table* t = *ImportCsv(&catalog, "t", "x\n1\n", options);
  EXPECT_NEAR(t->tuples()[0].cost_function()->Increment(0.0, 0.1), 50.0, 1e-9);
}

TEST(ExportCsvTest, RoundTripsWithConfidence) {
  // Values containing quotes, delimiters and newlines survive a
  // export -> import cycle; confidences ride along in their own column.
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"name", DataType::kString, ""},
                                               {"score", DataType::kDouble, ""}}));
  ASSERT_TRUE(t->Insert({Value::String("ann"), Value::Double(1.5)}, 0.3).ok());
  ASSERT_TRUE(
      t->Insert({Value::String("has\"quote, comma\nand newline"), Value::Double(2.0)},
                0.9)
          .ok());

  CsvOptions options;
  options.confidence_column = "confidence";
  std::string exported = ExportCsv(*t, options);
  Catalog catalog2;
  Table* t2 = *ImportCsv(&catalog2, "t", exported, options);
  ASSERT_EQ(t2->num_tuples(), 2u);
  EXPECT_EQ(t2->tuples()[1].value(0), Value::String("has\"quote, comma\nand newline"));
  EXPECT_DOUBLE_EQ(t2->tuples()[0].confidence(), 0.3);
  EXPECT_DOUBLE_EQ(t2->tuples()[1].confidence(), 0.9);
}

TEST(ImportCsvTest, BareQuoteMidFieldIsParseError) {
  Catalog catalog;
  EXPECT_TRUE(
      ImportCsv(&catalog, "t", "name\nhas\"quote\n").status().IsParseError());
}

TEST(ExportCsvTest, NullsExportEmpty) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""},
                                               {"b", DataType::kString, ""}}));
  ASSERT_TRUE(t->Insert({Value::Null(), Value::String("x")}, 0.5).ok());
  EXPECT_EQ(ExportCsv(*t), "a,b\n,x\n");
}

TEST(CsvFileTest, FileRoundTrip) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""}}));
  ASSERT_TRUE(t->Insert({Value::Int(7)}, 0.5).ok());
  std::string path = ::testing::TempDir() + "/pcqe_csv_test.csv";
  ASSERT_TRUE(ExportCsvFile(*t, path).ok());
  Catalog catalog2;
  Table* t2 = *ImportCsvFile(&catalog2, "t", path);
  ASSERT_EQ(t2->num_tuples(), 1u);
  EXPECT_EQ(t2->tuples()[0].value(0), Value::Int(7));
  EXPECT_TRUE(ImportCsvFile(&catalog2, "u", "/nonexistent/file.csv").status().IsNotFound());
}

}  // namespace
}  // namespace pcqe
