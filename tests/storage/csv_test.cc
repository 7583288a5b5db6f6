#include "storage/csv.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "../test_dir.h"
#include "common/error.h"
#include "storage/database.h"

namespace qc::storage {
namespace {

Schema TestSchema() {
  return Schema({{"ID", ValueType::kInt, false},
                 {"NAME", ValueType::kString, true},
                 {"SCORE", ValueType::kDouble, true}});
}

TEST(Csv, ExportBasics) {
  Table table("T", TestSchema());
  table.Insert({Value(1), Value("alice"), Value(1.5)});
  table.Insert({Value(2), Value::Null(), Value::Null()});
  const std::string csv = ExportCsv(table);
  EXPECT_EQ(csv, "ID,NAME,SCORE\n1,alice,1.5\n2,\\N,\\N\n");
}

TEST(Csv, RoundTripPreservesValues) {
  Table source("S", TestSchema());
  source.Insert({Value(1), Value("plain"), Value(2.25)});
  source.Insert({Value(2), Value("has,comma"), Value::Null()});
  source.Insert({Value(3), Value("has \"quotes\""), Value(-0.5)});
  source.Insert({Value(4), Value("multi\nline"), Value(1e300)});
  source.Insert({Value(5), Value(""), Value(0.0)});
  source.Insert({Value(6), Value("\\N"), Value(7.0)});  // literal backslash-N string
  source.Insert({Value(7), Value::Null(), Value(3.5)});

  const std::string csv = ExportCsv(source);
  Table target("D", TestSchema());
  EXPECT_EQ(ImportCsv(target, csv), 7u);
  ASSERT_EQ(target.size(), source.size());
  source.ForEachRow([&](RowId row) { EXPECT_EQ(target.GetRow(row), source.GetRow(row)); });
}

TEST(Csv, HeaderAllowsColumnReordering) {
  Table table("T", TestSchema());
  ImportCsv(table, "NAME,ID\nbob,9\n");
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Get(0, 0), Value(9));
  EXPECT_EQ(table.Get(0, 1), Value("bob"));
  EXPECT_TRUE(table.Get(0, 2).is_null());  // SCORE absent -> NULL
}

TEST(Csv, NoHeaderUsesSchemaOrder) {
  Table table("T", TestSchema());
  CsvOptions options;
  options.header = false;
  EXPECT_EQ(ImportCsv(table, "1,x,0.5\n2,y,\\N\n", options), 2u);
  EXPECT_EQ(table.Get(1, 1), Value("y"));
}

TEST(Csv, CustomSeparator) {
  Table table("T", TestSchema());
  CsvOptions options;
  options.separator = ';';
  ImportCsv(table, "ID;NAME;SCORE\n1;semi,colon;2.5\n", options);
  EXPECT_EQ(table.Get(0, 1), Value("semi,colon"));
  const std::string out = ExportCsv(table, options);
  EXPECT_NE(out.find("semi,colon"), std::string::npos);  // unquoted: ',' is data now
}

TEST(Csv, CrlfLineEndings) {
  Table table("T", TestSchema());
  EXPECT_EQ(ImportCsv(table, "ID,NAME,SCORE\r\n1,a,0.5\r\n2,b,1.5\r\n"), 2u);
}

TEST(Csv, Errors) {
  Table table("T", TestSchema());
  EXPECT_THROW(ImportCsv(table, "ID,NOPE\n1,2\n"), StorageError);       // unknown column
  EXPECT_THROW(ImportCsv(table, "ID,NAME,SCORE\nx,a,1.0\n"), StorageError);  // bad int
  EXPECT_THROW(ImportCsv(table, "ID,NAME,SCORE\n1,a,nope\n"), StorageError); // bad double
  EXPECT_THROW(ImportCsv(table, "ID,NAME,SCORE\n1\n"), StorageError);   // short record
  EXPECT_THROW(ImportCsv(table, "NAME\nonly\n"), StorageError);         // ID is non-nullable
}

TEST(Csv, QuotedNullTokenIsAString) {
  Table table("T", TestSchema());
  ImportCsv(table, "ID,NAME,SCORE\n1,\"\\N\",\\N\n");
  EXPECT_EQ(table.Get(0, 1), Value("\\N"));
  EXPECT_TRUE(table.Get(0, 2).is_null());
}

TEST(Csv, FileRoundTrip) {
  TestDir tmp;
  const std::string path = tmp.Path("table.csv");
  Table source("S", TestSchema());
  source.Insert({Value(1), Value("file"), Value(9.0)});
  ExportCsvFile(source, path);
  Table target("D", TestSchema());
  EXPECT_EQ(ImportCsvFile(target, path), 1u);
  EXPECT_EQ(target.Get(0, 1), Value("file"));
  EXPECT_THROW(ImportCsvFile(target, "/nonexistent/x.csv"), StorageError);
}

TEST(Csv, ImportDrivesInvalidationLikeAnyInsert) {
  Database db;
  Table& table = db.CreateTable("T", TestSchema());
  int events = 0;
  db.Subscribe([&](const UpdateEvent& e) {
    if (e.kind == UpdateEvent::Kind::kInsert) ++events;
  });
  ImportCsv(table, "ID,NAME,SCORE\n1,a,1.0\n2,b,2.0\n");
  EXPECT_EQ(events, 2);
}

}  // namespace
}  // namespace qc::storage
