#include "middleware/query_engine.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "../test_dir.h"
#include "common/wire.h"

namespace qc::middleware {
namespace {

using namespace std::chrono_literals;

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = &db_.CreateTable("ITEMS", storage::Schema({{"ID", ValueType::kInt, false},
                                                        {"KIND", ValueType::kString, false},
                                                        {"PRICE", ValueType::kInt, false}}));
    table_->CreateHashIndex(1);
    for (int i = 1; i <= 20; ++i) {
      table_->Insert({Value(i), Value(i % 2 == 0 ? "even" : "odd"), Value(i * 10)});
    }
  }

  storage::Database db_;
  storage::Table* table_ = nullptr;
};

TEST_F(QueryEngineTest, MissThenHit) {
  CachedQueryEngine engine(db_, {});
  auto query = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = 'even'");
  auto first = engine.Execute(query);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.result->ScalarAt(0, 0), Value(10));
  auto second = engine.Execute(query);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result->ScalarAt(0, 0), Value(10));
  EXPECT_EQ(engine.stats().db_executions, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST_F(QueryEngineTest, PrepareDeduplicatesByCanonicalSql) {
  CachedQueryEngine engine(db_, {});
  auto a = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = 'even'");
  auto b = engine.Prepare("select count(*) from items where kind='even'");
  EXPECT_EQ(a.get(), b.get());
}

TEST_F(QueryEngineTest, ParametersSeparateCacheEntries) {
  CachedQueryEngine engine(db_, {});
  auto query = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
  EXPECT_FALSE(engine.Execute(query, {Value("even")}).cache_hit);
  EXPECT_FALSE(engine.Execute(query, {Value("odd")}).cache_hit);
  EXPECT_TRUE(engine.Execute(query, {Value("even")}).cache_hit);
  EXPECT_TRUE(engine.Execute(query, {Value("odd")}).cache_hit);
}

TEST_F(QueryEngineTest, UpdateInvalidatesAffectedEntryOnly) {
  CachedQueryEngine engine(db_, {});
  auto even = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = 'even'");
  auto pricey = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE PRICE > 150");
  engine.Execute(even);
  engine.Execute(pricey);

  table_->Update(0, 2, Value(155));  // row 0 price 10 -> 155: crosses >150
  EXPECT_FALSE(engine.Execute(pricey).cache_hit);
  EXPECT_EQ(engine.Execute(pricey).result->ScalarAt(0, 0), Value(6));
  EXPECT_TRUE(engine.Execute(even).cache_hit);  // untouched dependency
}

TEST_F(QueryEngineTest, CachingDisabledAlwaysExecutes) {
  CachedQueryEngine::Options options;
  options.caching_enabled = false;
  CachedQueryEngine engine(db_, options);
  auto query = engine.Prepare("SELECT COUNT(*) FROM ITEMS");
  EXPECT_FALSE(engine.Execute(query).cache_hit);
  EXPECT_FALSE(engine.Execute(query).cache_hit);
  EXPECT_EQ(engine.stats().db_executions, 2u);
  EXPECT_EQ(engine.cache_stats().puts, 0u);
}

TEST_F(QueryEngineTest, DefaultTtlExpiresEntries) {
  cache::TimePoint now{};
  CachedQueryEngine::Options options;
  options.default_ttl = 30s;
  options.cache.now = [&now] { return now; };
  CachedQueryEngine engine(db_, options);
  auto query = engine.Prepare("SELECT COUNT(*) FROM ITEMS");
  engine.Execute(query);
  now += 10s;
  EXPECT_TRUE(engine.Execute(query).cache_hit);
  now += 31s;
  EXPECT_FALSE(engine.Execute(query).cache_hit);
}

TEST_F(QueryEngineTest, ExecuteSqlDynamicPath) {
  CachedQueryEngine engine(db_, {});
  auto first = engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS WHERE PRICE < $1", {Value(55)});
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.result->ScalarAt(0, 0), Value(5));
  EXPECT_TRUE(engine.ExecuteSql("select count(*) from items where price < $1", {Value(55)})
                  .cache_hit);
}

TEST_F(QueryEngineTest, TinyCacheEvictsAndStaysConsistent) {
  CachedQueryEngine::Options options;
  options.cache.memory_max_entries = 2;
  CachedQueryEngine engine(db_, options);
  auto q1 = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = 'even'");
  auto q2 = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = 'odd'");
  auto q3 = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE PRICE > 0");
  engine.Execute(q1);
  engine.Execute(q2);
  engine.Execute(q3);  // evicts q1's entry + its registration
  EXPECT_EQ(engine.dup_stats().registered_queries, 2u);
  EXPECT_FALSE(engine.Execute(q1).cache_hit);
  // After re-execution the dependency is re-registered and updates work.
  table_->Update(2, 1, Value("odd"));  // id 3 already odd -> no-op... use row 1 (id 2, even)
  table_->Update(1, 1, Value("odd"));
  EXPECT_EQ(engine.Execute(q1).result->ScalarAt(0, 0), Value(9));
}

TEST_F(QueryEngineTest, HybridDiskCacheServesResultsAcrossSpill) {
  CachedQueryEngine::Options options;
  options.cache.mode = cache::CacheMode::kHybrid;
  options.cache.memory_max_entries = 1;
  TestDir tmp;
  options.cache.disk_directory = tmp.Path("store");
  CachedQueryEngine engine(db_, options);
  auto q1 = engine.Prepare("SELECT ID, PRICE FROM ITEMS WHERE KIND = 'even'");
  auto q2 = engine.Prepare("SELECT ID, PRICE FROM ITEMS WHERE KIND = 'odd'");
  auto r1 = engine.Execute(q1);
  engine.Execute(q2);  // spills q1 to disk
  auto back = engine.Execute(q1);  // disk hit, deserialized
  EXPECT_TRUE(back.cache_hit);
  EXPECT_TRUE(back.result->Equals(*r1.result));
  EXPECT_GT(engine.cache_stats().disk_hits, 0u);
}

TEST_F(QueryEngineTest, StatsHitRate) {
  CachedQueryEngine engine(db_, {});
  auto query = engine.Prepare("SELECT COUNT(*) FROM ITEMS");
  engine.Execute(query);
  engine.Execute(query);
  engine.Execute(query);
  EXPECT_NEAR(engine.stats().HitRate(), 2.0 / 3.0, 1e-9);
}

// --- ResultValue serialization -----------------------------------------------

TEST(ResultValue, RoundTripsAllValueTypes) {
  auto rs = std::make_shared<sql::ResultSet>(
      std::vector<std::string>{"A", "B with space", "C"});
  rs->AddRow({Value(42), Value("text with\nnewline and 'quote'"), Value(2.5)});
  rs->AddRow({Value::Null(), Value(""), Value(int64_t{-7})});
  ResultValue original(rs);

  auto restored = std::static_pointer_cast<const ResultValue>(
      ResultValue::Deserialize(original.Serialize()));
  EXPECT_TRUE(restored->result()->Equals(*rs));
  EXPECT_EQ(restored->result()->columns()[1], "B with space");
}

TEST(ResultValue, RoundTripsEmptyResult) {
  auto rs = std::make_shared<sql::ResultSet>(std::vector<std::string>{"X"});
  ResultValue original(rs);
  auto restored = std::static_pointer_cast<const ResultValue>(
      ResultValue::Deserialize(original.Serialize()));
  EXPECT_TRUE(restored->result()->Equals(*rs));
  EXPECT_EQ(restored->result()->row_count(), 0u);
}

TEST(ResultValue, DeserializeRejectsGarbage) {
  EXPECT_THROW(ResultValue::Deserialize("not a result"), ProtocolError);
  EXPECT_THROW(ResultValue::Deserialize("RS1\n2\n"), ProtocolError);
  EXPECT_THROW(ResultValue::Deserialize(""), ProtocolError);
  // A length that would wrap a naive bounds check (pos + len + 1).
  EXPECT_THROW(ResultValue::Deserialize("RS1\n1\n18446744073709551588:"), ProtocolError);

  // A column-name length above the bytes that remain.
  WireWriter long_name;
  long_name.U16(1);
  long_name.U32(0xfffffff0u);
  long_name.U8('x');
  EXPECT_THROW(ResultValue::Deserialize(long_name.bytes()), ProtocolError);

  // A string cell whose length overruns the payload.
  WireWriter long_cell;
  long_cell.U16(1);
  long_cell.Str("S");
  long_cell.U32(1);
  long_cell.U8(3);  // STRING tag
  long_cell.U32(1000);
  long_cell.U8('x');
  EXPECT_THROW(ResultValue::Deserialize(long_cell.bytes()), ProtocolError);

  // Every strict prefix of a valid body is truncated, and trailing bytes
  // after one are refused too.
  auto rs = std::make_shared<sql::ResultSet>(std::vector<std::string>{"A", "B"});
  rs->AddRow({Value(1), Value("one")});
  rs->AddRow({Value::Null(), Value(2.5)});
  const std::string body = ResultValue(rs).Serialize();
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_THROW(ResultValue::Deserialize(body.substr(0, cut)), ProtocolError) << cut;
  }
  EXPECT_THROW(ResultValue::Deserialize(body + '\0'), ProtocolError);
}

TEST(ResultValue, ByteSizeMatchesResultFootprint) {
  auto rs = std::make_shared<sql::ResultSet>(std::vector<std::string>{"X"});
  rs->AddRow({Value(std::string(1000, 'x'))});
  EXPECT_GT(ResultValue(rs).ByteSize(), 1000u);
}

}  // namespace
}  // namespace qc::middleware
