#include "dup/engine.h"

#include <gtest/gtest.h>

#include "sql/binder.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace qc::dup {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = &db_.CreateTable("A", storage::Schema({{"X", ValueType::kInt, false},
                                                    {"Y", ValueType::kInt, false},
                                                    {"S", ValueType::kString, false}}));
  }

  /// Build a cache + engine with `policy`, register `sql` as a cached
  /// object, and wire database events in. Returns the fingerprint.
  std::string Setup(InvalidationPolicy policy, const std::string& sql,
                    const std::vector<Value>& params = {}) {
    cache_ = std::make_unique<cache::GpsCache>(cache::GpsCacheConfig{});
    DupEngine::Options options;
    options.policy = policy;
    engine_ = std::make_unique<DupEngine>(*cache_, options);
    db_subscription_ = false;
    return Register(sql, params);
  }

  std::string Register(const std::string& sql, const std::vector<Value>& params = {}) {
    auto query = sql::ParseAndBind(sql, db_);
    const std::string key = sql::Fingerprint(query->stmt(), params);
    cache_->Put(key, std::make_shared<cache::StringValue>("result"));
    engine_->RegisterQuery(key, query, params);
    if (!db_subscription_) {
      db_.Subscribe([this](const storage::UpdateEvent& e) { engine_->OnUpdate(e); });
      db_subscription_ = true;
    }
    return key;
  }

  bool Cached(const std::string& key) { return cache_->Contains(key); }

  storage::Database db_;
  storage::Table* table_ = nullptr;
  std::unique_ptr<cache::GpsCache> cache_;
  std::unique_ptr<DupEngine> engine_;
  bool db_subscription_ = false;
};

TEST_F(EngineTest, PolicyIFlushesOnAnyUpdate) {
  const std::string key = Setup(InvalidationPolicy::kFlushAll, "SELECT COUNT(*) FROM A WHERE X = 1");
  const std::string other = Register("SELECT COUNT(*) FROM A WHERE Y = 5");
  const auto row = table_->Insert({Value(9), Value(9), Value("irrelevant")});
  EXPECT_FALSE(Cached(key));
  EXPECT_FALSE(Cached(other));
  EXPECT_EQ(engine_->stats().full_flushes, 1u);
  (void)row;
}

TEST_F(EngineTest, PolicyIIInvalidatesByColumnOnly) {
  const std::string key = Setup(InvalidationPolicy::kValueUnaware,
                                "SELECT COUNT(*) FROM A WHERE X = 1");
  const auto row = table_->Insert({Value(5), Value(5), Value("s")});
  // Insert touches the table -> value-unaware invalidates.
  EXPECT_FALSE(Cached(key));

  const std::string key2 = Register("SELECT COUNT(*) FROM A WHERE X = 1");
  table_->Update(row, 1, Value(77));  // Y is not a dependency of the query
  EXPECT_TRUE(Cached(key2));
  table_->Update(row, 0, Value(77));  // X is, and II ignores values
  EXPECT_FALSE(Cached(key2));
}

TEST_F(EngineTest, PolicyIIIUpdateChecksAtomFlips) {
  const std::string key = Setup(InvalidationPolicy::kValueAware,
                                "SELECT COUNT(*) FROM A WHERE X BETWEEN 10 AND 20");
  const auto row = table_->Insert({Value(50), Value(1), Value("s")});  // outside: no effect
  EXPECT_TRUE(Cached(key));

  table_->Update(row, 0, Value(60));  // outside -> outside
  EXPECT_TRUE(Cached(key));
  table_->Update(row, 0, Value(15));  // outside -> inside: flip
  EXPECT_FALSE(Cached(key));

  const std::string key2 = Register("SELECT COUNT(*) FROM A WHERE X BETWEEN 10 AND 20");
  table_->Update(row, 0, Value(12));  // inside -> inside
  EXPECT_TRUE(Cached(key2));
  table_->Update(row, 1, Value(99));  // other column
  EXPECT_TRUE(Cached(key2));
}

TEST_F(EngineTest, PolicyIIIInsertUsesConjunctiveFilter) {
  // The §4.2 Platinum scenario reduced to its essence: a query constraining
  // two columns is only invalidated by an insert whose row satisfies BOTH
  // single-column filters.
  const std::string q1 = Setup(InvalidationPolicy::kValueAware,
                               "SELECT COUNT(*) FROM A WHERE S = 'classifier' AND X = 1");
  const std::string q2 = Register("SELECT COUNT(*) FROM A WHERE S = 'promotion' AND X = 1");

  table_->Insert({Value(1), Value(0), Value("classifier")});  // matches q1 only
  EXPECT_FALSE(Cached(q1));
  EXPECT_TRUE(Cached(q2));  // "still valid and don't need to be invalidated"

  const std::string q1b = Register("SELECT COUNT(*) FROM A WHERE S = 'classifier' AND X = 1");
  table_->Insert({Value(2), Value(0), Value("classifier")});  // X = 2 fails both
  EXPECT_TRUE(Cached(q1b));
  EXPECT_TRUE(Cached(q2));
}

TEST_F(EngineTest, PolicyIIIDeleteChecksOldRow) {
  const std::string key = Setup(InvalidationPolicy::kValueAware,
                                "SELECT COUNT(*) FROM A WHERE X = 1");
  const auto matching = table_->Insert({Value(1), Value(0), Value("s")});
  const auto other = table_->Insert({Value(2), Value(0), Value("s")});
  const std::string fresh = Register("SELECT COUNT(*) FROM A WHERE X = 1");

  table_->Delete(other);  // non-matching row: no invalidation
  EXPECT_TRUE(Cached(fresh));
  table_->Delete(matching);
  EXPECT_FALSE(Cached(fresh));
  (void)key;
}

TEST_F(EngineTest, OpaqueColumnAlwaysFires) {
  const std::string key = Setup(InvalidationPolicy::kValueAware,
                                "SELECT SUM(Y) FROM A WHERE X = 1");
  const auto row = table_->Insert({Value(1), Value(10), Value("s")});
  const std::string fresh = Register("SELECT SUM(Y) FROM A WHERE X = 1");
  table_->Update(row, 1, Value(20));  // Y is the aggregate input: opaque edge
  EXPECT_FALSE(Cached(fresh));
  (void)key;
}

TEST_F(EngineTest, ExistenceEdgeCoversNoWhereQueries) {
  const std::string key = Setup(InvalidationPolicy::kValueAware, "SELECT COUNT(*) FROM A");
  table_->Insert({Value(1), Value(1), Value("s")});
  EXPECT_FALSE(Cached(key));
}

TEST_F(EngineTest, ParameterizedRegistrationsAreIndependent) {
  const std::string gold = Setup(InvalidationPolicy::kValueAware,
                                 "SELECT COUNT(*) FROM A WHERE S = $1", {Value("gold")});
  const std::string silver = Register("SELECT COUNT(*) FROM A WHERE S = $1", {Value("silver")});
  ASSERT_NE(gold, silver);
  table_->Insert({Value(1), Value(1), Value("silver")});
  EXPECT_TRUE(Cached(gold));
  EXPECT_FALSE(Cached(silver));
}

TEST_F(EngineTest, RowAwareSkipsIrrelevantRowUpdates) {
  const std::string key = Setup(InvalidationPolicy::kRowAware,
                                "SELECT COUNT(*) FROM A WHERE X BETWEEN 10 AND 20 AND Y = 7");
  // Row with Y != 7: X moving into [10,20] flips the X atom (Policy III
  // would invalidate) but the row still cannot match -> IV keeps the entry.
  const auto row = table_->Insert({Value(50), Value(1), Value("s")});
  const std::string fresh = Register("SELECT COUNT(*) FROM A WHERE X BETWEEN 10 AND 20 AND Y = 7");
  table_->Update(row, 0, Value(15));
  EXPECT_TRUE(Cached(fresh));
  EXPECT_GT(engine_->stats().row_aware_saves, 0u);

  // A row that really enters the result must still invalidate.
  table_->Update(row, 1, Value(7));
  EXPECT_FALSE(Cached(fresh));
  (void)key;
}

TEST_F(EngineTest, RowAwareKeepsWhenResultColumnsUntouched) {
  // Row matches before and after, but the changed column is WHERE-only and
  // stays on the same side of its atoms... that case III already skips; the
  // interesting one: X changes within the range -> III skips too (no flip);
  // so probe the aggregate-input case: Y feeds SUM, X is the filter.
  const std::string key = Setup(InvalidationPolicy::kRowAware,
                                "SELECT SUM(Y) FROM A WHERE X = 1");
  const auto row = table_->Insert({Value(2), Value(10), Value("s")});
  const std::string fresh = Register("SELECT SUM(Y) FROM A WHERE X = 1");
  // Y (opaque, feeds result) changes on a row that does NOT match: IV keeps.
  table_->Update(row, 1, Value(30));
  EXPECT_TRUE(Cached(fresh));
  // Same change on a matching row invalidates.
  table_->Update(row, 0, Value(1));   // row now matches (membership flip)
  const std::string again = Register("SELECT SUM(Y) FROM A WHERE X = 1");
  table_->Update(row, 1, Value(40));
  EXPECT_FALSE(Cached(again));
  (void)key;
  (void)fresh;
}

TEST_F(EngineTest, UnregisterOnCacheRemovalKeepsGraphClean) {
  const std::string key = Setup(InvalidationPolicy::kValueAware,
                                "SELECT COUNT(*) FROM A WHERE X = 1");
  const size_t vertices_with = engine_->GraphVertexCount();
  cache_->Invalidate(key);
  EXPECT_LT(engine_->GraphVertexCount(), vertices_with);
  EXPECT_EQ(engine_->stats().registered_queries, 0u);
  // A second invalidation of the same key is a no-op.
  cache_->Invalidate(key);
  EXPECT_EQ(engine_->stats().registered_queries, 0u);
}

// Removal notices run outside the cache's locks, so one can arrive after
// its key was filled again. The notice for the earlier entry must leave
// the refill registered, or no update could ever invalidate the refill.
TEST_F(EngineTest, LateRemovalNoticeLeavesTheRefillRegistered) {
  const std::string sql = "SELECT COUNT(*) FROM A WHERE X = 1";
  const std::string key = Setup(InvalidationPolicy::kValueAware, sql);
  std::vector<uint64_t> held;  // notices a slow invalidating thread has not delivered yet
  cache_->SetRemovalListener(
      [&](const std::string&, cache::RemovalCause, uint64_t owner) { held.push_back(owner); });
  cache_->Invalidate(key);

  engine_->RegisterQuery(key, sql::ParseAndBind(sql, db_), {}, /*owner=*/7);
  ASSERT_TRUE(cache_->Put(key, std::make_shared<cache::StringValue>("refill"), std::nullopt,
                          cache::GpsCache::AdmitDecider{}, "", /*owner=*/7));
  cache_->SetRemovalListener([this](const std::string& k, cache::RemovalCause, uint64_t owner) {
    engine_->UnregisterQuery(k, owner);
  });
  ASSERT_EQ(held, (std::vector<uint64_t>{0}));
  engine_->UnregisterQuery(key, held[0]);  // the late notice
  EXPECT_EQ(engine_->stats().registered_queries, 1u);

  table_->Insert({Value(1), Value(0), Value("s")});
  EXPECT_FALSE(Cached(key));
  EXPECT_EQ(engine_->stats().registered_queries, 0u);
}

TEST_F(EngineTest, ReRegistrationReplacesVertex) {
  const std::string key = Setup(InvalidationPolicy::kValueAware,
                                "SELECT COUNT(*) FROM A WHERE X = 1");
  auto query = sql::ParseAndBind("SELECT COUNT(*) FROM A WHERE X = 1", db_);
  engine_->RegisterQuery(key, query, {});
  engine_->RegisterQuery(key, query, {});
  EXPECT_EQ(engine_->stats().registered_queries, 1u);
}

TEST_F(EngineTest, InvalidationCountsTrackFig13Metric) {
  Setup(InvalidationPolicy::kValueUnaware, "SELECT COUNT(*) FROM A WHERE X = 1");
  Register("SELECT COUNT(*) FROM A WHERE Y = 1");
  const auto row = table_->Insert({Value(1), Value(1), Value("s")});  // both invalidated
  Register("SELECT COUNT(*) FROM A WHERE X = 1");
  Register("SELECT COUNT(*) FROM A WHERE Y = 1");
  table_->Update(row, {{0, Value(2)}, {1, Value(2)}});  // one event, two columns
  const DupStats stats = engine_->stats();
  EXPECT_EQ(stats.update_events, 2u);
  EXPECT_EQ(stats.invalidations, 4u);
  EXPECT_DOUBLE_EQ(stats.InvalidationsPerEvent(), 2.0);
}

TEST_F(EngineTest, DumpGraphShowsAnnotatedEdges) {
  Setup(InvalidationPolicy::kValueAware, "SELECT COUNT(*) FROM A WHERE X BETWEEN 2 AND 9");
  const std::string dot = engine_->DumpGraph();
  EXPECT_NE(dot.find("col:A.X"), std::string::npos);
  EXPECT_NE(dot.find("BETWEEN 2 AND 9"), std::string::npos);
}

TEST_F(EngineTest, EventsForUnknownTablesAreIgnored) {
  Setup(InvalidationPolicy::kValueAware, "SELECT COUNT(*) FROM A WHERE X = 1");
  storage::Table& other = db_.CreateTable("OTHER", storage::Schema({{"C", ValueType::kInt, false}}));
  EXPECT_NO_THROW(other.Insert({Value(1)}));
  EXPECT_EQ(engine_->stats().invalidations, 0u);
}

}  // namespace
}  // namespace qc::dup
