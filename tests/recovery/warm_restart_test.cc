// Warm restart of the middleware (docs/PERSISTENCE.md): a CachedQueryEngine
// opened over a surviving spool serves the previous process's results AND
// keeps them transparent to DUP invalidation — exact re-registration from
// the durable tag, conservative re-registration from the fingerprint when
// the tag is gone, and dropped entries when neither can be rebuilt. The
// fork-and-kill test exercises a genuinely unclean shutdown.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "../test_dir.h"
#include "cache/spill_format.h"
#include "common/error.h"
#include "common/wire.h"
#include "middleware/query_engine.h"

namespace qc::middleware {
namespace {

namespace fs = std::filesystem;

class WarmRestartTest : public ::testing::Test {
 protected:
  void SetUp() override { PopulateItems(db_); }

  static void PopulateItems(storage::Database& db) {
    storage::Table& table =
        db.CreateTable("ITEMS", storage::Schema({{"ID", ValueType::kInt, false},
                                                 {"KIND", ValueType::kString, false},
                                                 {"PRICE", ValueType::kInt, false}}));
    for (int i = 1; i <= 20; ++i) {
      table.Insert({Value(i), Value(i % 2 == 0 ? "even" : "odd"), Value(i * 10)});
    }
  }

  CachedQueryEngine::Options Options(
      dup::InvalidationPolicy policy = dup::InvalidationPolicy::kValueAware) {
    CachedQueryEngine::Options options;
    options.policy = policy;
    options.cache.mode = cache::CacheMode::kDisk;
    options.cache.disk_directory = dir_.string();
    options.cache.recover_on_open = true;
    return options;
  }

  std::vector<fs::path> SpillFiles() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
      if (entry.path().extension() == ".obj") files.push_back(entry.path());
    }
    return files;
  }

  TestDir tmp_;
  fs::path dir_ = tmp_.path() / "spool";
  storage::Database db_;
};

TEST_F(WarmRestartTest, RecoveredEntriesHitWithoutReexecution) {
  {
    CachedQueryEngine engine(db_, Options());
    auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
    engine.Execute(by_kind, {Value("even")});
    engine.Execute(by_kind, {Value("odd")});
    engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS WHERE PRICE > 150");
    // Engine dropped without Clear: an orderly shutdown that keeps the spool.
  }

  CachedQueryEngine engine(db_, Options());
  EXPECT_EQ(engine.stats().recovered_registrations, 3u);
  EXPECT_EQ(engine.stats().recovered_conservative, 0u);
  EXPECT_EQ(engine.stats().recovered_dropped, 0u);

  auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
  EXPECT_TRUE(engine.Execute(by_kind, {Value("even")}).cache_hit);
  EXPECT_TRUE(engine.Execute(by_kind, {Value("odd")}).cache_hit);
  EXPECT_TRUE(engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS WHERE PRICE > 150").cache_hit);
  EXPECT_EQ(engine.stats().db_executions, 0u);
  EXPECT_EQ(engine.Execute(by_kind, {Value("even")}).result->ScalarAt(0, 0), Value(10));
}

class WarmRestartPolicyTest
    : public WarmRestartTest,
      public ::testing::WithParamInterface<dup::InvalidationPolicy> {};

TEST_P(WarmRestartPolicyTest, DmlInvalidatesRecoveredEntries) {
  const dup::InvalidationPolicy policy = GetParam();
  {
    CachedQueryEngine engine(db_, Options(policy));
    auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
    ASSERT_EQ(engine.Execute(by_kind, {Value("even")}).result->ScalarAt(0, 0), Value(10));
  }

  CachedQueryEngine engine(db_, Options(policy));
  ASSERT_EQ(engine.stats().recovered_registrations, 1u);

  // An update the previous process never saw: row 2 flips even -> odd. The
  // recovered entry must be invalidated — under every policy — or the
  // cache would serve a pre-restart count forever.
  ASSERT_EQ(engine.ExecuteDml("UPDATE ITEMS SET KIND = 'odd' WHERE ID = 2"), 1u);

  auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
  auto result = engine.Execute(by_kind, {Value("even")});
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.result->ScalarAt(0, 0), Value(9));
}

INSTANTIATE_TEST_SUITE_P(Policies, WarmRestartPolicyTest,
                         ::testing::Values(dup::InvalidationPolicy::kFlushAll,
                                           dup::InvalidationPolicy::kValueUnaware,
                                           dup::InvalidationPolicy::kValueAware),
                         [](const auto& info) {
                           switch (info.param) {
                             case dup::InvalidationPolicy::kFlushAll: return "PolicyI";
                             case dup::InvalidationPolicy::kValueUnaware: return "PolicyII";
                             case dup::InvalidationPolicy::kValueAware: return "PolicyIII";
                             default: return "Other";
                           }
                         });

TEST_F(WarmRestartTest, ConservativeFallbackWhenTagLost) {
  {
    CachedQueryEngine engine(db_, Options());
    auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
    engine.Execute(by_kind, {Value("even")});
  }
  // Strip the durable tag from every spill file (simulating an entry
  // written by an older binary, or a tag the decoder rejects): the
  // fingerprint's SQL skeleton is all that survives.
  for (const fs::path& file : SpillFiles()) {
    std::ifstream in(file, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    in.close();
    cache::SpillRecord record;
    ASSERT_TRUE(cache::DecodeSpillRecord(bytes, &record));
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    const std::string rewritten = cache::EncodeSpillRecord(
        record.key, "", record.expires_at_micros, record.payload);
    out.write(rewritten.data(), static_cast<std::streamsize>(rewritten.size()));
  }

  CachedQueryEngine engine(db_, Options());
  EXPECT_EQ(engine.stats().recovered_registrations, 0u);
  EXPECT_EQ(engine.stats().recovered_conservative, 1u);
  EXPECT_EQ(engine.stats().recovered_dropped, 0u);

  // Still served from the cache...
  auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
  EXPECT_TRUE(engine.Execute(by_kind, {Value("even")}).cache_hit);

  // ...and still invalidated, even by an update a value-aware annotation
  // would have filtered out (PRICE is referenced by no predicate here, but
  // conservative registration fires on ANY referenced-table change — the
  // over-invalidation that makes parameter loss safe).
  ASSERT_EQ(engine.ExecuteDml("UPDATE ITEMS SET KIND = 'odd' WHERE ID = 2"), 1u);
  auto result = engine.Execute(by_kind, {Value("even")});
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.result->ScalarAt(0, 0), Value(9));
}

TEST_F(WarmRestartTest, UnrebuildableEntryIsDroppedNotServed) {
  fs::create_directories(dir_);
  // A spill whose key is not parseable SQL and whose tag is empty: no
  // registration can be rebuilt, so serving it would create a cache entry
  // no update could ever invalidate. It must be dropped.
  const std::string record = cache::EncodeSpillRecord(
      "!!! not sql !!!", "", cache::kNoExpiry,
      ResultValue(std::make_shared<sql::ResultSet>()).Serialize());
  std::ofstream(dir_ / "dead-1.obj", std::ios::binary)
      .write(record.data(), static_cast<std::streamsize>(record.size()));

  CachedQueryEngine engine(db_, Options());
  EXPECT_EQ(engine.stats().recovered_dropped, 1u);
  EXPECT_EQ(engine.cache().entry_count(), 0u);
  EXPECT_FALSE(engine.cache().Contains("!!! not sql !!!"));
}

TEST_F(WarmRestartTest, QueryAgainstDroppedTableIsDropped) {
  {
    CachedQueryEngine engine(db_, Options());
    engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS");
  }
  // The next process binds against a database without ITEMS: neither the
  // tag nor the skeleton can be re-bound, so the entry is dropped.
  storage::Database empty_db;
  CachedQueryEngine engine(empty_db, Options());
  EXPECT_EQ(engine.stats().recovered_dropped, 1u);
  EXPECT_EQ(engine.cache().entry_count(), 0u);
}

// The real thing: a child process fills the cache and dies via _exit —
// no destructors, no flushes, exactly what a crash leaves behind. The
// parent then recovers the spool. Spill files are written eagerly on the
// Put path, so every cached entry must survive the kill.
TEST_F(WarmRestartTest, ForkAndKillChildThenRecover) {
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: its own database over the shared spool directory.
    storage::Database child_db;
    PopulateItems(child_db);
    CachedQueryEngine::Options options;
    options.policy = dup::InvalidationPolicy::kValueAware;
    options.cache.mode = cache::CacheMode::kDisk;
    options.cache.disk_directory = dir_.string();
    options.cache.recover_on_open = true;
    CachedQueryEngine engine(child_db, options);
    auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
    engine.Execute(by_kind, {Value("even")});
    engine.Execute(by_kind, {Value("odd")});
    engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS WHERE PRICE > 150");
    const bool ok = engine.cache().entry_count() == 3;
    _exit(ok ? 0 : 1);  // unclean: skips every destructor
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child failed to populate the cache";

  CachedQueryEngine engine(db_, Options());
  EXPECT_EQ(engine.stats().recovered_registrations, 3u);
  auto by_kind = engine.Prepare("SELECT COUNT(*) FROM ITEMS WHERE KIND = $1");
  EXPECT_TRUE(engine.Execute(by_kind, {Value("even")}).cache_hit);
  EXPECT_TRUE(engine.Execute(by_kind, {Value("odd")}).cache_hit);
  EXPECT_TRUE(engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS WHERE PRICE > 150").cache_hit);
  EXPECT_EQ(engine.stats().db_executions, 0u);

  // Recovered state is live state: a post-recovery update invalidates it.
  engine.ExecuteDml("UPDATE ITEMS SET KIND = 'odd' WHERE ID = 2");
  auto result = engine.Execute(by_kind, {Value("even")});
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.result->ScalarAt(0, 0), Value(9));
}

TEST_F(WarmRestartTest, QueryTagRoundTrip) {
  const std::vector<Value> params = {Value(int64_t{42}), Value("text"), Value(3.5),
                                     Value::Null()};
  const std::string tag = EncodeQueryTag("SELECT * FROM ITEMS WHERE ID = $1", params);
  std::string sql;
  std::vector<Value> decoded;
  DecodeQueryTag(tag, &sql, &decoded);
  EXPECT_EQ(sql, "SELECT * FROM ITEMS WHERE ID = $1");
  ASSERT_EQ(decoded.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) EXPECT_EQ(decoded[i], params[i]) << i;

  // Hostile tags must throw, never read out of bounds: the recovery path
  // turns the throw into conservative re-registration.
  WireWriter long_sql;
  long_sql.U32(1000);  // SQL length above the bytes that remain
  long_sql.U8('S');
  WireWriter long_param;
  long_param.Str("SELECT 1");
  long_param.U16(1);
  long_param.U8(3);  // STRING tag
  long_param.U32(0xffffffffu);
  const std::vector<std::string> hostile = {
      "garbage",
      "QT1\n8:SELECT 1\n0\n",          // the retired text format
      "RS1\n1\n18446744073709551588:",  // a length that wraps pos + len + 1
      long_sql.bytes(),
      long_param.bytes(),
      tag.substr(0, tag.size() - 1),     // truncated
      tag + "x",                         // trailing bytes
  };
  for (const std::string& bad : hostile) {
    std::string s;
    std::vector<Value> p;
    EXPECT_THROW(DecodeQueryTag(bad, &s, &p), ProtocolError) << bad;
  }
}

// Spill format version 1 carried the retired text payload ("RS1") and tag
// ("QT1"). A version-2 binary must quarantine such a file on open — not
// recover it, not re-register it, not serve it.
TEST_F(WarmRestartTest, VersionOneSpillFileIsQuarantined) {
  {
    CachedQueryEngine engine(db_, Options());
    engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS");
  }
  const std::vector<fs::path> files = SpillFiles();
  ASSERT_EQ(files.size(), 1u);
  std::string bytes;
  {
    std::ifstream in(files[0], std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  cache::SpillRecord record;
  ASSERT_TRUE(cache::DecodeSpillRecord(bytes, &record));
  // Same key, a version-1 body, and the version field set to 1 (the CRC
  // covers only key + tag + payload, so the record is otherwise intact).
  std::string v1 = cache::EncodeSpillRecord(
      record.key, "QT1\n26:SELECT COUNT(*) FROM ITEMS\n0\n", record.expires_at_micros,
      "RS1\n1\n8:COUNT(*)\n1\nI 20\n");
  const uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, sizeof(version));
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }

  CachedQueryEngine engine(db_, Options());
  EXPECT_EQ(engine.cache().stats().quarantined, 1u);
  EXPECT_EQ(engine.stats().recovered_registrations, 0u);
  EXPECT_EQ(engine.stats().recovered_conservative, 0u);
  EXPECT_EQ(engine.stats().recovered_dropped, 0u);
  EXPECT_FALSE(engine.cache().Contains(record.key));
  EXPECT_FALSE(engine.ExecuteSql("SELECT COUNT(*) FROM ITEMS").cache_hit);
  EXPECT_EQ(engine.stats().db_executions, 1u);
}

}  // namespace
}  // namespace qc::middleware
