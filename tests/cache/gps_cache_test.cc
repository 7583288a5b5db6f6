#include "cache/gps_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "../test_dir.h"
#include "cache/memory_store.h"
#include "common/error.h"

namespace qc::cache {
namespace {

using namespace std::chrono_literals;

CacheValuePtr Str(const std::string& s) { return std::make_shared<StringValue>(s); }

std::string Data(const CacheValuePtr& v) {
  return std::static_pointer_cast<const StringValue>(v)->data();
}

// --- MemoryStore -------------------------------------------------------------

TEST(MemoryStore, PutGetErase) {
  MemoryStore store(1 << 20, 100);
  EXPECT_TRUE(store.Put("a", Str("1"), nullptr));
  EXPECT_EQ(Data(store.Get("a")), "1");
  EXPECT_EQ(store.Get("b"), nullptr);
  EXPECT_TRUE(store.Erase("a"));
  EXPECT_FALSE(store.Erase("a"));
  EXPECT_EQ(store.entry_count(), 0u);
}

TEST(MemoryStore, ReplaceUpdatesBytes) {
  MemoryStore store(1 << 20, 100);
  store.Put("a", Str("xx"), nullptr);
  const size_t before = store.byte_count();
  store.Put("a", Str(std::string(1000, 'y')), nullptr);
  EXPECT_GT(store.byte_count(), before);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(Data(store.Get("a")).size(), 1000u);
}

TEST(MemoryStore, LruEvictionOrder) {
  MemoryStore store(1 << 20, 3);
  std::vector<MemoryStore::Evicted> evicted;
  store.Put("a", Str("1"), &evicted);
  store.Put("b", Str("2"), &evicted);
  store.Put("c", Str("3"), &evicted);
  store.Get("a");  // refresh a; b is now LRU
  store.Put("d", Str("4"), &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, "b");
  EXPECT_EQ(store.KeysByRecency().front(), "d");
}

TEST(MemoryStore, PeekDoesNotTouchLru) {
  MemoryStore store(1 << 20, 2);
  std::vector<MemoryStore::Evicted> evicted;
  store.Put("a", Str("1"), &evicted);
  store.Put("b", Str("2"), &evicted);
  store.Peek("a");  // no refresh: a stays LRU
  store.Put("c", Str("3"), &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, "a");
}

TEST(MemoryStore, ByteBudgetEviction) {
  MemoryStore store(3000, 100);
  std::vector<MemoryStore::Evicted> evicted;
  store.Put("a", Str(std::string(1000, 'a')), &evicted);
  store.Put("b", Str(std::string(1000, 'b')), &evicted);
  store.Put("c", Str(std::string(1000, 'c')), &evicted);
  EXPECT_FALSE(evicted.empty());
  EXPECT_LE(store.byte_count(), 3000u);
}

TEST(MemoryStore, OversizedObjectRejected) {
  MemoryStore store(100, 10);
  EXPECT_FALSE(store.Put("big", Str(std::string(1000, 'x')), nullptr));
  EXPECT_EQ(store.entry_count(), 0u);
}

// --- DiskStore ---------------------------------------------------------------

class DiskStoreTest : public ::testing::Test {
 protected:
  TestDir tmp_;
  std::filesystem::path dir_ = tmp_.path() / "store";
};

TEST_F(DiskStoreTest, PutGetRoundTrip) {
  DiskStore store(dir_, 1 << 20);
  EXPECT_TRUE(store.Put("k", "payload with\nnewlines", nullptr));
  auto data = store.Get("k");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, "payload with\nnewlines");
  EXPECT_FALSE(store.Get("missing").has_value());
}

TEST_F(DiskStoreTest, ReplaceAndErase) {
  DiskStore store(dir_, 1 << 20);
  store.Put("k", "v1", nullptr);
  store.Put("k", "v2", nullptr);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(*store.Get("k"), "v2");
  EXPECT_TRUE(store.Erase("k"));
  EXPECT_FALSE(store.Get("k").has_value());
  // The file is gone from disk too.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator{}),
            0);
}

TEST_F(DiskStoreTest, BudgetEvictsLru) {
  DiskStore store(dir_, 2500);
  std::vector<std::string> evicted;
  store.Put("a", std::string(1000, 'a'), &evicted);
  store.Put("b", std::string(1000, 'b'), &evicted);
  store.Get("a");
  store.Put("c", std::string(1000, 'c'), &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
  EXPECT_LE(store.byte_count(), 2500u);
}

TEST_F(DiskStoreTest, StartsClean) {
  {
    DiskStore store(dir_, 1 << 20);
    store.Put("stale", "junk", nullptr);
    // Destructor removes files.
  }
  std::ofstream(dir_ / "orphan.obj") << "leftover";
  DiskStore store(dir_, 1 << 20);
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_FALSE(store.Get("stale").has_value());
}

// --- GpsCache ------------------------------------------------------------------

TEST(GpsCache, MemoryModeBasics) {
  GpsCache cache(GpsCacheConfig{});
  EXPECT_TRUE(cache.Put("q1", Str("result")));
  EXPECT_EQ(Data(cache.Get("q1")), "result");
  EXPECT_TRUE(cache.Contains("q1"));
  EXPECT_TRUE(cache.Invalidate("q1"));
  EXPECT_FALSE(cache.Invalidate("q1"));
  EXPECT_EQ(cache.Get("q1"), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(GpsCache, ClearRemovesEverythingAndNotifies) {
  GpsCache cache(GpsCacheConfig{});
  std::vector<std::pair<std::string, RemovalCause>> removals;
  cache.SetRemovalListener([&](const std::string& key, RemovalCause cause, uint64_t) {
    removals.emplace_back(key, cause);
  });
  cache.Put("a", Str("1"));
  cache.Put("b", Str("2"));
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  ASSERT_EQ(removals.size(), 2u);
  EXPECT_EQ(removals[0].second, RemovalCause::kCleared);
}

TEST(GpsCache, RemovalListenerReportsTheRemovedEntrysOwner) {
  GpsCache cache(GpsCacheConfig{});
  std::vector<std::pair<std::string, uint64_t>> removals;
  cache.SetRemovalListener([&](const std::string& key, RemovalCause, uint64_t owner) {
    removals.emplace_back(key, owner);
  });
  cache.Put("a", Str("1"), std::nullopt, GpsCache::AdmitDecider{}, "", 5);
  cache.Put("a", Str("2"));  // an untagged replace keeps the entry's owner
  cache.Invalidate("a");
  cache.Put("a", Str("3"), std::nullopt, GpsCache::AdmitDecider{}, "", 6);
  cache.Clear();
  cache.Put("b", Str("4"));
  cache.Invalidate("b");
  EXPECT_EQ(removals, (std::vector<std::pair<std::string, uint64_t>>{{"a", 5}, {"a", 6}, {"b", 0}}));
}

TEST(GpsCache, ExpirationWithInjectedClock) {
  TimePoint now{};
  GpsCacheConfig config;
  config.now = [&now] { return now; };
  // kLru expires eagerly inside Get (exclusive lock); the kClock lazy
  // counterpart is covered in clock_eviction_test.cc.
  config.eviction = EvictionPolicy::kLru;
  GpsCache cache(config);
  cache.Put("short", Str("1"), 10s);
  cache.Put("long", Str("2"), 100s);
  cache.Put("forever", Str("3"));

  now += 11s;
  EXPECT_EQ(cache.Get("short"), nullptr);  // expired
  EXPECT_NE(cache.Get("long"), nullptr);
  EXPECT_NE(cache.Get("forever"), nullptr);
  EXPECT_EQ(cache.stats().expirations, 1u);

  now += 100s;
  EXPECT_EQ(cache.ExpireDue(), 1u);  // long
  EXPECT_FALSE(cache.Contains("long"));
  EXPECT_TRUE(cache.Contains("forever"));
}

TEST(GpsCache, ReplacementRefreshesExpiration) {
  TimePoint now{};
  GpsCacheConfig config;
  config.now = [&now] { return now; };
  GpsCache cache(config);
  cache.Put("k", Str("v1"), 10s);
  now += 5s;
  cache.Put("k", Str("v2"), 10s);  // new generation
  now += 7s;                       // old deadline passed, new one not
  EXPECT_EQ(Data(cache.Get("k")), "v2");
  now += 5s;
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST(GpsCache, ReplacementDoesNotNotifyRemoval) {
  GpsCache cache(GpsCacheConfig{});
  int removals = 0;
  cache.SetRemovalListener([&](const std::string&, RemovalCause, uint64_t) { ++removals; });
  cache.Put("k", Str("v1"));
  cache.Put("k", Str("v2"));
  EXPECT_EQ(removals, 0);
  EXPECT_EQ(Data(cache.Get("k")), "v2");
}

TEST(GpsCache, EvictionNotifiesListener) {
  GpsCacheConfig config;
  config.memory_max_entries = 2;
  GpsCache cache(config);
  std::vector<std::string> evicted;
  cache.SetRemovalListener([&](const std::string& key, RemovalCause cause, uint64_t) {
    if (cause == RemovalCause::kEvicted) evicted.push_back(key);
  });
  cache.Put("a", Str("1"));
  cache.Put("b", Str("2"));
  cache.Put("c", Str("3"));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "a");
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(GpsCache, DiskModeRoundTrip) {
  TestDir tmp;
  GpsCacheConfig config;
  config.mode = CacheMode::kDisk;
  config.disk_directory = tmp.Path("store");
  config.deserializer = &StringValue::Deserialize;
  GpsCache cache(config);
  cache.Put("k", Str("disk payload"));
  EXPECT_EQ(Data(cache.Get("k")), "disk payload");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_GT(cache.disk_bytes(), 0u);
}

TEST(GpsCache, HybridSpillsAndPromotes) {
  GpsCacheConfig config;
  config.mode = CacheMode::kHybrid;
  config.memory_max_entries = 2;
  TestDir tmp;
  config.disk_directory = tmp.Path("store");
  config.deserializer = &StringValue::Deserialize;
  GpsCache cache(config);
  int full_evictions = 0;
  cache.SetRemovalListener([&](const std::string&, RemovalCause cause, uint64_t) {
    if (cause == RemovalCause::kEvicted) ++full_evictions;
  });

  cache.Put("a", Str("A"));
  cache.Put("b", Str("B"));
  cache.Put("c", Str("C"));  // a spills to disk, not evicted
  EXPECT_EQ(full_evictions, 0);
  EXPECT_EQ(cache.stats().spills, 1u);
  EXPECT_EQ(cache.entry_count(), 3u);

  // Disk hit promotes back into memory (spilling someone else).
  EXPECT_EQ(Data(cache.Get("a")), "A");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(Data(cache.Get("a")), "A");  // now a memory hit
  EXPECT_EQ(cache.stats().memory_hits, 1u);
}

TEST(GpsCache, DiskModeRequiresConfig) {
  GpsCacheConfig config;
  config.mode = CacheMode::kDisk;
  EXPECT_THROW(GpsCache cache(config), CacheError);
  TestDir tmp;
  config.disk_directory = tmp.Path("store");
  EXPECT_THROW(GpsCache cache(config), CacheError);  // missing deserializer
}

// --- TransactionLog ---------------------------------------------------------------

class TxLogTest : public ::testing::Test {
 protected:
  std::string ReadAll() {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  TestDir tmp_;
  std::string path_ = tmp_.Path("txlog.log");
};

TEST_F(TxLogTest, EveryRecordPolicyFlushesImmediately) {
  TransactionLog log(path_, LogFlushPolicy::kEveryRecord);
  log.Append("hit", "q1");
  log.Append("miss", "q2", "detail");
  EXPECT_EQ(log.flushes(), 2u);
  const std::string contents = ReadAll();
  EXPECT_NE(contents.find("hit q1"), std::string::npos);
  EXPECT_NE(contents.find("miss q2 detail"), std::string::npos);
}

TEST_F(TxLogTest, BufferedPolicyDefersUntilThreshold) {
  TransactionLog log(path_, LogFlushPolicy::kBuffered, 1 << 20);
  log.Append("hit", "q1");
  EXPECT_EQ(log.flushes(), 0u);
  EXPECT_EQ(ReadAll(), "");  // nothing on disk yet: the §3 durability trade
  log.Flush();
  EXPECT_EQ(log.flushes(), 1u);
  EXPECT_NE(ReadAll().find("hit q1"), std::string::npos);
}

TEST_F(TxLogTest, BufferedPolicyFlushesAtThreshold) {
  TransactionLog log(path_, LogFlushPolicy::kBuffered, 64);
  for (int i = 0; i < 10; ++i) log.Append("op", "key-with-some-length");
  EXPECT_GT(log.flushes(), 0u);
}

TEST_F(TxLogTest, DestructorFlushesManualPolicy) {
  {
    TransactionLog log(path_, LogFlushPolicy::kManual);
    log.Append("put", "q9");
  }
  EXPECT_NE(ReadAll().find("put q9"), std::string::npos);
}

TEST_F(TxLogTest, RecordsCount) {
  TransactionLog log(path_, LogFlushPolicy::kManual);
  for (int i = 0; i < 5; ++i) log.Append("op", "k");
  EXPECT_EQ(log.records_written(), 5u);
}

TEST_F(TxLogTest, UnwritablePathThrows) {
  EXPECT_THROW(TransactionLog("/nonexistent-dir/x/y.log", LogFlushPolicy::kManual), CacheError);
}

TEST(GpsCache, TransactionLoggingRecordsOperations) {
  TestDir tmp;
  const std::string path = tmp.Path("gps.log");
  {
    GpsCacheConfig config;
    config.log_path = path;
    config.log_policy = LogFlushPolicy::kEveryRecord;
    GpsCache cache(config);
    cache.Put("q1", Str("v"));
    cache.Get("q1");
    cache.Get("q2");
    cache.Invalidate("q1");
    cache.Clear();
  }
  std::ifstream in(path);
  const std::string contents{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  EXPECT_NE(contents.find("put q1"), std::string::npos);
  EXPECT_NE(contents.find("hit q1"), std::string::npos);
  EXPECT_NE(contents.find("miss q2"), std::string::npos);
  EXPECT_NE(contents.find("invalidate q1"), std::string::npos);
  EXPECT_NE(contents.find("clear *"), std::string::npos);
}

}  // namespace
}  // namespace qc::cache
