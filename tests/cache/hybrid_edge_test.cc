// Hybrid-store edge cases: objects that fit on disk but not in memory,
// eviction cascades through both levels, and budget interactions.
#include <gtest/gtest.h>

#include <filesystem>

#include "../test_dir.h"
#include "cache/gps_cache.h"

namespace qc::cache {
namespace {

CacheValuePtr Str(const std::string& s) { return std::make_shared<StringValue>(s); }

std::string Data(const CacheValuePtr& v) {
  return std::static_pointer_cast<const StringValue>(v)->data();
}

GpsCacheConfig HybridConfig(const TestDir& tmp, size_t memory_bytes,
                            size_t disk_bytes) {
  GpsCacheConfig config;
  config.mode = CacheMode::kHybrid;
  config.memory_budget_bytes = memory_bytes;
  config.disk_budget_bytes = disk_bytes;
  config.disk_directory = tmp.Path("store");
  config.deserializer = &StringValue::Deserialize;
  return config;
}

TEST(HybridEdge, ObjectTooBigForMemoryStillRejectedAtPut) {
  TestDir tmp;
  // Put goes to the memory level first in hybrid mode; an object larger
  // than the memory budget is rejected outright (the caller treats it as
  // uncacheable) rather than silently landing disk-only.
  GpsCache cache(HybridConfig(tmp, 1024, 1 << 20));
  EXPECT_FALSE(cache.Put("big", Str(std::string(10'000, 'x'))));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(HybridEdge, DiskBudgetBoundsSpillDepth) {
  TestDir tmp;
  // Memory holds ~2 entries, disk ~3: pushing 10 entries must keep the
  // total bounded and evict the oldest outright.
  GpsCacheConfig config = HybridConfig(tmp, 2200, 3300);
  GpsCache cache(config);
  int evicted = 0;
  cache.SetRemovalListener([&](const std::string&, RemovalCause cause, uint64_t) {
    if (cause == RemovalCause::kEvicted) ++evicted;
  });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache.Put("key" + std::to_string(i), Str(std::string(1000, 'a' + i))));
  }
  EXPECT_GT(evicted, 0);
  EXPECT_LT(cache.entry_count(), 10u);
  EXPECT_LE(cache.disk_bytes(), 3300u);
  // The newest entry is always retrievable.
  ASSERT_NE(cache.Get("key9"), nullptr);
  EXPECT_EQ(Data(cache.Get("key9"))[0], 'a' + 9);
}

TEST(HybridEdge, SpilledEntryRoundTripsExactBytes) {
  TestDir tmp;
  GpsCache cache(HybridConfig(tmp, 1200, 1 << 20));
  std::string payload;
  for (int i = 0; i < 256; ++i) payload += static_cast<char>(i);  // all byte values
  cache.Put("binary", Str(payload));
  cache.Put("pusher", Str(std::string(1000, 'p')));  // spills "binary"
  EXPECT_GT(cache.stats().spills, 0u);
  ASSERT_NE(cache.Get("binary"), nullptr);
  EXPECT_EQ(Data(cache.Get("binary")), payload);
}

TEST(HybridEdge, InvalidateRemovesFromBothLevels) {
  TestDir tmp;
  GpsCache cache(HybridConfig(tmp, 1200, 1 << 20));
  cache.Put("a", Str(std::string(800, 'a')));
  cache.Put("b", Str(std::string(800, 'b')));  // a spills
  EXPECT_TRUE(cache.Invalidate("a"));           // disk-resident
  EXPECT_TRUE(cache.Invalidate("b"));           // memory-resident
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.disk_bytes(), 0u);
}

TEST(HybridEdge, PromoteSurvivesSpillBackEvictionCascade) {
  TestDir tmp;
  // Regression for the promote path: Get on a disk-resident key promotes
  // it into memory, which can evict another entry, whose spill-back can in
  // turn overflow the disk budget and evict a disk entry. The key being
  // promoted must never be the disk victim (it is erased from disk before
  // the spill-back runs) and its metadata must survive the cascade.
  GpsCacheConfig config = HybridConfig(tmp, 1 << 20, 1200);
  config.memory_max_entries = 1;
  GpsCache cache(config);
  std::vector<std::string> evicted;
  cache.SetRemovalListener([&](const std::string& key, RemovalCause cause, uint64_t) {
    if (cause == RemovalCause::kEvicted) evicted.push_back(key);
  });

  cache.Put("a", Str(std::string(100, 'a')));   // small: fits disk alongside one big entry
  cache.Put("b", Str(std::string(1000, 'b')));  // a spills (disk: a)
  cache.Put("c", Str(std::string(1000, 'c')));  // b spills (disk: a+b, just fits)
  ASSERT_EQ(cache.stats().spills, 2u);
  ASSERT_TRUE(evicted.empty());

  // Promote "a": memory evicts "c", whose spill-back (disk would hold b+c)
  // overflows the 1200-byte budget and evicts the disk LRU — "b", not the
  // just-promoted "a".
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(evicted, std::vector<std::string>{"b"});
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_EQ(Data(cache.Get("a")), std::string(100, 'a'));  // memory hit now
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_NE(cache.Get("c"), nullptr);  // spilled back, still served
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(HybridEdge, ExpirationAppliesToSpilledEntries) {
  TestDir tmp;
  using namespace std::chrono_literals;
  TimePoint now{};
  GpsCacheConfig config = HybridConfig(tmp, 1200, 1 << 20);
  config.now = [&now] { return now; };
  GpsCache cache(config);
  cache.Put("a", Str(std::string(800, 'a')), 10s);
  cache.Put("b", Str(std::string(800, 'b')));  // spills a to disk
  now += 11s;
  EXPECT_EQ(cache.Get("a"), nullptr);  // expired on disk
  EXPECT_NE(cache.Get("b"), nullptr);
}

}  // namespace
}  // namespace qc::cache
