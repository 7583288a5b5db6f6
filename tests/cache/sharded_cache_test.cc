// Sharded GPS cache: routing, stats aggregation across shards, eviction
// fairness under the per-shard budget split, and the guarded-Put admission
// check (the publication step of the epoch-validation protocol).
#include <gtest/gtest.h>

#include <string>

#include "cache/gps_cache.h"

namespace qc::cache {
namespace {

using namespace std::chrono_literals;

CacheValuePtr Str(const std::string& s) { return std::make_shared<StringValue>(s); }

std::string Key(int i) { return "key" + std::to_string(i); }

TEST(ShardedCache, StatsAggregateAcrossShards) {
  GpsCacheConfig config;
  config.shards = 4;
  GpsCache cache(config);
  ASSERT_EQ(cache.shard_count(), 4u);

  constexpr int kKeys = 256;
  for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(cache.Put(Key(i), Str("v")));
  for (int i = 0; i < kKeys; ++i) EXPECT_TRUE(cache.Get(Key(i)) != nullptr);
  for (int i = 0; i < kKeys; ++i) EXPECT_FALSE(cache.Get("absent" + std::to_string(i)));

  const CacheStats total = cache.stats();
  EXPECT_EQ(total.puts, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(total.lookups, static_cast<uint64_t>(2 * kKeys));
  EXPECT_EQ(total.hits, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(total.misses, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(cache.entry_count(), static_cast<size_t>(kKeys));

  // The aggregate equals the sum of the per-shard snapshots, and the keys
  // actually spread: no shard holds everything.
  CacheStats summed;
  size_t entries = 0;
  for (size_t s = 0; s < cache.shard_count(); ++s) {
    summed += cache.shard_stats(s);
    const size_t shard_entries = cache.shard_entry_count(s);
    EXPECT_GT(shard_entries, 0u);
    EXPECT_LT(shard_entries, static_cast<size_t>(kKeys));
    entries += shard_entries;
  }
  EXPECT_EQ(entries, static_cast<size_t>(kKeys));
  EXPECT_EQ(summed.puts, total.puts);
  EXPECT_EQ(summed.hits, total.hits);
  EXPECT_EQ(summed.misses, total.misses);
}

TEST(ShardedCache, EvictionFairnessAcrossShards) {
  GpsCacheConfig config;
  config.shards = 4;
  config.memory_max_entries = 64;  // 16 per shard
  GpsCache cache(config);

  constexpr int kKeys = 4096;
  for (int i = 0; i < kKeys; ++i) cache.Put(Key(i), Str("v"));

  // Every shard is at its split budget: the cache is full at the total
  // budget and no shard starved or hoarded.
  EXPECT_EQ(cache.entry_count(), 64u);
  for (size_t s = 0; s < cache.shard_count(); ++s) {
    EXPECT_EQ(cache.shard_entry_count(s), 16u) << "shard " << s;
  }

  // Eviction work is spread roughly evenly (uniform keys → each shard saw
  // ~kKeys/4 puts and evicted all but 16 of them).
  const CacheStats total = cache.stats();
  EXPECT_EQ(total.evictions, static_cast<uint64_t>(kKeys - 64));
  for (size_t s = 0; s < cache.shard_count(); ++s) {
    const CacheStats stats = cache.shard_stats(s);
    EXPECT_GT(stats.evictions, total.evictions / 8) << "shard " << s;
    EXPECT_LT(stats.evictions, total.evictions / 2) << "shard " << s;
  }
}

TEST(ShardedCache, PerShardLruKeepsHotKeys) {
  GpsCacheConfig config;
  config.shards = 2;
  config.memory_max_entries = 8;  // 4 per shard
  GpsCache cache(config);

  // Fill beyond budget while continuously touching key 0: it must survive
  // in its shard's LRU no matter what lands in the other shard.
  cache.Put(Key(0), Str("hot"));
  for (int i = 1; i < 64; ++i) {
    cache.Put(Key(i), Str("v"));
    EXPECT_TRUE(cache.Get(Key(0)) != nullptr) << "after put " << i;
  }
}

TEST(ShardedCache, GuardedPutRejectsAndCounts) {
  GpsCacheConfig config;
  config.shards = 4;
  GpsCache cache(config);

  EXPECT_FALSE(cache.Put("stale", Str("v"), std::nullopt, [] { return false; }));
  EXPECT_FALSE(cache.Contains("stale"));
  EXPECT_TRUE(cache.Put("fresh", Str("v"), std::nullopt, [] { return true; }));
  EXPECT_TRUE(cache.Contains("fresh"));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.admit_rejects, 1u);
  EXPECT_EQ(stats.puts, 1u);

  // A rejected Put must not disturb an existing entry.
  EXPECT_FALSE(cache.Put("fresh", Str("new"), std::nullopt, [] { return false; }));
  auto kept = std::static_pointer_cast<const StringValue>(cache.Get("fresh"));
  ASSERT_TRUE(kept != nullptr);
  EXPECT_EQ(kept->data(), "v");
}

TEST(ShardedCache, ClearCountsOnceAndEmptiesEveryShard) {
  GpsCacheConfig config;
  config.shards = 4;
  GpsCache cache(config);
  for (int i = 0; i < 64; ++i) cache.Put(Key(i), Str("v"));

  int removals = 0;
  cache.SetRemovalListener([&](const std::string&, RemovalCause cause, uint64_t) {
    EXPECT_EQ(cause, RemovalCause::kCleared);
    ++removals;
  });
  cache.Clear();
  EXPECT_EQ(removals, 64);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().clears, 1u);
}

TEST(ShardedCache, TtlExpiresPerShard) {
  GpsCacheConfig config;
  config.shards = 4;
  TimePoint now{};
  config.now = [&now] { return now; };
  GpsCache cache(config);

  for (int i = 0; i < 32; ++i) cache.Put(Key(i), Str("v"), 10ms);
  EXPECT_EQ(cache.entry_count(), 32u);
  now += 11ms;
  EXPECT_EQ(cache.ExpireDue(), 32u);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().expirations, 32u);
}

}  // namespace
}  // namespace qc::cache
