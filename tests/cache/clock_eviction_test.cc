// CLOCK (second-chance) eviction: replacement quality vs. exact LRU, the
// lazy-expiry semantics of the shared-lock read path, hit safety under a
// concurrent eviction sweep, and the CacheStats reflection guarantees the
// striped hit counters rely on (docs/CONCURRENCY.md, "Lock-light hit
// path").
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "cache/gps_cache.h"
#include "cache/memory_store.h"
#include "common/rng.h"

namespace qc::cache {
namespace {

using namespace std::chrono_literals;

CacheValuePtr Str(const std::string& s) { return std::make_shared<StringValue>(s); }

std::string Data(const CacheValuePtr& v) {
  return std::static_pointer_cast<const StringValue>(v)->data();
}

GpsCacheConfig SmallCache(EvictionPolicy eviction, size_t max_entries) {
  GpsCacheConfig config;
  config.eviction = eviction;
  config.memory_max_entries = max_entries;
  return config;
}

// --- Replacement quality -----------------------------------------------------

/// Zipf(s=1) sampler over [0, n) via a precomputed CDF: the skewed re-use
/// distribution where replacement quality actually matters (a uniform
/// trace defeats every policy equally).
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Next(Rng& rng) const {
    const double u = rng.UniformReal();
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

double ZipfHitRate(EvictionPolicy eviction, size_t budget, size_t keyspace, size_t ops) {
  GpsCache cache(SmallCache(eviction, budget));
  Zipf zipf(keyspace);
  Rng rng(42);  // identical trace for both policies
  for (size_t i = 0; i < ops; ++i) {
    const std::string key = "k" + std::to_string(zipf.Next(rng));
    if (!cache.Get(key)) cache.Put(key, Str(key));
  }
  return cache.stats().HitRate();
}

TEST(ClockEviction, ZipfHitRateWithinFivePointsOfLru) {
  const size_t kBudget = 128, kKeyspace = 1024, kOps = 20'000;
  const double lru = ZipfHitRate(EvictionPolicy::kLru, kBudget, kKeyspace, kOps);
  const double clock = ZipfHitRate(EvictionPolicy::kClock, kBudget, kKeyspace, kOps);
  // Second chance approximates LRU: on a skewed trace it must stay within
  // 5 percentage points of the exact policy at the same budget.
  EXPECT_GT(lru, 0.3) << "trace too easy/hard to discriminate policies";
  EXPECT_GE(clock, lru - 0.05) << "lru=" << lru << " clock=" << clock;
}

TEST(ClockEviction, HotKeySurvivesSweeps) {
  GpsCache cache(SmallCache(EvictionPolicy::kClock, 3));
  cache.Put("hot", Str("hot"));
  // Each iteration re-references the hot key and inserts a fresh cold one;
  // the sweep's second chance must always find a cold victim instead.
  for (int i = 0; i < 32; ++i) {
    ASSERT_NE(cache.Get("hot"), nullptr) << "iteration " << i;
    cache.Put("cold" + std::to_string(i), Str("c"));
  }
  EXPECT_TRUE(cache.Contains("hot"));
}

TEST(ClockEviction, OneShotScanDoesNotDisplaceWorkingSet) {
  // New entries start unreferenced, so a long one-shot scan (every key
  // touched once, never again) cannot push out keys that keep getting
  // re-referenced.
  GpsCache cache(SmallCache(EvictionPolicy::kClock, 4));
  cache.Put("a", Str("a"));
  cache.Put("b", Str("b"));
  for (int i = 0; i < 64; ++i) {
    cache.Get("a");
    cache.Get("b");
    cache.Put("scan" + std::to_string(i), Str("s"));
  }
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
}

// --- Lazy expiry (shared-lock read path) -------------------------------------

TEST(ClockEviction, ExpiredEntryServedAsMissAndReapedByNextWriter) {
  TimePoint now{};
  GpsCacheConfig config = SmallCache(EvictionPolicy::kClock, 100);
  config.now = [&now] { return now; };
  GpsCache cache(config);
  std::vector<std::pair<std::string, RemovalCause>> removals;
  cache.SetRemovalListener([&](const std::string& key, RemovalCause cause, uint64_t) {
    removals.push_back({key, cause});
  });

  cache.Put("short", Str("s"), 10s);
  cache.Put("forever", Str("f"));
  now += 11s;

  // The shared-lock read path serves the expired entry as a miss but does
  // not remove it — no writer has run yet.
  EXPECT_EQ(cache.Get("short"), nullptr);
  EXPECT_FALSE(cache.Contains("short"));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lazy_expired_misses, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.expirations, 0u);
  EXPECT_EQ(cache.entry_count(), 2u);  // still resident
  EXPECT_TRUE(removals.empty());

  // The next writer's expiry sweep reaps it.
  cache.Put("new", Str("n"));
  stats = cache.stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(cache.entry_count(), 2u);  // forever + new
  ASSERT_EQ(removals.size(), 1u);
  EXPECT_EQ(removals[0].first, "short");
  EXPECT_EQ(removals[0].second, RemovalCause::kExpired);

  // A repeat miss on the already-reaped key is a plain miss, not lazy.
  EXPECT_EQ(cache.Get("short"), nullptr);
  EXPECT_EQ(cache.stats().lazy_expired_misses, 1u);
}

// --- Hit safety under concurrent eviction ------------------------------------

TEST(ClockEviction, HitNeverReturnsVictimizedValue) {
  // Readers race Get() against a writer whose fills continuously trigger
  // eviction sweeps. Every value is its own key, so a hit that handed back
  // a victim's (or any other) entry would be visible immediately. The
  // shared_ptr contract also guarantees a value obtained by a hit stays
  // alive after its entry is victimized.
  GpsCacheConfig config = SmallCache(EvictionPolicy::kClock, 64);
  config.shards = 1;  // one replacement domain = maximum sweep pressure
  GpsCache cache(config);
  constexpr int kKeyspace = 256;
  auto key_of = [](int i) { return "k" + std::to_string(i); };
  for (int i = 0; i < kKeyspace; ++i) cache.Put(key_of(i), Str(key_of(i)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<int> corrupt{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = key_of(static_cast<int>(rng.Uniform(0, kKeyspace - 1)));
        if (CacheValuePtr value = cache.Get(key)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (Data(value) != key) corrupt.fetch_add(1);
        }
      }
    });
  }
  {
    Rng rng(7);
    for (int i = 0; i < 20'000; ++i) {
      const std::string key = key_of(static_cast<int>(rng.Uniform(0, kKeyspace - 1)));
      cache.Put(key, Str(key));  // every fill re-runs the sweep
    }
    stop.store(true);
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_GT(hits.load(), 0u);
}

// --- CacheStats reflection ---------------------------------------------------

TEST(CacheStatsReflection, OperatorPlusEqualsCoversEveryCounter) {
  // Assign each counter a distinct value through the mutable visitor, sum,
  // and require exactly 2x per field: a counter silently dropped from
  // operator+= (the bug this guards against) would come back 1x.
  CacheStats a;
  uint64_t seed = 1;
  a.ForEachCounter([&](const char*, uint64_t& value) { value = seed++; });
  ASSERT_GT(seed, 10u) << "visitor saw implausibly few counters";
  CacheStats b = a;
  b += a;
  seed = 1;
  b.ForEachCounter([&](const char* name, uint64_t value) {
    EXPECT_EQ(value, 2 * seed) << "operator+= dropped counter " << name;
    ++seed;
  });
}

TEST(CacheStatsReflection, ShardStatsSumToTotals) {
  for (EvictionPolicy eviction : {EvictionPolicy::kLru, EvictionPolicy::kClock}) {
    TimePoint now{};
    GpsCacheConfig config = SmallCache(eviction, 6);
    config.shards = 4;
    config.now = [&now] { return now; };
    GpsCache cache(config);

    // Touch as many counters as a memory-mode cache can: puts, replaces,
    // hits, misses, TTL expiry (eager and lazy), invalidations (single and
    // batched), evictions, admission rejects, clears.
    for (int i = 0; i < 32; ++i) cache.Put("k" + std::to_string(i), Str("v"));
    for (int i = 0; i < 32; ++i) cache.Get("k" + std::to_string(i));
    for (int i = 0; i < 8; ++i) cache.Get("absent" + std::to_string(i));
    cache.Put("ttl", Str("v"), 5s);
    now += 6s;
    cache.Get("ttl");
    cache.ExpireDue();
    cache.Put("guarded", Str("v"), std::nullopt, [] { return false; });
    // Invalidate keys straight after their Put: a just-inserted key is
    // protected from its own fill's sweep, so it is guaranteed present.
    for (int i = 0; i < 4; ++i) {
      const std::string key = "inv" + std::to_string(i);
      cache.Put(key, Str("v"));
      cache.Invalidate(key);
    }
    cache.Put("batched", Str("v"));
    cache.InvalidateBatch({"batched", "nope"});
    cache.Clear();

    const CacheStats total = cache.stats();
    CacheStats summed;
    for (size_t s = 0; s < cache.shard_count(); ++s) summed += cache.shard_stats(s);

    std::vector<std::pair<std::string, uint64_t>> lhs, rhs;
    total.ForEachCounter([&](const char* name, uint64_t v) { lhs.push_back({name, v}); });
    summed.ForEachCounter([&](const char* name, uint64_t v) { rhs.push_back({name, v}); });
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].second, rhs[i].second)
          << "counter " << lhs[i].first << " diverges between stats() and shard sum ("
          << EvictionPolicyName(eviction) << ")";
    }
    // The workload actually exercised the interesting counters.
    EXPECT_GT(total.hits, 0u);
    EXPECT_GT(total.misses, 0u);
    EXPECT_GT(total.evictions, 0u);
    EXPECT_GT(total.expirations, 0u);
    EXPECT_EQ(total.admit_rejects, 1u);
    EXPECT_EQ(total.clears, 1u);
    EXPECT_GE(total.invalidations, 5u);
    if (eviction == EvictionPolicy::kClock) {
      EXPECT_GT(total.lazy_expired_misses, 0u);
    }
    EXPECT_EQ(total.hits + total.misses, total.lookups);
  }
}

}  // namespace
}  // namespace qc::cache
