// Concurrency stress for the GPS cache: the paper's rule server is "a
// single, multithreaded process", so the cache must tolerate concurrent
// gets, puts, invalidations, clears and expiration sweeps. These tests
// assert freedom from crashes/corruption and basic sanity of the counters
// (run them under TSan for the full story).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cache/gps_cache.h"
#include "dup/engine.h"
#include "sql/binder.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace qc::cache {
namespace {

using namespace std::chrono_literals;

CacheValuePtr Str(const std::string& s) { return std::make_shared<StringValue>(s); }

class GpsCacheConcurrency : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(GpsCacheConcurrency, ParallelMixedOperations) {
  GpsCacheConfig config;
  config.memory_max_entries = 256;  // force concurrent evictions
  config.eviction = GetParam();
  GpsCache cache(config);

  std::atomic<uint64_t> listener_calls{0};
  cache.SetRemovalListener(
      [&](const std::string&, RemovalCause, uint64_t) { listener_calls.fetch_add(1); });

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key" + std::to_string((t * 31 + i) % 512);
        switch (i % 5) {
          case 0:
            cache.Put(key, Str("v" + std::to_string(i)), i % 3 == 0 ? std::optional(50ms)
                                                                    : std::nullopt);
            break;
          case 1:
          case 2: {
            auto hit = cache.Get(key);
            if (hit) {
              // The value, if present, must be intact (no torn reads).
              auto data = std::static_pointer_cast<const StringValue>(hit)->data();
              ASSERT_FALSE(data.empty());
              ASSERT_EQ(data[0], 'v');
            }
            break;
          }
          case 3:
            cache.Invalidate(key);
            break;
          default:
            if (i % 997 == 0) {
              cache.Clear();
            } else {
              cache.ExpireDue();
            }
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<uint64_t>(kThreads) * kOpsPerThread * 2 / 5);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(cache.entry_count(), 512u);
  EXPECT_GT(listener_calls.load(), 0u);
}

// Both locking disciplines: kClock resolves hits under the shared shard
// lock, kLru under the exclusive one. The exactly-once counter accounting
// above must hold either way.
INSTANTIATE_TEST_SUITE_P(EvictionModes, GpsCacheConcurrency,
                         ::testing::Values(EvictionPolicy::kLru, EvictionPolicy::kClock),
                         [](const ::testing::TestParamInfo<EvictionPolicy>& info) {
                           return std::string(EvictionPolicyName(info.param));
                         });

TEST(GpsCacheListener, ListenerReentrancyIsSafe) {
  // A removal listener that calls back into the cache (like the DUP engine
  // unregistering) must not deadlock: notifications run outside the lock.
  GpsCache cache(GpsCacheConfig{});
  cache.SetRemovalListener([&](const std::string& key, RemovalCause cause, uint64_t) {
    if (cause == RemovalCause::kInvalidated) {
      (void)cache.Contains(key);  // re-enters the cache mutex
    }
  });
  cache.Put("a", Str("1"));
  EXPECT_TRUE(cache.Invalidate("a"));
}

TEST(DupEngineConcurrency, ParallelRegistrationAndEvents) {
  storage::Database db;
  auto& table = db.CreateTable("T", storage::Schema({{"X", ValueType::kInt, false},
                                                     {"Y", ValueType::kInt, false}}));
  for (int i = 0; i < 64; ++i) table.Insert({Value(i), Value(i)});

  GpsCache cache(GpsCacheConfig{});
  dup::DupEngine::Options options;
  options.policy = dup::InvalidationPolicy::kValueAware;
  dup::DupEngine engine(cache, options);

  std::vector<std::shared_ptr<const sql::BoundQuery>> queries;
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    auto query = sql::ParseAndBind(
        "SELECT COUNT(*) FROM T WHERE X BETWEEN " + std::to_string(i * 4) + " AND " +
            std::to_string(i * 4 + 3),
        db);
    keys.push_back(sql::Fingerprint(query->stmt(), {}));
    queries.push_back(std::move(query));
  }

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    storage::UpdateEvent event;
    event.kind = storage::UpdateEvent::Kind::kUpdate;
    event.table = "T";
    int i = 0;
    while (!stop.load()) {
      event.changes = {{0, Value(i % 64), Value((i + 7) % 64)}};
      engine.OnUpdate(event);
      ++i;
    }
  });

  for (int round = 0; round < 200; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      cache.Put(keys[i], Str("r"));
      engine.RegisterQuery(keys[i], queries[i], {});
    }
  }
  stop.store(true);
  updater.join();

  EXPECT_LE(engine.stats().registered_queries, 16u);
  EXPECT_GT(engine.stats().update_events, 0u);
}

}  // namespace
}  // namespace qc::cache
