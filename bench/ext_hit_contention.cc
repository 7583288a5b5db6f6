// Extension bench: GPS cache hit-path contention. N reader threads hammer
// Get() on a fully-resident hot set while one writer refreshes and
// invalidates keys, directly against the GpsCache (no SQL engine in the
// way) — this isolates the cost of the hit path itself. The sweep crosses
// shards {1, 16} with eviction {lru, clock}: under kLru every hit takes
// the shard lock exclusively (list splice), under kClock hits run under a
// shared lock and only set an atomic reference bit
// (docs/CONCURRENCY.md, "Lock-light hit path").
//
// Self-checking: on machines with enough cores the clock configuration
// must beat exact LRU by >= 3x aggregate hit throughput at 16 readers.
// Also emits BENCH_ext_hit_contention.json (see harness.h WriteBenchJson).
//
// A second, engine-level section measures the exact-hit fast path of
// CachedQueryEngine with the semantic tier enabled vs disabled: the
// containment probe runs only after an exact-fingerprint miss, so a warm
// exact hit must cost the same either way (gated at <= 1.25x).
//
// Env overrides: HIT_MS (measure window per run, ms), HIT_READERS (reader
// thread count), HIT_KEYS (hot-set size), HIT_WRITE_US (writer throttle).
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "cache/gps_cache.h"
#include "common/rng.h"
#include "harness.h"
#include "middleware/query_engine.h"

using namespace qc;
using namespace qc::benchharness;

namespace {

struct RunConfig {
  cache::EvictionPolicy eviction = cache::EvictionPolicy::kClock;
  size_t shards = 16;
  int readers = 16;
  uint64_t keys = 2048;
  uint64_t measure_ms = 400;
  uint64_t write_throttle_us = 200;
};

struct Outcome {
  double gets_per_second = 0;
  double ns_per_get = 0;  // per reader thread
  double hit_rate = 0;    // percent
  uint64_t writes = 0;
  bool counters_consistent = false;
};

std::string KeyFor(uint64_t i) { return "q" + std::to_string(i); }

Outcome Run(const RunConfig& config) {
  cache::GpsCacheConfig cache_config;
  cache_config.shards = config.shards;
  cache_config.eviction = config.eviction;
  cache_config.memory_budget_bytes = 64 * 1024 * 1024;  // hot set always fits
  cache::GpsCache cache(cache_config);

  for (uint64_t i = 0; i < config.keys; ++i) {
    cache.Put(KeyFor(i), std::make_shared<cache::StringValue>("v" + std::to_string(i)));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_gets{0};

  // The throughput window runs from the readers' start to after their
  // join, measured rather than assumed: readers may overrun the writer's
  // nominal measure_ms before they observe `stop`.
  const auto window_start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  readers.reserve(config.readers);
  for (int t = 0; t < config.readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t i =
            static_cast<uint64_t>(rng.Uniform(0, static_cast<int64_t>(config.keys) - 1));
        cache.Get(KeyFor(i));
        ++local;
      }
      total_gets.fetch_add(local);
    });
  }

  // One writer: mostly replaces (exclusive-lock fills), occasionally a
  // full invalidate + refill — the mix every reader's shard lock must ride
  // out.
  uint64_t writes = 0;
  {
    Rng rng(7);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(config.measure_ms);
    auto next_write = std::chrono::steady_clock::now();
    uint64_t version = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      if (std::chrono::steady_clock::now() >= next_write) {
        const uint64_t i =
            static_cast<uint64_t>(rng.Uniform(0, static_cast<int64_t>(config.keys) - 1));
        const std::string key = KeyFor(i);
        if (++version % 8 == 0) cache.Invalidate(key);
        cache.Put(key, std::make_shared<cache::StringValue>("v" + std::to_string(version)));
        ++writes;
        next_write += std::chrono::microseconds(config.write_throttle_us);
      } else {
        std::this_thread::yield();
      }
    }
    stop.store(true);
  }
  for (auto& reader : readers) reader.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - window_start).count();

  const cache::CacheStats stats = cache.stats();
  Outcome out;
  out.gets_per_second = static_cast<double>(total_gets.load()) / seconds;
  out.ns_per_get = total_gets.load() == 0
                       ? 0
                       : seconds * 1e9 * config.readers / static_cast<double>(total_gets.load());
  out.hit_rate = 100.0 * stats.HitRate();
  out.writes = writes;
  // Every Get records exactly one lookup and exactly one hit-or-miss in
  // the striped counters; with all threads joined the totals must agree.
  out.counters_consistent =
      stats.hits + stats.misses == stats.lookups && stats.lookups >= total_gets.load();
  return out;
}

}  // namespace

int main() {
  RunConfig base;
  base.measure_ms = EnvU64("HIT_MS", 400);
  base.readers = static_cast<int>(EnvU64("HIT_READERS", 16));
  base.keys = EnvU64("HIT_KEYS", 2048);
  base.write_throttle_us = EnvU64("HIT_WRITE_US", 200);

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "=== Extension: GPS cache hit-path contention (" << base.keys << " hot keys, "
            << base.readers << " readers x 1 writer @" << base.write_throttle_us << " us, "
            << base.measure_ms << " ms/run, " << cores << " hardware threads) ===\n\n";

  const std::vector<int> widths = {10, 10, 14, 12, 12, 10};
  PrintRow({"eviction", "shards", "gets/s", "ns/get", "hit rate %", "writes"}, widths);

  std::vector<BenchMetric> metrics;
  double lru_16 = 0, clock_16 = 0, lru_1 = 0, clock_1 = 0;
  bool all_consistent = true;
  for (size_t shards : {size_t{1}, size_t{16}}) {
    for (cache::EvictionPolicy eviction :
         {cache::EvictionPolicy::kLru, cache::EvictionPolicy::kClock}) {
      RunConfig config = base;
      config.shards = shards;
      config.eviction = eviction;
      const Outcome out = Run(config);
      const char* policy = cache::EvictionPolicyName(eviction);
      PrintRow({policy, std::to_string(shards), Fmt(out.gets_per_second, 0),
                Fmt(out.ns_per_get, 0), Fmt(out.hit_rate), std::to_string(out.writes)},
               widths);
      all_consistent = all_consistent && out.counters_consistent;
      if (eviction == cache::EvictionPolicy::kLru) {
        (shards == 16 ? lru_16 : lru_1) = out.gets_per_second;
      } else {
        (shards == 16 ? clock_16 : clock_1) = out.gets_per_second;
      }
      metrics.push_back({"hit_throughput",
                         out.gets_per_second,
                         "ops_per_sec",
                         {{"eviction", policy},
                          {"shards", std::to_string(shards)},
                          {"threads", std::to_string(base.readers)}}});
      metrics.push_back({"hit_latency",
                         out.ns_per_get,
                         "ns_per_op",
                         {{"eviction", policy},
                          {"shards", std::to_string(shards)},
                          {"threads", std::to_string(base.readers)}}});
    }
  }

  // ---- Engine-level exact-hit path: semantic tier on vs off ------------
  // The ladder is exact -> semantic -> miss; a warm exact hit returns
  // before the containment probe runs, so enabling the semantic tier must
  // not tax it.
  auto exact_hit_ns = [&](bool semantic_on) {
    storage::Database db;
    auto& t = db.CreateTable("H", storage::Schema({{"ID", ValueType::kInt, false},
                                                   {"V", ValueType::kInt, false}}));
    for (int i = 0; i < 1000; ++i) t.Insert({Value(i), Value(i * 3)});
    middleware::CachedQueryEngine::Options options;
    options.cache.semantic_lookup = semantic_on;
    middleware::CachedQueryEngine engine(db, options);
    auto query = engine.Prepare("SELECT ID, V FROM H WHERE ID BETWEEN 100 AND 500");
    engine.Execute(query);  // warm: everything after this is an exact hit
    uint64_t reps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + std::chrono::milliseconds(base.measure_ms / 2);
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 64; ++i) engine.Execute(query);
      reps += 64;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    return ns / static_cast<double>(reps);
  };
  const double hit_ns_off = exact_hit_ns(false);
  const double hit_ns_on = exact_hit_ns(true);
  std::cout << "\nengine exact-hit path: semantic off " << Fmt(hit_ns_off, 0)
            << " ns/op, semantic on " << Fmt(hit_ns_on, 0) << " ns/op ("
            << Fmt(hit_ns_on / hit_ns_off, 2) << "x)\n";
  metrics.push_back({"exact_hit_ns", hit_ns_off, "ns_per_op", {{"semantic", "off"}}});
  metrics.push_back({"exact_hit_ns", hit_ns_on, "ns_per_op", {{"semantic", "on"}}});

  WriteBenchJson("ext_hit_contention", metrics);

  std::cout << "\nChecks:\n";
  Check(lru_1 > 0 && lru_16 > 0 && clock_1 > 0 && clock_16 > 0,
        "all configurations completed and served gets");
  Check(all_consistent, "striped hit counters are exact: hits + misses == lookups");
  Check(hit_ns_on <= 1.25 * hit_ns_off,
        "semantic probe does not regress the exact-hit fast path (<= 1.25x)");
  if (cores >= 8 && base.readers >= 16) {
    Check(clock_16 >= 3.0 * lru_16,
          "shared-lock CLOCK hits beat exclusive-lock LRU by >= 3x at 16 readers (16 shards)");
    Check(clock_1 > lru_1,
          "CLOCK beats LRU even on a single shard (readers share one rw-lock)");
  } else {
    std::cout << "  (contention checks skipped: " << cores << " hardware threads, "
              << base.readers
              << " readers; need >= 8 cores and >= 16 readers for a meaningful ratio)\n";
  }
  return Failures() == 0 ? 0 : 1;
}
