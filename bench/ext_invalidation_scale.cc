// Extension benchmark: invalidation cost vs. number of cached queries, and
// per-statement update batching.
//
// The paper's DUP engine pays O(registered queries) per update event: every
// annotated edge of the touched column is evaluated (Policy III), or every
// registration on the table is filtered (inserts/deletes). The
// interval indexes (the ODG's boundary index, odg/graph.h, and the
// row-event index, dup/row_index.h) make the common selective update
// sublinear. This bench measures:
//
//   1. ns/update as the number of registered point queries Q grows
//      (10^2..10^5), indexed vs. linear, under Policies I/II/III. The
//      self-check asserts the indexed Policy III path is at least 5x
//      faster than the linear scan at Q = 10^4.
//   2. Statement-level batching: one B-row statement (B = 1..10^4)
//      delivered as one UpdateBatch vs. B individual events, and the
//      number of cache shard-lock acquisitions the invalidation pays. The
//      self-check asserts a 1000-row batch acquires fewer shard locks than
//      it has rows (it is bounded by the shard count).
//
// Env overrides: EXT_INV_MAX_QUERIES (default 100000), EXT_INV_SHARDS (16).
#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "dup/engine.h"
#include "harness.h"
#include "sql/binder.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace qc {
namespace {

using benchharness::Check;
using benchharness::EnvU64;
using benchharness::Fmt;
using benchharness::PrintRow;

struct Rig {
  storage::Database db;
  std::unique_ptr<cache::GpsCache> cache;
  std::unique_ptr<dup::DupEngine> engine;
  std::shared_ptr<const sql::BoundQuery> point_query;
};

/// Q registered point queries "K = q" (q in [0, Q)). Results are put in
/// the cache only when `populate_cache` — the scaling series leaves the
/// cache empty so registrations survive invalidation and every timed
/// update pays the full affected-key computation.
std::unique_ptr<Rig> MakeRig(dup::InvalidationPolicy policy, bool use_index, uint64_t queries,
                             size_t shards, bool populate_cache) {
  auto rig = std::make_unique<Rig>();
  rig->db.CreateTable("BENCH", storage::Schema({{"K", ValueType::kInt, false},
                                                {"V", ValueType::kInt, false}}));
  cache::GpsCacheConfig config;
  config.shards = shards;
  rig->cache = std::make_unique<cache::GpsCache>(config);
  dup::DupEngine::Options options;
  options.policy = policy;
  options.use_predicate_index = use_index;
  rig->engine = std::make_unique<dup::DupEngine>(*rig->cache, options);
  rig->point_query = sql::ParseAndBind("SELECT COUNT(*) FROM BENCH WHERE K = ?", rig->db);
  for (uint64_t q = 0; q < queries; ++q) {
    const std::vector<Value> params{Value(static_cast<int64_t>(q))};
    const std::string key = sql::Fingerprint(rig->point_query->stmt(), params);
    if (populate_cache) rig->cache->Put(key, std::make_shared<cache::StringValue>("r"));
    rig->engine->RegisterQuery(key, rig->point_query, params);
  }
  return rig;
}

storage::UpdateEvent UpdateK(int64_t old_v, int64_t new_v) {
  storage::UpdateEvent event;
  event.kind = storage::UpdateEvent::Kind::kUpdate;
  event.table = "BENCH";
  event.changes.push_back({0, Value(old_v), Value(new_v)});
  event.before = {Value(old_v), Value(0)};
  event.after = {Value(new_v), Value(0)};
  return event;
}

double NsPerUpdate(dup::DupEngine& engine, uint64_t queries, uint64_t reps) {
  // Non-matching selective updates (old/new outside the registered domain):
  // the common case where an update flips nothing. The linear scan still
  // evaluates every annotation; the index answers from two stabbing probes.
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < reps; ++i) {
    engine.OnUpdate(UpdateK(static_cast<int64_t>(queries + 5 + i % 7),
                            static_cast<int64_t>(queries + 13 + i % 5)));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         static_cast<double>(reps);
}

void ScalingSeries(uint64_t max_queries, double* speedup_at_1e4,
                   std::vector<benchharness::BenchMetric>* metrics) {
  const std::vector<int> widths = {8, 32, 14, 14, 10};
  std::cout << "\n-- per-update invalidation cost vs. registered queries --\n";
  PrintRow({"Q", "policy", "linear ns/up", "indexed ns/up", "speedup"}, widths);
  using dup::InvalidationPolicy;
  for (uint64_t queries = 100; queries <= max_queries; queries *= 10) {
    const uint64_t reps = std::max<uint64_t>(50, 2'000'000 / queries);
    for (const auto policy : {InvalidationPolicy::kFlushAll, InvalidationPolicy::kValueUnaware,
                              InvalidationPolicy::kValueAware}) {
      auto linear = MakeRig(policy, false, queries, 1, false);
      auto indexed = MakeRig(policy, true, queries, 1, false);
      const double linear_ns = NsPerUpdate(*linear->engine, queries, reps);
      const double indexed_ns = NsPerUpdate(*indexed->engine, queries, reps);
      const double speedup = indexed_ns > 0 ? linear_ns / indexed_ns : 0;
      PrintRow({std::to_string(queries), dup::PolicyName(policy), Fmt(linear_ns),
                Fmt(indexed_ns), Fmt(speedup, 2)},
               widths);
      if (policy == InvalidationPolicy::kValueAware && queries == 10'000) {
        *speedup_at_1e4 = speedup;
      }
      metrics->push_back({"update_cost_linear",
                          linear_ns,
                          "ns_per_op",
                          {{"policy", dup::PolicyName(policy)},
                           {"queries", std::to_string(queries)}}});
      metrics->push_back({"update_cost_indexed",
                          indexed_ns,
                          "ns_per_op",
                          {{"policy", dup::PolicyName(policy)},
                           {"queries", std::to_string(queries)}}});
    }
  }
}

void BatchingSeries(size_t shards, uint64_t* locks_at_1000,
                    std::vector<benchharness::BenchMetric>* metrics) {
  std::cout << "\n-- statement batching: B delete rows, Policy III, Q=1000, shards="
            << shards << " --\n";
  const std::vector<int> widths = {8, 16, 16, 12, 12};
  PrintRow({"B", "per-event ns/row", "batched ns/row", "shard locks", "invalidated"}, widths);
  constexpr uint64_t kQueries = 1000;
  for (uint64_t batch : {1ull, 10ull, 100ull, 1000ull, 10000ull}) {
    std::vector<storage::UpdateEvent> events;
    events.reserve(batch);
    for (uint64_t i = 0; i < batch; ++i) {
      storage::UpdateEvent event;
      event.kind = storage::UpdateEvent::Kind::kDelete;
      event.table = "BENCH";
      event.row = i;
      event.before = {Value(static_cast<int64_t>(i % kQueries)), Value(0)};
      events.push_back(std::move(event));
    }

    // Per-event delivery (the pre-batching path: one OnUpdate per row).
    auto per_event = MakeRig(dup::InvalidationPolicy::kValueAware, true, kQueries, shards, true);
    const auto start_events = std::chrono::steady_clock::now();
    for (const storage::UpdateEvent& event : events) per_event->engine->OnUpdate(event);
    const double per_event_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start_events)
                                .count()) /
        static_cast<double>(batch);

    // One statement-level batch.
    auto batched = MakeRig(dup::InvalidationPolicy::kValueAware, true, kQueries, shards, true);
    const cache::CacheStats before = batched->cache->stats();
    const auto start_batch = std::chrono::steady_clock::now();
    batched->engine->OnBatch(storage::UpdateBatch{"BENCH", events.data(), events.size()});
    const double batched_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start_batch)
                                .count()) /
        static_cast<double>(batch);
    const cache::CacheStats after = batched->cache->stats();
    const uint64_t locks = after.invalidate_shard_locks - before.invalidate_shard_locks;
    const uint64_t invalidated = after.invalidations - before.invalidations;
    if (batch == 1000) *locks_at_1000 = locks;
    PrintRow({std::to_string(batch), Fmt(per_event_ns), Fmt(batched_ns), std::to_string(locks),
              std::to_string(invalidated)},
             widths);
    metrics->push_back({"batch_cost_per_event",
                        per_event_ns,
                        "ns_per_row",
                        {{"batch", std::to_string(batch)}, {"shards", std::to_string(shards)}}});
    metrics->push_back({"batch_cost_batched",
                        batched_ns,
                        "ns_per_row",
                        {{"batch", std::to_string(batch)}, {"shards", std::to_string(shards)}}});
    metrics->push_back({"batch_shard_locks",
                        static_cast<double>(locks),
                        "locks",
                        {{"batch", std::to_string(batch)}, {"shards", std::to_string(shards)}}});
  }
}

}  // namespace
}  // namespace qc

int main() {
  using namespace qc;
  const uint64_t max_queries = benchharness::EnvU64("EXT_INV_MAX_QUERIES", 100'000);
  const size_t shards = static_cast<size_t>(benchharness::EnvU64("EXT_INV_SHARDS", 16));
  std::cout << "ext_invalidation_scale: interval indexes + statement batching\n";

  double speedup_at_1e4 = 0;
  std::vector<benchharness::BenchMetric> metrics;
  ScalingSeries(max_queries, &speedup_at_1e4, &metrics);

  uint64_t locks_at_1000 = ~0ull;
  BatchingSeries(shards, &locks_at_1000, &metrics);
  benchharness::WriteBenchJson("ext_invalidation_scale", metrics);

  std::cout << "\n";
  if (max_queries >= 10'000) {
    benchharness::Check(speedup_at_1e4 >= 5.0,
                        "indexed Policy III is >= 5x faster than the linear scan at Q=10^4 "
                        "(measured " +
                            benchharness::Fmt(speedup_at_1e4, 2) + "x)");
  }
  benchharness::Check(locks_at_1000 < 1000,
                      "a 1000-row batch acquires fewer shard locks than rows (measured " +
                          std::to_string(locks_at_1000) + ")");
  return benchharness::Failures();
}
