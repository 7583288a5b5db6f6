// TSan-targeted stress for the in-process CDC bus (async_delivery): real
// reader threads fill every node's cache while a writer thread commits DML
// and the background applier races the resulting CDC records against
// those fills. After quiescing, no node may hold a stale entry — any
// delayed fill that raced a delivery must have been refused by its
// sequence gate (docs/CLUSTER.md, "Sequence-guarded admission").
//
// Run under the tsan-cluster preset to assert the data-race freedom of the
// bus, the gates and the admission path; the staleness assertion itself
// also runs in the tier-1 suite via the cluster label.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"

namespace qc::cluster {
namespace {

TEST(ClusterStressTest, AsyncDeliveryNeverAdmitsStaleEntries) {
  storage::Database db;
  storage::Table& table = db.CreateTable(
      "T", storage::Schema({{"ID", ValueType::kInt, false}, {"N", ValueType::kInt, false}}));
  for (int i = 1; i <= 64; ++i) table.Insert({Value(i), Value(i)});

  ClusterConfig config;
  config.nodes = 3;
  config.async_delivery = true;
  config.verify_staleness = false;  // raced verification would blur the signal
  CacheCluster cluster(db, config);

  const char* kThreshold = "SELECT COUNT(*) FROM T WHERE N <= $1";
  auto query = cluster.Prepare(kThreshold);
  constexpr int kThresholds = 8;
  constexpr int kWrites = 300;

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Single writer (the cluster's documented contract); every statement
    // goes through the engine's DML path so readers and the writer
    // serialize on the table's reader-writer lock.
    for (int i = 0; i < kWrites; ++i) {
      const std::string sql = "UPDATE T SET N = " + std::to_string((i * 37) % 200) +
                              " WHERE ID = " + std::to_string(1 + i % 64);
      cluster.PerformUpdate(0, [&] { cluster.node(0).ExecuteDml(sql); });
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (size_t n = 0; n < 3; ++n) {
    readers.emplace_back([&, n] {
      int v = static_cast<int>(n);
      while (!done.load(std::memory_order_acquire)) {
        cluster.ExecuteAt(n, query, {Value(v % kThresholds * 16)});
        ++v;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  cluster.Quiesce();

  // No writes since Quiesce: any cached entry that SURVIVED the stress
  // must match a fresh execution — a single mismatch means a stale fill
  // was admitted past its sequence gate. (Most entries have been
  // invalidated by the churn; surviving hits are opportunistic.)
  for (size_t n = 0; n < 3; ++n) {
    for (int v = 0; v < kThresholds; ++v) {
      const std::vector<Value> params{Value(v * 16)};
      auto outcome = cluster.node(n).Execute(query, params);
      if (!outcome.cache_hit) continue;
      EXPECT_TRUE(outcome.result->Equals(cluster.node(n).ExecuteUncached(*query, params)))
          << "node " << n << " threshold " << v * 16;
    }
    EXPECT_EQ(cluster.gate(n).applied(), cluster.committed_seq()) << "node " << n;
  }
  // With the bus drained, fills admit again (the gates are caught up, not
  // wedged shut) and the warm pass both hits and agrees with the data.
  uint64_t checked_hits = 0;
  for (size_t n = 0; n < 3; ++n) {
    for (int v = 0; v < kThresholds; ++v) {
      const std::vector<Value> params{Value(v * 16)};
      cluster.node(n).Execute(query, params);  // fill (or existing entry)
      auto warm = cluster.node(n).Execute(query, params);
      EXPECT_TRUE(warm.cache_hit) << "node " << n << " threshold " << v * 16;
      if (warm.cache_hit) ++checked_hits;
      EXPECT_TRUE(warm.result->Equals(cluster.node(n).ExecuteUncached(*query, params)))
          << "node " << n << " threshold " << v * 16;
    }
  }
  EXPECT_EQ(checked_hits, 3u * kThresholds);
  EXPECT_GT(cluster.committed_seq(), 0u);
  EXPECT_LE(cluster.committed_seq(), static_cast<uint64_t>(kWrites));
}

}  // namespace
}  // namespace qc::cluster
