// The one CDC applier shared by cache nodes, client caches and the
// in-process cluster: gate-first ordering, the resubscribe gap fence,
// tolerance of duplicated and reordered records, WaitForSeq, and the
// QCP/1 subscription loop against a real loopback QcServer
// (docs/CLUSTER.md, "The CDC stream" and "Resubscribe gaps").
#include "cluster/cdc_applier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "middleware/query_engine.h"
#include "server/client.h"
#include "server/server.h"

namespace qc::cluster {
namespace {

using namespace std::chrono_literals;

server::CdcRecord Record(uint64_t seq) {
  server::CdcRecord record;
  record.seq = seq;
  record.table = "T";
  return record;
}

TEST(CdcApplierTest, InvalidateRunsAfterTheGateAdvanced) {
  std::vector<uint64_t> seen_applied;
  CdcApplier* self = nullptr;
  CdcApplier applier([&](const server::CdcRecord&) { seen_applied.push_back(self->applied()); },
                     [] { FAIL() << "no gap, no flush"; });
  self = &applier;
  for (uint64_t seq = 1; seq <= 3; ++seq) applier.Apply(Record(seq));
  EXPECT_EQ(seen_applied, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(applier.records_applied(), 3u);
  EXPECT_FALSE(applier.gate()->Admits(2));  // a fill that observed 2 raced record 3
  EXPECT_TRUE(applier.gate()->Admits(3));
}

TEST(CdcApplierTest, FenceFlushesOnlyAcrossAGap) {
  int flushes = 0;
  CdcApplier applier([](const server::CdcRecord&) {}, [&] { ++flushes; });
  applier.Fence(0);  // fresh stream, nothing missed
  EXPECT_EQ(flushes, 0);
  applier.Apply(Record(4));
  applier.Fence(4);  // resubscribed exactly where we left off
  applier.Fence(3);  // server behind us: still no gap
  EXPECT_EQ(flushes, 0);
  EXPECT_EQ(applier.gap_flushes(), 0u);

  applier.Fence(9);  // records 5..9 were missed
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(applier.gap_flushes(), 1u);
  EXPECT_EQ(applier.applied(), 9u);
  EXPECT_FALSE(applier.gate()->Admits(8));  // every pre-gap fill is refused
  EXPECT_TRUE(applier.gate()->Admits(9));
  EXPECT_TRUE(applier.WaitForSeq(9, 0ms));

  applier.Fence(9);
  EXPECT_EQ(flushes, 1);
}

TEST(CdcApplierTest, FenceAdvancesTheGateBeforeFlushing) {
  CdcApplier* self = nullptr;
  uint64_t applied_at_flush = 0;
  CdcApplier applier([](const server::CdcRecord&) {},
                     [&] { applied_at_flush = self->applied(); });
  self = &applier;
  applier.Fence(7);
  EXPECT_EQ(applied_at_flush, 7u);
}

TEST(CdcApplierTest, DuplicateAndReorderedRecordsNeverMoveTheGateBack) {
  std::vector<uint64_t> invalidated;
  CdcApplier applier([&](const server::CdcRecord& r) { invalidated.push_back(r.seq); },
                     [] { FAIL() << "no gap, no flush"; });
  uint64_t highest = 0;
  for (uint64_t seq : {1u, 3u, 2u, 3u, 1u}) {
    applier.Apply(Record(seq));
    highest = std::max(highest, seq);
    EXPECT_EQ(applier.applied(), highest);
  }
  EXPECT_EQ(invalidated, (std::vector<uint64_t>{1, 3, 2, 3, 1}));
  EXPECT_EQ(applier.records_applied(), 5u);
  EXPECT_TRUE(applier.WaitForSeq(3, 0ms));
}

TEST(CdcApplierTest, WaitForSeqReleasesAtTheAppliedSequenceOnly) {
  CdcApplier applier([](const server::CdcRecord&) {}, [] {});
  EXPECT_TRUE(applier.WaitForSeq(0, 0ms));
  applier.Apply(Record(5));
  EXPECT_TRUE(applier.WaitForSeq(5, 0ms));
  EXPECT_TRUE(applier.WaitForSeq(4, 0ms));
  EXPECT_FALSE(applier.WaitForSeq(6, 20ms));

  std::thread late([&] {
    std::this_thread::sleep_for(10ms);
    applier.Apply(Record(6));
  });
  EXPECT_TRUE(applier.WaitForSeq(6, 5s));
  late.join();
}

TEST(CdcApplierTest, ConcurrentAppliesConvergeOnTheHighestSequence) {
  std::atomic<int> invalidations{0};
  CdcApplier applier([&](const server::CdcRecord&) { invalidations.fetch_add(1); }, [] {});
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&applier, t] {
      for (uint64_t i = 0; i < 200; ++i) applier.Apply(Record(1 + t + 4 * i));
    });
  }
  EXPECT_TRUE(applier.WaitForSeq(800, 5s));
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(applier.applied(), 800u);
  EXPECT_EQ(invalidations.load(), 800);
  EXPECT_EQ(applier.records_applied(), 800u);
}

// The subscription loop against a publishing QcServer: subscribing behind
// the server's committed sequence is a gap (one flush, gate fenced), and
// records committed afterwards arrive through Apply with their sequence.
TEST(CdcApplierTest, SubscriptionFencesTheGapThenAppliesPushedRecords) {
  storage::Database db;
  storage::Table& table = db.CreateTable(
      "T", storage::Schema({{"ID", ValueType::kInt, false}, {"N", ValueType::kInt, false}}));
  for (int i = 1; i <= 5; ++i) table.Insert({Value(i), Value(i)});
  middleware::CachedQueryEngine engine(db, middleware::CachedQueryEngine::Options{});
  server::ServerConfig config;
  config.port = 0;
  config.cdc_publish = true;
  server::QcServer server(engine, config);
  server.Start();

  server::QcClient writer;
  writer.Connect("127.0.0.1", server.port());
  EXPECT_EQ(writer.Dml("UPDATE T SET N = 10 WHERE ID = 1"), 1u);  // seq 1, before subscribing

  std::atomic<int> flushes{0};
  std::mutex mutex;
  std::vector<std::string> tables;
  CdcApplier applier(
      [&](const server::CdcRecord& record) {
        std::lock_guard<std::mutex> lock(mutex);
        tables.push_back(record.table);
      },
      [&] { flushes.fetch_add(1); });
  applier.Subscribe("127.0.0.1", server.port());
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!applier.subscribed() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(applier.subscribed());
  EXPECT_EQ(flushes.load(), 1);
  EXPECT_EQ(applier.gap_flushes(), 1u);
  EXPECT_EQ(applier.applied(), 1u);

  EXPECT_EQ(writer.Dml("UPDATE T SET N = 20 WHERE ID = 2"), 1u);  // seq 2, pushed
  EXPECT_TRUE(applier.WaitForSeq(2, 5s));
  EXPECT_EQ(applier.records_applied(), 1u);
  EXPECT_EQ(flushes.load(), 1);
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(tables, (std::vector<std::string>{"T"}));
  }

  applier.Stop();
  writer.Close();
  server.RequestDrain();
  server.Wait();
}

}  // namespace
}  // namespace qc::cluster
