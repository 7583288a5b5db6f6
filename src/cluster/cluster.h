// An in-process cache-node group over one shared database — the
// single-binary twin of the wire cluster (docs/CLUSTER.md): several
// CachedQueryEngine instances, each with its own GPS cache and its own
// CdcApplier and sequence gate, coupled by a sequenced CDC bus instead of TCP.
//
// The bus mirrors the storage node's publisher exactly: every committed
// storage::UpdateBatch is stamped with a monotonically increasing stream
// sequence under the bus mutex (while the mutating statement still holds
// its table write lock), applied to the writing node synchronously, and
// delivered to the peers either after `latency_ticks` logical ticks (the
// deterministic mode the coherence bench measures) or on a background
// applier thread (`async_delivery`, the mode the TSan stress test runs to
// race deliveries against fills). Fingerprint ownership uses the same
// consistent-hash ring as the wire cluster: Execute() routes each
// statement to the node that owns its fingerprint, so one result is
// cached once; ExecuteAt() pins a node explicitly (tests, and the
// paper-faithful "every clone caches everything" experiments).
//
// Each delivery goes through the target node's CdcApplier — the same
// applier the wire tiers use (cdc_applier.h keeps the gate-first ordering
// argument) — and each node's fills observe the bus's last assigned
// sequence *before* taking their table read locks, so a fill that raced a
// newer delivery is refused instead of cached stale
// (QueryEngineStats::seq_admit_rejects). The paper's Fig. 13 coherence
// measures (tokens sent, remote invalidations per update, staleness
// window) are kept as-is.
//
// @thread_safety (accurate as of the CDC refactor): Execute/ExecuteAt and
// the engines' own entry points may be called from any number of threads
// concurrently with async_delivery deliveries; internal counters are
// atomics and the bus is mutex-ordered. PerformUpdate runs mutations from
// the calling thread and may race *reads*, but concurrent PerformUpdate
// calls from several threads must target different writers and, like the
// engine's DML path, serialize per table via the storage write locks.
// Tick/Quiesce are not synchronized against each other — drive logical
// time from one thread (the benchmarks' usage). In tick mode
// (async_delivery=false) the whole object keeps its original
// single-threaded contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cdc_applier.h"
#include "cluster/ring.h"
#include "dup/epochs.h"
#include "middleware/query_engine.h"
#include "server/protocol.h"
#include "storage/database.h"

namespace qc::cluster {

struct ClusterConfig {
  size_t nodes = 3;  // paper Fig. 1 shows three cloned rule servers
  dup::InvalidationPolicy policy = dup::InvalidationPolicy::kValueAware;
  dup::ExtractionOptions extraction;

  /// Invalidation delivery delay in ticks; 0 = synchronous coherence.
  /// Ignored when async_delivery is set.
  uint64_t latency_ticks = 0;

  /// Deliver CDC records to peers from a background applier thread (as
  /// the wire cluster does) instead of on logical ticks. Races real
  /// deliveries against real fills — the TSan stress mode.
  bool async_delivery = false;

  /// Verify every cache hit against a fresh execution to count stale
  /// serves (costs one uncached execution per hit; disable for throughput
  /// benchmarking).
  bool verify_staleness = true;

  cache::GpsCacheConfig cache;
};

struct ClusterStats {
  uint64_t queries = 0;
  uint64_t hits = 0;
  uint64_t stale_hits = 0;             // hits that no longer matched the database
  uint64_t updates = 0;                // update transactions performed
  uint64_t tokens_sent = 0;            // update tokens broadcast to peers
  uint64_t remote_invalidations = 0;   // invalidations performed on peer caches
  uint64_t local_invalidations = 0;    // invalidations at the writing node

  double HitRatePercent() const {
    return queries == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / static_cast<double>(queries);
  }
  double StaleRatePercent() const {
    return hits == 0 ? 0.0 : 100.0 * static_cast<double>(stale_hits) / static_cast<double>(hits);
  }
  double RemoteInvalidationsPerUpdate() const {
    return updates == 0
               ? 0.0
               : static_cast<double>(remote_invalidations) / static_cast<double>(updates);
  }
};

class CacheCluster {
 public:
  /// `db` is the shared backing store; it must outlive the cluster. The
  /// cluster subscribes to it once (statement-level batches) and runs the
  /// CDC bus itself.
  CacheCluster(storage::Database& db, ClusterConfig config);

  /// Unsubscribes from the database and stops the async applier, so
  /// clusters may come and go.
  ~CacheCluster();

  size_t node_count() const { return nodes_.size(); }
  middleware::CachedQueryEngine& node(size_t i) { return *nodes_.at(i).engine; }

  /// The sequence gate of one node (tests: assert admission behavior).
  dup::CdcSequenceGate& gate(size_t i) { return *nodes_.at(i).applier->gate(); }

  /// Last sequence assigned by the bus.
  uint64_t committed_seq() const { return bus_seq_.load(std::memory_order_acquire); }

  /// Prepare against the shared catalog (statements are shareable).
  std::shared_ptr<const sql::BoundQuery> Prepare(const std::string& sql);

  /// Execute a query at a specific node / at the node owning the
  /// statement's fingerprint on the consistent-hash ring.
  middleware::CachedQueryEngine::ExecuteResult ExecuteAt(
      size_t node, const std::shared_ptr<const sql::BoundQuery>& query,
      const std::vector<Value>& params = {});
  middleware::CachedQueryEngine::ExecuteResult Execute(
      const std::shared_ptr<const sql::BoundQuery>& query, const std::vector<Value>& params = {});

  /// The ring owner of one statement (tests; mirrors Execute's routing).
  size_t OwnerOf(const std::shared_ptr<const sql::BoundQuery>& query,
                 const std::vector<Value>& params = {}) const;

  /// Run a mutation (storage writes or DML) attributed to `node`. The
  /// node's own cache is invalidated synchronously; peers receive the CDC
  /// records after `latency_ticks` (or asynchronously).
  void PerformUpdate(size_t node, const std::function<void()>& mutation);

  /// Advance logical time by one tick and deliver due invalidation traffic.
  /// Execute/PerformUpdate call this implicitly — one transaction, one tick.
  void Tick();

  /// Deliver everything in flight (e.g. at the end of a measurement).
  /// In async mode, blocks until the applier's queue is drained.
  void Quiesce();

  uint64_t now() const { return now_.load(std::memory_order_relaxed); }
  size_t in_flight() const;
  ClusterStats stats() const;

 private:
  struct Node {
    std::unique_ptr<CdcApplier> applier;
    std::unique_ptr<middleware::CachedQueryEngine> engine;
  };

  struct PendingDelivery {
    uint64_t due_tick;
    size_t target;
    server::CdcRecord record;
  };

  static std::string NodeName(size_t i) { return "node" + std::to_string(i); }

  /// Apply one CDC record to one node through its applier, counting the
  /// DUP invalidations it caused.
  void ApplyTo(size_t target, const server::CdcRecord& record, std::atomic<uint64_t>& counter);

  void OnCommittedBatch(const storage::UpdateBatch& batch);
  void DeliverDue();
  void AsyncApplierLoop();

  storage::Database& db_;
  storage::Database::BatchSubscription subscription_;
  ClusterConfig config_;
  std::vector<Node> nodes_;
  HashRing ring_;

  // The bus. bus_mutex_ orders sequence assignment with enqueueing, like
  // the storage node's cdc_mutex_; bus_seq_ is read lock-free by fills
  // (observe_committed_seq) *before* their table read locks.
  mutable std::mutex bus_mutex_;
  std::atomic<uint64_t> bus_seq_{0};
  std::deque<PendingDelivery> in_flight_;   // tick mode; guarded by bus_mutex_
  std::deque<PendingDelivery> async_queue_; // async mode; guarded by bus_mutex_
  std::condition_variable bus_cv_;
  bool async_busy_ = false;  // applier mid-record; guarded by bus_mutex_
  std::thread async_applier_;
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> now_{0};
  size_t current_writer_ = 0;  // PerformUpdate only; see @thread_safety

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> stale_hits_{0};
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> tokens_sent_{0};
  std::atomic<uint64_t> remote_invalidations_{0};
  std::atomic<uint64_t> local_invalidations_{0};
};

}  // namespace qc::cluster
