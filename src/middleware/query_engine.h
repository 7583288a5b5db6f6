// The middleware query processor + cache manager of paper Fig. 7.
//
// A client calls Execute(); the engine
//   (2) looks the fingerprint up in the GPS cache,
//   (3) on a hit returns the cached result,
//   (4) on a miss executes against the database,
//   (3') stores the result and registers its ODG dependencies with the
//        DUP engine.
//
// Lookup is a three-level ladder (docs/SEMANTIC.md): exact fingerprint →
// semantic (answer from a cached *superset* result by filtering its rows —
// cache::SemanticIndex; enabled by Options::cache.semantic_lookup) → miss.
// A semantic hit validates the statement's update-epoch snapshot after the
// residual filter, exactly like a guarded Put, so it can never serve rows
// older than an acknowledged update; the derived result is then admitted
// under its own fingerprint through the normal guarded-Put path.
// Database mutations (5 set / 8 create / 9 delete) arrive as UpdateEvents
// through the Database subscription and are turned into (6/10) selective
// invalidations by the DUP engine.
//
// Warm restart: when Options::cache.recover_on_open is set (disk/hybrid
// modes), the GPS cache re-indexes surviving spill files at construction
// and the engine re-registers every recovered entry in the ODG — exactly
// when its durable tag (canonical SQL + typed parameters) decodes,
// conservatively from the fingerprint's SQL skeleton otherwise — so
// post-restart updates keep invalidating pre-restart results under every
// policy. Entries that cannot be re-registered at all are dropped. See
// docs/PERSISTENCE.md.
//
// @thread_safety CachedQueryEngine is fully thread-safe: any number of
// threads may call Prepare/Execute/ExecuteSql/ExecuteDml concurrently.
// The miss path miss→execute→register/store is made safe against
// concurrent updates by the update-epoch protocol: Execute() snapshots the
// statement's dependency epochs before reading the database, and the
// result is stored through a guarded Put that re-validates the snapshot
// under the cache shard lock — if any dependency's epoch advanced during
// execution, the (possibly stale) result is discarded instead of cached
// and counted in QueryEngineStats::stale_discards. Data access is guarded
// by each Table's cooperative reader-writer lock: Execute holds read locks
// for the duration of the scan, ExecuteDml holds the target table's write
// lock for the whole statement (so invalidations complete before the DML
// call returns). The full protocol, the locking hierarchy and the race
// diagram live in docs/CONCURRENCY.md.
//
// Known limit: refresh_on_invalidate re-executes affected statements on
// the updating thread (which already holds the table write lock); with
// multiple concurrent writer threads, refreshed results of multi-table
// queries may read tables another writer is mutating. Run refresh mode
// with a single writer, as the benchmarks do.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "cache/gps_cache.h"
#include "cache/semantic_index.h"
#include "dup/engine.h"
#include "dup/epochs.h"
#include "middleware/metrics.h"
#include "middleware/result_value.h"
#include "sql/binder.h"
#include "sql/dml.h"
#include "sql/evaluator.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace qc::middleware {

/// Engine counters. Fields are atomics so concurrent Execute() calls
/// update them without locks; the copy returned by
/// CachedQueryEngine::stats() is a relaxed snapshot (counters are read
/// independently, not as one instantaneous cut).
struct QueryEngineStats {
  std::atomic<uint64_t> executions{0};      // Execute() calls
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> db_executions{0};   // misses that went to the database
  std::atomic<uint64_t> uncacheable{0};     // results too large to cache
  std::atomic<uint64_t> stale_discards{0};  // results dropped by the epoch guard
  std::atomic<uint64_t> seq_admit_rejects{0};  // fills refused by the CDC sequence
                                               // gate (cache nodes; docs/CLUSTER.md)
  std::atomic<uint64_t> remote_fills{0};    // misses answered by Options::remote_fetch
  std::atomic<uint64_t> refresh_executions{0};  // eager re-executions (refresh_on_invalidate)

  // Warm-restart accounting (cache.recover_on_open; docs/PERSISTENCE.md):
  // recovered disk entries re-registered with full annotations from their
  // durable tag, re-registered conservatively from the fingerprint's SQL
  // skeleton, or dropped because neither could be rebuilt.
  std::atomic<uint64_t> recovered_registrations{0};
  std::atomic<uint64_t> recovered_conservative{0};
  std::atomic<uint64_t> recovered_dropped{0};

  QueryEngineStats() = default;
  QueryEngineStats(const QueryEngineStats& other) { *this = other; }
  QueryEngineStats& operator=(const QueryEngineStats& other);

  double HitRate() const {
    const uint64_t n = executions.load(std::memory_order_relaxed);
    return n == 0 ? 0.0
                  : static_cast<double>(cache_hits.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }
};

class CachedQueryEngine {
 public:
  /// A miss answered by Options::remote_fetch: the result plus the CDC
  /// stream sequence the upstream read observed (loaded on the storage
  /// node *before* its table read locks, so the result reflects every
  /// update with seq <= observed_seq).
  struct RemoteFill {
    sql::ResultPtr result;
    uint64_t observed_seq = 0;
  };

  struct Options {
    dup::InvalidationPolicy policy = dup::InvalidationPolicy::kValueAware;
    dup::ExtractionOptions extraction;
    cache::GpsCacheConfig cache;

    /// Weighted-DUP staleness budget per cached result (see
    /// dup::DupEngine::Options::obsolescence_threshold). Non-zero values
    /// intentionally serve bounded-stale results.
    double obsolescence_threshold = 0.0;

    /// Applied to every cached result; nullopt = no expiration.
    std::optional<cache::Duration> default_ttl;

    /// When false, query results are executed but never cached — the
    /// "no cache" baseline.
    bool caching_enabled = true;

    /// When false, the engine does NOT subscribe to the database's update
    /// events; the owner must feed dup_engine().OnUpdate() itself. Used by
    /// the cluster layer, where remote nodes receive invalidation traffic
    /// over a (simulated) network rather than synchronously.
    bool subscribe_to_database = true;

    /// Record per-execution latency histograms, split hit vs. miss, plus
    /// a per-update-batch invalidation histogram on the write path (adds
    /// two clock reads per Execute / per batch).
    bool collect_latency_metrics = false;

    /// Paper Fig. 7 step 10 "result discard/update cache": when true,
    /// affected cached results are re-executed and re-stored in place of
    /// being invalidated, keeping the cache warm at the cost of eager
    /// refresh executions on the update path.
    bool refresh_on_invalidate = false;

    /// Cache-node mode (docs/CLUSTER.md): when set, misses are answered by
    /// this hook — typically a QCP/1 QUERY_SEQ round-trip to the storage
    /// node — instead of executing against the local database, and no
    /// local table locks are taken. The returned observed_seq feeds the
    /// sequence-gate admission check below. Combine with
    /// subscribe_to_database = false (invalidations arrive over the CDC
    /// stream, not from the local database).
    std::function<RemoteFill(const sql::BoundQuery&, const std::vector<Value>&)> remote_fetch;

    /// The node's CDC sequence gate (shared with the stream applier). When
    /// set, the guarded Put additionally refuses any fill whose
    /// observed_seq is behind the gate's applied sequence — the fill's
    /// data may predate an invalidation that has already run. Counted in
    /// QueryEngineStats::seq_admit_rejects and cache seq_admit_rejects.
    std::shared_ptr<dup::CdcSequenceGate> seq_gate;

    /// Local-execution counterpart of RemoteFill::observed_seq: called
    /// *before* the table read locks are acquired, returns the last CDC
    /// sequence whose invalidations are fully applied locally (on the
    /// storage node itself: the last published sequence). Unset = fills
    /// observe sequence 0, which the gate refuses once any invalidation
    /// applied — the safe default for nodes that never execute locally.
    std::function<uint64_t()> observe_committed_seq;

    /// Synthetic per-miss penalty modeling a remote persistent store (the
    /// paper's rule server reached DB2 over JDBC; our tables are
    /// in-process). Applied as a busy-wait on every database execution
    /// that Execute() performs; ExecuteUncached (the test oracle) is
    /// exempt. 0 = disabled.
    std::chrono::microseconds simulated_db_latency{0};
  };

  /// The engine subscribes to `db` for update events; `db` must outlive it.
  CachedQueryEngine(storage::Database& db, Options options);

  /// Unsubscribes from the database, so engines may come and go against a
  /// long-lived database (the warm-restart pattern: one engine per process
  /// lifetime over the same store). Quiesce traffic first — destruction is
  /// not synchronized against in-flight queries or DML.
  ~CachedQueryEngine();

  /// Parse + bind once; reuse for repeated execution ("compile time").
  /// Prepared statements are cached per canonical SQL.
  std::shared_ptr<const sql::BoundQuery> Prepare(const std::string& sql);

  struct ExecuteResult {
    sql::ResultPtr result;
    bool cache_hit = false;
  };

  /// Execute a prepared statement with parameters.
  ExecuteResult Execute(const std::shared_ptr<const sql::BoundQuery>& query,
                        const std::vector<Value>& params = {});

  /// Dynamic SQL path: parse, bind, execute (still cached).
  ExecuteResult ExecuteSql(const std::string& sql, const std::vector<Value>& params = {});

  /// Execute a DML statement (INSERT / UPDATE / DELETE) under the target
  /// table's write lock. Mutations flow through the storage layer, so
  /// cached query results are invalidated by the configured DUP policy
  /// before this returns. Returns the number of affected rows.
  uint64_t ExecuteDml(const std::string& sql, const std::vector<Value>& params = {});

  /// Direct, uncached execution (used by tests to cross-check). Takes the
  /// same table read locks as Execute.
  sql::ResultSet ExecuteUncached(const sql::BoundQuery& query,
                                 const std::vector<Value>& params = {}) const;

  QueryEngineStats stats() const { return stats_; }
  cache::CacheStats cache_stats() const {
    cache::CacheStats s = cache_->stats();
    if (semantic_) semantic_->FoldInto(s);
    return s;
  }
  dup::DupStats dup_stats() const { return dup_->stats(); }
  const QueryLatencyMetrics& latency_metrics() const { return latency_; }

  cache::GpsCache& cache() { return *cache_; }
  dup::DupEngine& dup_engine() { return *dup_; }
  storage::Database& database() { return db_; }

 private:
  ExecuteResult ExecuteInternal(const std::shared_ptr<const sql::BoundQuery>& query,
                                const std::vector<Value>& params);

  /// Semantic tier of the lookup ladder. Called on an exact miss, under the
  /// key's miss stripe, with the dependency snapshot already taken. Returns
  /// the answer served from a cached superset, or nullptr to fall through
  /// to the database miss path.
  sql::ResultPtr TrySemanticServe(const std::string& key,
                                  const std::shared_ptr<const sql::BoundQuery>& query,
                                  const std::vector<Value>& params,
                                  const dup::UpdateEpochs::Snapshot& snapshot);

  /// The CDC sequence a locally-executed miss observes: the configured
  /// observe_committed_seq hook, or 0 when unset. Must be called *before*
  /// the table read locks are acquired (the sequence-gate soundness rule,
  /// docs/CLUSTER.md).
  uint64_t ObserveCommittedSeq() const {
    return options_.observe_committed_seq ? options_.observe_committed_seq() : 0;
  }

  /// Shared tail of the miss and semantic-hit paths: ODG registration, the
  /// epoch-guarded Put (with durable tag in disk/hybrid modes), failure
  /// cleanup and accounting, and — on a successful store — registration as
  /// a semantic source. `observed_seq` is the CDC sequence the result's
  /// read observed (RemoteFill::observed_seq / ObserveCommittedSeq); when
  /// Options::seq_gate is set, admission additionally requires
  /// gate.Admits(observed_seq), re-checked under the shard lock like the
  /// epoch snapshot. Returns whether the entry was stored.
  bool StoreResult(const std::string& key, const std::shared_ptr<const sql::BoundQuery>& query,
                   const std::vector<Value>& params, const sql::ResultPtr& result,
                   const dup::UpdateEpochs::Snapshot& snapshot, uint64_t observed_seq);

  /// Warm restart (constructor only): rebuild the ODG registration of one
  /// disk entry recovered by the GPS cache. Prefers the durable tag
  /// (canonical SQL + typed parameters → full RegisterQuery); falls back to
  /// conservative registration from the fingerprint's SQL skeleton; drops
  /// the entry when neither parses/binds (e.g. the table no longer exists)
  /// so nothing cached escapes DUP invalidation.
  void RegisterRecovered(const cache::GpsCache::RecoveredEntry& entry);

  /// Shared locks on every distinct table the statement reads, acquired in
  /// address order (deadlock-free against other readers and one-table
  /// writers).
  std::vector<std::shared_lock<std::shared_mutex>> LockTablesShared(
      const sql::BoundQuery& query) const;

  void SimulatedDbWait() const;

  storage::Database& db_;
  Options options_;
  std::unique_ptr<cache::GpsCache> cache_;
  std::unique_ptr<dup::DupEngine> dup_;
  std::unique_ptr<cache::SemanticIndex> semantic_;  // null when disabled
  storage::Database::BatchSubscription subscription_;

  /// Misses for the same fingerprint are serialized by a striped mutex.
  /// Two unserialized misses for one key can interleave their
  /// register/store/unregister steps so that the loser's cleanup tears
  /// down the winner's ODG registration, leaving a valid cached entry that
  /// no future update can invalidate. The stripe also coalesces redundant
  /// executions of a hot missed key (stampede protection): the second miss
  /// re-checks the cache under the stripe and usually turns into a hit.
  static constexpr size_t kMissStripes = 64;
  mutable std::array<std::mutex, kMissStripes> miss_mutexes_;

  /// Source of the owner tags that tie each fill's DUP registration to its
  /// cache entry, so a removal notification that arrives after the key
  /// was filled again leaves the refill registered (StoreResult).
  std::atomic<uint64_t> next_owner_{0};

  mutable std::mutex prepared_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const sql::BoundQuery>> prepared_;
  QueryEngineStats stats_;
  QueryLatencyMetrics latency_;
};

}  // namespace qc::middleware
