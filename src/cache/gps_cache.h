// The General-Purpose Software cache (GPS cache) of paper §3.
//
// A pluggable, thread-safe object cache with
//   * memory, disk, or hybrid (memory + disk spill) storage,
//   * an optionally crash-safe disk tier: with recover_on_open, spill
//     files are self-describing (CRC-verified) and are re-indexed on
//     construction instead of wiped, so the cache survives restarts and
//     corrupt files degrade to counted misses (docs/PERSISTENCE.md),
//   * rw-lock-striped shards (keyed by fingerprint hash) with a choice of
//     replacement policy per GpsCacheConfig::eviction: CLOCK/second-chance
//     (the default — hits run under a *shared* shard lock and only set an
//     atomic reference bit) or exact LRU (hits splice a list under the
//     exclusive lock), each under byte/entry budgets,
//   * an efficient expiration-time mechanism (lazy min-heap, per shard;
//     under CLOCK, expired entries are served-as-miss from the shared-lock
//     path and reaped by the next writer),
//   * optional transaction logging with configurable flush policy,
//   * statistics (per shard: writer counters under the shard lock, per-hit
//     counters on striped relaxed atomics; aggregated on read),
//   * a removal listener so higher layers (the DUP engine) can keep the
//     ODG in sync with what is actually cached, and
//   * an admission guard on Put, evaluated under the exclusive shard lock,
//     which the middleware uses for epoch-validated registration
//     (dup/epochs.h).
//
// @thread_safety GpsCache is internally synchronized; every public method
// may be called from any thread. Each key hashes to one shard with its own
// shared_mutex: Get/Contains acquire it shared where the eviction policy
// allows (kClock memory hits, all clean misses), while fills, evictions,
// invalidations, disk reads/promotions and expiry reaping acquire it
// exclusive (docs/CONCURRENCY.md, "Lock-light hit path"). The removal
// listener and the Put admission guard are invoked with specific locking
// guarantees — see their declarations. With shards > 1, replacement order
// and budgets are per shard (total budgets are split evenly), so global
// eviction order is only approximate; shards = 1 (the default) preserves a
// single replacement domain.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/disk_store.h"
#include "cache/memory_store.h"
#include "cache/stats.h"
#include "cache/txlog.h"
#include "cache/value.h"

namespace qc::cache {

using TimePoint = std::chrono::steady_clock::time_point;
using Duration = std::chrono::steady_clock::duration;
using TimeSource = std::function<TimePoint()>;

enum class CacheMode { kMemory, kDisk, kHybrid };

enum class RemovalCause {
  kInvalidated,  // explicit Invalidate()
  kEvicted,      // budget pressure removed it from every level
  kExpired,      // expiration time passed
  kCleared,      // whole-cache Clear()
  kReplaced,     // Put() over an existing key
};

const char* RemovalCauseName(RemovalCause cause);

struct GpsCacheConfig {
  CacheMode mode = CacheMode::kMemory;

  /// Crash-safe disk tier (docs/PERSISTENCE.md). When true (kDisk/kHybrid
  /// modes), the spool directory is scanned on construction instead of
  /// wiped: spill files that pass their CRC are re-indexed (already-expired
  /// ones dropped, corrupt ones quarantined and counted, never thrown) and
  /// the spool outlives this instance, so cached entries survive process
  /// restarts — including unclean ones. Recovered entries are listed in
  /// recovered_entries() so the middleware can re-register their DUP
  /// dependencies. Reopening requires the same shard count (keys hash to
  /// per-shard spool subdirectories); entries found in the wrong shard's
  /// spool are discarded.
  bool recover_on_open = false;

  /// Number of independently locked shards. 1 (the default) keeps a single
  /// replacement domain; higher values reduce lock contention under
  /// concurrent load at the cost of per-shard (approximate) replacement
  /// and budget split. Byte/entry budgets below are totals, divided evenly
  /// across shards.
  size_t shards = 1;

  /// Replacement policy — and, with it, the read-path locking discipline.
  /// kClock (the default) serves memory hits under a *shared* shard lock
  /// (a hit sets an atomic reference bit and loads an atomic expiry
  /// deadline; eviction sweeps a clock hand on Put/budget pressure under
  /// the exclusive lock). kLru restores exact LRU: every Get splices the
  /// recency list and therefore takes the exclusive lock, serializing hits
  /// with fills and invalidations — keep it for differential tests and
  /// workloads that need exact recency.
  EvictionPolicy eviction = EvictionPolicy::kClock;

  size_t memory_budget_bytes = 256 * 1024 * 1024;
  size_t memory_max_entries = SIZE_MAX;

  std::string disk_directory;  // required for kDisk/kHybrid
  size_t disk_budget_bytes = 1024 * 1024 * 1024;
  Deserializer deserializer;   // required for kDisk/kHybrid

  std::string log_path;  // empty = logging disabled
  LogFlushPolicy log_policy = LogFlushPolicy::kBuffered;
  size_t log_buffer_bytes = 64 * 1024;

  /// Enable the containment-aware semantic lookup tier (docs/SEMANTIC.md):
  /// on an exact-fingerprint miss, the middleware engine probes a
  /// per-table containment index for a cached *superset* result and, when
  /// one subsumes the incoming predicate, answers by filtering the cached
  /// rows instead of scanning the base table. Consumed by
  /// middleware::CachedQueryEngine — the cache itself only ever stores and
  /// serves exact fingerprints. Disable for exact-only baselines.
  bool semantic_lookup = true;

  /// Injectable clock (tests freeze it). Defaults to steady_clock::now.
  TimeSource now;

  /// Injectable wall clock, microseconds since the Unix epoch; spill files
  /// persist absolute expiration through it so TTLs survive restarts.
  /// Defaults to system_clock. Tests overriding `now` should override this
  /// coherently.
  std::function<int64_t()> wall_now_micros;
};

class GpsCache {
 public:
  explicit GpsCache(GpsCacheConfig config);

  GpsCache(const GpsCache&) = delete;
  GpsCache& operator=(const GpsCache&) = delete;

  /// Admission guard for the four-argument Put overload. Evaluated under
  /// the owning shard's exclusive lock, atomically with the store becoming
  /// visible: any Invalidate() of the same key serializes entirely before
  /// or after the {guard, store} pair, and shared-lock readers can only
  /// observe the entry after the exclusive section completes. The guard
  /// must be cheap and lock-free — it must not call back into this cache
  /// or acquire the DUP engine lock (UpdateEpochs::Snapshot::Current()
  /// qualifies).
  using AdmitGuard = std::function<bool()>;

  /// Add or replace an object, optionally with a time-to-live after which
  /// it expires. Returns false if the object cannot fit at all.
  bool Put(const std::string& key, CacheValuePtr value,
           std::optional<Duration> ttl = std::nullopt);

  /// Guarded Put: `admit` is evaluated under the exclusive shard lock
  /// immediately before the store; when it returns false the value is not
  /// stored (and the rejection is counted as CacheStats::admit_rejects).
  /// This is the publication step of the epoch-validation protocol
  /// (docs/CONCURRENCY.md).
  ///
  /// `durable_tag` is an opaque annotation persisted with the entry in
  /// disk/hybrid modes (it rides along on spills and recovery); the
  /// middleware stores the statement's canonical SQL + parameters so DUP
  /// registration can be rebuilt after a restart (docs/PERSISTENCE.md).
  bool Put(const std::string& key, CacheValuePtr value, std::optional<Duration> ttl,
           const AdmitGuard& admit, std::string durable_tag = {});

  /// Sequenced admission (docs/CLUSTER.md): the decider distinguishes *why*
  /// a fill is refused so the cache can attribute the rejection — a stale
  /// epoch snapshot (the local protocol) vs. the CDC sequence gate (a
  /// remote fill that observed a sequence older than the invalidations
  /// already applied on this node). Both reject causes count as
  /// admit_rejects; kRejectSequence additionally counts seq_admit_rejects.
  enum class AdmitDecision { kAdmit, kRejectStale, kRejectSequence };

  /// Same locking contract as AdmitGuard: evaluated under the exclusive
  /// shard lock, must be cheap and lock-free (Snapshot::Current() and
  /// CdcSequenceGate::Admits() both qualify).
  using AdmitDecider = std::function<AdmitDecision()>;

  /// Guarded Put with reject-cause attribution; otherwise identical to the
  /// AdmitGuard overload. A non-zero `owner` tags the stored entry and is
  /// handed back to the removal listener when the entry leaves, so the
  /// owner of a key's *current* entry can tell a late notification about
  /// an earlier entry apart from its own removal. `owner` 0 keeps the tag
  /// a replaced entry had (0 for a new key).
  bool Put(const std::string& key, CacheValuePtr value, std::optional<Duration> ttl,
           const AdmitDecider& admit, std::string durable_tag, uint64_t owner = 0);

  /// Lookup. Expired entries count as misses. Under kClock, a memory hit
  /// (and any clean miss) is served under the *shared* shard lock — an
  /// expired entry is served-as-miss lazily and left for the next writer's
  /// sweep to reap; disk hits, promotions and metadata repair upgrade to
  /// the exclusive lock. Under kLru the historical semantics hold: the
  /// exclusive lock, eager expiry removal, LRU refresh. In hybrid mode a
  /// disk hit is promoted back into memory.
  CacheValuePtr Get(const std::string& key);

  /// True without disturbing replacement order or statistics. Always runs
  /// under the shared shard lock.
  bool Contains(const std::string& key);

  /// Remove one object; returns true if it was present.
  bool Invalidate(const std::string& key);

  /// Remove many objects with one shard-lock acquisition per *touched
  /// shard* instead of one per key: keys are grouped by shard first, then
  /// each group is removed under a single exclusive lock. This is the
  /// batched invalidation path of the DUP engine (one statement → one
  /// batch). Returns how many keys were present. Removal listeners run
  /// outside all locks, after every group has been processed.
  size_t InvalidateBatch(const std::vector<std::string>& keys);

  /// Remove everything (Policy I's reaction to any update). Shards are
  /// cleared one at a time; concurrent Puts to already-cleared shards may
  /// survive (the DUP epoch guard prevents stale survivors on the
  /// middleware path).
  void Clear();

  /// Remove entries whose expiration time has passed. Called internally on
  /// every Put (for the touched shard); exposed for idle-time sweeps
  /// (sweeps every shard). Under kClock this is also what reaps entries
  /// the shared-lock read path already served-as-miss.
  size_t ExpireDue();

  /// Observer invoked whenever an object leaves the cache entirely, with
  /// the removed entry's owner tag (see Put). Called *outside* all shard
  /// locks (so it may re-enter the cache), on the thread that triggered
  /// the removal — possibly after the same key was filled again.
  using RemovalListener =
      std::function<void(const std::string& key, RemovalCause cause, uint64_t owner)>;
  void SetRemovalListener(RemovalListener listener);

  /// Aggregated over all shards (each shard snapshotted under its lock;
  /// the total is not one instantaneous cut across shards). Per-hit
  /// counters come from striped relaxed atomics — exact once the reading
  /// threads are quiescent.
  CacheStats stats() const;
  size_t entry_count();
  size_t memory_bytes();
  size_t disk_bytes();

  size_t shard_count() const { return shards_.size(); }
  CacheStats shard_stats(size_t shard) const;
  size_t shard_entry_count(size_t shard) const;

  /// Flush the transaction log buffer, if logging is enabled.
  void FlushLog();
  const TransactionLog* log() const { return log_.get(); }

  /// One disk entry restored by recover_on_open, with the durable tag its
  /// writer persisted. The value itself is served lazily through Get.
  struct RecoveredEntry {
    std::string key;
    std::string durable_tag;
  };

  /// Entries restored at construction (empty unless recover_on_open).
  /// Stable for the cache's lifetime; the entries themselves may have been
  /// invalidated or evicted since.
  const std::vector<RecoveredEntry>& recovered_entries() const { return recovered_entries_; }

 private:
  /// Sentinel deadline for "no TTL" (steady-clock nanoseconds).
  static constexpr int64_t kNoDeadlineNs = std::numeric_limits<int64_t>::max();

  struct ExpiryItem {
    TimePoint when;
    std::string key;
    uint64_t generation;
    bool operator>(const ExpiryItem& other) const { return when > other.when; }
  };

  struct Meta {
    uint64_t generation = 0;
    /// Expiry deadline in steady-clock nanoseconds (kNoDeadlineNs = no
    /// TTL). Atomic so the shared-lock read path can check freshness with
    /// one relaxed load; writers store it under the exclusive lock.
    std::atomic<int64_t> expires_at_ns{kNoDeadlineNs};
    /// Persisted with the entry on disk spills (see Put). Kept here so a
    /// memory-resident entry carries its tag to a later spill.
    std::string durable_tag;
    /// The Put caller's owner tag, reported with the entry's removal.
    uint64_t owner = 0;
  };

  /// One entry that left the cache, noted under the shard lock and
  /// reported to the removal listener after it is released.
  struct Removal {
    std::string key;
    RemovalCause cause;
    uint64_t owner;
  };
  using Removals = std::vector<Removal>;

  /// One rw-lock-striped slice of the cache: its own storage levels,
  /// expiry heap and statistics. `mutex` guards everything except the
  /// per-hit counters and the atomics noted above: shared holders may read
  /// meta/memory and bump atomics; every mutation requires exclusive.
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unique_ptr<MemoryStore> memory;
    std::unique_ptr<DiskStore> disk;
    std::unordered_map<std::string, Meta> meta;
    std::priority_queue<ExpiryItem, std::vector<ExpiryItem>, std::greater<ExpiryItem>>
        expiry_heap;
    uint64_t generation_counter = 0;
    /// Writer-side counters (puts, evictions, ...), exclusive lock only.
    CacheStats stats;
    /// Per-hit counters (lookups/hits/misses/...), striped relaxed atomics
    /// bumped without the shard lock; folded into stats() on read.
    HitPathCounters hit_counters;
  };

  Shard& ShardFor(const std::string& key);

  void Log(std::string_view op, std::string_view key, std::string_view detail = {});
  int64_t WallNowMicros() const { return wall_now_(); }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now_().time_since_epoch())
        .count();
  }
  static int64_t ToNs(TimePoint tp) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count();
  }
  bool DeadlinePassed(const Meta& meta) const {
    const int64_t deadline = meta.expires_at_ns.load(std::memory_order_relaxed);
    return deadline != kNoDeadlineNs && deadline <= NowNs();
  }
  /// Wall-clock expiration for a steady-clock deadline (kNoExpiry if none).
  int64_t WallExpiry(int64_t deadline_ns) const;
  /// Install recovered disk entries into `shard`'s metadata (constructor
  /// only; no locking needed yet).
  void AdoptRecovered(Shard& shard);
  /// The historical lookup: exclusive shard lock, eager expiry, disk read
  /// + hybrid promotion, metadata repair. The whole Get under kLru; the
  /// slow path under kClock.
  CacheValuePtr GetExclusive(const std::string& key, Shard& shard);
  // All *Locked methods require the shard's mutex held exclusively.
  CacheStats ShardStatsLocked(const Shard& shard) const;
  bool RemoveLocked(Shard& shard, const std::string& key, RemovalCause cause, Removals& removed);
  /// Drop an evicted key's metadata (its data is already gone) and note it.
  void EvictedLocked(Shard& shard, const std::string& key, Removals& removed);
  size_t ExpireDueLocked(Shard& shard, Removals& removed);
  void HandleMemoryEvictions(Shard& shard, std::vector<MemoryStore::Evicted>& evicted,
                             Removals& removed);
  void NotifyRemovals(const Removals& removed);

  GpsCacheConfig config_;
  TimeSource now_;
  std::function<int64_t()> wall_now_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RecoveredEntry> recovered_entries_;
  std::unique_ptr<TransactionLog> log_;  // internally synchronized

  mutable std::mutex listener_mutex_;
  RemovalListener removal_listener_;
};

}  // namespace qc::cache
