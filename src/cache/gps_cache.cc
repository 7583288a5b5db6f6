#include "cache/gps_cache.h"

#include <algorithm>
#include <mutex>

#include "common/error.h"

namespace qc::cache {

const char* RemovalCauseName(RemovalCause cause) {
  switch (cause) {
    case RemovalCause::kInvalidated: return "invalidated";
    case RemovalCause::kEvicted: return "evicted";
    case RemovalCause::kExpired: return "expired";
    case RemovalCause::kCleared: return "cleared";
    case RemovalCause::kReplaced: return "replaced";
  }
  return "?";
}

GpsCache::GpsCache(GpsCacheConfig config) : config_(std::move(config)) {
  now_ = config_.now ? config_.now : [] { return std::chrono::steady_clock::now(); };
  wall_now_ = config_.wall_now_micros ? config_.wall_now_micros : [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  };

  if (!config_.log_path.empty()) {
    log_ = std::make_unique<TransactionLog>(config_.log_path, config_.log_policy,
                                            config_.log_buffer_bytes);
  }

  const size_t n = std::max<size_t>(1, config_.shards);
  if (config_.mode != CacheMode::kMemory) {
    if (config_.disk_directory.empty()) {
      throw CacheError("disk/hybrid mode requires disk_directory");
    }
    if (!config_.deserializer) {
      throw CacheError("disk/hybrid mode requires a deserializer");
    }
  }

  // Budgets are totals; each shard gets an even split.
  const size_t mem_bytes = config_.memory_budget_bytes / n;
  const size_t mem_entries =
      config_.memory_max_entries == SIZE_MAX ? SIZE_MAX : config_.memory_max_entries / n;
  const size_t disk_bytes = config_.disk_budget_bytes / n;

  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    if (config_.mode != CacheMode::kDisk) {
      shard->memory = std::make_unique<MemoryStore>(mem_bytes, mem_entries, config_.eviction);
    }
    if (config_.mode != CacheMode::kMemory) {
      // One spool subdirectory per shard (the single-shard layout is kept
      // flat for compatibility with existing spools/tests).
      const std::string dir = n == 1 ? config_.disk_directory
                                     : config_.disk_directory + "/shard" + std::to_string(i);
      shard->disk = std::make_unique<DiskStore>(dir, disk_bytes, config_.recover_on_open);
    }
    shards_.push_back(std::move(shard));
  }
  if (config_.recover_on_open) {
    for (auto& shard : shards_) {
      if (shard->disk) AdoptRecovered(*shard);
    }
  }
}

GpsCache::Shard& GpsCache::ShardFor(const std::string& key) {
  if (shards_.size() == 1) return *shards_[0];
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

int64_t GpsCache::WallExpiry(int64_t deadline_ns) const {
  if (deadline_ns == kNoDeadlineNs) return kNoExpiry;
  const int64_t remaining_micros = (deadline_ns - NowNs()) / 1000;
  return WallNowMicros() + remaining_micros;
}

void GpsCache::AdoptRecovered(Shard& shard) {
  const int64_t wall_now = WallNowMicros();
  for (const DiskStore::Recovered& rec : shard.disk->recovered()) {
    // A key can only be served from the shard it hashes to; a spool
    // reopened with a different shard count strands entries in the wrong
    // subdirectory — discard those rather than leak them.
    if (&ShardFor(rec.key) != &shard) {
      shard.disk->Erase(rec.key);
      continue;
    }
    if (rec.expires_at_micros != kNoExpiry && rec.expires_at_micros <= wall_now) {
      shard.disk->Erase(rec.key);
      ++shard.stats.expirations;
      continue;
    }
    Meta& meta = shard.meta[rec.key];
    meta.generation = ++shard.generation_counter;
    meta.durable_tag = rec.durable_tag;
    if (rec.expires_at_micros != kNoExpiry) {
      const TimePoint deadline =
          now_() + std::chrono::microseconds(rec.expires_at_micros - wall_now);
      meta.expires_at_ns.store(ToNs(deadline), std::memory_order_relaxed);
      shard.expiry_heap.push({deadline, rec.key, meta.generation});
    }
    ++shard.stats.recovered;
    recovered_entries_.push_back({rec.key, rec.durable_tag});
  }
  Log("recover", "*",
      "restored=" + std::to_string(shard.stats.recovered) +
          " quarantined=" + std::to_string(shard.disk->quarantined()));
}

void GpsCache::Log(std::string_view op, std::string_view key, std::string_view detail) {
  if (log_) log_->Append(op, key, detail);
}

bool GpsCache::Put(const std::string& key, CacheValuePtr value, std::optional<Duration> ttl) {
  return Put(key, std::move(value), ttl, AdmitGuard());
}

bool GpsCache::Put(const std::string& key, CacheValuePtr value, std::optional<Duration> ttl,
                   const AdmitGuard& admit, std::string durable_tag) {
  if (!admit) {
    return Put(key, std::move(value), ttl, AdmitDecider(), std::move(durable_tag));
  }
  return Put(
      key, std::move(value), ttl,
      AdmitDecider([&admit] {
        return admit() ? AdmitDecision::kAdmit : AdmitDecision::kRejectStale;
      }),
      std::move(durable_tag));
}

bool GpsCache::Put(const std::string& key, CacheValuePtr value, std::optional<Duration> ttl,
                   const AdmitDecider& admit, std::string durable_tag, uint64_t owner) {
  Shard& shard = ShardFor(key);
  Removals removed;
  bool stored = false;
  bool replaced = false;
  bool admitted = true;
  AdmitDecision decision = AdmitDecision::kAdmit;
  {
    std::lock_guard<std::shared_mutex> lock(shard.mutex);
    ExpireDueLocked(shard, removed);

    // Admission check under the exclusive shard lock: the caller's
    // validation (e.g. the DUP epoch snapshot and the CDC sequence gate)
    // and the store are one atomic step relative to Invalidate() on the
    // same key, and no shared-lock reader can observe the entry until this
    // section completes.
    if (admit && (decision = admit()) != AdmitDecision::kAdmit) {
      admitted = false;
      ++shard.stats.admit_rejects;
      if (decision == AdmitDecision::kRejectSequence) ++shard.stats.seq_admit_rejects;
    } else {
      auto meta_it = shard.meta.find(key);
      const bool replacing = meta_it != shard.meta.end();

      if (shard.memory) {
        std::vector<MemoryStore::Evicted> evicted;
        stored = shard.memory->Put(key, value, &evicted);
        if (stored && config_.mode == CacheMode::kHybrid) {
          // The memory copy is authoritative now; a stale disk copy must not
          // be served after a future memory eviction of a *newer* version.
          shard.disk->Erase(key);
        }
        HandleMemoryEvictions(shard, evicted, removed);
      } else {
        DiskStore::SpillMeta spill;
        spill.durable_tag = durable_tag;
        if (ttl) {
          spill.expires_at_micros =
              WallNowMicros() +
              std::chrono::duration_cast<std::chrono::microseconds>(*ttl).count();
        }
        std::vector<std::string> disk_victims;
        stored = shard.disk->Put(key, value->Serialize(), spill, &disk_victims);
        for (const std::string& victim : disk_victims) EvictedLocked(shard, victim, removed);
      }

      if (stored) {
        ++shard.stats.puts;
        Meta& meta = shard.meta[key];
        meta.generation = ++shard.generation_counter;
        meta.durable_tag = std::move(durable_tag);
        if (owner != 0) meta.owner = owner;
        if (ttl) {
          const TimePoint deadline = now_() + *ttl;
          meta.expires_at_ns.store(ToNs(deadline), std::memory_order_relaxed);
          shard.expiry_heap.push({deadline, key, meta.generation});
        } else {
          meta.expires_at_ns.store(kNoDeadlineNs, std::memory_order_relaxed);
        }
        // Replacing a key is not a removal of the key (the listener keeps any
        // dependency registration for it); kReplaced is reported in the log
        // only.
        replaced = replacing;
      }
    }
  }
  Log("put", key,
      !admitted ? (decision == AdmitDecision::kRejectSequence ? "seq-stale" : "stale")
                : stored ? (replaced ? "replace" : "")
                         : "rejected");
  NotifyRemovals(removed);
  return stored;
}

CacheValuePtr GpsCache::Get(const std::string& key) {
  Shard& shard = ShardFor(key);
  if (config_.eviction == EvictionPolicy::kClock) {
    // Lock-light fast path (docs/CONCURRENCY.md): memory hits and clean
    // misses are resolved under the *shared* shard lock — a hit only sets
    // the entry's atomic reference bit and loads its atomic expiry
    // deadline. A reader that needs to mutate anything (disk read + hybrid
    // promotion, metadata repair) falls through to the exclusive path.
    enum class Fast { kHit, kMiss, kLazyExpired, kFallThrough };
    Fast outcome = Fast::kFallThrough;
    CacheValuePtr result;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      auto meta_it = shard.meta.find(key);
      if (meta_it == shard.meta.end()) {
        outcome = Fast::kMiss;
      } else if (DeadlinePassed(meta_it->second)) {
        // Served-as-miss; the entry stays resident until the next writer's
        // ExpireDueLocked sweep reaps it (lazy expiry).
        outcome = Fast::kLazyExpired;
      } else if (shard.memory && (result = shard.memory->Get(key)) != nullptr) {
        outcome = Fast::kHit;
      }
    }
    if (outcome != Fast::kFallThrough) {
      // Counters and logging happen outside the lock; the stripes are
      // relaxed atomics, so no lock is needed at all.
      HitPathStripe& stripe = shard.hit_counters.Local();
      if (outcome == Fast::kHit) {
        stripe.RecordHit(/*memory_hit=*/true);
      } else {
        stripe.RecordMiss(/*lazy_expired=*/outcome == Fast::kLazyExpired);
      }
      Log(outcome == Fast::kHit ? "hit" : "miss", key);
      return result;
    }
  }
  return GetExclusive(key, shard);
}

CacheValuePtr GpsCache::GetExclusive(const std::string& key, Shard& shard) {
  Removals removed;
  CacheValuePtr result;
  bool memory_hit = false;
  {
    std::lock_guard<std::shared_mutex> lock(shard.mutex);
    ExpireDueLocked(shard, removed);

    auto meta_it = shard.meta.find(key);
    if (meta_it != shard.meta.end() && DeadlinePassed(meta_it->second)) {
      RemoveLocked(shard, key, RemovalCause::kExpired, removed);
      ++shard.stats.expirations;
      meta_it = shard.meta.end();
    } else if (meta_it != shard.meta.end()) {
      if (shard.memory) {
        result = shard.memory->Get(key);
        memory_hit = result != nullptr;
      }
      if (!result && shard.disk) {
        std::string bytes;
        if (shard.disk->Read(key, &bytes) == DiskStore::ReadStatus::kHit) {
          // The CRC already checked out, but the deserializer is the last
          // line of defense (e.g. a value written by a buggy serializer):
          // a throw here must cost one miss, never the serving thread.
          try {
            result = config_.deserializer(bytes);
          } catch (const std::exception&) {
            result = nullptr;
            shard.disk->QuarantineEntry(key);
          }
        }
        if (result) {
          ++shard.stats.disk_hits;
          if (config_.mode == CacheMode::kHybrid) {
            // Promote to memory; spill victims back to disk.
            std::vector<MemoryStore::Evicted> evicted;
            if (shard.memory->Put(key, result, &evicted)) shard.disk->Erase(key);
            HandleMemoryEvictions(shard, evicted, removed);
          }
        }
      }
    }

    if (!result && shard.meta.count(key)) {
      // Metadata without data (fully evicted under us) — clean up.
      RemoveLocked(shard, key, RemovalCause::kEvicted, removed);
    }
  }
  // Per-hit counters go to the striped atomics even on the exclusive path,
  // so every lookup is counted exactly once in exactly one place.
  HitPathStripe& stripe = shard.hit_counters.Local();
  if (result) {
    stripe.RecordHit(memory_hit);
  } else {
    stripe.RecordMiss();
  }
  Log(result ? "hit" : "miss", key);
  NotifyRemovals(removed);
  return result;
}

bool GpsCache::Contains(const std::string& key) {
  Shard& shard = ShardFor(key);
  // Shared lock under either policy: Contains only reads the meta map and
  // the stores' const indexes (no recency side effects to serialize).
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.meta.find(key);
  if (it == shard.meta.end()) return false;
  if (DeadlinePassed(it->second)) return false;
  return (shard.memory && shard.memory->Contains(key)) ||
         (shard.disk && shard.disk->Contains(key));
}

bool GpsCache::Invalidate(const std::string& key) {
  Shard& shard = ShardFor(key);
  Removals removed;
  bool present;
  {
    std::lock_guard<std::shared_mutex> lock(shard.mutex);
    ++shard.stats.invalidate_shard_locks;
    present = RemoveLocked(shard, key, RemovalCause::kInvalidated, removed);
    if (present) ++shard.stats.invalidations;
  }
  Log("invalidate", key, present ? "" : "absent");
  NotifyRemovals(removed);
  return present;
}

size_t GpsCache::InvalidateBatch(const std::vector<std::string>& keys) {
  if (keys.empty()) return 0;
  // Group keys by owning shard so each shard's mutex is taken once.
  std::vector<std::vector<const std::string*>> by_shard(shards_.size());
  for (const std::string& key : keys) {
    const size_t shard =
        shards_.size() == 1 ? 0 : std::hash<std::string>{}(key) % shards_.size();
    by_shard[shard].push_back(&key);
  }
  Removals removed;
  size_t present = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (by_shard[i].empty()) continue;
    Shard& shard = *shards_[i];
    std::lock_guard<std::shared_mutex> lock(shard.mutex);
    ++shard.stats.invalidate_shard_locks;
    for (const std::string* key : by_shard[i]) {
      if (RemoveLocked(shard, *key, RemovalCause::kInvalidated, removed)) {
        ++shard.stats.invalidations;
        ++present;
      }
    }
  }
  if (log_) {
    for (const std::string& key : keys) Log("invalidate", key, "");
  }
  NotifyRemovals(removed);
  return present;
}

void GpsCache::Clear() {
  Removals removed;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::shared_mutex> lock(shard.mutex);
    for (const auto& [key, meta] : shard.meta) {
      removed.push_back({key, RemovalCause::kCleared, meta.owner});
    }
    if (shard.memory) shard.memory->Clear();
    if (shard.disk) shard.disk->Clear();
    shard.meta.clear();
    while (!shard.expiry_heap.empty()) shard.expiry_heap.pop();
    // One logical clear; counted once (stats() sums the shards).
    if (i == 0) ++shard.stats.clears;
  }
  Log("clear", "*");
  NotifyRemovals(removed);
}

size_t GpsCache::ExpireDue() {
  Removals removed;
  size_t n = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::shared_mutex> lock(shard->mutex);
    n += ExpireDueLocked(*shard, removed);
  }
  NotifyRemovals(removed);
  return n;
}

void GpsCache::SetRemovalListener(RemovalListener listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  removal_listener_ = std::move(listener);
}

CacheStats GpsCache::ShardStatsLocked(const Shard& shard) const {
  CacheStats s = shard.stats;
  shard.hit_counters.FoldInto(s);
  if (shard.disk) {
    // The disk tier is the single source of truth for its own failure
    // counters; folded in at snapshot time.
    s.disk_errors += shard.disk->io_errors();
    s.quarantined += shard.disk->quarantined();
  }
  return s;
}

CacheStats GpsCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    // Shared suffices: shard.stats is only written under the exclusive
    // lock, and the hit stripes are atomics.
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += ShardStatsLocked(*shard);
  }
  return total;
}

CacheStats GpsCache::shard_stats(size_t shard) const {
  const Shard& s = *shards_.at(shard);
  std::shared_lock<std::shared_mutex> lock(s.mutex);
  return ShardStatsLocked(s);
}

size_t GpsCache::shard_entry_count(size_t shard) const {
  const Shard& s = *shards_.at(shard);
  std::shared_lock<std::shared_mutex> lock(s.mutex);
  return s.meta.size();
}

size_t GpsCache::entry_count() {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->meta.size();
  }
  return total;
}

size_t GpsCache::memory_bytes() {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    if (shard->memory) total += shard->memory->byte_count();
  }
  return total;
}

size_t GpsCache::disk_bytes() {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    if (shard->disk) total += shard->disk->byte_count();
  }
  return total;
}

void GpsCache::FlushLog() {
  if (log_) log_->Flush();
}

bool GpsCache::RemoveLocked(Shard& shard, const std::string& key, RemovalCause cause,
                            Removals& removed) {
  bool present = false;
  if (shard.memory && shard.memory->Erase(key)) present = true;
  if (shard.disk && shard.disk->Erase(key)) present = true;
  uint64_t owner = 0;
  if (auto it = shard.meta.find(key); it != shard.meta.end()) {
    owner = it->second.owner;
    shard.meta.erase(it);
    present = true;
  }
  if (present) removed.push_back({key, cause, owner});
  return present;
}

void GpsCache::EvictedLocked(Shard& shard, const std::string& key, Removals& removed) {
  uint64_t owner = 0;
  if (auto it = shard.meta.find(key); it != shard.meta.end()) {
    owner = it->second.owner;
    shard.meta.erase(it);
  }
  removed.push_back({key, RemovalCause::kEvicted, owner});
  ++shard.stats.evictions;
}

size_t GpsCache::ExpireDueLocked(Shard& shard, Removals& removed) {
  const TimePoint now = now_();
  size_t expired = 0;
  while (!shard.expiry_heap.empty() && shard.expiry_heap.top().when <= now) {
    const ExpiryItem item = shard.expiry_heap.top();
    shard.expiry_heap.pop();
    auto it = shard.meta.find(item.key);
    // Stale heap entries (replaced or already-removed objects) are skipped;
    // this lazy deletion is what makes expiration O(log n) per event.
    if (it == shard.meta.end() || it->second.generation != item.generation) continue;
    RemoveLocked(shard, item.key, RemovalCause::kExpired, removed);
    ++shard.stats.expirations;
    ++expired;
  }
  return expired;
}

void GpsCache::HandleMemoryEvictions(Shard& shard, std::vector<MemoryStore::Evicted>& evicted,
                                     Removals& removed) {
  for (MemoryStore::Evicted& victim : evicted) {
    if (config_.mode == CacheMode::kHybrid) {
      // Spill with the victim's persisted metadata: its durable tag and
      // (wall-clock) expiration ride along so a recovery after restart
      // sees the same entry the memory tier held.
      DiskStore::SpillMeta spill;
      if (auto meta_it = shard.meta.find(victim.key); meta_it != shard.meta.end()) {
        spill.durable_tag = meta_it->second.durable_tag;
        spill.expires_at_micros =
            WallExpiry(meta_it->second.expires_at_ns.load(std::memory_order_relaxed));
      }
      std::vector<std::string> disk_victims;
      if (shard.disk->Put(victim.key, victim.value->Serialize(), spill, &disk_victims)) {
        ++shard.stats.spills;
      } else {
        EvictedLocked(shard, victim.key, removed);
      }
      for (const std::string& disk_victim : disk_victims) {
        EvictedLocked(shard, disk_victim, removed);
      }
    } else {
      EvictedLocked(shard, victim.key, removed);
    }
  }
  evicted.clear();
}

void GpsCache::NotifyRemovals(const Removals& removed) {
  if (removed.empty()) return;
  RemovalListener listener;
  {
    std::lock_guard<std::mutex> lock(listener_mutex_);
    listener = removal_listener_;
  }
  if (!listener) return;
  for (const Removal& removal : removed) listener(removal.key, removal.cause, removal.owner);
}

}  // namespace qc::cache
