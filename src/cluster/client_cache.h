// Client-side caching tier (paper Fig. 1: "Although not shown in the
// figure, clients may also have caches") — rebuilt on the QCP/1 push
// channel (docs/CLUSTER.md, "Push-lease client caches").
//
// A client cache sits in a browser or fat client in front of one qcached
// node. Unlike the paper's client tier, which could only bound staleness
// with expiration times, this one SUBSCRIBEs to the node's CDC stream and
// drops local entries the moment the pushed invalidation for their tables
// arrives — no polling, staleness bounded by one CDC round-trip. The
// expiration time survives as the *lease*: while the subscription is
// healthy, entries are served regardless of age (the push channel is the
// freshness authority); if the subscription drops, entries are only served
// until their lease expires, and the client falls back to origin fetches
// until the stream reconnects. Fills use QUERY_SEQ, and the observed
// sequence is admitted against the CdcApplier's gate exactly like a cache
// node's fills (cdc_applier.h keeps the ordering argument).
//
// @thread_safety (accurate as of the CDC refactor): Execute/Dml/Refresh/
// WaitForInvalidation/stats may be called from any number of threads; the
// entry map is mutex-guarded, the origin connection is serialized on its
// own mutex, and the applier's subscription thread owns a separate
// connection.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/gps_cache.h"
#include "cluster/cdc_applier.h"
#include "middleware/query_engine.h"
#include "server/client.h"

namespace qc::cluster {

struct ClientCacheConfig {
  /// How long an entry may be served after its fetch once the push channel
  /// is down (the disconnection fallback). While subscribed, pushes — not
  /// the clock — decide freshness.
  cache::Duration lease_ttl = std::chrono::seconds(30);

  size_t max_entries = 1024;

  /// Injectable clock for lease expiry (tests); defaults to steady_clock.
  cache::TimeSource now;

  /// Subscribe to the node's CDC stream. Off = pure lease/TTL client (the
  /// paper's original client tier).
  bool enable_subscription = true;
};

struct ClientCacheStats {
  uint64_t requests = 0;
  uint64_t local_hits = 0;
  uint64_t origin_requests = 0;     // misses + lease-expired refetches
  uint64_t push_invalidations = 0;  // local entries dropped by pushed CDC records
  uint64_t lease_expiries = 0;      // entries dropped because the lease ran out
  uint64_t seq_admit_rejects = 0;   // fills refused: raced a newer push

  double LocalHitRatePercent() const {
    return requests == 0 ? 0.0
                         : 100.0 * static_cast<double>(local_hits) / static_cast<double>(requests);
  }
  double OriginOffloadPercent() const { return LocalHitRatePercent(); }
};

class ClientCache {
 public:
  /// Connects (lazily) to the qcached node at host:port. The subscription
  /// thread starts immediately when enabled.
  ClientCache(std::string host, uint16_t port, ClientCacheConfig config = {});

  /// Stops the subscription thread and closes both connections.
  ~ClientCache();

  ClientCache(const ClientCache&) = delete;
  ClientCache& operator=(const ClientCache&) = delete;

  /// Serve from the local cache, else QUERY_SEQ the origin and cache the
  /// result under the sequence-admission guard.
  middleware::CachedQueryEngine::ExecuteResult Execute(const std::string& sql,
                                                       const std::vector<Value>& params = {});

  /// Forward DML to the origin; local entries over the written table are
  /// dropped immediately (the pushed CDC record would do it a round-trip
  /// later anyway). Returns the origin's affected-row count.
  uint64_t Dml(const std::string& sql, const std::vector<Value>& params = {});

  /// Drop the local copy of one query (a client-initiated refresh).
  void Refresh(const std::string& sql, const std::vector<Value>& params = {});

  /// Block until the local copy of `sql` has been invalidated (by push,
  /// Dml, or Refresh) or was never cached. Returns false on timeout.
  /// Test/demo helper: proves the push arrived without polling Execute.
  bool WaitForInvalidation(const std::string& sql, const std::vector<Value>& params,
                           std::chrono::milliseconds timeout);

  /// True while the CDC subscription is connected (entries served on push
  /// authority rather than lease expiry).
  bool subscription_healthy() const { return applier_.subscribed(); }

  /// Highest pushed (or gap-fenced) sequence applied.
  uint64_t last_push_seq() const { return applier_.applied(); }

  ClientCacheStats stats() const;
  size_t entry_count() const;

 private:
  struct Entry {
    sql::ResultPtr result;
    std::vector<std::string> tables;  // upper-cased; matched against CDC records
    cache::TimePoint fetched_at;
    std::list<std::string>::iterator lru;
  };

  cache::TimePoint Now() const;
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it);
  /// Drop every entry over `table` (a pushed record or our own DML).
  void DropTable(const std::string& table);

  /// Run `call` on the lazily connected origin connection under
  /// origin_mutex_. A transport error leaves no usable stream state (the
  /// protocol is request-response), so close, reconnect and retry once.
  template <typename Call>
  auto WithOrigin(Call call) {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    for (int attempt = 0;; ++attempt) {
      try {
        if (!origin_.connected()) origin_.Connect(host_, port_);
        return call(origin_);
      } catch (const server::NetError&) {
        origin_.Close();
        if (attempt > 0) throw;
      }
    }
  }

  const std::string host_;
  const uint16_t port_;
  ClientCacheConfig config_;

  std::mutex origin_mutex_;
  server::QcClient origin_;

  mutable std::mutex mutex_;  // entries_ + lru_
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  std::condition_variable invalidated_cv_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> local_hits_{0};
  std::atomic<uint64_t> origin_requests_{0};
  std::atomic<uint64_t> push_invalidations_{0};
  std::atomic<uint64_t> lease_expiries_{0};
  std::atomic<uint64_t> seq_admit_rejects_{0};

  // Last member: destroyed (and its subscription thread joined) first.
  CdcApplier applier_;
};

}  // namespace qc::cluster
