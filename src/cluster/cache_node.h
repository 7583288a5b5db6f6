// CacheNodeRuntime — the glue that turns a qcached process into a member
// of a real cluster (docs/CLUSTER.md): one storage node owns the data and
// publishes a sequenced CDC invalidation stream; N cache nodes serve
// SELECTs from their own GPS caches, partitioned by consistent-hash
// fingerprint ownership, and apply the stream instead of observing a local
// database.
//
// A cache node's data paths, all wired here:
//   * misses  -> QUERY_SEQ to the storage node (engine Options::remote_fetch);
//     the reply carries the CDC sequence the upstream read observed, which
//     feeds the sequence-gate admission check (dup::CdcSequenceGate);
//   * DML     -> forwarded verbatim to the storage node (QcServer DML
//     forwarder); the resulting invalidations return on the CDC stream;
//   * SELECTs for fingerprints another cache node owns -> forwarded to the
//     owner (QcServer select router over cluster::HashRing), so each
//     result is cached on exactly one node;
//   * CDC records -> the node's CdcApplier (cdc_applier.h, which keeps the
//     gate-first ordering argument) applies each record through the DUP
//     engine, then relays it to this node's own subscribers (push-lease
//     client caches) via QcServer::PublishCdc; a resubscribe gap flushes
//     the whole cache.
//
// Forwarding topology is a DAG — client -> cache node -> owning cache
// node -> storage node — so a forward cannot cycle: a node never forwards
// a fingerprint it owns, and ownership is consistent across nodes (same
// ring member list). It can still deadlock: a forward blocks the worker
// that makes it, with no timeout, so pipelined reads into two nodes can
// leave every worker of both waiting on the other (qcbench/README.md,
// "Reads enter the ring through cache0 only"; ROADMAP item 1).
//
// @thread_safety Construct, DecorateEngineOptions, AttachServer and
// Start() must run in that order on one thread before traffic; Stop() may
// be called from any thread and must precede destruction of the engine
// and server. The upstream client and each peer client are mutex-guarded
// (QcClient itself is single-threaded); the applier's subscription thread
// owns its own connection. Counters are relaxed atomics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cdc_applier.h"
#include "cluster/ring.h"
#include "dup/epochs.h"
#include "middleware/query_engine.h"
#include "server/client.h"
#include "server/server.h"

namespace qc::cluster {

struct PeerAddress {
  std::string name;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CacheNodeConfig {
  /// This node's ring name; must be present in no peer entry.
  std::string name = "cache0";

  /// The storage node (fills, DML, CDC stream).
  std::string upstream_host = "127.0.0.1";
  uint16_t upstream_port = 0;

  /// The other cache nodes; every node must be configured with the same
  /// member set (its own name plus its peers) or ownership diverges.
  std::vector<PeerAddress> peers;

  size_t ring_vnodes = 64;
};

class CacheNodeRuntime {
 public:
  explicit CacheNodeRuntime(CacheNodeConfig config);

  /// Calls Stop().
  ~CacheNodeRuntime();

  CacheNodeRuntime(const CacheNodeRuntime&) = delete;
  CacheNodeRuntime& operator=(const CacheNodeRuntime&) = delete;

  const std::shared_ptr<dup::CdcSequenceGate>& gate() const { return applier_.gate(); }
  const HashRing& ring() const { return ring_; }

  /// Rewrite engine options for cache-node duty: no local database
  /// subscription (the CDC stream replaces it), misses filled over
  /// QUERY_SEQ, admissions guarded by this runtime's sequence gate.
  /// Refresh-on-invalidate is refused — a cache node must not re-execute
  /// against its (empty) local tables.
  middleware::CachedQueryEngine::Options DecorateEngineOptions(
      middleware::CachedQueryEngine::Options options);

  /// Install the DML forwarder, the ring select router and the cluster
  /// stats hook on `server`, and remember both objects for the applier.
  /// Must run before server.Start(); both must outlive this runtime's
  /// Stop().
  void AttachServer(middleware::CachedQueryEngine& engine, server::QcServer& server);

  /// Launch the CDC applier's subscription thread (connect upstream,
  /// SUBSCRIBE, apply records, relay them downstream). Call after
  /// server.Start(); repeated calls are no-ops.
  void Start();

  /// Stop the applier and close every outbound connection. Idempotent.
  void Stop();

  /// Block until every record up to `seq` has been fully applied locally
  /// (gate advanced AND invalidations run AND relayed). Returns false on
  /// timeout. Test/bench helper.
  bool WaitForSeq(uint64_t seq, std::chrono::milliseconds timeout) {
    return applier_.WaitForSeq(seq, timeout);
  }

  struct Counters {
    uint64_t cdc_events_applied = 0;  // CDC records applied by the applier
    uint64_t ring_forwards = 0;       // SELECTs forwarded to owning peers
    uint64_t gap_flushes = 0;         // resubscribe gaps -> full cache flush
  };
  Counters counters() const;

 private:
  middleware::CachedQueryEngine::RemoteFill RemoteFetch(const sql::BoundQuery& query,
                                                        const std::vector<Value>& params);
  uint64_t ForwardDml(const std::string& sql, const std::vector<Value>& params);
  std::optional<middleware::CachedQueryEngine::ExecuteResult> RouteSelect(
      const std::string& sql, const std::vector<Value>& params);

  /// Run `call` on the lazily connected upstream connection under
  /// upstream_mutex_. A transport error leaves no usable stream state (the
  /// protocol is request-response), so close, reconnect and retry once;
  /// a second failure surfaces to the requesting client.
  template <typename Call>
  auto WithUpstream(Call call) {
    std::lock_guard<std::mutex> lock(upstream_mutex_);
    for (int attempt = 0;; ++attempt) {
      try {
        if (!upstream_.connected()) upstream_.Connect(config_.upstream_host, config_.upstream_port);
        return call(upstream_);
      } catch (const server::NetError&) {
        upstream_.Close();
        if (attempt > 0) throw;
      }
    }
  }

  CacheNodeConfig config_;
  HashRing ring_;

  middleware::CachedQueryEngine* engine_ = nullptr;
  server::QcServer* server_ = nullptr;

  // Fill/DML path: one shared upstream connection (workers serialize on
  // the mutex; the QCP client is strictly request-response).
  std::mutex upstream_mutex_;
  server::QcClient upstream_;

  struct Peer {
    PeerAddress addr;
    std::mutex mutex;
    server::QcClient client;
  };
  std::unordered_map<std::string, std::unique_ptr<Peer>> peers_;  // immutable map after ctor

  std::atomic<uint64_t> ring_forwards_{0};

  // Last member: destroyed (and its subscription thread joined) first.
  CdcApplier applier_;
};

}  // namespace qc::cluster
