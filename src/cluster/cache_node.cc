#include "cluster/cache_node.h"

#include "common/error.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace qc::cluster {

CacheNodeRuntime::CacheNodeRuntime(CacheNodeConfig config)
    : config_(std::move(config)),
      ring_(config_.ring_vnodes),
      applier_(
          [this](const server::CdcRecord& record) {
            engine_->dup_engine().OnBatch(record.AsBatch());
            // Relay downstream (push-lease client caches) with the upstream
            // sequence numbering intact.
            server_->PublishCdc(record);
          },
          [this] { engine_->cache().Clear(); }) {
  if (config_.name.empty()) throw Error("cache node needs a name");
  ring_.AddNode(config_.name);
  for (const PeerAddress& addr : config_.peers) {
    if (addr.name == config_.name) throw Error("peer list contains this node's own name");
    if (peers_.count(addr.name)) throw Error("duplicate peer name: " + addr.name);
    ring_.AddNode(addr.name);
    auto peer = std::make_unique<Peer>();
    peer->addr = addr;
    peers_.emplace(addr.name, std::move(peer));
  }
}

CacheNodeRuntime::~CacheNodeRuntime() { Stop(); }

middleware::CachedQueryEngine::Options CacheNodeRuntime::DecorateEngineOptions(
    middleware::CachedQueryEngine::Options options) {
  if (options.refresh_on_invalidate) {
    throw Error("refresh-on-invalidate is incompatible with cache-node mode: "
                "the node's local tables hold no data to re-execute against");
  }
  options.subscribe_to_database = false;  // invalidations arrive on the CDC stream
  options.seq_gate = gate();
  options.remote_fetch = [this](const sql::BoundQuery& query, const std::vector<Value>& params) {
    return RemoteFetch(query, params);
  };
  return options;
}

void CacheNodeRuntime::AttachServer(middleware::CachedQueryEngine& engine,
                                    server::QcServer& server) {
  engine_ = &engine;
  server_ = &server;
  server.SetDmlForwarder(
      [this](const std::string& sql, const std::vector<Value>& params) {
        return ForwardDml(sql, params);
      });
  server.SetSelectRouter(
      [this](const std::string& sql, const std::vector<Value>& params) {
        return RouteSelect(sql, params);
      });
  server.SetExtraStats([this, &server] {
    const Counters c = counters();
    std::vector<std::pair<std::string, uint64_t>> entries;
    entries.emplace_back("cluster.cdc_events_applied", c.cdc_events_applied);
    entries.emplace_back("cluster.ring_forwards", c.ring_forwards);
    entries.emplace_back("cluster.gap_flushes", c.gap_flushes);
    // Pushed invalidations to this node's own subscribers — the lease
    // holders (client caches) hanging off this cache node.
    entries.emplace_back("cluster.lease_invalidations", server.stats().cdc_events_sent);
    return entries;
  });
}

void CacheNodeRuntime::Start() {
  if (engine_ == nullptr || server_ == nullptr) {
    throw Error("CacheNodeRuntime::Start before AttachServer");
  }
  applier_.Subscribe(config_.upstream_host, config_.upstream_port);
}

void CacheNodeRuntime::Stop() {
  applier_.Stop();
  std::lock_guard<std::mutex> lock(upstream_mutex_);
  upstream_.Close();
  for (auto& [name, peer] : peers_) {
    std::lock_guard<std::mutex> peer_lock(peer->mutex);
    peer->client.Close();
  }
}

CacheNodeRuntime::Counters CacheNodeRuntime::counters() const {
  Counters c;
  c.cdc_events_applied = applier_.records_applied();
  c.ring_forwards = ring_forwards_.load(std::memory_order_relaxed);
  c.gap_flushes = applier_.gap_flushes();
  return c;
}

// --- Upstream fill / DML ---------------------------------------------------

middleware::CachedQueryEngine::RemoteFill CacheNodeRuntime::RemoteFetch(
    const sql::BoundQuery& query, const std::vector<Value>& params) {
  const std::string sql = sql::CanonicalSql(query.stmt());
  server::QcClient::SeqQueryResult reply =
      WithUpstream([&](server::QcClient& upstream) { return upstream.QuerySeq(sql, params); });
  return {std::make_shared<const sql::ResultSet>(std::move(reply.result)), reply.observed_seq};
}

uint64_t CacheNodeRuntime::ForwardDml(const std::string& sql, const std::vector<Value>& params) {
  return WithUpstream([&](server::QcClient& upstream) { return upstream.Dml(sql, params); });
}

// --- Ring routing ----------------------------------------------------------

std::optional<middleware::CachedQueryEngine::ExecuteResult> CacheNodeRuntime::RouteSelect(
    const std::string& sql, const std::vector<Value>& params) {
  std::string owner;
  try {
    const sql::SelectStmt stmt = sql::Parse(sql);
    owner = ring_.OwnerOf(sql::Fingerprint(stmt, params));
  } catch (const std::exception&) {
    return std::nullopt;  // unparseable: the local engine reports the error
  }
  if (owner == config_.name) return std::nullopt;  // ours: serve locally

  Peer& peer = *peers_.at(owner);
  std::lock_guard<std::mutex> lock(peer.mutex);
  for (int attempt = 0;; ++attempt) {
    try {
      if (!peer.client.connected()) peer.client.Connect(peer.addr.host, peer.addr.port);
      server::QcClient::QueryResult reply = peer.client.Query(sql, params);
      ring_forwards_.fetch_add(1, std::memory_order_relaxed);
      return middleware::CachedQueryEngine::ExecuteResult{
          std::make_shared<const sql::ResultSet>(std::move(reply.result)), reply.cache_hit};
    } catch (const server::NetError&) {
      peer.client.Close();
      // Peer down: after one reconnect attempt, degrade to a local fill.
      // Sound (the gate and epoch guards still apply locally) at the cost
      // of a duplicate cached copy until the peer returns.
      if (attempt > 0) return std::nullopt;
    }
  }
}

}  // namespace qc::cluster
