#include "cluster/cluster.h"

#include "common/error.h"
#include "sql/fingerprint.h"

namespace qc::cluster {

CacheCluster::CacheCluster(storage::Database& db, ClusterConfig config)
    : db_(db), config_(std::move(config)) {
  if (config_.nodes == 0) throw Error("cluster needs at least one node");
  nodes_.reserve(config_.nodes);
  for (size_t i = 0; i < config_.nodes; ++i) {
    Node node;
    // The bus never skips a sequence, so the gap flush is unreachable here.
    node.applier = std::make_unique<CdcApplier>(
        [this, i](const server::CdcRecord& record) {
          nodes_[i].engine->dup_engine().OnBatch(record.AsBatch());
        },
        [this, i] { nodes_[i].engine->cache().Clear(); });
    middleware::CachedQueryEngine::Options options;
    options.policy = config_.policy;
    options.extraction = config_.extraction;
    options.cache = config_.cache;
    if (!options.cache.disk_directory.empty()) {
      // Per-node spill areas must not collide.
      options.cache.disk_directory += "/node" + std::to_string(i);
    }
    options.subscribe_to_database = false;  // the CDC bus routes invalidations
    options.seq_gate = node.applier->gate();
    // A fill observes the bus's last assigned sequence before taking its
    // table read locks (the engine loads this before LockTablesShared), so
    // the gate can refuse it if a newer record was applied meanwhile.
    // Sound because the writer still holds the table write lock when the
    // sequence is assigned: a read that starts after the release store of
    // seq S can only begin once that write lock is gone, so it sees the
    // data of every record up to S.
    options.observe_committed_seq = [this] {
      return bus_seq_.load(std::memory_order_acquire);
    };
    node.engine = std::make_unique<middleware::CachedQueryEngine>(db_, options);
    nodes_.push_back(std::move(node));
    ring_.AddNode(NodeName(i));
  }

  // One statement-level batch subscription for the whole cluster: the bus
  // stamps each committed batch with a sequence, applies it to the writing
  // node synchronously (writes made outside any PerformUpdate window count
  // as node-0 writes — convenience for tests that mutate the database
  // directly), and queues deliveries to the peers.
  subscription_ = db_.SubscribeBatch(
      [this](const storage::UpdateBatch& batch) { OnCommittedBatch(batch); });

  if (config_.async_delivery) {
    async_applier_ = std::thread([this] { AsyncApplierLoop(); });
  }
}

CacheCluster::~CacheCluster() {
  db_.Unsubscribe(subscription_);
  {
    std::lock_guard<std::mutex> lock(bus_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  bus_cv_.notify_all();
  if (async_applier_.joinable()) async_applier_.join();
}

std::shared_ptr<const sql::BoundQuery> CacheCluster::Prepare(const std::string& sql) {
  // All nodes share the catalog; prepare through node 0.
  return nodes_[0].engine->Prepare(sql);
}

middleware::CachedQueryEngine::ExecuteResult CacheCluster::ExecuteAt(
    size_t node_index, const std::shared_ptr<const sql::BoundQuery>& query,
    const std::vector<Value>& params) {
  Tick();
  middleware::CachedQueryEngine& engine = *nodes_.at(node_index).engine;
  auto outcome = engine.Execute(query, params);
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (outcome.cache_hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (config_.verify_staleness &&
        !outcome.result->Equals(engine.ExecuteUncached(*query, params))) {
      stale_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return outcome;
}

middleware::CachedQueryEngine::ExecuteResult CacheCluster::Execute(
    const std::shared_ptr<const sql::BoundQuery>& query, const std::vector<Value>& params) {
  return ExecuteAt(OwnerOf(query, params), query, params);
}

size_t CacheCluster::OwnerOf(const std::shared_ptr<const sql::BoundQuery>& query,
                             const std::vector<Value>& params) const {
  const std::string& name = ring_.OwnerOf(sql::Fingerprint(query->stmt(), params));
  // Members are named by NodeName(), so the index is the "node" suffix.
  return static_cast<size_t>(std::stoul(name.substr(4)));
}

void CacheCluster::PerformUpdate(size_t node_index, const std::function<void()>& mutation) {
  if (node_index >= nodes_.size()) throw Error("bad cluster node index");
  Tick();
  current_writer_ = node_index;
  mutation();  // each committed statement runs OnCommittedBatch synchronously
  current_writer_ = 0;
  updates_.fetch_add(1, std::memory_order_relaxed);
  DeliverDue();
}

void CacheCluster::OnCommittedBatch(const storage::UpdateBatch& batch) {
  if (batch.empty()) return;
  const size_t writer = current_writer_;
  PendingDelivery prototype;
  prototype.target = 0;
  prototype.record.table = std::string(batch.table);
  prototype.record.events.assign(batch.begin(), batch.end());
  {
    std::lock_guard<std::mutex> lock(bus_mutex_);
    const uint64_t seq = bus_seq_.load(std::memory_order_relaxed) + 1;
    prototype.record.seq = seq;
    prototype.due_tick = now_.load(std::memory_order_relaxed) + config_.latency_ticks;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (i == writer) continue;
      PendingDelivery delivery = prototype;
      delivery.target = i;
      (config_.async_delivery ? async_queue_ : in_flight_).push_back(std::move(delivery));
      tokens_sent_.fetch_add(batch.count, std::memory_order_relaxed);
    }
    // Publish the sequence only after the deliveries are queued, mirroring
    // the storage node's publisher: a fill that observes seq S is
    // guaranteed its gate will eventually see every record up to S.
    bus_seq_.store(seq, std::memory_order_release);
  }
  // Local invalidation is synchronous (the writer's setter runs the
  // generated invalidation code, paper Fig. 6).
  ApplyTo(writer, prototype.record, local_invalidations_);
  if (config_.async_delivery) {
    bus_cv_.notify_all();
  } else if (config_.latency_ticks == 0) {
    DeliverDue();  // synchronous coherence: peers converge before the write returns
  }
}

void CacheCluster::ApplyTo(size_t target, const server::CdcRecord& record,
                           std::atomic<uint64_t>& counter) {
  Node& node = nodes_[target];
  const uint64_t before = node.engine->dup_stats().invalidations;
  node.applier->Apply(record);
  counter.fetch_add(node.engine->dup_stats().invalidations - before,
                    std::memory_order_relaxed);
}

void CacheCluster::Tick() {
  now_.fetch_add(1, std::memory_order_relaxed);
  DeliverDue();
}

void CacheCluster::DeliverDue() {
  std::vector<PendingDelivery> due;
  {
    std::lock_guard<std::mutex> lock(bus_mutex_);
    const uint64_t now = now_.load(std::memory_order_relaxed);
    while (!in_flight_.empty() && in_flight_.front().due_tick <= now) {
      due.push_back(std::move(in_flight_.front()));
      in_flight_.pop_front();
    }
  }
  for (const PendingDelivery& delivery : due) {
    ApplyTo(delivery.target, delivery.record, remote_invalidations_);
  }
}

void CacheCluster::Quiesce() {
  if (config_.async_delivery) {
    std::unique_lock<std::mutex> lock(bus_mutex_);
    bus_cv_.wait(lock, [this] { return async_queue_.empty() && !async_busy_; });
    return;
  }
  while (in_flight() != 0) Tick();
}

void CacheCluster::AsyncApplierLoop() {
  std::unique_lock<std::mutex> lock(bus_mutex_);
  while (true) {
    bus_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) || !async_queue_.empty();
    });
    if (async_queue_.empty()) return;  // stop requested and drained
    PendingDelivery delivery = std::move(async_queue_.front());
    async_queue_.pop_front();
    async_busy_ = true;
    lock.unlock();
    ApplyTo(delivery.target, delivery.record, remote_invalidations_);
    lock.lock();
    async_busy_ = false;
    bus_cv_.notify_all();  // wake Quiesce()
  }
}

size_t CacheCluster::in_flight() const {
  std::lock_guard<std::mutex> lock(bus_mutex_);
  return in_flight_.size() + async_queue_.size() + (async_busy_ ? 1 : 0);
}

ClusterStats CacheCluster::stats() const {
  ClusterStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.stale_hits = stale_hits_.load(std::memory_order_relaxed);
  s.updates = updates_.load(std::memory_order_relaxed);
  s.tokens_sent = tokens_sent_.load(std::memory_order_relaxed);
  s.remote_invalidations = remote_invalidations_.load(std::memory_order_relaxed);
  s.local_invalidations = local_invalidations_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qc::cluster
