#include "middleware/query_engine.h"

#include <algorithm>

namespace qc::middleware {

QueryEngineStats& QueryEngineStats::operator=(const QueryEngineStats& other) {
  executions.store(other.executions.load(std::memory_order_relaxed), std::memory_order_relaxed);
  cache_hits.store(other.cache_hits.load(std::memory_order_relaxed), std::memory_order_relaxed);
  db_executions.store(other.db_executions.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  uncacheable.store(other.uncacheable.load(std::memory_order_relaxed), std::memory_order_relaxed);
  stale_discards.store(other.stale_discards.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  seq_admit_rejects.store(other.seq_admit_rejects.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  remote_fills.store(other.remote_fills.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  refresh_executions.store(other.refresh_executions.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  recovered_registrations.store(other.recovered_registrations.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
  recovered_conservative.store(other.recovered_conservative.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  recovered_dropped.store(other.recovered_dropped.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  return *this;
}

CachedQueryEngine::CachedQueryEngine(storage::Database& db, Options options)
    : db_(db), options_(std::move(options)) {
  if (!options_.cache.deserializer) {
    options_.cache.deserializer = &ResultValue::Deserialize;
  }
  cache_ = std::make_unique<cache::GpsCache>(options_.cache);

  dup::DupEngine::Options dup_options;
  dup_options.policy = options_.policy;
  dup_options.extraction = options_.extraction;
  dup_options.obsolescence_threshold = options_.obsolescence_threshold;
  dup_ = std::make_unique<dup::DupEngine>(*cache_, dup_options);

  if (options_.cache.semantic_lookup && options_.caching_enabled) {
    semantic_ = std::make_unique<cache::SemanticIndex>();
    // The DupEngine constructor installed a removal listener that tears
    // down the key's ODG registration; widen it so cache removals also
    // drop the key's semantic-source entry. (Serving from a stale entry
    // would still be epoch-checked — this is hygiene, not correctness.)
    cache_->SetRemovalListener([this](const std::string& key, cache::RemovalCause,
                                      uint64_t owner) {
      dup_->UnregisterQuery(key, owner);
      semantic_->Remove(key);
    });
  }

  // Warm restart: every disk entry the cache recovered must re-enter the
  // ODG before the engine serves traffic, or post-restart updates would
  // silently miss it. Runs before the database subscription, so recovery
  // cannot race with invalidation fan-out.
  for (const cache::GpsCache::RecoveredEntry& entry : cache_->recovered_entries()) {
    RegisterRecovered(entry);
  }

  if (options_.refresh_on_invalidate) {
    dup_->SetRefresher([this](const std::string& key) {
      auto registration = dup_->LookupRegistration(key);
      if (!registration) return false;
      // Runs on the updating thread, which already holds the mutated
      // table's write lock — no read locks here (they would self-deadlock).
      // Snapshot before re-executing, as on the miss path. The triggering
      // update's epochs were bumped before refreshers run, so this snapshot
      // already covers it; a *later* update would have to take the table
      // write lock this thread holds, so the snapshot stays current for
      // the registration below.
      dup::UpdateEpochs::Snapshot snapshot = dup_->SnapshotDependencies(registration->first);
      auto result = std::make_shared<const sql::ResultSet>(
          sql::Execute(*registration->first, registration->second));
      if (!cache_->Put(key, std::make_shared<ResultValue>(result))) return false;
      if (semantic_) {
        // Replacing a key's value does not fire the removal listener, so
        // the semantic entry must be swapped to the refreshed rows here.
        semantic_->Remove(key);
        semantic_->TryRegister(key, *registration->first, registration->second, result, snapshot);
      }
      stats_.refresh_executions.fetch_add(1, std::memory_order_relaxed);
      return true;
    });
  }

  if (options_.subscribe_to_database) {
    // Statement-level subscription: a multi-row DML statement arrives as
    // one batch, so epoch stamping, key dedup and shard locking are paid
    // once per statement (single-row mutations arrive as batches of one).
    subscription_ = db_.SubscribeBatch([this](const storage::UpdateBatch& batch) {
      if (!options_.caching_enabled) return;
      if (!options_.collect_latency_metrics) {
        dup_->OnBatch(batch);
        return;
      }
      const auto start = std::chrono::steady_clock::now();
      dup_->OnBatch(batch);
      latency_.invalidations.Record(std::chrono::steady_clock::now() - start);
    });
  }
}

CachedQueryEngine::~CachedQueryEngine() {
  if (subscription_) db_.Unsubscribe(subscription_);
}

void CachedQueryEngine::RegisterRecovered(const cache::GpsCache::RecoveredEntry& entry) {
  // Tier 1: the durable tag round-trips the statement and its typed
  // parameters, giving an exact re-registration (annotated edges intact:
  // Policies II/III/IV behave as before the restart).
  if (!entry.durable_tag.empty()) {
    try {
      std::string canonical_sql;
      std::vector<Value> params;
      DecodeQueryTag(entry.durable_tag, &canonical_sql, &params);
      auto query = Prepare(canonical_sql);
      dup_->RegisterQuery(entry.key, query, params);
      stats_.recovered_registrations.fetch_add(1, std::memory_order_relaxed);
      return;
    } catch (const std::exception&) {
      // Corrupt/stale tag — fall through to the conservative tier.
    }
  }

  // Tier 2: the fingerprint key itself is the canonical SQL plus an
  // optional " /* param values */" suffix; the skeleton still names every
  // table and column the result depends on, so conservative registration
  // (unannotated edges: any change fires) keeps the entry transparent to
  // invalidation even without parameter values.
  try {
    std::string canonical_sql = entry.key;
    if (canonical_sql.size() >= 2 && canonical_sql.ends_with("*/")) {
      const size_t open = canonical_sql.rfind(" /*");
      if (open != std::string::npos) canonical_sql.resize(open);
    }
    auto query = Prepare(canonical_sql);
    dup_->RegisterQueryConservative(entry.key, query);
    stats_.recovered_conservative.fetch_add(1, std::memory_order_relaxed);
    return;
  } catch (const std::exception&) {
    // Unparseable or unbindable (e.g. the table no longer exists).
  }

  // Tier 3: nothing to hang invalidation on — drop the entry rather than
  // serve a result no update could ever invalidate.
  cache_->Invalidate(entry.key);
  stats_.recovered_dropped.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const sql::BoundQuery> CachedQueryEngine::Prepare(const std::string& sql) {
  sql::SelectStmt stmt = sql::Parse(sql);
  const std::string canonical = sql::CanonicalSql(stmt);
  {
    std::lock_guard<std::mutex> lock(prepared_mutex_);
    auto it = prepared_.find(canonical);
    if (it != prepared_.end()) return it->second;
  }
  auto bound = sql::Bind(std::move(stmt), db_);
  std::lock_guard<std::mutex> lock(prepared_mutex_);
  return prepared_.emplace(canonical, std::move(bound)).first->second;
}

CachedQueryEngine::ExecuteResult CachedQueryEngine::Execute(
    const std::shared_ptr<const sql::BoundQuery>& query, const std::vector<Value>& params) {
  if (!options_.collect_latency_metrics) return ExecuteInternal(query, params);
  const auto start = std::chrono::steady_clock::now();
  ExecuteResult result = ExecuteInternal(query, params);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  (result.cache_hit ? latency_.hits : latency_.misses)
      .Record(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed));
  return result;
}

std::vector<std::shared_lock<std::shared_mutex>> CachedQueryEngine::LockTablesShared(
    const sql::BoundQuery& query) const {
  std::vector<const storage::Table*> tables = query.tables();
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());  // self-joins
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(tables.size());
  for (const storage::Table* table : tables) locks.push_back(table->ReadLock());
  return locks;
}

void CachedQueryEngine::SimulatedDbWait() const {
  if (options_.simulated_db_latency.count() <= 0) return;
  const auto deadline = std::chrono::steady_clock::now() + options_.simulated_db_latency;
  while (std::chrono::steady_clock::now() < deadline) {
    // busy-wait: sleep granularity would distort microsecond penalties
  }
}

CachedQueryEngine::ExecuteResult CachedQueryEngine::ExecuteInternal(
    const std::shared_ptr<const sql::BoundQuery>& query, const std::vector<Value>& params) {
  stats_.executions.fetch_add(1, std::memory_order_relaxed);

  if (!options_.caching_enabled) {
    SimulatedDbWait();
    sql::ResultPtr result;
    {
      auto locks = LockTablesShared(*query);
      result = std::make_shared<const sql::ResultSet>(sql::Execute(*query, params));
    }
    stats_.db_executions.fetch_add(1, std::memory_order_relaxed);
    return {std::move(result), false};
  }

  const std::string key = sql::Fingerprint(query->stmt(), params);

  // With the default CLOCK eviction policy this hit probe runs under a
  // *shared* shard lock (docs/CONCURRENCY.md, "Lock-light hit path"):
  // concurrent hits on the same shard no longer serialize against each
  // other, only against that shard's fills and invalidations.
  if (cache::CacheValuePtr cached = cache_->Get(key)) {
    auto value = std::static_pointer_cast<const ResultValue>(cached);
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return {value->result(), true};
  }

  // Miss. Serialize with other misses for the same key (see miss_mutexes_)
  // and re-check: a coalesced miss usually finds the winner's entry.
  std::unique_lock<std::mutex> miss_lock(
      miss_mutexes_[std::hash<std::string>{}(key) % kMissStripes]);
  if (cache::CacheValuePtr cached = cache_->Get(key)) {
    auto value = std::static_pointer_cast<const ResultValue>(cached);
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return {value->result(), true};
  }

  // Snapshot the dependency epochs *before* the semantic probe and the
  // database read: an update stamped between here and the guarded Put (or
  // the semantic tier's re-validation) means the result may have been
  // computed from pre-update data, so it must not be cached — or, on the
  // semantic path, served (docs/CONCURRENCY.md, docs/SEMANTIC.md).
  dup::UpdateEpochs::Snapshot snapshot = dup_->SnapshotDependencies(query);

  // Semantic tier: answer from a cached superset result when one subsumes
  // the incoming predicate (no table lock, no base-table scan).
  if (semantic_) {
    if (sql::ResultPtr served = TrySemanticServe(key, query, params, snapshot)) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return {std::move(served), true};
    }
  }

  // (4) database access. Cache-node mode delegates the read to the
  // storage node over the remote_fetch hook — no local table locks, and
  // the fill carries the CDC sequence the upstream read observed. Local
  // execution loads the committed sequence *before* taking the read locks:
  // every update with seq <= observed is then reflected in the read AND
  // its invalidations have applied, the invariant the sequence-gate
  // admission check relies on (docs/CLUSTER.md).
  SimulatedDbWait();
  sql::ResultPtr result;
  uint64_t observed_seq;
  if (options_.remote_fetch) {
    RemoteFill fill = options_.remote_fetch(*query, params);
    result = std::move(fill.result);
    observed_seq = fill.observed_seq;
    stats_.remote_fills.fetch_add(1, std::memory_order_relaxed);
  } else {
    observed_seq = ObserveCommittedSeq();
    auto locks = LockTablesShared(*query);
    result = std::make_shared<const sql::ResultSet>(sql::Execute(*query, params));
  }
  stats_.db_executions.fetch_add(1, std::memory_order_relaxed);

  // (3) result into cache + ODG construction.
  StoreResult(key, query, params, result, snapshot, observed_seq);
  // Either way the caller gets this result: it reflects every update
  // acknowledged before this query began, which is all a racing client may
  // assume.
  return {std::move(result), false};
}

sql::ResultPtr CachedQueryEngine::TrySemanticServe(
    const std::string& key, const std::shared_ptr<const sql::BoundQuery>& query,
    const std::vector<Value>& params, const dup::UpdateEpochs::Snapshot& snapshot) {
  semantic_->RecordProbe();
  std::optional<cache::SemanticIndex::Shape> shape = cache::SemanticIndex::Analyze(*query, params);
  if (!shape) {
    semantic_->RecordShapeReject();
    return nullptr;
  }
  std::shared_ptr<cache::SemanticIndex::SourceEntry> source = semantic_->FindSuperset(*shape);
  if (!source) return nullptr;

  const auto start = std::chrono::steady_clock::now();
  sql::ResultSet filtered = cache::SemanticIndex::ExecuteResidual(*source, *query, params);
  semantic_->RecordResidualNanos(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - start)
          .count()));

  // Epoch re-validation, the semantic analogue of the guarded Put. The
  // load-bearing check is the *source entry's* creation-time snapshot: an
  // update that changes any slot the source statement observed stamps the
  // epoch *before* its invalidation tears the entry down and before the
  // DML call acknowledges, so a still-current entry snapshot proves the
  // cached rows reflect every acknowledged update — even if the probe
  // found the entry inside the stamp-to-teardown window. The incoming
  // statement's own snapshot (taken before the probe) is checked too; it
  // guards the derived-result admission below.
  if (!source->snapshot.Current() || !snapshot.Current()) {
    semantic_->RecordEpochReject();
    semantic_->Remove(source->key);  // hygiene; teardown also removes it
    return nullptr;  // fall through to a plain database miss
  }
  semantic_->RecordHit();

  auto result = std::make_shared<const sql::ResultSet>(std::move(filtered));
  // Admit the derived result under its own fingerprint: the next identical
  // query is an exact hit, and the derived entry can itself become a
  // (narrower) semantic source. The derived rows are a subset of the
  // source's, so they observe exactly the sequence the source's read did.
  StoreResult(key, query, params, result, snapshot, source->observed_seq);
  return result;
}

bool CachedQueryEngine::StoreResult(const std::string& key,
                                    const std::shared_ptr<const sql::BoundQuery>& query,
                                    const std::vector<Value>& params, const sql::ResultPtr& result,
                                    const dup::UpdateEpochs::Snapshot& snapshot,
                                    uint64_t observed_seq) {
  // Register *before* Put: if Put immediately evicts the entry (budget
  // pressure), the removal listener then cleanly unregisters it again; if
  // an update invalidates the key between the two steps, the epoch guard
  // rejects the Put. On a cache node the same ordering closes the CDC
  // window: a record applied after this registration but before the Put
  // either bumps an observed epoch (snapshot check) or advances the
  // sequence gate past observed_seq (gate check) — and a record applied
  // after the Put finds the entry registered and tears it down. The owner
  // tag ties the registration to this entry, so a late removal
  // notification for an earlier entry under the same key cannot
  // unregister it (DupEngine::UnregisterQuery).
  const uint64_t owner = next_owner_.fetch_add(1, std::memory_order_relaxed) + 1;
  dup_->RegisterQuery(key, query, params, owner);
  const dup::CdcSequenceGate* gate = options_.seq_gate.get();
  cache::GpsCache::AdmitDecision decision = cache::GpsCache::AdmitDecision::kAdmit;
  // The durable tag rides along on disk spills so a warm restart can
  // rebuild this registration exactly; memory-only caches never spill, so
  // skip the encoding work there.
  std::string durable_tag;
  if (options_.cache.mode != cache::CacheMode::kMemory) {
    durable_tag = EncodeQueryTag(sql::CanonicalSql(query->stmt()), params);
  }
  const bool stored = cache_->Put(
      key, std::make_shared<ResultValue>(result), options_.default_ttl,
      cache::GpsCache::AdmitDecider([&snapshot, gate, observed_seq, &decision] {
        // Both checks run under the shard's exclusive lock: the epoch
        // snapshot orders this fill against local invalidations, the
        // sequence gate against the CDC stream's applied prefix.
        if (!snapshot.Current()) {
          decision = cache::GpsCache::AdmitDecision::kRejectStale;
        } else if (gate != nullptr && !gate->Admits(observed_seq)) {
          decision = cache::GpsCache::AdmitDecision::kRejectSequence;
        } else {
          decision = cache::GpsCache::AdmitDecision::kAdmit;
        }
        return decision;
      }),
      std::move(durable_tag), owner);
  if (!stored) {
    dup_->UnregisterQuery(key, owner);
    switch (decision) {
      case cache::GpsCache::AdmitDecision::kRejectStale:
        stats_.stale_discards.fetch_add(1, std::memory_order_relaxed);
        break;
      case cache::GpsCache::AdmitDecision::kRejectSequence:
        stats_.seq_admit_rejects.fetch_add(1, std::memory_order_relaxed);
        break;
      case cache::GpsCache::AdmitDecision::kAdmit:  // admitted but not stored
        stats_.uncacheable.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return false;
  }
  if (semantic_) semantic_->TryRegister(key, *query, params, result, snapshot, observed_seq);
  return true;
}

CachedQueryEngine::ExecuteResult CachedQueryEngine::ExecuteSql(const std::string& sql,
                                                               const std::vector<Value>& params) {
  return Execute(Prepare(sql), params);
}

uint64_t CachedQueryEngine::ExecuteDml(const std::string& sql, const std::vector<Value>& params) {
  sql::AnyStatement stmt = sql::ParseStatement(sql);
  if (stmt.kind != sql::AnyStatement::Kind::kDml) {
    throw BindError("ExecuteDml expects INSERT/UPDATE/DELETE; use Execute for SELECT");
  }
  // The whole statement — scan, mutation, synchronous invalidation fan-out
  // — runs under the target table's write lock, so once ExecuteDml
  // returns, the update is fully acknowledged: epochs stamped, affected
  // cache entries invalidated or refreshed.
  storage::Table& table = db_.GetTable(stmt.dml.table);
  auto lock = table.WriteLock();
  return sql::ExecuteDml(stmt.dml, db_, params);
}

sql::ResultSet CachedQueryEngine::ExecuteUncached(const sql::BoundQuery& query,
                                                  const std::vector<Value>& params) const {
  auto locks = LockTablesShared(query);
  return sql::Execute(query, params);
}

}  // namespace qc::middleware
