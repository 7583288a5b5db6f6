#include "dup/engine.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"
#include "sql/evaluator.h"
#include "sql/fingerprint.h"

namespace qc::dup {

const char* PolicyName(InvalidationPolicy policy) {
  switch (policy) {
    case InvalidationPolicy::kNone: return "TTL-only (no invalidation)";
    case InvalidationPolicy::kFlushAll: return "Policy I (flush all)";
    case InvalidationPolicy::kValueUnaware: return "Policy II (value-unaware DUP)";
    case InvalidationPolicy::kValueAware: return "Policy III (value-aware DUP)";
    case InvalidationPolicy::kRowAware: return "Policy IV (row-aware DUP)";
  }
  return "?";
}

DupEngine::DupEngine(cache::GpsCache& cache, Options options)
    : cache_(cache),
      options_(std::move(options)),
      indexed_(options_.use_predicate_index &&
               (options_.policy == InvalidationPolicy::kValueAware ||
                options_.policy == InvalidationPolicy::kRowAware)),
      graph_(indexed_) {
  // Keep the ODG consistent with cache contents: evictions, expirations and
  // replacements remove the object vertex as well.
  cache_.SetRemovalListener(
      [this](const std::string& key, cache::RemovalCause, uint64_t owner) {
        UnregisterQuery(key, owner);
      });
}

std::string DupEngine::ColumnVertexName(const std::string& table, const std::string& column) {
  return "col:" + ToUpper(table) + "." + ToUpper(column);
}

std::string DupEngine::TableVertexName(const std::string& table) {
  return "tab:" + ToUpper(table);
}

std::string DupEngine::ColumnEpochSlot(const std::string& table_key, uint32_t column) {
  return table_key + "#" + std::to_string(column);
}

std::shared_ptr<const DependencyTemplate> DupEngine::TemplateForLocked(
    const sql::BoundQuery& query) {
  // "Compile time": one dependency template per canonical statement.
  const std::string canonical = sql::CanonicalSql(query.stmt());
  if (auto it = templates_.find(canonical); it != templates_.end()) return it->second;
  auto deps = ExtractDependencies(query, options_.extraction);
  templates_.emplace(canonical, deps);
  return deps;
}

UpdateEpochs::Snapshot DupEngine::SnapshotDependencies(
    const std::shared_ptr<const sql::BoundQuery>& query) {
  std::shared_ptr<const DependencyTemplate> deps;
  {
    std::lock_guard<std::shared_mutex> lock(mutex_);
    deps = TemplateForLocked(*query);
  }
  UpdateEpochs::Snapshot snapshot;
  for (const ColumnDependencyTemplate& col : deps->columns) {
    epochs_.Observe(snapshot, ColumnEpochSlot(ToUpper(col.table_name), col.column_index));
  }
  for (const std::string& table : deps->tables) {
    epochs_.Observe(snapshot, ToUpper(table));
  }
  if (options_.policy == InvalidationPolicy::kFlushAll) {
    // Any update flushes the whole cache, so every in-flight execution
    // must observe every event.
    epochs_.Observe(snapshot, "*");
  }
  return snapshot;
}

void DupEngine::StampEpochsBatch(const storage::UpdateBatch& batch) {
  const std::string table_key = ToUpper(std::string(batch.table));
  std::unordered_set<uint32_t> columns;
  bool row_events = false;
  for (const storage::UpdateEvent& event : batch) {
    if (event.kind == storage::UpdateEvent::Kind::kUpdate) {
      for (const storage::AttributeChange& change : event.changes) {
        columns.insert(change.column);
      }
    } else {
      row_events = true;
    }
  }
  for (uint32_t column : columns) epochs_.Bump(ColumnEpochSlot(table_key, column));
  if (row_events) epochs_.Bump(table_key);
  epochs_.Bump("*");
}

void DupEngine::RegisterQuery(const std::string& key,
                              std::shared_ptr<const sql::BoundQuery> query,
                              const std::vector<Value>& params, uint64_t owner) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  RegisterLocked(key, std::move(query), params, /*conservative=*/false, owner);
}

void DupEngine::RegisterQueryConservative(const std::string& key,
                                          std::shared_ptr<const sql::BoundQuery> query) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  RegisterLocked(key, std::move(query), {}, /*conservative=*/true, /*owner=*/0);
}

void DupEngine::RemoveFromRowIndexes(const std::string& key, const DependencyTemplate& deps) {
  for (const std::string& table : deps.tables) {
    auto it = row_indexes_.find(ToUpper(table));
    if (it != row_indexes_.end()) it->second.RemoveKey(key);
  }
}

void DupEngine::RegisterLocked(const std::string& key,
                               std::shared_ptr<const sql::BoundQuery> query,
                               const std::vector<Value>& params, bool conservative,
                               uint64_t owner) {
  // Replace any stale registration (e.g. a re-executed query after
  // invalidation raced with an eviction notification).
  if (auto it = registered_.find(key); it != registered_.end()) {
    if (graph_.IsLive(it->second.vertex)) graph_.RemoveVertex(it->second.vertex);
    for (const std::string& table : it->second.deps->tables) {
      table_queries_[ToUpper(table)].erase(key);
    }
    RemoveFromRowIndexes(key, *it->second.deps);
    registered_.erase(it);
  }

  std::shared_ptr<const DependencyTemplate> deps = TemplateForLocked(*query);

  const odg::VertexId object = graph_.AddVertex(key, odg::VertexKind::kObject);
  std::vector<std::optional<odg::EdgeAnnotation>> annotations;
  annotations.reserve(deps->columns.size());
  for (const ColumnDependencyTemplate& col : deps->columns) {
    const odg::VertexId source =
        graph_.GetOrAdd(ColumnVertexName(col.table_name, col.column_name),
                        odg::VertexKind::kUnderlying);
    column_vertices_[ToUpper(col.table_name)][col.column_index] = source;
    if (col.opaque || conservative) {
      // Unannotated: any change to the column fires. For conservative
      // (parameter-less) registrations this is the soundness fallback —
      // without parameter values no annotation can be instantiated.
      graph_.AddEdge(source, object);
      annotations.emplace_back();
    } else {
      // "Run time": bind the parameters into the annotation.
      odg::EdgeAnnotation annotation = col.Instantiate(params);
      annotations.emplace_back(annotation);
      graph_.AddEdge(source, object, 1.0, std::move(annotation));
    }
  }
  const std::vector<std::string>& existence_tables =
      conservative ? deps->tables : deps->tables_needing_existence_edge;
  for (const std::string& table : existence_tables) {
    const odg::VertexId source =
        graph_.GetOrAdd(TableVertexName(table), odg::VertexKind::kUnderlying);
    table_vertices_[ToUpper(table)] = source;
    graph_.AddEdge(source, object);
  }
  for (const std::string& table : deps->tables) {
    table_queries_[ToUpper(table)].insert(key);
  }

  // Row-event index registration: one gate per annotated column filter the
  // query places on each table, so insert/delete events find the affected
  // keys with one probe instead of one filter evaluation per registration.
  if (indexed_) {
    for (const std::string& table : deps->tables) {
      const std::string table_key = ToUpper(table);
      TableRowIndex& index = row_indexes_[table_key];
      if (conservative) {
        // No parameter values → no filters → every row event fires.
        index.AddKey(key, {});
        continue;
      }
      bool linear = false;
      std::vector<std::pair<uint32_t, ValueSet>> gates;
      for (size_t i = 0; i < deps->columns.size(); ++i) {
        const ColumnDependencyTemplate& col = deps->columns[i];
        if (ToUpper(col.table_name) != table_key) continue;
        if (col.opaque || !annotations[i]) continue;
        std::optional<ValueSet> accepts = odg::CompileAcceptSet(annotations[i]->filter());
        if (!accepts) {
          linear = true;  // wildcard LIKE: evaluate the real filter per event
          break;
        }
        gates.emplace_back(col.column_index, std::move(*accepts));
      }
      if (linear) {
        index.AddLinearKey(key);
      } else {
        index.AddKey(key, std::move(gates));
      }
    }
  }

  Registered reg;
  reg.vertex = object;
  reg.query = std::move(query);
  reg.params = params;
  reg.deps = std::move(deps);
  reg.annotations = std::move(annotations);
  reg.conservative = conservative;
  reg.owner = owner;
  registered_.emplace(key, std::move(reg));
  const size_t count = registered_.size();
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  stats_.registered_queries = count;
}

void DupEngine::UnregisterQuery(const std::string& key, uint64_t owner) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  auto it = registered_.find(key);
  if (it == registered_.end() || it->second.owner != owner) return;
  if (graph_.IsLive(it->second.vertex)) graph_.RemoveVertex(it->second.vertex);
  for (const std::string& table : it->second.deps->tables) {
    table_queries_[ToUpper(table)].erase(key);
  }
  RemoveFromRowIndexes(key, *it->second.deps);
  registered_.erase(it);
  const size_t remaining = registered_.size();
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  stats_.registered_queries = remaining;
}

bool DupEngine::RowAwareKeeps(const Registered& reg, const storage::UpdateEvent& event) const {
  // Conservative (recovered) registrations have no parameter values, so the
  // WHERE clause cannot be evaluated — never keep, always invalidate.
  if (reg.conservative) return false;
  // Refinement applies to genuinely single-slot queries only; join queries
  // (including self-joins) fall back to the value-aware verdict.
  if (reg.query->tables().size() != 1) return false;
  if (ToUpper(reg.query->table(0).name()) != ToUpper(event.table)) return false;
  const sql::Expr* where = reg.query->stmt().where.get();

  auto matches = [&](const storage::Row& row) {
    if (!where) return true;
    auto t = sql::EvalPredicateOnRow(*where, row, reg.params, 0);
    return t.has_value() && *t;
  };

  switch (event.kind) {
    case storage::UpdateEvent::Kind::kInsert:
      return !matches(event.after);  // a non-matching new row cannot matter
    case storage::UpdateEvent::Kind::kDelete:
      return !matches(event.before);
    case storage::UpdateEvent::Kind::kUpdate: {
      const bool before = matches(event.before);
      const bool after = matches(event.after);
      if (before != after) return false;  // membership flipped: must invalidate
      if (!before) return true;           // irrelevant row stayed irrelevant
      // The row matches before and after: the result changes only if a
      // changed column feeds the result (projection/aggregate/group key).
      const auto& result_columns = reg.deps->result_columns_per_slot[0];
      for (const storage::AttributeChange& change : event.changes) {
        if (std::find(result_columns.begin(), result_columns.end(), change.column) !=
            result_columns.end()) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool DupEngine::RowCanAffect(const Registered& reg, const std::string& table_key,
                             const storage::Row& row) const {
  for (size_t i = 0; i < reg.deps->columns.size(); ++i) {
    const ColumnDependencyTemplate& col = reg.deps->columns[i];
    if (ToUpper(col.table_name) != table_key) continue;
    // Unannotated edges (opaque columns, conservative registrations)
    // cannot rule the row out.
    if (col.opaque || !reg.annotations[i]) continue;
    if (col.column_index >= row.size()) continue;
    if (!reg.annotations[i]->AffectedByRowValue(row[col.column_index])) return false;
  }
  return true;
}

std::vector<std::string> DupEngine::AffectedKeysBatch(const storage::UpdateBatch& batch) {
  // The hot path only *reads* the ODG and the registrations, so it runs
  // under a shared lock: concurrent statements on different tables compute
  // their affected keys in parallel. Tracing materializes per-key reasons
  // and the obsolescence budget mutates per-registration counters — both
  // take the exclusive lock instead.
  const bool exclusive =
      options_.obsolescence_threshold > 0 || tracer_set_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> shared(mutex_, std::defer_lock);
  std::unique_lock<std::shared_mutex> unique(mutex_, std::defer_lock);
  if (exclusive) {
    unique.lock();
  } else {
    shared.lock();
  }

  // Stats accumulate locally and flush under the leaf stats mutex at the
  // end, so the shared-lock path never writes shared state.
  struct LocalStats {
    uint64_t row_aware_saves = 0;
    uint64_t tolerated_changes = 0;
    std::map<std::string, uint64_t> affected_by_source;
  } local;

  const bool value_aware = options_.policy == InvalidationPolicy::kValueAware ||
                           options_.policy == InvalidationPolicy::kRowAware;
  const std::string table_key = ToUpper(std::string(batch.table));

  // Keys slated for invalidation, deduplicated across the batch's rows: a
  // key invalidated by row 1 is not re-derived or re-refined for row 900.
  std::vector<std::string> refined;
  std::unordered_set<std::string> refined_set;
  std::unordered_map<std::string, std::string> reasons;  // filled only when tracing

  for (const storage::UpdateEvent& event : batch) {
    std::vector<std::string> keys;

    if (event.kind == storage::UpdateEvent::Kind::kUpdate) {
      // Attribute updates: edge-local checks — per changed column, an
      // annotated edge fires iff some atom's truth value flips (paper
      // Fig. 6 setter tokens). Propagate answers value updates from the
      // column's boundary index when one is built.
      std::unordered_set<odg::VertexId> affected;
      auto table_it = column_vertices_.find(table_key);
      if (table_it != column_vertices_.end()) {
        for (const storage::AttributeChange& change : event.changes) {
          auto col_it = table_it->second.find(change.column);
          if (col_it == table_it->second.end()) continue;  // column feeds no query
          const odg::ChangeSpec spec =
              value_aware ? odg::ChangeSpec::Update(change.old_value, change.new_value)
                          : odg::ChangeSpec::Generic();
          const auto fired = graph_.Propagate(col_it->second, spec);
          // Attribute only invalidatable results (object vertices) to the
          // source: propagation may traverse intermediate vertices, which
          // are bookkeeping, not cache churn.
          uint64_t fired_objects = 0;
          for (odg::VertexId v : fired) {
            if (graph_.KindOf(v) == odg::VertexKind::kObject) ++fired_objects;
          }
          if (fired_objects > 0) {
            local.affected_by_source[graph_.NameOf(col_it->second)] += fired_objects;
          }
          for (odg::VertexId v : fired) {
            if (affected.insert(v).second && tracer_ &&
                graph_.KindOf(v) == odg::VertexKind::kObject) {
              reasons.emplace(
                  graph_.NameOf(v),
                  "update " + graph_.NameOf(col_it->second).substr(4) + " " +
                      change.old_value.ToString() + " -> " + change.new_value.ToString() +
                      (value_aware ? " fired its edge annotation"
                                   : " (value-unaware column match)"));
            }
          }
        }
      }
      keys.reserve(affected.size());
      for (odg::VertexId v : affected) {
        if (graph_.KindOf(v) == odg::VertexKind::kObject) keys.push_back(graph_.NameOf(v));
      }
    } else {
      // Insert/delete: "resetting all of the object's attributes". The row
      // image is fully known, so the value-aware check is conjunctive: the
      // row must pass every annotated column filter the query places on
      // this table (§4.2's Platinum example — a new 'customerLevel'
      // classifier must invalidate Q1 but not the cached Q2 promotions).
      const storage::Row& row =
          event.kind == storage::UpdateEvent::Kind::kInsert ? event.after : event.before;
      const char* verb = event.kind == storage::UpdateEvent::Kind::kInsert ? "insert into"
                                                                           : "delete from";
      if (indexed_) {
        // One probe of the table's row-event index classifies every
        // registered key; only wildcard-LIKE registrations evaluate their
        // real filter.
        if (auto index_it = row_indexes_.find(table_key); index_it != row_indexes_.end()) {
          std::vector<std::string> linear;
          index_it->second.Probe(row, keys, linear);
          for (std::string& key : linear) {
            auto reg_it = registered_.find(key);
            if (reg_it == registered_.end()) continue;
            if (!RowCanAffect(reg_it->second, table_key, row)) continue;
            keys.push_back(std::move(key));
          }
        }
      } else if (auto queries_it = table_queries_.find(table_key);
                 queries_it != table_queries_.end()) {
        for (const std::string& key : queries_it->second) {
          if (value_aware) {
            auto reg_it = registered_.find(key);
            if (reg_it == registered_.end()) continue;
            if (!RowCanAffect(reg_it->second, table_key, row)) continue;
          }
          keys.push_back(key);
        }
      }
      const std::string source =
          (event.kind == storage::UpdateEvent::Kind::kInsert ? "insert:" : "delete:") +
          table_key;
      for (const std::string& key : keys) {
        local.affected_by_source[source] += 1;
        if (tracer_) {
          reasons.emplace(key, std::string(verb) + " " + event.table +
                                   (value_aware ? " passed every column filter"
                                                : " (value-unaware table match)"));
        }
      }
    }

    // Refinements on top of the value-aware verdicts: Policy IV's
    // row-aware check, then the weighted-DUP obsolescence budget. Both are
    // per (key, event); keys already slated by an earlier row skip them.
    for (std::string& key : keys) {
      if (refined_set.count(key)) continue;
      auto reg_it = registered_.find(key);
      if (reg_it == registered_.end()) continue;
      if (options_.policy == InvalidationPolicy::kRowAware &&
          RowAwareKeeps(reg_it->second, event)) {
        ++local.row_aware_saves;
        continue;
      }
      if (options_.obsolescence_threshold > 0) {
        reg_it->second.obsolescence += 1.0;
        if (reg_it->second.obsolescence <= options_.obsolescence_threshold) {
          ++local.tolerated_changes;
          continue;  // "not too obsolete" — keep serving it (paper Fig. 2)
        }
      }
      refined_set.insert(key);
      refined.push_back(std::move(key));
    }
  }

  if (tracer_) {
    for (const std::string& key : refined) {
      auto it = reasons.find(key);
      tracer_(key, it == reasons.end() ? "invalidated" : it->second);
    }
  }

  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.update_events += batch.count;
    ++stats_.update_batches;
    stats_.row_aware_saves += local.row_aware_saves;
    stats_.tolerated_changes += local.tolerated_changes;
    for (const auto& [source, count] : local.affected_by_source) {
      stats_.affected_by_source[source] += count;
    }
  }
  return refined;
}

void DupEngine::SetTracer(InvalidationTracer tracer) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  tracer_set_.store(tracer != nullptr, std::memory_order_relaxed);
  tracer_ = std::move(tracer);
}

void DupEngine::OnUpdate(const storage::UpdateEvent& event) {
  OnBatch(storage::UpdateBatch{event.table, &event, 1});
}

void DupEngine::OnBatch(const storage::UpdateBatch& batch) {
  if (batch.empty()) return;
  if (options_.policy == InvalidationPolicy::kNone) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.update_events += batch.count;  // observed, deliberately ignored (TTL-only)
    ++stats_.update_batches;
    return;
  }
  // Epochs first: any execution that read pre-event data and has not yet
  // stored its result will fail its admission check, even if the
  // invalidations below run before its key is cached. One bump per
  // distinct touched column, not one per row.
  StampEpochsBatch(batch);
  if (options_.policy == InvalidationPolicy::kFlushAll) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      stats_.update_events += batch.count;
      ++stats_.update_batches;
      ++stats_.full_flushes;  // one flush per statement, not per row
    }
    // Clear() notifies the removal listener per key, which unregisters the
    // object vertices; no lock may be held here.
    cache_.Clear();
    return;
  }

  const std::vector<std::string> keys = AffectedKeysBatch(batch);
  Refresher refresher;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    refresher = refresher_;
  }
  uint64_t refreshed = 0;
  std::vector<std::string> to_invalidate;
  to_invalidate.reserve(keys.size());
  for (const std::string& key : keys) {
    // Fig. 7 step 10: "result discard/update cache" — try the update path
    // first when configured.
    if (refresher && refresher(key)) {
      ++refreshed;
      std::lock_guard<std::shared_mutex> lock(mutex_);
      auto it = registered_.find(key);
      if (it != registered_.end()) it->second.obsolescence = 0.0;  // freshly updated
      continue;
    }
    to_invalidate.push_back(key);
  }
  // Batched removal: keys grouped by shard, one lock acquisition per
  // touched shard (instead of one per key).
  const uint64_t invalidated = cache_.InvalidateBatch(to_invalidate);
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  stats_.invalidations += invalidated;
  stats_.refreshes += refreshed;
}

void DupEngine::SetRefresher(Refresher refresher) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  refresher_ = std::move(refresher);
}

std::optional<std::pair<std::shared_ptr<const sql::BoundQuery>, std::vector<Value>>>
DupEngine::LookupRegistration(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = registered_.find(key);
  if (it == registered_.end()) return std::nullopt;
  // A conservative registration lost its parameter values in the crash; it
  // cannot be re-executed (the refresher falls back to invalidation).
  if (it->second.conservative) return std::nullopt;
  return std::make_pair(it->second.query, it->second.params);
}

DupStats DupEngine::stats() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  DupStats out;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    out = stats_;
  }
  // Fold in the index counters maintained by the probe structures
  // themselves (relaxed atomics; approximate under concurrency).
  out.predicate_index_probes = graph_.index_probes();
  out.predicate_index_fallbacks = graph_.index_fallbacks();
  for (const auto& [table, index] : row_indexes_) {
    out.predicate_index_probes += index.probes();
    out.predicate_index_fallbacks += index.linear_fallbacks();
  }
  return out;
}

std::string DupEngine::DumpGraph() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return graph_.ToDot();
}

size_t DupEngine::GraphVertexCount() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return graph_.VertexCount();
}

size_t DupEngine::GraphEdgeCount() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return graph_.EdgeCount();
}

}  // namespace qc::dup
