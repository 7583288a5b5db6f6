// The DUP engine: connects storage update events, the ODG, and the GPS
// cache (paper §4). It owns the object dependence graph, registers cached
// query results as object vertices with automatically extracted edges, and
// translates every UpdateEvent into the invalidation set the configured
// policy prescribes. It also stamps per-dependency update epochs
// (dup/epochs.h) that the middleware uses to discard query results whose
// execution raced with an update (docs/CONCURRENCY.md).
//
// @thread_safety Internally synchronized: every public method may be
// called from any thread. The engine mutex is a shared_mutex: the hot
// affected-key computation runs under a *shared* lock (it only reads the
// ODG and the registrations) unless a tracer is installed or the
// obsolescence budget is enabled, both of which mutate per-event state and
// take the exclusive lock. Registration paths always take the exclusive
// lock; statistics live behind a separate leaf mutex (stats_mutex_, never
// held while acquiring anything else). OnUpdate/OnBatch invalidate (or
// refresh) cache entries *outside* the engine lock; the refresher and the
// cache removal listener may therefore re-enter the engine. The tracer
// runs under the exclusive engine lock and must not call back in. Lock
// order: the engine mutex may be acquired while a Table write lock is held
// (events are delivered synchronously from the mutating thread) and is
// never held while acquiring a cache shard lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/gps_cache.h"
#include "dup/epochs.h"
#include "dup/extractor.h"
#include "dup/policy.h"
#include "dup/row_index.h"
#include "odg/graph.h"
#include "storage/events.h"

namespace qc::dup {

struct DupStats {
  uint64_t update_events = 0;      // update/insert/delete row events seen
  uint64_t update_batches = 0;     // statement-level batches processed
  uint64_t invalidations = 0;      // query results invalidated (Policies II+)

  /// Predicate-index effectiveness: probes answered from the interval
  /// index (per-column flip probes plus per-table row probes) vs. events
  /// that had to fall back to a linear edge/filter scan (NULL-sided
  /// updates, wildcard-LIKE filters).
  uint64_t predicate_index_probes = 0;
  uint64_t predicate_index_fallbacks = 0;

  /// Affected-key counts attributed to the triggering source, before
  /// row-aware/obsolescence refinement: "col:TABLE.COLUMN" for attribute
  /// updates, "insert:TABLE"/"delete:TABLE" for row events. Answers the
  /// operator question "which writes churn my cache?".
  std::map<std::string, uint64_t> affected_by_source;
  uint64_t full_flushes = 0;       // whole-cache clears (Policy I)
  uint64_t row_aware_saves = 0;    // invalidations skipped by Policy IV refinement
  uint64_t tolerated_changes = 0;  // events absorbed by the obsolescence budget
  uint64_t refreshes = 0;          // invalidations converted into cache updates
  uint64_t registered_queries = 0; // currently registered object vertices

  double InvalidationsPerEvent() const {
    return update_events == 0 ? 0.0
                              : static_cast<double>(invalidations) /
                                    static_cast<double>(update_events);
  }
};

class DupEngine {
 public:
  struct Options {
    InvalidationPolicy policy = InvalidationPolicy::kValueAware;
    ExtractionOptions extraction;

    /// Weighted-DUP obsolescence tolerance (paper Fig. 2: "in some cases
    /// it is acceptable to keep around a cached object which is not too
    /// obsolete"). Each firing dependency event adds one unit of
    /// obsolescence to an affected object; the object is only invalidated
    /// once its accumulated obsolescence EXCEEDS the threshold. 0 (the
    /// default) invalidates on the first event — exact consistency.
    /// Positive thresholds deliberately trade staleness for hit rate.
    double obsolescence_threshold = 0.0;

    /// Answer value-aware propagation from the interval indexes (the ODG's
    /// per-column boundary index and the per-table row-event index)
    /// instead of scanning every edge/registration linearly. Both paths
    /// compute identical affected-key sets; false is the reference that
    /// the differential test and ext_invalidation_scale compare against.
    /// Policies I and II consult no annotation, so they build neither
    /// index either way.
    bool use_predicate_index = true;
  };

  DupEngine(cache::GpsCache& cache, Options options);

  InvalidationPolicy policy() const { return options_.policy; }

  /// Register a cached query result under `key` (its fingerprint).
  /// Builds (or reuses) the statement's dependency template and adds the
  /// object vertex plus its annotated edges to the ODG. The engine keeps
  /// `query` and `params` for row-aware refinement. `owner` is the tag the
  /// caller stores the entry under (GpsCache::Put); only a removal of an
  /// entry with that tag unregisters this registration again.
  void RegisterQuery(const std::string& key, std::shared_ptr<const sql::BoundQuery> query,
                     const std::vector<Value>& params, uint64_t owner = 0);

  /// Conservative registration for warm-restart recovery: the statement is
  /// known (re-parsed from its persisted canonical SQL) but its parameter
  /// values are not, so no edge annotation can be instantiated. Every
  /// referenced column gets an *unannotated* edge (any change fires) and
  /// every referenced table a table-existence edge, which over-invalidates
  /// but never under-invalidates — a recovered entry stays transparent
  /// under Policies I/II/III even when only its SQL skeleton survived the
  /// crash. Row-aware refinement and refresh are disabled for such
  /// registrations (both need the parameters).
  void RegisterQueryConservative(const std::string& key,
                                 std::shared_ptr<const sql::BoundQuery> query);

  /// Drop the object vertex for `key` if it was registered with `owner`
  /// (cache removal). Idempotent. The owner check matters because removal
  /// notifications run outside the cache's locks: a late notification for
  /// an entry that was removed and then filled again must not unregister
  /// the refill, or the refilled entry would never be invalidated.
  void UnregisterQuery(const std::string& key, uint64_t owner = 0);

  /// Observe the update epochs of every dependency slot of `query`: one
  /// slot per referenced table.column (attribute updates) plus one per
  /// referenced table (inserts/deletes), plus the global slot under
  /// Policy I (any update flushes everything). Call *before* executing the
  /// statement against the database; pass the snapshot to the cache's
  /// guarded Put so a result computed from pre-update data is discarded
  /// instead of cached. See docs/CONCURRENCY.md.
  UpdateEpochs::Snapshot SnapshotDependencies(
      const std::shared_ptr<const sql::BoundQuery>& query);

  /// Paper Fig. 7, step 10 is "result discard/update cache": affected
  /// results may be *refreshed* instead of discarded. When a refresher is
  /// installed, the engine calls it (outside its lock) for every affected
  /// key in place of cache invalidation; the refresher re-executes and
  /// re-stores the result (returning true) or declines (false → the key
  /// is invalidated as usual).
  using Refresher = std::function<bool(const std::string& key)>;
  void SetRefresher(Refresher refresher);

  /// Registration lookup for refreshers: the statement and parameters
  /// cached under `key`, if registered.
  std::optional<std::pair<std::shared_ptr<const sql::BoundQuery>, std::vector<Value>>>
  LookupRegistration(const std::string& key) const;

  /// Storage mutation hook: subscribe this to the Database. Translates the
  /// event into cache invalidations according to the policy (delegates to
  /// OnBatch with a batch of one).
  void OnUpdate(const storage::UpdateEvent& event);

  /// Statement-level mutation hook (Database::SubscribeBatch): processes a
  /// whole statement's events with per-statement costs paid once — epochs
  /// are stamped once per touched column, affected keys are deduplicated
  /// across rows, and the cache is invalidated with one shard-lock
  /// acquisition per touched shard (GpsCache::InvalidateBatch).
  void OnBatch(const storage::UpdateBatch& batch);

  /// Diagnostic tracing: invoked once per (event, invalidated key) with a
  /// human-readable reason ("update BENCH.KSEQ 41000 -> 7 fired annotated
  /// edge", "insert into RULEUSETABLE passed every column filter", ...).
  /// Reasons are only materialized while a tracer is installed. The tracer
  /// runs under the engine lock: it must not call back into this engine.
  using InvalidationTracer = std::function<void(const std::string& key, const std::string& reason)>;
  void SetTracer(InvalidationTracer tracer);

  DupStats stats() const;

  /// Snapshot of the ODG (diagnostics; also exercised by tests/examples).
  std::string DumpGraph() const;
  size_t GraphVertexCount() const;
  size_t GraphEdgeCount() const;

  /// Test-only access to the ODG (e.g. to build multi-level graphs that
  /// registration alone cannot produce). Callers must not race it with
  /// concurrent engine use.
  odg::Graph& graph_for_test() { return graph_; }

 private:
  struct Registered {
    odg::VertexId vertex;
    std::shared_ptr<const sql::BoundQuery> query;
    std::vector<Value> params;
    std::shared_ptr<const DependencyTemplate> deps;
    /// Instantiated annotations, parallel to deps->columns (empty slots for
    /// opaque columns). Used for the conjunctive insert/delete check.
    std::vector<std::optional<odg::EdgeAnnotation>> annotations;

    /// Accumulated obsolescence since this result was cached (only grows
    /// when Options::obsolescence_threshold > 0).
    double obsolescence = 0.0;

    /// Registered without parameter values (RegisterQueryConservative):
    /// annotations are absent, row-aware refinement must not evaluate the
    /// WHERE clause, and the refresher cannot re-execute it.
    bool conservative = false;

    /// The cache-entry owner tag this registration covers (RegisterQuery).
    uint64_t owner = 0;
  };

  static std::string ColumnVertexName(const std::string& table, const std::string& column);
  static std::string TableVertexName(const std::string& table);
  static std::string ColumnEpochSlot(const std::string& table_key, uint32_t column);

  /// Advance the update epochs the batch touches — once per distinct
  /// changed column (plus the table slot when the batch carries row
  /// events), not once per row. Must run before any invalidation derived
  /// from the batch: in-flight executions that read pre-event data then
  /// fail their store-time admission check. Sound because admission only
  /// needs "the epoch advanced", never "how many times".
  void StampEpochsBatch(const storage::UpdateBatch& batch);

  /// Find-or-build the statement's dependency template. Requires mutex_.
  std::shared_ptr<const DependencyTemplate> TemplateForLocked(const sql::BoundQuery& query);

  /// Shared body of the two registration entry points. Requires mutex_.
  void RegisterLocked(const std::string& key, std::shared_ptr<const sql::BoundQuery> query,
                      const std::vector<Value>& params, bool conservative, uint64_t owner);

  /// Collect the fingerprints the batch invalidates under the policy,
  /// deduplicated across the batch's rows. Takes the engine lock shared
  /// unless a tracer or the obsolescence budget needs exclusive access.
  std::vector<std::string> AffectedKeysBatch(const storage::UpdateBatch& batch);
  bool RowAwareKeeps(const Registered& reg, const storage::UpdateEvent& event) const;

  /// Drop `key` from the row-event index of every table in `deps`.
  /// Requires the exclusive lock.
  void RemoveFromRowIndexes(const std::string& key, const DependencyTemplate& deps);

  /// Value-aware insert/delete check (paper §4.2's Platinum example): the
  /// created/deleted row must pass EVERY annotated column filter the query
  /// places on this table (opaque columns cannot reject). Conjunction is
  /// sound because each filter is a relaxation of the WHERE clause.
  bool RowCanAffect(const Registered& reg, const std::string& table_key,
                    const storage::Row& row) const;

  cache::GpsCache& cache_;
  Options options_;

  // use_predicate_index under a value-aware policy (III, IV).
  const bool indexed_;

  mutable std::shared_mutex mutex_;
  odg::Graph graph_;
  std::unordered_map<std::string, Registered> registered_;
  // "Compile-time" template cache, keyed by canonical statement text.
  std::unordered_map<std::string, std::shared_ptr<const DependencyTemplate>> templates_;
  // Upper-cased table name → column index → column vertex; column vertices
  // are created lazily as registrations reference them and never removed.
  std::unordered_map<std::string, std::unordered_map<uint32_t, odg::VertexId>> column_vertices_;
  std::unordered_map<std::string, odg::VertexId> table_vertices_;
  // Upper-cased table name → keys of registered queries referencing it
  // (drives the per-query conjunctive insert/delete check).
  std::unordered_map<std::string, std::unordered_set<std::string>> table_queries_;
  // Upper-cased table name → row-event index over the registered keys that
  // reference the table (insert/delete probes). Maintained only when
  // indexed_.
  std::unordered_map<std::string, TableRowIndex> row_indexes_;
  InvalidationTracer tracer_;
  // Mirrors "tracer_ != nullptr" so AffectedKeysBatch can pick its lock
  // mode before acquiring the lock that guards tracer_.
  std::atomic<bool> tracer_set_{false};
  Refresher refresher_;
  // Leaf lock for stats_: taken while mutex_ is held (shared or exclusive),
  // never the other way around.
  mutable std::mutex stats_mutex_;
  DupStats stats_;
  UpdateEpochs epochs_;  // internally synchronized; not guarded by mutex_
};

}  // namespace qc::dup
