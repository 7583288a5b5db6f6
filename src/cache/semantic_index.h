// Containment-aware semantic cache index (docs/SEMANTIC.md).
//
// The GPS cache hits only on exact normalized fingerprints; range-heavy
// workloads therefore miss even when a cached result strictly contains the
// answer. This module is the middle rung of the middleware's lookup ladder
// (exact → semantic → miss): it maps cached *source* entries — plain
// single-table projections with conjunctive column-vs-constant predicates —
// to their definitely-true interval sets (common/value_set.h, compiled by
// odg::CompileAcceptSet) and answers "is there a cached superset of this
// predicate whose projection covers every column the incoming query
// reads?". On a match the engine evaluates the incoming statement's
// *residual* predicate over the cached rows (rebinding the statement
// against an immutable in-memory mirror of the result, so the vectorized
// batch engine runs unchanged) and never touches the base table.
//
// Soundness of the containment test: a supported WHERE clause is an AND of
// single-column predicates, and each per-column predicate compiles to the
// exact set of values for which it is definitely true (CompileAcceptSet is
// exact in Kleene logic). A row is in the result iff every per-column value
// lands in its column's accept set, so the result's row set is the product
// of the per-column sets and `incoming ⊆ source` reduces to per-column
// subset checks: for every column the source constrains, the incoming query
// must constrain it to a subset (an unconstrained incoming column is the
// universe and only a universal source constraint — never stored — could
// contain it). Subset is Intersect(A, Complement(B)).empty().
//
// Freshness: every entry carries the update-epoch snapshot that guarded
// its cache admission (TryRegister refuses a snapshot that is already
// stale, closing the register-after-Put race). The engine re-validates the
// *entry's* snapshot after the residual filter — the semantic analogue of
// the guarded Put — so an entry invalidated mid-probe, or one whose update
// has stamped its epochs but not yet torn the entry down, is rejected
// rather than served. The incoming probe's own snapshot is checked too,
// but the entry snapshot is the load-bearing one: a probe snapshot taken
// *after* an update is trivially current and says nothing about the age of
// the cached rows. See docs/SEMANTIC.md, "Epoch re-validation".
//
// @thread_safety Internally synchronized. Register/Remove/FindSuperset take
// the index mutex; the SourceEntry returned by FindSuperset is immutable
// shared state (safe to use after a racing Remove). Each entry's mirror
// table is built at most once under the entry's own mutex and never mutated
// afterwards, so residual scans read it without locks (the vectorized scan
// pool's workers included). Counters are relaxed atomics folded into
// CacheStats snapshots on demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/stats.h"
#include "common/value_set.h"
#include "dup/epochs.h"
#include "sql/binder.h"
#include "sql/result.h"

namespace qc::cache {

class SemanticIndex {
 public:
  /// The analyzed form of a supported statement: which base table it reads,
  /// the per-column definitely-true sets of its WHERE conjuncts, and which
  /// base columns it references anywhere (projection, aggregates, GROUP BY,
  /// ORDER BY, WHERE). `constraints` is sorted by column and never contains
  /// universal sets.
  struct Shape {
    const storage::Table* table = nullptr;
    std::string table_name;  // upper-cased
    std::vector<std::pair<uint32_t, ValueSet>> constraints;
    std::vector<uint32_t> referenced;  // sorted, unique
    bool references_all = false;       // SELECT * — needs every base column

    // Source eligibility: the result rows are exactly the matching base
    // rows (plain column projection or *, no aggregation/GROUP BY/LIMIT),
    // so the entry can answer contained queries by re-filtering.
    bool source_eligible = false;
    bool star = false;                   // projection is SELECT *
    std::vector<uint32_t> projected;     // sorted base columns in the result
    std::vector<int32_t> result_pos;     // base column -> result column, -1 absent
  };

  /// One registered cached result. Immutable after construction except for
  /// the lazily-built mirror.
  struct SourceEntry {
    std::string key;
    const storage::Table* base = nullptr;  // schema donor for the mirror
    std::vector<std::pair<uint32_t, ValueSet>> constraints;
    bool star = false;
    std::vector<uint32_t> projected;
    std::vector<int32_t> result_pos;
    sql::ResultPtr result;
    /// The snapshot that guarded this result's cache admission. Current()
    /// proves the cached rows reflect every acknowledged update to any
    /// dependency slot of the *source* statement — a superset of the slots
    /// any contained probe depends on (projection coverage makes the
    /// probe's referenced columns a subset of the source's).
    dup::UpdateEpochs::Snapshot snapshot;

    /// The CDC stream sequence the source's read observed (0 outside
    /// cache-node mode). A result derived from this entry re-enters the
    /// cache through the same guarded-Put path as a database fill, and its
    /// rows are a subset of the source's — so it inherits this sequence
    /// for the gate check (docs/CLUSTER.md).
    uint64_t observed_seq = 0;

    /// The cached rows as an immutable storage::Table with the base table's
    /// arity (unprojected columns are NULL — projection coverage guarantees
    /// they are never read) and every column nullable. Built on first
    /// semantic hit, then shared by every later residual scan.
    const storage::Table* EnsureMirror();

   private:
    std::mutex mirror_mu;
    std::shared_ptr<const storage::Table> mirror;
  };

  /// Analyze a bound statement with its parameter values substituted.
  /// nullopt when the shape is unsupported as an incoming probe: not a
  /// single-table SELECT, or WHERE is not an AND of column-vs-constant
  /// predicates the interval algebra expresses exactly.
  static std::optional<Shape> Analyze(const sql::BoundQuery& query,
                                      const std::vector<Value>& params);

  /// Register `key`'s cached result as a semantic source if its shape is
  /// source-eligible; no-op otherwise. `snapshot` is the epoch snapshot
  /// that guarded the result's cache admission; registration is refused
  /// (under the index mutex, so the check and the insert are atomic) when
  /// it is no longer current — an update may have already invalidated the
  /// cache entry between the guarded Put and this call, and the removal
  /// listener that fired then saw no entry to drop. Re-registering a key
  /// replaces its entry (the refresher path installs the refreshed rows
  /// this way). At most kMaxSourcesPerTable entries are kept per table;
  /// at capacity the entry with the fewest cached rows (least containment
  /// coverage) is dropped — dropping is always safe, the exact tier still
  /// serves them.
  /// `observed_seq` is the CDC sequence the result's read observed (see
  /// SourceEntry::observed_seq); 0 outside cache-node mode.
  void TryRegister(const std::string& key, const sql::BoundQuery& query,
                   const std::vector<Value>& params, sql::ResultPtr result,
                   const dup::UpdateEpochs::Snapshot& snapshot, uint64_t observed_seq = 0);

  /// Drop `key`'s entry if present (cache removal listener). Idempotent.
  void Remove(const std::string& key);

  /// Drop everything (Policy I clears, tests).
  void Clear();

  /// Find a registered superset of `shape`: same table, projection covers
  /// every referenced column, per-column containment holds. Of several
  /// candidates the one with the fewest cached rows wins (smallest residual
  /// scan). Candidates rejected only by projection coverage bump
  /// semantic_rejects_projection.
  std::shared_ptr<SourceEntry> FindSuperset(const Shape& shape);

  /// Evaluate `query` (with `params`) over the entry's cached rows: the
  /// statement is rebound against the entry's mirror table and executed by
  /// the normal sql::Execute entry point, so the vectorized engine, the
  /// aggregate/GROUP BY machinery and ORDER BY/LIMIT all apply unchanged.
  static sql::ResultSet ExecuteResidual(SourceEntry& entry, const sql::BoundQuery& query,
                                        const std::vector<Value>& params);

  size_t entry_count() const;

  // Ladder counters, bumped by the engine as the probe advances and folded
  // into CacheStats snapshots (the keys documented in docs/SERVING.md).
  void RecordProbe() { probes_.fetch_add(1, std::memory_order_relaxed); }
  void RecordShapeReject() { rejects_shape_.fetch_add(1, std::memory_order_relaxed); }
  void RecordEpochReject() { rejects_epoch_.fetch_add(1, std::memory_order_relaxed); }
  void RecordHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void RecordResidualNanos(uint64_t ns) {
    residual_filter_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  void FoldInto(CacheStats& stats) const;

  /// Per-table bound on registered sources: each entry pins its result rows
  /// (plus, after a hit, a full-arity mirror) outside the cache's byte
  /// budget, so the index trades a little potential reuse for a hard cap.
  static constexpr size_t kMaxSourcesPerTable = 128;

 private:
  void RemoveLocked(const std::string& key);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<std::shared_ptr<SourceEntry>>> by_table_;
  std::unordered_map<std::string, std::string> table_of_key_;

  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> rejects_shape_{0};
  std::atomic<uint64_t> rejects_projection_{0};
  std::atomic<uint64_t> rejects_epoch_{0};
  std::atomic<uint64_t> residual_filter_ns_{0};
};

}  // namespace qc::cache
