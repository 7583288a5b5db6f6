// Row-event index: answers "which registered queries can an inserted or
// deleted row affect?" with one probe per changed row instead of one
// filter evaluation per registered query.
//
// The engine's value-aware insert/delete check (paper §4.2's Platinum
// example) is conjunctive: the row must pass EVERY annotated column filter
// the query places on the table. odg::CompileAcceptSet compiles each
// single-column filter (odg::ColumnPredicate) into the set of values for
// which the filter is *definitely true* — a ValueSet (common/value_set.h)
// — and this module indexes those sets per column:
//
//   * singleton intervals          → hash buckets (points_)
//   * rays (-inf, b] / (-inf, b)   → ordered scan from b >= v (below_)
//   * rays [a, +inf) / (a, +inf)   → ordered scan up to a <= v (above_)
//   * bounded intervals            → keyed by lo, verified against hi
//                                    (finite_; scan is bounded by the
//                                    intervals with lo <= v, not output-
//                                    sensitive — acceptable while bounded-
//                                    interval gates are rare)
//   * whole-line intervals         → all_ (only NULL can be rejected)
//
// A (key, column-filter) pair is one *gate*; the pieces of one gate are
// disjoint, so a probe value credits each gate at most once and a key
// fires iff its credited-gate count equals its gate count. Keys with no
// gates (no annotated filters on this table) always fire; keys with an
// uncompilable filter (wildcard LIKE) are returned separately so the
// caller can fall back to direct filter evaluation.
//
// @thread_safety Externally synchronized by the DUP engine lock: Probe may
// run under a shared lock from many threads concurrently (it only touches
// const state and relaxed atomic counters); Add*/RemoveKey require the
// exclusive lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value_set.h"

namespace qc::dup {

/// Per-table index over registered query keys. See file comment.
class TableRowIndex {
 public:
  /// Register `key` with one gate per (column, accept-set). An empty gate
  /// list means the key fires on every row event of this table.
  void AddKey(const std::string& key, std::vector<std::pair<uint32_t, ValueSet>> gates);

  /// Register `key` as linear: Probe reports it for direct evaluation.
  void AddLinearKey(const std::string& key);

  /// Remove a key registered through either entry point. Idempotent.
  void RemoveKey(const std::string& key);

  bool empty() const { return by_name_.empty(); }
  size_t key_count() const { return by_name_.size(); }

  /// Classify every registered key against a row image: keys whose gates
  /// all accept are appended to `fired`; linear keys are appended to
  /// `linear` (caller decides by evaluating the real filter). A column
  /// index beyond the row's arity cannot reject (mirrors the engine's
  /// direct check).
  void Probe(const std::vector<Value>& row, std::vector<std::string>& fired,
             std::vector<std::string>& linear) const;

  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t linear_fallbacks() const { return linear_fallbacks_.load(std::memory_order_relaxed); }

 private:
  using KeyId = uint32_t;

  struct RayEntry {
    KeyId key;
    bool closed;
  };
  struct FiniteEntry {
    KeyId key;
    bool lo_closed;
    Value hi;
    bool hi_closed;
  };

  /// Where one posted piece lives, so RemoveKey can take it back out.
  struct Posting {
    enum class Kind { kPoint, kBelow, kAbove, kFinite, kAll, kNull, kGated };
    Kind kind;
    uint32_t column;
    Value point;  // kPoint bucket key
    std::multimap<Value, RayEntry>::iterator ray_it;
    std::multimap<Value, FiniteEntry>::iterator finite_it;
  };

  struct ColumnIndex {
    std::unordered_map<Value, std::vector<KeyId>, ValueHash> points;
    std::multimap<Value, RayEntry> below;   // keyed by the ray's bound b
    std::multimap<Value, RayEntry> above;   // keyed by the ray's bound a
    std::multimap<Value, FiniteEntry> finite;  // keyed by lo
    std::vector<KeyId> all;      // gates accepting every non-NULL value
    std::vector<KeyId> null_ok;  // gates accepting NULL
    std::vector<KeyId> gated;    // every gate on this column (short-row credit)
  };

  struct KeyInfo {
    std::string name;
    bool live = false;
    bool linear = false;
    uint32_t gate_count = 0;
    std::vector<Posting> postings;
  };

  void PostGate(KeyId id, uint32_t column, const ValueSet& set);

  std::unordered_map<std::string, KeyId> by_name_;
  std::vector<KeyInfo> keys_;
  std::vector<KeyId> free_ids_;
  std::unordered_map<uint32_t, ColumnIndex> columns_;
  std::vector<KeyId> zero_gate_;  // live keys with gate_count == 0
  std::vector<KeyId> linear_;     // live linear keys

  mutable std::atomic<uint64_t> probes_{0};
  mutable std::atomic<uint64_t> linear_fallbacks_{0};
};

}  // namespace qc::dup
