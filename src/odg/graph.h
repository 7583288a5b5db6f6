// The Object Dependence Graph (ODG) of the DUP algorithm (paper §4).
//
// Vertices represent underlying data (attribute columns), cached objects
// (query results, web pages), or intermediate composite data. A directed
// edge (v, u) means "a change to v also affects u"; changes propagate
// transitively. Edges carry optional weights (Fig. 2 — used for
// obsolescence accounting) and optional value annotations (Fig. 4 — the
// value-aware enhancement).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "odg/annotation.h"

namespace qc::odg {

using VertexId = uint32_t;

enum class VertexKind {
  kUnderlying,    // no incoming edges in a simple ODG (paper Fig. 3)
  kObject,        // cacheable entity; no outgoing edges in a simple ODG
  kIntermediate,  // composite data in multi-level graphs (paper Fig. 2)
};

/// What changed at a source vertex; annotated edges gate on it.
struct ChangeSpec {
  enum class Kind {
    kGeneric,      // unknown change: every edge fires
    kValueUpdate,  // attribute update old→new: annotated edges check Flips
    kRowValue,     // insert/delete with column value v: annotated edges
                   // check the satisfying filter
  };

  Kind kind = Kind::kGeneric;
  Value old_value;
  Value new_value;  // also holds v for kRowValue

  static ChangeSpec Generic() { return {}; }
  static ChangeSpec Update(Value old_v, Value new_v) {
    ChangeSpec s;
    s.kind = Kind::kValueUpdate;
    s.old_value = std::move(old_v);
    s.new_value = std::move(new_v);
    return s;
  }
  static ChangeSpec RowValue(Value v) {
    ChangeSpec s;
    s.kind = Kind::kRowValue;
    s.new_value = std::move(v);
    return s;
  }
};

class Graph {
 public:
  struct Edge {
    VertexId from = 0;
    VertexId to = 0;
    double weight = 1.0;
    std::optional<EdgeAnnotation> annotation;
  };

  /// `index_updates` builds, per vertex, the boundary index that answers
  /// value updates (see Propagate); false leaves every update on the
  /// linear scan, the reference the index is tested against. Fixed for
  /// the graph's lifetime.
  explicit Graph(bool index_updates = true) : index_updates_(index_updates) {}

  /// Add a vertex with a unique name; throws Error if the name exists.
  VertexId AddVertex(const std::string& name, VertexKind kind);

  /// Find an existing vertex or create it.
  VertexId GetOrAdd(const std::string& name, VertexKind kind);

  std::optional<VertexId> Find(const std::string& name) const;
  const std::string& NameOf(VertexId v) const;
  VertexKind KindOf(VertexId v) const;
  bool IsLive(VertexId v) const;

  void AddEdge(VertexId from, VertexId to, double weight = 1.0,
               std::optional<EdgeAnnotation> annotation = std::nullopt);

  /// Remove a vertex and all incident edges (cached object evicted).
  void RemoveVertex(VertexId v);

  /// Drop every edge targeting `v`, keeping the vertex and its outgoing
  /// edges (used when an object's dependency set is being rebuilt).
  void RemoveInEdges(VertexId v);

  size_t VertexCount() const { return live_count_; }
  size_t EdgeCount() const { return edge_count_; }
  size_t OutDegree(VertexId v) const;
  const std::vector<Edge>& OutEdges(VertexId v) const;

  /// Propagate a change at `source` through the graph. An edge whose
  /// annotation rejects the ChangeSpec does not fire; transitive edges
  /// beyond the first hop see a Generic change (annotations constrain the
  /// attribute→object hop only). Returns every distinct affected vertex
  /// (excluding the source), in discovery order.
  ///
  /// kValueUpdate changes with non-null old/new values are answered from
  /// the source's boundary index when the graph builds one, with results
  /// identical to the linear scan. Each annotated edge's atoms are compiled
  /// to their Kleene T/F sets (AtomSets), and every finite endpoint of those
  /// intervals is posted once. An atom's state (T/F/unknown) is constant
  /// between consecutive endpoints, so it can differ between old and new
  /// only if an endpoint lies in [min(old,new), max(old,new)]: the probe
  /// scans that window and fires a candidate atom's edge iff Atom::Flips.
  /// Atoms whose state changes only AT their endpoints (=, <>, IN, LIKE
  /// without wildcards) post into a hash bucket instead, probed at old and
  /// new. Atoms with one state for every non-NULL value post nothing.
  /// Wildcard-LIKE atoms are checked on every probe, and unannotated edges
  /// always fire. NULL-valued updates, kGeneric and kRowValue changes
  /// take the linear scan.
  std::vector<VertexId> Propagate(VertexId source, const ChangeSpec& spec) const;

  /// Probe accounting (relaxed atomics: Propagate stays const and safe for
  /// concurrent readers): indexed update probes served, and update
  /// propagations that fell back to the linear scan because a NULL-valued
  /// side made the probe unanswerable.
  uint64_t index_probes() const { return index_probes_.load(std::memory_order_relaxed); }
  uint64_t index_fallbacks() const { return index_fallbacks_.load(std::memory_order_relaxed); }

  /// Weighted-DUP accounting (paper Fig. 2): like Propagate, but each
  /// affected vertex also accumulates the maximum-weight path from the
  /// source into its obsolescence counter. Callers compare against a
  /// threshold to decide between keeping a "slightly obsolete" object and
  /// invalidating it.
  std::vector<VertexId> PropagateWeighted(VertexId source, const ChangeSpec& spec);

  double ObsolescenceOf(VertexId v) const;
  void ResetObsolescence(VertexId v);

  /// Graphviz rendering for docs and debugging.
  std::string ToDot() const;

 private:
  /// The boundary index of one vertex's out-edges (see Propagate).
  struct FlipIndex {
    /// One atom of an edge to `to`, shared by all of the atom's postings.
    struct Posting {
      VertexId to = 0;
      std::shared_ptr<const Atom> atom;
    };
    using BoundMap = std::multimap<Value, Posting>;

    /// Post the atoms of one edge (null: an unannotated edge).
    void Add(VertexId to, const EdgeAnnotation* annotation);
    /// Drop every posting of every edge targeting `to`. Idempotent.
    void Remove(VertexId to);
    /// Appends the targets of firing edges; may repeat a target.
    void Probe(const Value& old_v, const Value& new_v, std::vector<VertexId>& fired) const;

    std::unordered_map<Value, std::vector<Posting>, ValueHash> points;
    BoundMap bounds;
    /// Atoms AtomSets cannot compile (wildcard LIKE), checked per probe.
    std::unordered_map<VertexId, std::vector<std::shared_ptr<const Atom>>> overflow;
    /// Unannotated edges, by multiplicity.
    std::unordered_map<VertexId, uint32_t> always;
    /// What Remove must erase for one target: its point keys and bounds.
    struct Handles {
      std::vector<Value> points;
      std::vector<BoundMap::iterator> bounds;
    };
    std::unordered_map<VertexId, Handles> by_target;
  };

  struct Vertex {
    std::string name;
    VertexKind kind = VertexKind::kObject;
    bool live = false;
    double obsolescence = 0.0;
    std::vector<Edge> out;
    std::vector<VertexId> in;  // sources, for O(degree) removal
    /// Boundary index over `out` (created with the first out-edge when the
    /// graph indexes updates; null = linear scan).
    std::unique_ptr<FlipIndex> flips;
  };

  const Vertex& At(VertexId v) const;
  Vertex& At(VertexId v);
  bool EdgeFires(const Edge& edge, const ChangeSpec& spec) const;
  /// Unlink every edge into `v` from its sources' out lists and indexes.
  void DetachInEdges(Vertex& target, VertexId v);

  std::vector<Vertex> vertices_;
  std::unordered_map<std::string, VertexId> by_name_;
  std::vector<VertexId> free_ids_;
  size_t live_count_ = 0;
  size_t edge_count_ = 0;
  const bool index_updates_;
  mutable std::atomic<uint64_t> index_probes_{0};
  mutable std::atomic<uint64_t> index_fallbacks_{0};
};

}  // namespace qc::odg
