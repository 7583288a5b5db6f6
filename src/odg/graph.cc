#include "odg/graph.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/error.h"

namespace qc::odg {

VertexId Graph::AddVertex(const std::string& name, VertexKind kind) {
  if (by_name_.count(name)) throw Error("ODG vertex already exists: " + name);
  VertexId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    vertices_[id] = Vertex{};
  } else {
    id = static_cast<VertexId>(vertices_.size());
    vertices_.emplace_back();
  }
  Vertex& v = vertices_[id];
  v.name = name;
  v.kind = kind;
  v.live = true;
  by_name_.emplace(name, id);
  ++live_count_;
  return id;
}

VertexId Graph::GetOrAdd(const std::string& name, VertexKind kind) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  return AddVertex(name, kind);
}

std::optional<VertexId> Graph::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

const std::string& Graph::NameOf(VertexId v) const { return At(v).name; }
VertexKind Graph::KindOf(VertexId v) const { return At(v).kind; }

bool Graph::IsLive(VertexId v) const {
  return v < vertices_.size() && vertices_[v].live;
}

namespace {

/// Where an atom's truth state over non-NULL values can change: the finite
/// endpoints of its T and F intervals. `isolated` means the state is one
/// and the same on every value that is not an endpoint, so an update flips
/// the atom only if old or new IS an endpoint (=, <>, IN, LIKE without
/// wildcards). nullopt: AtomSets cannot compile the atom.
struct Boundaries {
  std::vector<Value> values;
  bool isolated = true;
};

std::optional<Boundaries> AtomBoundaries(const Atom& atom) {
  std::optional<TriSets> sets = AtomSets(atom);
  if (!sets) return std::nullopt;
  Boundaries b;
  for (const ValueSet* set : {&sets->t, &sets->f}) {
    // The set holds no value between endpoints if all its intervals are
    // singletons, and every such value if its other intervals chain from
    // -inf to +inf, meeting only at endpoints. Anything else is a range.
    const ValueSet::Interval* prev = nullptr;
    bool chained = true;
    for (const ValueSet::Interval& iv : set->intervals()) {
      if (iv.lo) b.values.push_back(*iv.lo);
      if (iv.hi) b.values.push_back(*iv.hi);
      if (iv.lo && iv.hi && *iv.lo == *iv.hi) continue;
      chained = chained && (prev ? prev->hi && iv.lo && *prev->hi == *iv.lo : !iv.lo);
      prev = &iv;
    }
    if (prev && (!chained || prev->hi)) b.isolated = false;
  }
  std::sort(b.values.begin(), b.values.end());
  b.values.erase(std::unique(b.values.begin(), b.values.end()), b.values.end());
  return b;
}

}  // namespace

void Graph::FlipIndex::Add(VertexId to, const EdgeAnnotation* annotation) {
  if (annotation == nullptr) {
    ++always[to];
    return;
  }
  // The edge fires iff some atom flips, so each atom is posted on its own.
  for (const Atom& atom : annotation->atoms()) {
    std::optional<Boundaries> b = AtomBoundaries(atom);
    if (b && b->values.empty()) continue;
    Posting posting{to, std::make_shared<const Atom>(atom)};
    if (!b) {
      overflow[to].push_back(std::move(posting.atom));
      continue;
    }
    Handles& handles = by_target[to];
    for (Value& v : b->values) {
      if (b->isolated) {
        points[v].push_back(posting);
        handles.points.push_back(std::move(v));
      } else {
        handles.bounds.push_back(bounds.emplace(std::move(v), posting));
      }
    }
  }
}

void Graph::FlipIndex::Remove(VertexId to) {
  always.erase(to);
  overflow.erase(to);
  auto it = by_target.find(to);
  if (it == by_target.end()) return;
  for (const Value& v : it->second.points) {
    auto pit = points.find(v);
    if (pit == points.end()) continue;  // an earlier key already scrubbed v
    std::erase_if(pit->second, [to](const Posting& p) { return p.to == to; });
    if (pit->second.empty()) points.erase(pit);
  }
  for (BoundMap::iterator bit : it->second.bounds) bounds.erase(bit);
  by_target.erase(it);
}

void Graph::FlipIndex::Probe(const Value& old_v, const Value& new_v,
                             std::vector<VertexId>& fired) const {
  auto check = [&](const Posting& p) {
    if (p.atom->Flips(old_v, new_v)) fired.push_back(p.to);
  };
  if (old_v != new_v) {  // equal values give every atom the same state
    for (const Value* v : {&old_v, &new_v}) {
      if (auto it = points.find(*v); it != points.end()) {
        for (const Posting& p : it->second) check(p);
      }
    }
    const Value& lo = old_v < new_v ? old_v : new_v;
    const Value& hi = old_v < new_v ? new_v : old_v;
    for (auto it = bounds.lower_bound(lo); it != bounds.end() && !(hi < it->first); ++it) {
      check(it->second);
    }
    for (const auto& [target, atoms] : overflow) {
      for (const std::shared_ptr<const Atom>& atom : atoms) {
        if (atom->Flips(old_v, new_v)) {
          fired.push_back(target);
          break;
        }
      }
    }
  }
  for (const auto& [target, count] : always) fired.push_back(target);
}

void Graph::AddEdge(VertexId from, VertexId to, double weight,
                    std::optional<EdgeAnnotation> annotation) {
  Vertex& src = At(from);
  At(to).in.push_back(from);
  Edge edge;
  edge.from = from;
  edge.to = to;
  edge.weight = weight;
  edge.annotation = std::move(annotation);
  if (index_updates_) {
    if (!src.flips) src.flips = std::make_unique<FlipIndex>();
    src.flips->Add(to, edge.annotation ? &*edge.annotation : nullptr);
  }
  src.out.push_back(std::move(edge));
  ++edge_count_;
}

void Graph::DetachInEdges(Vertex& target, VertexId v) {
  for (VertexId src_id : target.in) {
    if (!IsLive(src_id)) continue;
    Vertex& src = vertices_[src_id];
    if (src.flips) src.flips->Remove(v);
    edge_count_ -= std::erase_if(src.out, [v](const Edge& e) { return e.to == v; });
  }
  target.in.clear();
}

void Graph::RemoveVertex(VertexId v) {
  Vertex& victim = At(v);
  DetachInEdges(victim, v);
  // Unlink outgoing edges from each target's in list.
  for (const Edge& e : victim.out) {
    if (!IsLive(e.to)) continue;
    std::erase(vertices_[e.to].in, v);
    --edge_count_;
  }
  by_name_.erase(victim.name);
  victim = Vertex{};
  free_ids_.push_back(v);
  --live_count_;
}

void Graph::RemoveInEdges(VertexId v) { DetachInEdges(At(v), v); }

size_t Graph::OutDegree(VertexId v) const { return At(v).out.size(); }
const std::vector<Graph::Edge>& Graph::OutEdges(VertexId v) const { return At(v).out; }

bool Graph::EdgeFires(const Edge& edge, const ChangeSpec& spec) const {
  if (!edge.annotation) return true;
  switch (spec.kind) {
    case ChangeSpec::Kind::kGeneric:
      return true;
    case ChangeSpec::Kind::kValueUpdate:
      return edge.annotation->AffectedByUpdate(spec.old_value, spec.new_value);
    case ChangeSpec::Kind::kRowValue:
      return edge.annotation->AffectedByRowValue(spec.new_value);
  }
  return true;
}

std::vector<VertexId> Graph::Propagate(VertexId source, const ChangeSpec& spec) const {
  const Vertex& src = At(source);
  // First hop applies the annotation gate; deeper hops are generic.
  std::vector<VertexId> fired;
  bool indexed = false;
  if (spec.kind == ChangeSpec::Kind::kValueUpdate && src.flips) {
    if (spec.old_value.is_null() || spec.new_value.is_null()) {
      index_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      src.flips->Probe(spec.old_value, spec.new_value, fired);
      index_probes_.fetch_add(1, std::memory_order_relaxed);
      indexed = true;
    }
  }
  if (!indexed) {
    for (const Edge& edge : src.out) {
      if (EdgeFires(edge, spec)) fired.push_back(edge.to);
    }
  }
  if (fired.empty()) return {};

  // Deduplicate in proportion to the fired set: a hash set for the few
  // targets a selective update fires, a bitmap over every vertex only once
  // the fired set is a sizeable share of them (generic changes).
  const bool dense = fired.size() * 8 >= vertices_.size();
  std::vector<uint8_t> bitmap(dense ? vertices_.size() : 0);
  std::unordered_set<VertexId> hashed;
  auto first_visit = [&](VertexId v) {
    if (v == source) return false;
    if (!dense) return hashed.insert(v).second;
    if (bitmap[v]) return false;
    bitmap[v] = 1;
    return true;
  };
  std::vector<VertexId> affected;
  std::vector<VertexId> frontier;
  for (VertexId to : fired) {
    if (!first_visit(to)) continue;
    affected.push_back(to);
    frontier.push_back(to);
  }
  while (!frontier.empty()) {
    VertexId v = frontier.back();
    frontier.pop_back();
    for (const Edge& edge : At(v).out) {
      if (!first_visit(edge.to)) continue;
      affected.push_back(edge.to);
      frontier.push_back(edge.to);
    }
  }
  return affected;
}

std::vector<VertexId> Graph::PropagateWeighted(VertexId source, const ChangeSpec& spec) {
  // Maximum-weight path accumulation: best[v] = max over firing paths of
  // the minimum edge weight on the path (the weakest dependency link
  // bounds how strongly the change matters to v). Simple ODGs have depth 1
  // where this is just the edge weight.
  std::vector<VertexId> affected;
  std::unordered_map<VertexId, double> best;
  struct Item {
    VertexId v;
    double strength;
  };
  std::vector<Item> stack;
  for (const Edge& edge : At(source).out) {
    if (!EdgeFires(edge, spec)) continue;
    stack.push_back({edge.to, edge.weight});
  }
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    auto it = best.find(item.v);
    if (it != best.end() && it->second >= item.strength) continue;
    if (it == best.end()) affected.push_back(item.v);
    best[item.v] = item.strength;
    for (const Edge& edge : At(item.v).out) {
      stack.push_back({edge.to, std::min(item.strength, edge.weight)});
    }
  }
  for (const auto& [v, strength] : best) vertices_[v].obsolescence += strength;
  return affected;
}

double Graph::ObsolescenceOf(VertexId v) const { return At(v).obsolescence; }
void Graph::ResetObsolescence(VertexId v) { At(v).obsolescence = 0.0; }

std::string Graph::ToDot() const {
  std::ostringstream os;
  os << "digraph odg {\n";
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (!vertices_[v].live) continue;
    const char* shape = vertices_[v].kind == VertexKind::kUnderlying ? "box"
                        : vertices_[v].kind == VertexKind::kObject   ? "ellipse"
                                                                     : "diamond";
    os << "  v" << v << " [label=\"" << vertices_[v].name << "\", shape=" << shape << "];\n";
  }
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (!vertices_[v].live) continue;
    for (const Edge& e : vertices_[v].out) {
      os << "  v" << v << " -> v" << e.to;
      os << " [label=\"" << e.weight;
      if (e.annotation) os << " : " << e.annotation->ToString(vertices_[v].name);
      os << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

const Graph::Vertex& Graph::At(VertexId v) const {
  if (!IsLive(v)) throw Error("ODG vertex " + std::to_string(v) + " is not live");
  return vertices_[v];
}

Graph::Vertex& Graph::At(VertexId v) {
  if (!IsLive(v)) throw Error("ODG vertex " + std::to_string(v) + " is not live");
  return vertices_[v];
}

}  // namespace qc::odg
