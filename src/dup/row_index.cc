#include "dup/row_index.h"

#include <algorithm>

namespace qc::dup {

using Interval = ValueSet::Interval;

void TableRowIndex::AddKey(const std::string& key,
                           std::vector<std::pair<uint32_t, ValueSet>> gates) {
  RemoveKey(key);
  KeyId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<KeyId>(keys_.size());
    keys_.emplace_back();
  }
  KeyInfo& info = keys_[id];
  info.name = key;
  info.live = true;
  by_name_.emplace(key, id);
  for (auto& [column, set] : gates) {
    if (set.IsUniverse()) continue;  // cannot reject any row: not a gate
    ++info.gate_count;
    PostGate(id, column, set);
  }
  if (info.gate_count == 0) zero_gate_.push_back(id);
}

void TableRowIndex::AddLinearKey(const std::string& key) {
  RemoveKey(key);
  KeyId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<KeyId>(keys_.size());
    keys_.emplace_back();
  }
  KeyInfo& info = keys_[id];
  info.name = key;
  info.live = true;
  info.linear = true;
  by_name_.emplace(key, id);
  linear_.push_back(id);
}

void TableRowIndex::PostGate(KeyId id, uint32_t column, const ValueSet& set) {
  ColumnIndex& col = columns_[column];
  KeyInfo& info = keys_[id];
  auto post = [&](Posting::Kind kind) {
    Posting p;
    p.kind = kind;
    p.column = column;
    info.postings.push_back(std::move(p));
    return &info.postings.back();
  };
  col.gated.push_back(id);
  post(Posting::Kind::kGated);
  if (set.contains_null()) {
    col.null_ok.push_back(id);
    post(Posting::Kind::kNull);
  }
  for (const Interval& iv : set.intervals()) {
    if (!iv.lo && !iv.hi) {
      col.all.push_back(id);
      post(Posting::Kind::kAll);
    } else if (!iv.lo) {
      Posting* p = post(Posting::Kind::kBelow);
      p->ray_it = col.below.emplace(*iv.hi, RayEntry{id, iv.hi_closed});
    } else if (!iv.hi) {
      Posting* p = post(Posting::Kind::kAbove);
      p->ray_it = col.above.emplace(*iv.lo, RayEntry{id, iv.lo_closed});
    } else if (*iv.lo == *iv.hi) {
      // Singletons are stored closed on both sides (empties are dropped).
      Posting* p = post(Posting::Kind::kPoint);
      p->point = *iv.lo;
      col.points[*iv.lo].push_back(id);
    } else {
      Posting* p = post(Posting::Kind::kFinite);
      p->finite_it = col.finite.emplace(*iv.lo, FiniteEntry{id, iv.lo_closed, *iv.hi, iv.hi_closed});
    }
  }
}

void TableRowIndex::RemoveKey(const std::string& key) {
  auto it = by_name_.find(key);
  if (it == by_name_.end()) return;
  const KeyId id = it->second;
  by_name_.erase(it);
  KeyInfo& info = keys_[id];
  for (const Posting& p : info.postings) {
    auto cit = columns_.find(p.column);
    if (cit == columns_.end()) continue;
    ColumnIndex& col = cit->second;
    switch (p.kind) {
      case Posting::Kind::kGated:
        std::erase(col.gated, id);
        break;
      case Posting::Kind::kNull:
        std::erase(col.null_ok, id);
        break;
      case Posting::Kind::kAll:
        std::erase(col.all, id);
        break;
      case Posting::Kind::kPoint: {
        auto pit = col.points.find(p.point);
        if (pit != col.points.end()) {
          std::erase(pit->second, id);
          if (pit->second.empty()) col.points.erase(pit);
        }
        break;
      }
      case Posting::Kind::kBelow:
        col.below.erase(p.ray_it);
        break;
      case Posting::Kind::kAbove:
        col.above.erase(p.ray_it);
        break;
      case Posting::Kind::kFinite:
        col.finite.erase(p.finite_it);
        break;
    }
  }
  if (info.linear) std::erase(linear_, id);
  if (!info.linear && info.gate_count == 0) std::erase(zero_gate_, id);
  info = KeyInfo{};
  free_ids_.push_back(id);
}

void TableRowIndex::Probe(const std::vector<Value>& row, std::vector<std::string>& fired,
                          std::vector<std::string>& linear) const {
  probes_.fetch_add(1, std::memory_order_relaxed);
  if (!linear_.empty()) {
    linear_fallbacks_.fetch_add(linear_.size(), std::memory_order_relaxed);
    for (KeyId id : linear_) linear.push_back(keys_[id].name);
  }
  for (KeyId id : zero_gate_) fired.push_back(keys_[id].name);

  std::unordered_map<KeyId, uint32_t> credits;
  for (const auto& [column, col] : columns_) {
    if (col.gated.empty()) continue;
    if (column >= row.size()) {
      // Column missing from the row image: it cannot reject (mirrors the
      // engine's direct conjunctive check).
      for (KeyId id : col.gated) ++credits[id];
      continue;
    }
    const Value& v = row[column];
    if (v.is_null()) {
      for (KeyId id : col.null_ok) ++credits[id];
      continue;
    }
    for (KeyId id : col.all) ++credits[id];
    if (auto pit = col.points.find(v); pit != col.points.end()) {
      for (KeyId id : pit->second) ++credits[id];
    }
    for (auto rit = col.below.lower_bound(v); rit != col.below.end(); ++rit) {
      if (rit->first == v && !rit->second.closed) continue;  // open at v
      ++credits[rit->second.key];
    }
    for (auto rit = col.above.begin(); rit != col.above.end(); ++rit) {
      if (v < rit->first) break;
      if (rit->first == v && !rit->second.closed) continue;
      ++credits[rit->second.key];
    }
    for (auto fit = col.finite.begin(); fit != col.finite.end(); ++fit) {
      if (v < fit->first) break;
      const FiniteEntry& e = fit->second;
      if (fit->first == v && !e.lo_closed) continue;
      if (e.hi < v || (e.hi == v && !e.hi_closed)) continue;
      ++credits[e.key];
    }
  }
  for (const auto& [id, count] : credits) {
    // Each gate's pieces are disjoint, so a gate credits at most once:
    // count == gate_count means every gate accepted.
    if (count == keys_[id].gate_count) fired.push_back(keys_[id].name);
  }
}

}  // namespace qc::dup
