// Interval sets over the Value total order: the one structure that answers
// "which values does this predicate accept?". odg/annotation.h compiles
// column predicates into Kleene T/F ValueSets; the ODG's update-flip index,
// the DUP row-event gates (dup/row_index.h) and the semantic tier's
// containment test (cache/semantic_index.h) all consume them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace qc {

/// A set of non-NULL values represented as sorted disjoint intervals over
/// the Value total order, plus an explicit NULL-membership flag.
class ValueSet {
 public:
  /// One interval. An unset bound value means infinite on that side (and
  /// `closed` is meaningless). Empty intervals are never stored.
  struct Interval {
    std::optional<Value> lo;
    bool lo_closed = false;
    std::optional<Value> hi;
    bool hi_closed = false;
  };

  static ValueSet Empty() { return ValueSet(); }
  static ValueSet All(bool with_null);
  static ValueSet Point(Value v);
  /// (-inf, b] when closed, (-inf, b) otherwise.
  static ValueSet Below(Value b, bool closed);
  /// [a, +inf) when closed, (a, +inf) otherwise.
  static ValueSet Above(Value a, bool closed);
  /// [a, b] (both closed). Empty when b < a.
  static ValueSet Range(Value a, Value b);

  static ValueSet Union(const ValueSet& a, const ValueSet& b);
  static ValueSet Intersect(const ValueSet& a, const ValueSet& b);
  /// Complement relative to (all values ∪ {NULL}).
  static ValueSet Complement(const ValueSet& s);

  bool Contains(const Value& v) const;
  bool contains_null() const { return null_in_; }
  bool empty() const { return intervals_.empty() && !null_in_; }
  bool IsUniverse() const;  // every value including NULL
  const std::vector<Interval>& intervals() const { return intervals_; }

  std::string ToString() const;

 private:
  std::vector<Interval> intervals_;  // sorted, disjoint, non-touching
  bool null_in_ = false;
};

}  // namespace qc
