#include "common/value_set.h"

#include <algorithm>
#include <sstream>

namespace qc {

namespace {

using Interval = ValueSet::Interval;

bool EmptyInterval(const Interval& iv) {
  if (!iv.lo || !iv.hi) return false;
  if (*iv.lo < *iv.hi) return false;
  if (*iv.lo == *iv.hi) return !(iv.lo_closed && iv.hi_closed);
  return true;  // lo > hi
}

// Sort order on lower bounds: -inf first; at equal values a closed bound
// starts earlier than an open one.
bool LoLess(const Interval& x, const Interval& y) {
  if (!x.lo) return y.lo.has_value();
  if (!y.lo) return false;
  if (*x.lo != *y.lo) return *x.lo < *y.lo;
  return x.lo_closed && !y.lo_closed;
}

// Does x's upper bound end before y's? +inf last; at equal values an open
// bound ends earlier than a closed one.
bool HiLess(const Interval& x, const Interval& y) {
  if (!x.hi) return false;
  if (!y.hi) return true;
  if (*x.hi != *y.hi) return *x.hi < *y.hi;
  return !x.hi_closed && y.hi_closed;
}

// With cur.lo <= nxt.lo: do the intervals overlap or touch (no value gap
// between cur's end and nxt's start)? Touching requires one closed side:
// [1,2) ∪ [2,3] coalesces, (-inf,2) ∪ (2,inf) does not.
bool MergeableWith(const Interval& cur, const Interval& nxt) {
  if (!cur.hi || !nxt.lo) return true;
  if (*cur.hi > *nxt.lo) return true;
  if (*cur.hi < *nxt.lo) return false;
  return cur.hi_closed || nxt.lo_closed;
}

}  // namespace

ValueSet ValueSet::All(bool with_null) {
  ValueSet s;
  s.intervals_.push_back(Interval{});
  s.null_in_ = with_null;
  return s;
}

ValueSet ValueSet::Point(Value v) {
  ValueSet s;
  s.intervals_.push_back(Interval{v, true, std::move(v), true});
  return s;
}

ValueSet ValueSet::Below(Value b, bool closed) {
  ValueSet s;
  s.intervals_.push_back(Interval{std::nullopt, false, std::move(b), closed});
  return s;
}

ValueSet ValueSet::Above(Value a, bool closed) {
  ValueSet s;
  s.intervals_.push_back(Interval{std::move(a), closed, std::nullopt, false});
  return s;
}

ValueSet ValueSet::Range(Value a, Value b) {
  ValueSet s;
  if (b < a) return s;
  s.intervals_.push_back(Interval{std::move(a), true, std::move(b), true});
  return s;
}

ValueSet ValueSet::Union(const ValueSet& a, const ValueSet& b) {
  ValueSet out;
  out.null_in_ = a.null_in_ || b.null_in_;
  std::vector<Interval> all;
  all.reserve(a.intervals_.size() + b.intervals_.size());
  all.insert(all.end(), a.intervals_.begin(), a.intervals_.end());
  all.insert(all.end(), b.intervals_.begin(), b.intervals_.end());
  std::sort(all.begin(), all.end(), LoLess);
  for (Interval& iv : all) {
    if (EmptyInterval(iv)) continue;
    if (!out.intervals_.empty() && MergeableWith(out.intervals_.back(), iv)) {
      Interval& cur = out.intervals_.back();
      if (HiLess(cur, iv)) {
        cur.hi = iv.hi;
        cur.hi_closed = iv.hi_closed;
      }
    } else {
      out.intervals_.push_back(std::move(iv));
    }
  }
  return out;
}

ValueSet ValueSet::Complement(const ValueSet& s) {
  ValueSet out;
  out.null_in_ = !s.null_in_;
  std::optional<Value> cur_lo;  // unset = -inf
  bool cur_lo_closed = false;
  bool open_ended = true;  // a trailing gap reaches +inf
  for (const Interval& iv : s.intervals_) {
    if (iv.lo) {
      Interval gap{cur_lo, cur_lo_closed, *iv.lo, !iv.lo_closed};
      if (!EmptyInterval(gap)) out.intervals_.push_back(std::move(gap));
    }
    if (!iv.hi) {
      open_ended = false;
      break;
    }
    cur_lo = *iv.hi;
    cur_lo_closed = !iv.hi_closed;
  }
  if (open_ended) {
    out.intervals_.push_back(Interval{cur_lo, cur_lo_closed, std::nullopt, false});
  }
  return out;
}

ValueSet ValueSet::Intersect(const ValueSet& a, const ValueSet& b) {
  // De Morgan over the (values ∪ {NULL}) universe.
  return Complement(Union(Complement(a), Complement(b)));
}

bool ValueSet::Contains(const Value& v) const {
  if (v.is_null()) return null_in_;
  for (const Interval& iv : intervals_) {
    if (iv.lo && (v < *iv.lo || (v == *iv.lo && !iv.lo_closed))) continue;
    if (iv.hi && (v > *iv.hi || (v == *iv.hi && !iv.hi_closed))) continue;
    return true;
  }
  return false;
}

bool ValueSet::IsUniverse() const {
  return null_in_ && intervals_.size() == 1 && !intervals_[0].lo && !intervals_[0].hi;
}

std::string ValueSet::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  if (null_in_) {
    os << "NULL";
    first = false;
  }
  for (const Interval& iv : intervals_) {
    if (!first) os << ", ";
    first = false;
    os << (iv.lo && iv.lo_closed ? "[" : "(");
    os << (iv.lo ? iv.lo->ToString() : "-inf") << "," << (iv.hi ? iv.hi->ToString() : "+inf");
    os << (iv.hi && iv.hi_closed ? "]" : ")");
  }
  os << "}";
  return os.str();
}

}  // namespace qc
