#include "odg/annotation.h"

#include <sstream>

#include "common/strings.h"

namespace qc::odg {

namespace {

std::optional<bool> ApplyPolarity(std::optional<bool> truth, bool negated) {
  if (!truth) return std::nullopt;
  return negated ? !*truth : *truth;
}

/// Polarity-free truth of an atom on a value; nullopt = unknown.
std::optional<bool> RawEval(const Atom& atom, const Value& v) {
  switch (atom.kind) {
    case Atom::Kind::kIsNull:
      return v.is_null();
    case Atom::Kind::kCmp: {
      if (v.is_null() || atom.a.is_null()) return std::nullopt;
      const auto cmp = v.compare(atom.a);
      switch (atom.cmp_op) {
        case sql::BinaryOp::kEq: return cmp == std::strong_ordering::equal;
        case sql::BinaryOp::kNe: return cmp != std::strong_ordering::equal;
        case sql::BinaryOp::kLt: return cmp == std::strong_ordering::less;
        case sql::BinaryOp::kLe: return cmp != std::strong_ordering::greater;
        case sql::BinaryOp::kGt: return cmp == std::strong_ordering::greater;
        case sql::BinaryOp::kGe: return cmp != std::strong_ordering::less;
        default: return std::nullopt;
      }
    }
    case Atom::Kind::kBetween:
      if (v.is_null() || atom.a.is_null() || atom.b.is_null()) return std::nullopt;
      return v >= atom.a && v <= atom.b;
    case Atom::Kind::kIn: {
      if (v.is_null()) return std::nullopt;
      bool saw_null = false;
      for (const Value& item : atom.set) {
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (v == item) return true;
      }
      return saw_null ? std::nullopt : std::optional<bool>(false);
    }
    case Atom::Kind::kLike:
      if (v.is_null() || atom.a.is_null()) return std::nullopt;
      if (!v.is_string() || !atom.a.is_string()) return false;
      return LikeMatch(v.as_string(), atom.a.as_string());
  }
  return std::nullopt;
}

}  // namespace

std::optional<bool> Atom::Eval(const Value& v) const {
  return ApplyPolarity(RawEval(*this, v), negated);
}

bool Atom::Flips(const Value& old_v, const Value& new_v) const {
  // Three truth states: true / false / unknown. The edge must fire exactly
  // when the state differs — an unknown→true transition can move a row into
  // the result just like false→true can.
  const std::optional<bool> before = RawEval(*this, old_v);
  const std::optional<bool> after = RawEval(*this, new_v);
  return before != after;
}

std::string Atom::ToString(const std::string& column) const {
  std::ostringstream os;
  if (negated) os << "NOT ";
  switch (kind) {
    case Kind::kCmp:
      os << column << " " << sql::BinaryOpName(cmp_op) << " " << a.ToString();
      break;
    case Kind::kBetween:
      os << column << " BETWEEN " << a.ToString() << " AND " << b.ToString();
      break;
    case Kind::kIn: {
      os << column << " IN (";
      for (size_t i = 0; i < set.size(); ++i) {
        if (i) os << ", ";
        os << set[i].ToString();
      }
      os << ")";
      break;
    }
    case Kind::kLike:
      os << column << " LIKE " << a.ToString();
      break;
    case Kind::kIsNull:
      os << column << " IS NULL";
      break;
  }
  return os.str();
}

ColumnPredicate ColumnPredicate::True() { return ColumnPredicate{}; }

ColumnPredicate ColumnPredicate::MakeAtom(Atom a) {
  ColumnPredicate p;
  p.kind = Kind::kAtom;
  p.atom = std::move(a);
  return p;
}

ColumnPredicate ColumnPredicate::And(std::vector<ColumnPredicate> cs) {
  // TRUE conjuncts are identity; a single child collapses.
  std::vector<ColumnPredicate> kept;
  for (auto& c : cs) {
    if (!c.IsTriviallyTrue()) kept.push_back(std::move(c));
  }
  if (kept.empty()) return True();
  if (kept.size() == 1) return std::move(kept[0]);
  ColumnPredicate p;
  p.kind = Kind::kAnd;
  p.children = std::move(kept);
  return p;
}

ColumnPredicate ColumnPredicate::Or(std::vector<ColumnPredicate> cs) {
  // A TRUE disjunct absorbs the whole disjunction.
  for (auto& c : cs) {
    if (c.IsTriviallyTrue()) return True();
  }
  if (cs.empty()) return True();
  if (cs.size() == 1) return std::move(cs[0]);
  ColumnPredicate p;
  p.kind = Kind::kOr;
  p.children = std::move(cs);
  return p;
}

std::optional<bool> ColumnPredicate::Eval(const Value& v) const {
  switch (kind) {
    case Kind::kTrue:
      return true;
    case Kind::kAtom:
      return atom.Eval(v);
    case Kind::kNot: {
      auto inner = children[0].Eval(v);
      if (!inner) return std::nullopt;
      return !*inner;
    }
    case Kind::kAnd: {
      bool unknown = false;
      for (const ColumnPredicate& c : children) {
        auto t = c.Eval(v);
        if (t && !*t) return false;
        if (!t) unknown = true;
      }
      if (unknown) return std::nullopt;
      return true;
    }
    case Kind::kOr: {
      bool unknown = false;
      for (const ColumnPredicate& c : children) {
        auto t = c.Eval(v);
        if (t && *t) return true;
        if (!t) unknown = true;
      }
      if (unknown) return std::nullopt;
      return false;
    }
  }
  return std::nullopt;
}

std::string ColumnPredicate::ToString(const std::string& column) const {
  switch (kind) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kAtom:
      return atom.ToString(column);
    case Kind::kNot:
      return "NOT (" + children[0].ToString(column) + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) out += sep;
        out += children[i].ToString(column);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

bool EdgeAnnotation::AffectedByUpdate(const Value& old_v, const Value& new_v) const {
  for (const Atom& atom : atoms_) {
    if (atom.Flips(old_v, new_v)) return true;
  }
  return false;
}

bool EdgeAnnotation::AffectedByRowValue(const Value& v) const {
  // A row can contribute to the result only if the filter does not
  // definitely exclude it; unknown (NULL) means the WHERE clause cannot be
  // definitely true either, so the row is excluded and the edge stays quiet.
  auto t = filter_.Eval(v);
  return t.has_value() && *t;
}

std::string EdgeAnnotation::ToString(const std::string& column) const {
  std::ostringstream os;
  os << "atoms{";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i) os << "; ";
    os << atoms_[i].ToString(column);
  }
  os << "} filter{" << filter_.ToString(column) << "}";
  return os.str();
}

namespace {

ValueSet NullOnly() { return ValueSet::Complement(ValueSet::All(false)); }

ValueSet NonNullComplement(const ValueSet& s) {
  return ValueSet::Intersect(ValueSet::Complement(s), ValueSet::All(false));
}

}  // namespace

std::optional<TriSets> AtomSets(const Atom& atom) {
  TriSets out;  // polarity-free; swapped at the end when negated
  switch (atom.kind) {
    case Atom::Kind::kIsNull:
      out.t = NullOnly();
      out.f = ValueSet::All(false);
      break;
    case Atom::Kind::kCmp: {
      if (atom.a.is_null()) break;  // always unknown: T = F = ∅
      switch (atom.cmp_op) {
        case sql::BinaryOp::kEq:
          out.t = ValueSet::Point(atom.a);
          out.f = NonNullComplement(out.t);
          break;
        case sql::BinaryOp::kNe:
          out.f = ValueSet::Point(atom.a);
          out.t = NonNullComplement(out.f);
          break;
        case sql::BinaryOp::kLt:
          out.t = ValueSet::Below(atom.a, false);
          out.f = ValueSet::Above(atom.a, true);
          break;
        case sql::BinaryOp::kLe:
          out.t = ValueSet::Below(atom.a, true);
          out.f = ValueSet::Above(atom.a, false);
          break;
        case sql::BinaryOp::kGt:
          out.t = ValueSet::Above(atom.a, false);
          out.f = ValueSet::Below(atom.a, true);
          break;
        case sql::BinaryOp::kGe:
          out.t = ValueSet::Above(atom.a, true);
          out.f = ValueSet::Below(atom.a, false);
          break;
        default:
          break;  // RawEval returns unknown for any other operator
      }
      break;
    }
    case Atom::Kind::kBetween:
      if (atom.a.is_null() || atom.b.is_null()) break;  // always unknown
      if (atom.b < atom.a) {
        out.f = ValueSet::All(false);  // empty range: false for every value
        break;
      }
      out.t = ValueSet::Range(atom.a, atom.b);
      out.f = ValueSet::Union(ValueSet::Below(atom.a, false), ValueSet::Above(atom.b, false));
      break;
    case Atom::Kind::kIn: {
      bool saw_null = false;
      for (const Value& item : atom.set) {
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        out.t = ValueSet::Union(out.t, ValueSet::Point(item));
      }
      out.f = saw_null ? ValueSet::Empty() : NonNullComplement(out.t);
      break;
    }
    case Atom::Kind::kLike: {
      if (atom.a.is_null()) break;  // always unknown
      if (!atom.a.is_string()) {
        out.f = ValueSet::All(false);  // RawEval: false for every non-null value
        break;
      }
      const std::string& pattern = atom.a.as_string();
      if (pattern.find_first_of("%_") != std::string::npos) {
        return std::nullopt;  // a wildcard match is not an interval set
      }
      // No wildcards: LIKE is string equality, and in the Value total
      // order only the pattern itself compares equal to it.
      out.t = ValueSet::Point(atom.a);
      out.f = NonNullComplement(out.t);
      break;
    }
  }
  if (atom.negated) std::swap(out.t, out.f);
  return out;
}

namespace {

// Kleene combinators, mirroring ColumnPredicate::Eval: And is true iff all
// children are true and false iff any child is false; Or dually; Not swaps.
std::optional<TriSets> CompileTri(const ColumnPredicate& p) {
  using Kind = ColumnPredicate::Kind;
  switch (p.kind) {
    case Kind::kTrue:
      return TriSets{ValueSet::All(true), ValueSet::Empty()};
    case Kind::kAtom:
      return AtomSets(p.atom);
    case Kind::kNot: {
      if (p.children.empty()) return std::nullopt;
      auto child = CompileTri(p.children[0]);
      if (!child) return std::nullopt;
      std::swap(child->t, child->f);
      return child;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      const bool conjunction = p.kind == Kind::kAnd;
      TriSets acc{conjunction ? ValueSet::All(true) : ValueSet::Empty(),
                  conjunction ? ValueSet::Empty() : ValueSet::All(true)};
      for (const ColumnPredicate& c : p.children) {
        auto child = CompileTri(c);
        if (!child) return std::nullopt;
        if (conjunction) {
          acc.t = ValueSet::Intersect(acc.t, child->t);
          acc.f = ValueSet::Union(acc.f, child->f);
        } else {
          acc.t = ValueSet::Union(acc.t, child->t);
          acc.f = ValueSet::Intersect(acc.f, child->f);
        }
      }
      return acc;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<ValueSet> CompileAcceptSet(const ColumnPredicate& p) {
  auto tri = CompileTri(p);
  if (!tri) return std::nullopt;
  return std::move(tri->t);
}

}  // namespace qc::odg
