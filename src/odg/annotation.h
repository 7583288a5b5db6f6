// Value-aware edge annotations for the object dependence graph.
//
// The paper's key enhancement (§4.1): an ODG edge from attribute vertex
// `A.x` to query-result vertex `Q` can carry the predicate Q applies to
// A.x (the "2,9" annotation in Fig. 4). An attribute update old→new then
// only propagates along the edge if the predicate's view of the value
// changed.
//
// We represent an annotation as
//   * a set of *atoms* — the atomic predicates on the column that appear
//     anywhere in the query (c > 2, c < 9, c = 3, c BETWEEN a AND b, ...).
//     An update can affect the query result only if some atom's truth
//     value differs between the old and the new value; this is sound for
//     arbitrary AND/OR/NOT structure.
//   * a *satisfying filter* — a boolean combination of those atoms
//     describing which values of the column are compatible with the row
//     matching the query (in negation normal form, atoms on other columns
//     relaxed to TRUE). Used for insert/delete events, which the paper
//     treats as "resetting all of the object's attributes": a created or
//     deleted row fires the edge only if its column value passes the
//     filter.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "common/value_set.h"
#include "sql/ast.h"

namespace qc::odg {

/// One atomic predicate over a single column. `negated` records the
/// polarity the atom has in the (NNF) query; the flip check ignores it,
/// the filter evaluation applies it.
struct Atom {
  enum class Kind { kCmp, kBetween, kIn, kLike, kIsNull };

  Kind kind = Kind::kCmp;
  sql::BinaryOp cmp_op = sql::BinaryOp::kEq;  // kCmp
  Value a;                                    // kCmp rhs / kBetween lo / kLike pattern
  Value b;                                    // kBetween hi
  std::vector<Value> set;                     // kIn members
  bool negated = false;

  /// Tri-state truth of the atom (with polarity) on `v`; nullopt = SQL
  /// unknown (NULL operand).
  std::optional<bool> Eval(const Value& v) const;

  /// Does the atom's (polarity-free) truth value differ between old_v and
  /// new_v? Unknown counts as its own truth state: NULL→5 flips c>2 only
  /// if 5 satisfies it, NULL→NULL never flips.
  bool Flips(const Value& old_v, const Value& new_v) const;

  std::string ToString(const std::string& column = "x") const;
};

/// Single-column boolean predicate built over atoms (the satisfying
/// filter). kTrue leaves arise from relaxing atoms on other columns.
struct ColumnPredicate {
  enum class Kind { kTrue, kAtom, kAnd, kOr, kNot };

  Kind kind = Kind::kTrue;
  Atom atom;  // kAtom (polarity inside the atom)
  std::vector<ColumnPredicate> children;

  static ColumnPredicate True();
  static ColumnPredicate MakeAtom(Atom a);
  static ColumnPredicate And(std::vector<ColumnPredicate> cs);
  static ColumnPredicate Or(std::vector<ColumnPredicate> cs);

  /// Tri-state evaluation on a column value.
  std::optional<bool> Eval(const Value& v) const;

  bool IsTriviallyTrue() const { return kind == Kind::kTrue; }

  std::string ToString(const std::string& column = "x") const;
};

/// Kleene truth sets of a single-column predicate over the Value order:
/// `t` holds the values where it is definitely true, `f` those where it is
/// definitely false, and every other value (NULL included, unless listed)
/// evaluates to SQL unknown.
struct TriSets {
  ValueSet t;
  ValueSet f;
};

/// The T/F sets of one atom, polarity applied, mirroring Atom::Eval
/// exactly; nullopt for an atom the interval algebra cannot express (a
/// LIKE pattern with wildcards).
std::optional<TriSets> AtomSets(const Atom& atom);

/// The set of values where `p` evaluates to definitely-true, or nullopt if
/// the predicate contains an atom AtomSets cannot express. Exact in Kleene
/// logic: T/F sets are combined per node (And: T=∩, F=∪; Or: T=∪, F=∩;
/// Not: swap), mirroring ColumnPredicate::Eval.
std::optional<ValueSet> CompileAcceptSet(const ColumnPredicate& p);

/// The annotation attached to an ODG edge attribute-vertex → object-vertex.
class EdgeAnnotation {
 public:
  EdgeAnnotation() = default;
  EdgeAnnotation(std::vector<Atom> atoms, ColumnPredicate filter)
      : atoms_(std::move(atoms)), filter_(std::move(filter)) {}

  /// Value-aware update check: does old→new possibly affect the target?
  bool AffectedByUpdate(const Value& old_v, const Value& new_v) const;

  /// Value-aware insert/delete check: can a row whose column holds `v`
  /// belong to the target query's result?
  bool AffectedByRowValue(const Value& v) const;

  const std::vector<Atom>& atoms() const { return atoms_; }
  const ColumnPredicate& filter() const { return filter_; }

  std::string ToString(const std::string& column = "x") const;

 private:
  std::vector<Atom> atoms_;
  ColumnPredicate filter_;
};

}  // namespace qc::odg
