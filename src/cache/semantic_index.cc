#include "cache/semantic_index.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "odg/annotation.h"
#include "sql/evaluator.h"
#include "sql/exec_common.h"
#include "sql/planner.h"
#include "storage/table.h"

namespace qc::cache {

namespace {

using sql::Expr;

/// A ⊆ B over (values ∪ {NULL}): nothing of A survives outside B.
bool SubsetOf(const ValueSet& a, const ValueSet& b) {
  return ValueSet::Intersect(a, ValueSet::Complement(b)).empty();
}

/// Collect every bound base-column index referenced anywhere in `e`.
/// Clears `ok` on an unbound or non-slot-0 column (defensive: the binder
/// fills these for every single-table statement we are given).
void CollectColumns(const Expr& e, std::vector<uint32_t>& out, bool& ok) {
  if (e.kind == Expr::Kind::kColumn) {
    if (e.table_slot != 0 || e.column_index < 0) {
      ok = false;
      return;
    }
    out.push_back(static_cast<uint32_t>(e.column_index));
    return;
  }
  for (const sql::ExprPtr& child : e.children) CollectColumns(*child, out, ok);
}

sql::BinaryOp MirrorOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLt: return sql::BinaryOp::kGt;
    case sql::BinaryOp::kLe: return sql::BinaryOp::kGe;
    case sql::BinaryOp::kGt: return sql::BinaryOp::kLt;
    case sql::BinaryOp::kGe: return sql::BinaryOp::kLe;
    default: return op;  // = and <> are symmetric
  }
}

/// Accept `e` as the column side of an atom, enforcing that every atom in
/// one conjunct names the same column (`column` starts at -1).
bool LeafColumn(const Expr& e, int32_t& column) {
  if (e.kind != Expr::Kind::kColumn || e.table_slot != 0 || e.column_index < 0) return false;
  if (column >= 0 && column != e.column_index) return false;
  column = e.column_index;
  return true;
}

bool OperandValue(const Expr& e, const std::vector<Value>& params, Value& out) {
  std::optional<Value> v = sql::ConstValue(e, params);
  if (!v) return false;
  out = std::move(*v);
  return true;
}

/// Build the single-column predicate of one top-level conjunct, parameters
/// substituted and NOTs folded into atom polarity (negation normal form, as
/// in dup/extractor.cc — but *strict*: any subtree the interval algebra
/// cannot express exactly rejects the conjunct instead of relaxing it).
bool BuildColumnPred(const Expr& e, bool positive, const std::vector<Value>& params,
                     int32_t& column, odg::ColumnPredicate& out) {
  using Kind = Expr::Kind;
  switch (e.kind) {
    case Kind::kUnaryNot:
      return BuildColumnPred(*e.children[0], !positive, params, column, out);
    case Kind::kBinary: {
      if (e.op == sql::BinaryOp::kAnd || e.op == sql::BinaryOp::kOr) {
        odg::ColumnPredicate lhs, rhs;
        if (!BuildColumnPred(*e.children[0], positive, params, column, lhs)) return false;
        if (!BuildColumnPred(*e.children[1], positive, params, column, rhs)) return false;
        // De Morgan: a negated AND subtree becomes an OR of negated atoms.
        const bool is_and = (e.op == sql::BinaryOp::kAnd) == positive;
        std::vector<odg::ColumnPredicate> cs;
        cs.push_back(std::move(lhs));
        cs.push_back(std::move(rhs));
        out = is_and ? odg::ColumnPredicate::And(std::move(cs))
                     : odg::ColumnPredicate::Or(std::move(cs));
        return true;
      }
      if (!sql::IsComparison(e.op)) return false;
      const Expr& l = *e.children[0];
      const Expr& r = *e.children[1];
      const bool l_col = l.kind == Kind::kColumn;
      const bool r_col = r.kind == Kind::kColumn;
      if (l_col == r_col) return false;  // column-vs-column / const-vs-const
      odg::Atom atom;
      atom.kind = odg::Atom::Kind::kCmp;
      if (!LeafColumn(l_col ? l : r, column)) return false;
      if (!OperandValue(l_col ? r : l, params, atom.a)) return false;
      atom.cmp_op = l_col ? e.op : MirrorOp(e.op);
      atom.negated = !positive;
      out = odg::ColumnPredicate::MakeAtom(std::move(atom));
      return true;
    }
    case Kind::kBetween: {
      odg::Atom atom;
      atom.kind = odg::Atom::Kind::kBetween;
      if (!LeafColumn(*e.children[0], column)) return false;
      if (!OperandValue(*e.children[1], params, atom.a)) return false;
      if (!OperandValue(*e.children[2], params, atom.b)) return false;
      atom.negated = positive ? e.negated : !e.negated;
      out = odg::ColumnPredicate::MakeAtom(std::move(atom));
      return true;
    }
    case Kind::kIn: {
      odg::Atom atom;
      atom.kind = odg::Atom::Kind::kIn;
      if (!LeafColumn(*e.children[0], column)) return false;
      atom.set.reserve(e.children.size() - 1);
      for (size_t i = 1; i < e.children.size(); ++i) {
        Value v;
        if (!OperandValue(*e.children[i], params, v)) return false;
        atom.set.push_back(std::move(v));
      }
      atom.negated = positive ? e.negated : !e.negated;
      out = odg::ColumnPredicate::MakeAtom(std::move(atom));
      return true;
    }
    case Kind::kLike: {
      odg::Atom atom;
      atom.kind = odg::Atom::Kind::kLike;
      if (!LeafColumn(*e.children[0], column)) return false;
      if (!OperandValue(*e.children[1], params, atom.a)) return false;
      atom.negated = positive ? e.negated : !e.negated;
      // Wildcard patterns make CompileAcceptSet return nullopt below.
      out = odg::ColumnPredicate::MakeAtom(std::move(atom));
      return true;
    }
    case Kind::kIsNull: {
      odg::Atom atom;
      atom.kind = odg::Atom::Kind::kIsNull;
      if (!LeafColumn(*e.children[0], column)) return false;
      atom.negated = positive ? e.negated : !e.negated;
      out = odg::ColumnPredicate::MakeAtom(std::move(atom));
      return true;
    }
    default:
      return false;  // a bare literal/param/column is not a predicate shape
  }
}

}  // namespace

std::optional<SemanticIndex::Shape> SemanticIndex::Analyze(const sql::BoundQuery& query,
                                                           const std::vector<Value>& params) {
  const sql::SelectStmt& stmt = query.stmt();
  if (stmt.from.size() != 1) return std::nullopt;

  Shape shape;
  shape.table = &query.table(0);
  shape.table_name = ToUpper(shape.table->name());
  const size_t arity = shape.table->schema().size();

  bool ok = true;
  bool star = false;
  bool plain = true;  // every select item a plain bound column
  std::vector<uint32_t> referenced;
  shape.result_pos.assign(arity, -1);

  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const sql::SelectItem& item = stmt.items[i];
    switch (item.kind) {
      case sql::SelectItem::Kind::kStar:
        star = true;
        shape.references_all = true;
        break;
      case sql::SelectItem::Kind::kColumn: {
        CollectColumns(*item.expr, referenced, ok);
        if (item.expr->kind == Expr::Kind::kColumn && item.expr->table_slot == 0 &&
            item.expr->column_index >= 0) {
          const auto idx = static_cast<uint32_t>(item.expr->column_index);
          if (shape.result_pos[idx] < 0) shape.result_pos[idx] = static_cast<int32_t>(i);
          shape.projected.push_back(idx);
        } else {
          plain = false;
        }
        break;
      }
      case sql::SelectItem::Kind::kScalar:
        plain = false;
        CollectColumns(*item.expr, referenced, ok);
        break;
      case sql::SelectItem::Kind::kAggregate:
        plain = false;
        if (item.expr) CollectColumns(*item.expr, referenced, ok);
        break;
    }
  }
  for (const sql::ExprPtr& g : stmt.group_by) CollectColumns(*g, referenced, ok);
  for (const sql::OrderKey& o : stmt.order_by) CollectColumns(*o.column, referenced, ok);
  if (stmt.where) CollectColumns(*stmt.where, referenced, ok);
  if (!ok) return std::nullopt;

  if (stmt.where) {
    std::vector<const Expr*> conjuncts;
    sql::exec::SplitConjuncts(*stmt.where, conjuncts);
    std::map<uint32_t, ValueSet> sets;  // ordered: constraints come out sorted
    for (const Expr* conjunct : conjuncts) {
      int32_t column = -1;
      odg::ColumnPredicate pred;
      if (!BuildColumnPred(*conjunct, /*positive=*/true, params, column, pred)) {
        return std::nullopt;
      }
      if (column < 0) return std::nullopt;
      std::optional<ValueSet> set = odg::CompileAcceptSet(pred);
      if (!set) return std::nullopt;  // wildcard LIKE: not exactly expressible
      const auto col = static_cast<uint32_t>(column);
      auto it = sets.find(col);
      if (it == sets.end()) {
        sets.emplace(col, std::move(*set));
      } else {
        it->second = ValueSet::Intersect(it->second, *set);
      }
    }
    for (auto& [col, set] : sets) {
      if (!set.IsUniverse()) shape.constraints.emplace_back(col, std::move(set));
    }
  }

  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()), referenced.end());
  shape.referenced = std::move(referenced);

  shape.star = star && stmt.items.size() == 1;
  shape.source_eligible =
      stmt.group_by.empty() && !stmt.limit && (shape.star || (plain && !star));
  if (shape.star) {
    shape.projected.resize(arity);
    for (uint32_t c = 0; c < arity; ++c) {
      shape.projected[c] = c;
      shape.result_pos[c] = static_cast<int32_t>(c);
    }
  } else {
    std::sort(shape.projected.begin(), shape.projected.end());
    shape.projected.erase(std::unique(shape.projected.begin(), shape.projected.end()),
                          shape.projected.end());
  }
  return shape;
}

const storage::Table* SemanticIndex::SourceEntry::EnsureMirror() {
  std::lock_guard<std::mutex> lock(mirror_mu);
  if (!mirror) {
    std::vector<storage::ColumnDef> cols = base->schema().columns();
    // NULL fills the unprojected columns, so every mirror column accepts it
    // (projection coverage guarantees those cells are never read).
    for (storage::ColumnDef& c : cols) c.nullable = true;
    auto table = std::make_shared<storage::Table>(base->name(), storage::Schema(std::move(cols)));
    const size_t arity = base->schema().size();
    storage::Row row(arity);
    for (const storage::Row& src : result->rows()) {
      for (size_t c = 0; c < arity; ++c) {
        const int32_t pos = result_pos[c];
        row[c] = pos >= 0 ? src[static_cast<size_t>(pos)] : Value::Null();
      }
      table->Insert(row);
    }
    mirror = std::move(table);  // immutable from here on; scanned lock-free
  }
  return mirror.get();
}

void SemanticIndex::TryRegister(const std::string& key, const sql::BoundQuery& query,
                                const std::vector<Value>& params, sql::ResultPtr result,
                                const dup::UpdateEpochs::Snapshot& snapshot,
                                uint64_t observed_seq) {
  if (!result) return;
  std::optional<Shape> shape = Analyze(query, params);
  if (!shape || !shape->source_eligible) return;
  // Defensive: the result's width must match the analyzed projection, or
  // the mirror build would index out of range.
  const size_t expect = shape->star ? shape->table->schema().size() : query.stmt().items.size();
  if (result->columns().size() != expect) return;

  auto entry = std::make_shared<SourceEntry>();
  entry->key = key;
  entry->base = shape->table;
  entry->constraints = std::move(shape->constraints);
  entry->star = shape->star;
  entry->projected = std::move(shape->projected);
  entry->result_pos = std::move(shape->result_pos);
  entry->result = std::move(result);
  entry->snapshot = snapshot;
  entry->observed_seq = observed_seq;

  std::lock_guard<std::mutex> lock(mu_);
  // Atomic with the insert: if an update already stamped one of this
  // statement's epoch slots, the cache entry this registration mirrors was
  // (or is being) invalidated, and the removal listener may have fired
  // before we got here — inserting now would create a stale entry nothing
  // ever removes. Refusing is always safe; the next cold read re-registers.
  if (!snapshot.Current()) return;
  RemoveLocked(key);
  std::vector<std::shared_ptr<SourceEntry>>& vec = by_table_[shape->table_name];
  if (vec.size() >= kMaxSourcesPerTable) {
    // Evict by coverage, not insertion order: a wide superset answers every
    // probe its derived sub-results can and more, so dropping the entry
    // with the fewest cached rows loses the least. FIFO here would rotate
    // the superset out as soon as its own derived admissions fill the
    // table's quota. If the candidate itself has the least coverage, keep
    // the index as is (dropping a candidate is always safe — the exact
    // tier still serves its key).
    auto smallest = std::min_element(vec.begin(), vec.end(), [](const auto& a, const auto& b) {
      return a->result->rows().size() < b->result->rows().size();
    });
    if (entry->result->rows().size() <= (*smallest)->result->rows().size()) return;
    table_of_key_.erase((*smallest)->key);
    vec.erase(smallest);
  }
  table_of_key_[key] = shape->table_name;
  vec.push_back(std::move(entry));
}

void SemanticIndex::Remove(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  RemoveLocked(key);
}

void SemanticIndex::RemoveLocked(const std::string& key) {
  auto it = table_of_key_.find(key);
  if (it == table_of_key_.end()) return;
  auto vt = by_table_.find(it->second);
  if (vt != by_table_.end()) {
    std::vector<std::shared_ptr<SourceEntry>>& vec = vt->second;
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const std::shared_ptr<SourceEntry>& e) { return e->key == key; }),
              vec.end());
    if (vec.empty()) by_table_.erase(vt);
  }
  table_of_key_.erase(it);
}

void SemanticIndex::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_table_.clear();
  table_of_key_.clear();
}

std::shared_ptr<SemanticIndex::SourceEntry> SemanticIndex::FindSuperset(const Shape& shape) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_table_.find(shape.table_name);
  if (it == by_table_.end()) return nullptr;

  std::shared_ptr<SourceEntry> best;
  size_t best_rows = 0;
  uint64_t projection_rejects = 0;
  for (const std::shared_ptr<SourceEntry>& entry : it->second) {
    // Containment: for every column the source constrains, the incoming
    // query must constrain it to a subset. Columns the source leaves free
    // are universal and contain anything.
    bool contained = true;
    for (const auto& [col, source_set] : entry->constraints) {
      const auto mine = std::lower_bound(
          shape.constraints.begin(), shape.constraints.end(), col,
          [](const std::pair<uint32_t, ValueSet>& p, uint32_t c) { return p.first < c; });
      if (mine == shape.constraints.end() || mine->first != col ||
          !SubsetOf(mine->second, source_set)) {
        contained = false;
        break;
      }
    }
    if (!contained) continue;
    const bool covered =
        entry->star || (!shape.references_all &&
                        std::includes(entry->projected.begin(), entry->projected.end(),
                                      shape.referenced.begin(), shape.referenced.end()));
    if (!covered) {
      ++projection_rejects;  // would have answered but for the projection
      continue;
    }
    const size_t rows = entry->result->rows().size();
    if (!best || rows < best_rows) {
      best = entry;
      best_rows = rows;
    }
  }
  if (projection_rejects) {
    rejects_projection_.fetch_add(projection_rejects, std::memory_order_relaxed);
  }
  return best;
}

sql::ResultSet SemanticIndex::ExecuteResidual(SourceEntry& entry, const sql::BoundQuery& query,
                                              const std::vector<Value>& params) {
  const storage::Table* mirror = entry.EnsureMirror();
  sql::BoundQuery rebound(query.stmt().Clone(), {mirror}, query.order_outputs());
  return sql::Execute(rebound, params);
}

size_t SemanticIndex::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_of_key_.size();
}

void SemanticIndex::FoldInto(CacheStats& stats) const {
  stats.semantic_probes += probes_.load(std::memory_order_relaxed);
  stats.semantic_hits += hits_.load(std::memory_order_relaxed);
  stats.semantic_rejects_shape += rejects_shape_.load(std::memory_order_relaxed);
  stats.semantic_rejects_projection += rejects_projection_.load(std::memory_order_relaxed);
  stats.semantic_rejects_epoch += rejects_epoch_.load(std::memory_order_relaxed);
  stats.residual_filter_ns += residual_filter_ns_.load(std::memory_order_relaxed);
}

}  // namespace qc::cache
