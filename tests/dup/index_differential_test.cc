// Differential property tests for the sublinear invalidation path:
//
//   1. odg::CompileAcceptSet against ColumnPredicate::Eval —
//      the compiled interval set must contain exactly the values where the
//      filter is definitely true.
//   2. A predicate-indexed DupEngine against a linear-scan DupEngine — for
//      identical registrations and identical randomized event streams
//      (updates, inserts, deletes, NULLs, multi-row batches), the two must
//      invalidate exactly the same cache entries under Policies II/III/IV.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "common/value_set.h"
#include "dup/engine.h"
#include "odg/annotation.h"
#include "sql/binder.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace qc::dup {
namespace {

Value RandomValue(std::mt19937& rng, bool allow_null) {
  std::uniform_int_distribution<int> pick(0, allow_null ? 3 : 2);
  switch (pick(rng)) {
    case 0:
      return Value(static_cast<int64_t>(std::uniform_int_distribution<int>(-8, 25)(rng)));
    case 1:
      return Value(std::uniform_int_distribution<int>(-8, 25)(rng) / 2.0);
    case 2: {
      static const char* kStrings[] = {"ab", "abc", "alpha", "beta", "zz"};
      return Value(kStrings[std::uniform_int_distribution<size_t>(0, 4)(rng)]);
    }
    default:
      return Value::Null();
  }
}

odg::Atom RandomAtom(std::mt19937& rng) {
  odg::Atom atom;
  switch (std::uniform_int_distribution<int>(0, 4)(rng)) {
    case 0: {
      atom.kind = odg::Atom::Kind::kCmp;
      static const sql::BinaryOp kOps[] = {sql::BinaryOp::kEq, sql::BinaryOp::kNe,
                                           sql::BinaryOp::kLt, sql::BinaryOp::kLe,
                                           sql::BinaryOp::kGt, sql::BinaryOp::kGe};
      atom.cmp_op = kOps[std::uniform_int_distribution<size_t>(0, 5)(rng)];
      atom.a = RandomValue(rng, true);
      break;
    }
    case 1:
      atom.kind = odg::Atom::Kind::kBetween;
      atom.a = RandomValue(rng, true);
      atom.b = RandomValue(rng, true);
      break;
    case 2: {
      atom.kind = odg::Atom::Kind::kIn;
      const size_t n = std::uniform_int_distribution<size_t>(0, 3)(rng);
      for (size_t i = 0; i < n; ++i) atom.set.push_back(RandomValue(rng, true));
      break;
    }
    case 3:
      atom.kind = odg::Atom::Kind::kLike;
      atom.a = Value("beta");  // no wildcard: stays compilable
      break;
    default:
      atom.kind = odg::Atom::Kind::kIsNull;
      break;
  }
  atom.negated = std::uniform_int_distribution<int>(0, 1)(rng) == 1;
  return atom;
}

odg::ColumnPredicate RandomPredicate(std::mt19937& rng, int depth) {
  const int pick = std::uniform_int_distribution<int>(0, depth > 0 ? 4 : 1)(rng);
  switch (pick) {
    case 0:
      return odg::ColumnPredicate::MakeAtom(RandomAtom(rng));
    case 1:
      return odg::ColumnPredicate::True();
    case 2:
    case 3: {
      std::vector<odg::ColumnPredicate> children;
      const int n = std::uniform_int_distribution<int>(1, 3)(rng);
      for (int i = 0; i < n; ++i) children.push_back(RandomPredicate(rng, depth - 1));
      return pick == 2 ? odg::ColumnPredicate::And(std::move(children))
                       : odg::ColumnPredicate::Or(std::move(children));
    }
    default: {
      odg::ColumnPredicate p;
      p.kind = odg::ColumnPredicate::Kind::kNot;
      p.children.push_back(RandomPredicate(rng, depth - 1));
      return p;
    }
  }
}

TEST(CompileAcceptSetTest, MatchesDefinitelyTrueEvaluation) {
  std::mt19937 rng(73);
  int compiled = 0;
  for (int round = 0; round < 400; ++round) {
    const odg::ColumnPredicate pred = RandomPredicate(rng, 3);
    const auto set = odg::CompileAcceptSet(pred);
    if (!set) continue;  // wildcard LIKE inside: legitimately uncompilable
    ++compiled;
    for (int probe = 0; probe < 40; ++probe) {
      const Value v = RandomValue(rng, true);
      const auto eval = pred.Eval(v);
      const bool definitely_true = eval.has_value() && *eval;
      EXPECT_EQ(set->Contains(v), definitely_true)
          << pred.ToString() << " at " << v.ToString() << " (set " << set->ToString() << ")";
    }
  }
  EXPECT_GT(compiled, 200);  // the generator must mostly produce compilable trees
}

TEST(ValueSetTest, AlgebraBasics) {
  const ValueSet r = ValueSet::Range(Value(2), Value(9));
  EXPECT_TRUE(r.Contains(Value(2)));
  EXPECT_TRUE(r.Contains(Value(9)));
  EXPECT_FALSE(r.Contains(Value(10)));
  EXPECT_FALSE(r.Contains(Value::Null()));

  const ValueSet u = ValueSet::Union(ValueSet::Below(Value(3), false), ValueSet::Above(Value(3), false));
  EXPECT_FALSE(u.Contains(Value(3)));  // open bounds do not touch
  const ValueSet c = ValueSet::Complement(u);
  EXPECT_TRUE(c.Contains(Value(3)));
  EXPECT_TRUE(c.contains_null());

  EXPECT_TRUE(ValueSet::Intersect(r, ValueSet::Point(Value(5))).Contains(Value(5)));
  EXPECT_TRUE(ValueSet::Intersect(r, ValueSet::Point(Value(11))).empty());
  EXPECT_TRUE(ValueSet::All(true).IsUniverse());
}

/// Two engines, identical registrations, identical event streams — one
/// answers from the predicate-interval indexes, the other scans linearly.
/// After every delivered event/batch the surviving cache entries must
/// agree exactly.
class EngineDifferential {
 public:
  explicit EngineDifferential(InvalidationPolicy policy) {
    table_ = &db_.CreateTable("T", storage::Schema({{"X", ValueType::kInt, true},
                                                    {"Y", ValueType::kInt, true},
                                                    {"S", ValueType::kString, true}}));
    DupEngine::Options indexed_options;
    indexed_options.policy = policy;
    indexed_options.use_predicate_index = true;
    DupEngine::Options linear_options = indexed_options;
    linear_options.use_predicate_index = false;
    indexed_cache_ = std::make_unique<cache::GpsCache>(cache::GpsCacheConfig{});
    linear_cache_ = std::make_unique<cache::GpsCache>(cache::GpsCacheConfig{});
    indexed_ = std::make_unique<DupEngine>(*indexed_cache_, indexed_options);
    linear_ = std::make_unique<DupEngine>(*linear_cache_, linear_options);
    db_.SubscribeBatch([this](const storage::UpdateBatch& batch) {
      indexed_->OnBatch(batch);
      linear_->OnBatch(batch);
    });
  }

  void Register(const std::string& sql, const std::vector<Value>& params = {}) {
    auto query = sql::ParseAndBind(sql, db_);
    const std::string key = sql::Fingerprint(query->stmt(), params);
    keys_.push_back(key);
    queries_[key] = {query, params};
    Cache(key);
  }

  /// Compare surviving entries, then re-cache whatever was invalidated so
  /// the next event starts from a fully populated cache again.
  void CheckAndRefill(const std::string& context) {
    for (const std::string& key : keys_) {
      const bool in_indexed = indexed_cache_->Contains(key);
      const bool in_linear = linear_cache_->Contains(key);
      EXPECT_EQ(in_indexed, in_linear) << key << " after " << context;
      if (!in_indexed || !in_linear) Cache(key);
    }
  }

  storage::Table& table() { return *table_; }

 private:
  void Cache(const std::string& key) {
    const auto& [query, params] = queries_[key];
    indexed_cache_->Put(key, std::make_shared<cache::StringValue>("r"));
    indexed_->RegisterQuery(key, query, params);
    linear_cache_->Put(key, std::make_shared<cache::StringValue>("r"));
    linear_->RegisterQuery(key, query, params);
  }

  storage::Database db_;
  storage::Table* table_ = nullptr;
  std::unique_ptr<cache::GpsCache> indexed_cache_, linear_cache_;
  std::unique_ptr<DupEngine> indexed_, linear_;
  std::vector<std::string> keys_;
  std::unordered_map<std::string,
                     std::pair<std::shared_ptr<const sql::BoundQuery>, std::vector<Value>>>
      queries_;
};

void RunDifferential(InvalidationPolicy policy, uint32_t seed) {
  EngineDifferential diff(policy);
  diff.Register("SELECT COUNT(*) FROM T WHERE X = 5");
  diff.Register("SELECT COUNT(*) FROM T WHERE X = ?", {Value(12)});
  diff.Register("SELECT COUNT(*) FROM T WHERE X BETWEEN 3 AND 11");
  diff.Register("SELECT COUNT(*) FROM T WHERE X > 15");
  diff.Register("SELECT COUNT(*) FROM T WHERE X <= 0");
  diff.Register("SELECT COUNT(*) FROM T WHERE X <> 7");
  diff.Register("SELECT COUNT(*) FROM T WHERE X IN (1, 2, 3)");
  diff.Register("SELECT COUNT(*) FROM T WHERE X IS NULL");
  diff.Register("SELECT COUNT(*) FROM T WHERE S LIKE 'ab%'");  // wildcard: linear fallback
  diff.Register("SELECT COUNT(*) FROM T WHERE S LIKE 'beta'");
  diff.Register("SELECT SUM(Y) FROM T WHERE X = 4");  // Y is an opaque dependency
  diff.Register("SELECT COUNT(*) FROM T WHERE X = 2 AND S = 'abc'");
  diff.Register("SELECT COUNT(*) FROM T WHERE X < 1 OR X > 20");
  diff.Register("SELECT COUNT(*) FROM T");

  std::mt19937 rng(seed);
  std::vector<storage::RowId> live;
  auto random_int = [&]() -> Value {
    if (std::uniform_int_distribution<int>(0, 4)(rng) == 0) return Value::Null();
    return Value(static_cast<int64_t>(std::uniform_int_distribution<int>(-8, 25)(rng)));
  };
  auto random_str = [&]() -> Value {
    if (std::uniform_int_distribution<int>(0, 4)(rng) == 0) return Value::Null();
    static const char* kStrings[] = {"ab", "abc", "abz", "alpha", "beta", "zz"};
    return Value(kStrings[std::uniform_int_distribution<size_t>(0, 5)(rng)]);
  };
  auto random_row = [&] { return storage::Row{random_int(), random_int(), random_str()}; };
  auto mutate_once = [&] {
    const int op = std::uniform_int_distribution<int>(0, 9)(rng);
    if (op < 5 || live.empty()) {
      live.push_back(diff.table().Insert(random_row()));
    } else if (op < 8) {
      const storage::RowId row =
          live[std::uniform_int_distribution<size_t>(0, live.size() - 1)(rng)];
      const uint32_t column = std::uniform_int_distribution<uint32_t>(0, 2)(rng);
      diff.table().Update(row, column, column == 2 ? random_str() : random_int());
    } else {
      const size_t pos = std::uniform_int_distribution<size_t>(0, live.size() - 1)(rng);
      diff.table().Delete(live[pos]);
      live.erase(live.begin() + pos);
    }
  };

  for (int round = 0; round < 150; ++round) {
    if (round % 10 == 9) {
      // Multi-row statement: events buffer and deliver as one batch.
      storage::Table::BatchScope scope(diff.table());
      const int n = std::uniform_int_distribution<int>(2, 6)(rng);
      for (int i = 0; i < n; ++i) mutate_once();
    } else {
      mutate_once();
    }
    diff.CheckAndRefill("round " + std::to_string(round));
  }
}

TEST(EngineDifferentialTest, PolicyIIMatchesLinear) {
  RunDifferential(InvalidationPolicy::kValueUnaware, 11);
}

TEST(EngineDifferentialTest, PolicyIIIMatchesLinear) {
  RunDifferential(InvalidationPolicy::kValueAware, 22);
}

TEST(EngineDifferentialTest, PolicyIVMatchesLinear) {
  RunDifferential(InvalidationPolicy::kRowAware, 33);
}

// Policy II consults no annotation, so registration builds neither the
// ODG's boundary index nor the row-event index: a value update probed on
// the column vertex takes the linear scan and counts no index probe.
TEST(EngineDifferentialTest, PolicyIIBuildsNoIndex) {
  storage::Database db;
  db.CreateTable("T", storage::Schema({{"X", ValueType::kInt, true}}));
  cache::GpsCache cache(cache::GpsCacheConfig{});
  DupEngine::Options options;
  options.policy = InvalidationPolicy::kValueUnaware;
  DupEngine engine(cache, options);
  auto query = sql::ParseAndBind("SELECT COUNT(*) FROM T WHERE X = 5", db);
  engine.RegisterQuery(sql::Fingerprint(query->stmt(), {}), query, {});

  odg::Graph& graph = engine.graph_for_test();
  const auto col = graph.Find("col:T.X");
  ASSERT_TRUE(col.has_value());
  EXPECT_EQ(graph.Propagate(*col, odg::ChangeSpec::Update(Value(5), Value(6))).size(), 1u);
  EXPECT_EQ(graph.index_probes(), 0u);

  storage::UpdateEvent insert;
  insert.kind = storage::UpdateEvent::Kind::kInsert;
  insert.table = "T";
  insert.after = {Value(5)};
  engine.OnUpdate(insert);
  EXPECT_EQ(engine.stats().predicate_index_probes, 0u);
}

}  // namespace
}  // namespace qc::dup
