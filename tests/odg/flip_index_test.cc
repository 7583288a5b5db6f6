// Differential test for the ODG's update-flip boundary index (see
// Graph::Propagate): for randomized annotated edge sets and randomized
// update probes, Propagate must fire exactly the edges a direct
// EdgeAnnotation::AffectedByUpdate loop over OutEdges fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "odg/graph.h"

namespace qc::odg {
namespace {

Value RandomValue(std::mt19937& rng, bool allow_null) {
  std::uniform_int_distribution<int> pick(0, allow_null ? 3 : 2);
  switch (pick(rng)) {
    case 0:
      return Value(static_cast<int64_t>(std::uniform_int_distribution<int>(-20, 20)(rng)));
    case 1:
      return Value(std::uniform_int_distribution<int>(-20, 20)(rng) / 2.0);
    case 2: {
      static const char* kStrings[] = {"alpha", "beta", "gamma", "delta", "a%b", "x_y"};
      return Value(kStrings[std::uniform_int_distribution<size_t>(0, 5)(rng)]);
    }
    default:
      return Value::Null();
  }
}

Atom RandomAtom(std::mt19937& rng) {
  Atom atom;
  std::uniform_int_distribution<int> pick(0, 4);
  switch (pick(rng)) {
    case 0: {
      atom.kind = Atom::Kind::kCmp;
      static const sql::BinaryOp kOps[] = {sql::BinaryOp::kEq, sql::BinaryOp::kNe,
                                           sql::BinaryOp::kLt, sql::BinaryOp::kLe,
                                           sql::BinaryOp::kGt, sql::BinaryOp::kGe};
      atom.cmp_op = kOps[std::uniform_int_distribution<size_t>(0, 5)(rng)];
      atom.a = RandomValue(rng, true);
      break;
    }
    case 1:
      atom.kind = Atom::Kind::kBetween;
      atom.a = RandomValue(rng, true);
      atom.b = RandomValue(rng, true);
      break;
    case 2: {
      atom.kind = Atom::Kind::kIn;
      const size_t n = std::uniform_int_distribution<size_t>(0, 4)(rng);
      for (size_t i = 0; i < n; ++i) atom.set.push_back(RandomValue(rng, true));
      break;
    }
    case 3: {
      atom.kind = Atom::Kind::kLike;
      static const char* kPatterns[] = {"alpha", "a%", "%ta", "x_y", "beta"};
      atom.a = Value(kPatterns[std::uniform_int_distribution<size_t>(0, 4)(rng)]);
      break;
    }
    default:
      atom.kind = Atom::Kind::kIsNull;
      break;
  }
  atom.negated = std::uniform_int_distribution<int>(0, 1)(rng) == 1;
  return atom;
}

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The reference: fire each out-edge of `col` iff it is unannotated or its
/// annotation reports a flip, then follow every deeper edge unconditionally.
std::vector<VertexId> DirectlyAffected(const Graph& graph, VertexId col, const Value& old_v,
                                       const Value& new_v) {
  std::vector<VertexId> affected;
  std::vector<VertexId> frontier;
  auto visit = [&](VertexId v) {
    if (v == col || std::find(affected.begin(), affected.end(), v) != affected.end()) return;
    affected.push_back(v);
    frontier.push_back(v);
  };
  for (const Graph::Edge& edge : graph.OutEdges(col)) {
    if (!edge.annotation || edge.annotation->AffectedByUpdate(old_v, new_v)) visit(edge.to);
  }
  while (!frontier.empty()) {
    const VertexId v = frontier.back();
    frontier.pop_back();
    for (const Graph::Edge& edge : graph.OutEdges(v)) visit(edge.to);
  }
  return Sorted(affected);
}

/// Build a column vertex with a randomized mix of annotated, unannotated
/// and multi-level out-edges, then compare Propagate with the direct loop
/// over randomized update probes (including NULL constants and NULL
/// probes, which take the counted linear fallback).
TEST(FlipIndexTest, DifferentialAgainstDirectEvaluation) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 30; ++round) {
    Graph graph;
    const VertexId col = graph.AddVertex("T.C", VertexKind::kUnderlying);
    const int objects = std::uniform_int_distribution<int>(1, 25)(rng);
    for (int i = 0; i < objects; ++i) {
      const VertexId obj = graph.AddVertex("Q" + std::to_string(i), VertexKind::kObject);
      const int kind = std::uniform_int_distribution<int>(0, 9)(rng);
      if (kind == 0) {
        graph.AddEdge(col, obj);  // unannotated: fires on every update
      } else if (kind == 1) {
        // Multi-level: column -> intermediate -> object (paper Fig. 2).
        const VertexId mid = graph.AddVertex("M" + std::to_string(i), VertexKind::kIntermediate);
        std::vector<Atom> atoms{RandomAtom(rng)};
        graph.AddEdge(col, mid, 1.0,
                      EdgeAnnotation(atoms, ColumnPredicate::MakeAtom(atoms[0])));
        graph.AddEdge(mid, obj);
      } else {
        std::vector<Atom> atoms;
        const int n = std::uniform_int_distribution<int>(1, 3)(rng);
        for (int a = 0; a < n; ++a) atoms.push_back(RandomAtom(rng));
        graph.AddEdge(col, obj, 1.0, EdgeAnnotation(atoms, ColumnPredicate::MakeAtom(atoms[0])));
      }
    }
    // Occasionally remove a vertex to exercise index maintenance.
    if (round % 3 == 0 && objects > 2) {
      graph.RemoveVertex(*graph.Find("Q1"));
    }

    for (int probe = 0; probe < 60; ++probe) {
      const Value old_v = RandomValue(rng, true);
      const Value new_v = RandomValue(rng, true);
      const auto indexed = Sorted(graph.Propagate(col, ChangeSpec::Update(old_v, new_v)));
      EXPECT_EQ(indexed, DirectlyAffected(graph, col, old_v, new_v))
          << "round " << round << " probe " << probe << " update " << old_v.ToString()
          << " -> " << new_v.ToString();
    }
  }
}

/// Fires iff the one annotated edge col -> Q fires under old -> new; also
/// checks the index agrees with the annotation's own verdict.
class FlipIndexAtomTest : public ::testing::Test {
 protected:
  void Annotate(std::vector<Atom> atoms, ColumnPredicate filter) {
    annotation_ = EdgeAnnotation(atoms, filter);
    graph_.AddEdge(col_, obj_, 1.0, EdgeAnnotation(std::move(atoms), std::move(filter)));
  }

  bool Fires(const Value& old_v, const Value& new_v) {
    const bool fired = !graph_.Propagate(col_, ChangeSpec::Update(old_v, new_v)).empty();
    EXPECT_EQ(fired, annotation_.AffectedByUpdate(old_v, new_v))
        << old_v.ToString() << " -> " << new_v.ToString();
    return fired;
  }

  static Atom Eq(int v) {
    Atom atom;
    atom.kind = Atom::Kind::kCmp;
    atom.a = Value(v);
    return atom;
  }

  Graph graph_;
  VertexId col_ = graph_.AddVertex("T.C", VertexKind::kUnderlying);
  VertexId obj_ = graph_.AddVertex("Q", VertexKind::kObject);
  EdgeAnnotation annotation_;
};

// The rule is per atom, not per filter: c = 1 OR c = 2 accepts both 1 and
// 2, yet 1 -> 2 flips each atom, so the edge fires.
TEST_F(FlipIndexAtomTest, DisjunctionOfPointsFiresBetweenItsPoints) {
  Annotate({Eq(1), Eq(2)}, ColumnPredicate::Or({ColumnPredicate::MakeAtom(Eq(1)),
                                                ColumnPredicate::MakeAtom(Eq(2))}));
  EXPECT_TRUE(Fires(Value(1), Value(2)));
  EXPECT_TRUE(Fires(Value(3), Value(2)));
  EXPECT_FALSE(Fires(Value(3), Value(4)));
}

// c IN (1, NULL) is true at 1 and unknown at every other non-NULL value:
// 1 -> 2 is true -> unknown, 2 -> 3 stays unknown.
TEST_F(FlipIndexAtomTest, InListWithNullFiresOnlyAtItsMembers) {
  Atom in;
  in.kind = Atom::Kind::kIn;
  in.set = {Value(1), Value::Null()};
  Annotate({in}, ColumnPredicate::MakeAtom(in));
  EXPECT_TRUE(Fires(Value(1), Value(2)));
  EXPECT_FALSE(Fires(Value(2), Value(3)));
}

// c BETWEEN NULL AND 5 is unknown for every non-NULL value.
TEST_F(FlipIndexAtomTest, BetweenWithNullBoundNeverFiresForNonNullSides) {
  Atom between;
  between.kind = Atom::Kind::kBetween;
  between.a = Value::Null();
  between.b = Value(5);
  Annotate({between}, ColumnPredicate::MakeAtom(between));
  const std::vector<std::pair<Value, Value>> updates{
      {Value(1), Value(7)}, {Value(5), Value(6)}, {Value(-3), Value(4)}, {Value("a"), Value(2)}};
  for (const auto& [old_v, new_v] : updates) {
    EXPECT_FALSE(Fires(old_v, new_v));
  }
}

TEST(FlipIndexTest, NullProbesCountAsFallbacks) {
  Graph graph;
  const VertexId col = graph.AddVertex("T.C", VertexKind::kUnderlying);
  const VertexId obj = graph.AddVertex("Q", VertexKind::kObject);
  Atom atom;
  atom.kind = Atom::Kind::kCmp;
  atom.cmp_op = sql::BinaryOp::kGt;
  atom.a = Value(5);
  graph.AddEdge(col, obj, 1.0, EdgeAnnotation({atom}, ColumnPredicate::MakeAtom(atom)));

  graph.Propagate(col, ChangeSpec::Update(Value(1), Value(9)));
  EXPECT_EQ(graph.index_probes(), 1u);
  EXPECT_EQ(graph.index_fallbacks(), 0u);

  graph.Propagate(col, ChangeSpec::Update(Value::Null(), Value(9)));
  EXPECT_EQ(graph.index_probes(), 1u);
  EXPECT_EQ(graph.index_fallbacks(), 1u);
}

}  // namespace
}  // namespace qc::odg
