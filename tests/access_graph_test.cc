#include <gtest/gtest.h>

#include "core/access_graph.h"

namespace p4db::core {
namespace {

db::Op Get(Key key) {
  db::Op op;
  op.type = db::OpType::kGet;
  op.tuple = TupleId{0, key};
  return op;
}

db::Op AddDep(Key key, int16_t src) {
  db::Op op;
  op.type = db::OpType::kAdd;
  op.tuple = TupleId{0, key};
  op.operand_src = src;
  return op;
}

void Intern(AccessGraph& g, const std::vector<Key>& keys) {
  for (Key k : keys) g.InternItem(HotItem{TupleId{0, k}, 0});
}

TEST(AccessGraphTest, InternIsIdempotent) {
  AccessGraph g;
  const HotItem item{TupleId{0, 1}, 0};
  EXPECT_EQ(g.InternItem(item), g.InternItem(item));
  EXPECT_EQ(g.num_vertices(), 1u);
}

TEST(AccessGraphTest, CoAccessCreatesBidirectionalEdge) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(1), Get(2)};
  g.AddTransaction(txn);
  const auto w = g.WeightsBetween(0, 1);
  EXPECT_EQ(w.bidir, 1u);
  EXPECT_EQ(w.forward, 0u);
  EXPECT_EQ(w.backward, 0u);
}

TEST(AccessGraphTest, DependencyCreatesDirectedEdge) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(1), AddDep(2, 0)};  // 2's operand depends on 1's result
  g.AddTransaction(txn);
  const auto w = g.WeightsBetween(0, 1);  // vertex 0 = key 1, vertex 1 = key 2
  EXPECT_EQ(w.forward, 1u);
  EXPECT_EQ(w.bidir, 0u);
  // Mirrored view swaps directions.
  const auto rev = g.WeightsBetween(1, 0);
  EXPECT_EQ(rev.backward, 1u);
}

TEST(AccessGraphTest, WeightsAccumulateAcrossTransactions) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(1), Get(2)};
  for (int i = 0; i < 5; ++i) g.AddTransaction(txn);
  EXPECT_EQ(g.WeightsBetween(0, 1).bidir, 5u);
  EXPECT_EQ(g.TotalWeight(), 5u);
}

TEST(AccessGraphTest, NonHotOpsIgnored) {
  AccessGraph g;
  Intern(g, {1});
  db::Transaction txn;
  txn.ops = {Get(1), Get(99)};  // 99 not in hot set
  g.AddTransaction(txn);
  EXPECT_EQ(g.TotalWeight(), 0u);
  EXPECT_EQ(g.Frequency(0), 1u);
}

TEST(AccessGraphTest, SingleHotOpAddsFrequencyOnly) {
  AccessGraph g;
  Intern(g, {1});
  db::Transaction txn;
  txn.ops = {Get(1)};
  g.AddTransaction(txn);
  EXPECT_EQ(g.Frequency(0), 1u);
  EXPECT_EQ(g.TotalWeight(), 0u);
}

TEST(AccessGraphTest, SameItemTwiceMakesNoSelfEdge) {
  AccessGraph g;
  Intern(g, {1});
  db::Transaction txn;
  txn.ops = {Get(1), Get(1)};
  g.AddTransaction(txn);
  EXPECT_EQ(g.TotalWeight(), 0u);
  EXPECT_EQ(g.Frequency(0), 2u);
}

TEST(AccessGraphTest, ThreeWayTransactionAddsAllPairs) {
  AccessGraph g;
  Intern(g, {1, 2, 3});
  db::Transaction txn;
  txn.ops = {Get(1), Get(2), Get(3)};
  g.AddTransaction(txn);
  EXPECT_EQ(g.TotalWeight(), 3u);  // (1,2), (1,3), (2,3)
  EXPECT_EQ(g.Edges().size(), 3u);
}

TEST(AccessGraphTest, EdgesListEachPairOnceLowerIdFirst) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(2), AddDep(1, 0)};  // vertex 1 (key 2) feeds vertex 0
  g.AddTransaction(txn);
  g.AddTransaction(txn);
  const auto& edges = g.Edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 1u);
  EXPECT_EQ(edges[0].w.backward, 2u);  // 1 -> 0, seen from u = 0
  EXPECT_EQ(g.WeightsBetween(1, 0).forward, 2u);
}

TEST(AccessGraphTest, ColumnsAreDistinctItems) {
  AccessGraph g;
  const HotItem col0{TupleId{0, 1}, 0};
  const HotItem col1{TupleId{0, 1}, 1};
  EXPECT_NE(g.InternItem(col0), g.InternItem(col1));
}

}  // namespace
}  // namespace p4db::core
