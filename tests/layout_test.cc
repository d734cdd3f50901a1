#include <gtest/gtest.h>

#include <algorithm>

#include "core/hotset.h"
#include "core/layout.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

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

sw::PipelineConfig SmallPipe() {
  sw::PipelineConfig cfg;
  cfg.num_stages = 4;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 1024;
  return cfg;
}

std::vector<HotItem> Items(uint32_t n) {
  std::vector<HotItem> items;
  for (Key k = 0; k < n; ++k) items.push_back(HotItem{TupleId{0, k}, 0});
  return items;
}

/// `item`'s array in `plan`, found through the planned graph's vertex index.
LayoutPlan::ArrayRef ArrayOf(const LayoutPlan& plan, const AccessGraph& g,
                             const HotItem& item) {
  const uint32_t* v = g.FindVertex(item);
  EXPECT_NE(v, nullptr);
  return v == nullptr ? LayoutPlan::ArrayRef{} : plan.arrays[*v];
}

TEST(LayoutTest, EmptyGraphYieldsEmptyPlan) {
  AccessGraph g;
  LayoutPlanner planner(SmallPipe());
  EXPECT_TRUE(planner.PlanOptimal(g, 1).arrays.empty());
  EXPECT_TRUE(planner.PlanRandom(g, 1).arrays.empty());
}

TEST(LayoutTest, EveryItemGetsAnArray) {
  const auto items = Items(20);
  std::vector<db::Transaction> sample;
  for (int i = 0; i < 19; ++i) {
    db::Transaction txn;
    txn.ops = {Get(i), Get(i + 1)};
    sample.push_back(txn);
  }
  AccessGraph g = HotSetDetector::BuildGraph(items, sample);
  LayoutPlanner planner(SmallPipe());
  const LayoutPlan plan = planner.PlanOptimal(g, 3);
  EXPECT_EQ(plan.arrays.size(), 20u);
  for (const LayoutPlan::ArrayRef& arr : plan.arrays) {
    EXPECT_LT(arr.stage, 4);
    EXPECT_LT(arr.reg, 2);
  }
}

TEST(LayoutTest, CoAccessedPairsLandInDifferentArrays) {
  // Two tuples ALWAYS accessed together must be split (that is the whole
  // point of declustering, Section 4.3).
  const auto items = Items(2);
  db::Transaction txn;
  txn.ops = {Get(0), Get(1)};
  AccessGraph g = HotSetDetector::BuildGraph(items, {txn});
  LayoutPlanner planner(SmallPipe());
  const LayoutPlan plan = planner.PlanOptimal(g, 3);
  const auto a = ArrayOf(plan, g, items[0]);
  const auto b = ArrayOf(plan, g, items[1]);
  EXPECT_FALSE(a.stage == b.stage && a.reg == b.reg);
  EXPECT_EQ(plan.cut_weight, plan.total_weight);
  EXPECT_EQ(plan.intra_part_weight, 0u);
}

TEST(LayoutTest, DependencyDirectionOrdersStages) {
  // read(0) feeds write(1): tuple 0 must sit in a strictly earlier stage.
  const auto items = Items(2);
  db::Transaction txn;
  txn.ops = {Get(0), AddDep(1, 0)};
  std::vector<db::Transaction> sample(10, txn);
  AccessGraph g = HotSetDetector::BuildGraph(items, sample);
  LayoutPlanner planner(SmallPipe());
  const LayoutPlan plan = planner.PlanOptimal(g, 3);
  EXPECT_LT(ArrayOf(plan, g, items[0]).stage,
            ArrayOf(plan, g, items[1]).stage);
  EXPECT_EQ(plan.order_violation_weight, 0u);
}

TEST(LayoutTest, ChainOfDependenciesIsTopologicallyOrdered) {
  // 0 -> 1 -> 2 -> 3 dependency chain.
  const auto items = Items(4);
  std::vector<db::Transaction> sample;
  for (int rep = 0; rep < 5; ++rep) {
    for (int i = 0; i < 3; ++i) {
      db::Transaction txn;
      txn.ops = {Get(i), AddDep(i + 1, 0)};
      sample.push_back(txn);
    }
  }
  AccessGraph g = HotSetDetector::BuildGraph(items, sample);
  LayoutPlanner planner(SmallPipe());
  const LayoutPlan plan = planner.PlanOptimal(g, 5);
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(ArrayOf(plan, g, items[i]).stage,
              ArrayOf(plan, g, items[i + 1]).stage)
        << "link " << i;
  }
}

TEST(LayoutTest, ConflictingDirectionsDropMinority) {
  // 0 -> 1 with weight 10, 1 -> 0 with weight 2: layout follows the heavy
  // direction; the light one is the violated (multi-pass) remainder.
  const auto items = Items(2);
  std::vector<db::Transaction> sample;
  db::Transaction fwd;
  fwd.ops = {Get(0), AddDep(1, 0)};
  db::Transaction bwd;
  bwd.ops = {Get(1), AddDep(0, 0)};
  for (int i = 0; i < 10; ++i) sample.push_back(fwd);
  for (int i = 0; i < 2; ++i) sample.push_back(bwd);
  AccessGraph g = HotSetDetector::BuildGraph(items, sample);
  LayoutPlanner planner(SmallPipe());
  const LayoutPlan plan = planner.PlanOptimal(g, 3);
  EXPECT_LT(ArrayOf(plan, g, items[0]).stage,
            ArrayOf(plan, g, items[1]).stage);
  EXPECT_EQ(plan.order_violation_weight, 2u);
}

TEST(LayoutTest, RandomPlanRespectsCapacity) {
  sw::PipelineConfig tiny = SmallPipe();
  tiny.sram_bytes_per_stage = 128;  // 8 slots per register, 64 total
  const auto items = Items(60);
  AccessGraph g = HotSetDetector::BuildGraph(items, {});
  LayoutPlanner planner(tiny);
  const LayoutPlan plan = planner.PlanRandom(g, 9);
  std::unordered_map<int, int> load;
  for (const LayoutPlan::ArrayRef& arr : plan.arrays) {
    ++load[arr.stage * 8 + arr.reg];
  }
  for (const auto& [array, count] : load) EXPECT_LE(count, 8);
}

TEST(LayoutTest, OptimalBeatsRandomOnStructuredWorkload) {
  // SmallBank-ish: many dependent pairs. The optimal layout should violate
  // far less order weight than a random one.
  const auto items = Items(8);
  std::vector<db::Transaction> sample;
  for (int rep = 0; rep < 20; ++rep) {
    for (int a = 0; a < 4; ++a) {
      db::Transaction txn;
      txn.ops = {Get(a), AddDep(4 + a, 0)};
      sample.push_back(txn);
    }
  }
  AccessGraph g = HotSetDetector::BuildGraph(items, sample);
  LayoutPlanner planner(SmallPipe());
  const LayoutPlan optimal = planner.PlanOptimal(g, 3);
  uint64_t random_violations = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    random_violations +=
        planner.PlanRandom(g, seed).order_violation_weight +
        planner.PlanRandom(g, seed).intra_part_weight;
  }
  EXPECT_EQ(optimal.order_violation_weight + optimal.intra_part_weight, 0u);
  EXPECT_GT(random_violations, 0u);
}

TEST(LayoutTest, MorePartsThanStagesSharesRegisters) {
  sw::PipelineConfig pipe = SmallPipe();  // 4 stages x 2 regs = 8 arrays
  const auto items = Items(8);
  std::vector<db::Transaction> sample;
  // All pairs co-accessed: maxcut wants 8 singleton parts.
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      db::Transaction txn;
      txn.ops = {Get(a), Get(b)};
      sample.push_back(txn);
    }
  }
  AccessGraph g = HotSetDetector::BuildGraph(items, sample);
  LayoutPlanner planner(pipe);
  const LayoutPlan plan = planner.PlanOptimal(g, 3);
  // All 8 arrays used, nothing shares.
  std::set<std::pair<int, int>> used;
  for (const LayoutPlan::ArrayRef& arr : plan.arrays) {
    used.insert({arr.stage, arr.reg});
  }
  EXPECT_EQ(used.size(), 8u);
  EXPECT_EQ(plan.intra_part_weight, 0u);
}

struct GraphPlan {
  AccessGraph graph;
  LayoutPlan plan;
};

GraphPlan PlanFromSample(const std::vector<db::Transaction>& sample,
                         size_t hot_items, bool written_only) {
  HotSetDetector detector;
  for (const db::Transaction& txn : sample) detector.Observe(txn);
  GraphPlan out{HotSetDetector::BuildGraph(
                    detector.TopK(hot_items, 2, written_only), sample),
                {}};
  out.plan = LayoutPlanner(sw::PipelineConfig{}).PlanOptimal(out.graph, 13);
  return out;
}

/// The graph's edges come out in first-seen order, which follows the
/// sample's order; the plan must not.
void ExpectPlanIgnoresSampleOrder(wl::Workload& workload, size_t hot_items) {
  db::Catalog catalog(8);
  workload.Setup(&catalog);
  std::vector<db::Transaction> sample = workload.Sample(5000, 7, 8);
  const bool written_only = workload.OffloadWrittenOnly();
  const GraphPlan fwd = PlanFromSample(sample, hot_items, written_only);
  std::reverse(sample.begin(), sample.end());
  const GraphPlan rev = PlanFromSample(sample, hot_items, written_only);
  const LayoutPlan& forward = fwd.plan;
  const LayoutPlan& reversed = rev.plan;

  ASSERT_FALSE(forward.arrays.empty());
  ASSERT_EQ(forward.arrays.size(), reversed.arrays.size());
  for (uint32_t v = 0; v < forward.arrays.size(); ++v) {
    const LayoutPlan::ArrayRef& arr = forward.arrays[v];
    const uint32_t* it = rev.graph.FindVertex(fwd.graph.item(v));
    ASSERT_NE(it, nullptr);
    EXPECT_EQ(arr.stage, reversed.arrays[*it].stage);
    EXPECT_EQ(arr.reg, reversed.arrays[*it].reg);
  }
  EXPECT_GT(forward.total_weight, 0u);
  EXPECT_EQ(forward.total_weight, reversed.total_weight);
  EXPECT_EQ(forward.cut_weight, reversed.cut_weight);
  EXPECT_EQ(forward.intra_part_weight, reversed.intra_part_weight);
  EXPECT_EQ(forward.order_violation_weight, reversed.order_violation_weight);
}

TEST(LayoutTest, PlanIsIndependentOfSampleOrder) {
  wl::Tpcc tpcc(wl::TpccConfig{});
  ExpectPlanIgnoresSampleOrder(tpcc, 500);
  wl::Ycsb ycsb(wl::YcsbConfig{});
  ExpectPlanIgnoresSampleOrder(ycsb, 80);
}

}  // namespace
}  // namespace p4db::core
