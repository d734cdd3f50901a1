// Declustered storage model explorer (Section 4): builds the co-access
// graph for a SmallBank sample, runs the capacity-constrained max-cut,
// orders the partitions by dependency direction, and shows how the
// resulting layout turns would-be multi-pass transactions into single-pass
// ones — versus a random placement.
//
// Build & run:   cmake --build build && ./build/examples/layout_explorer

#include <cstdio>
#include <map>

#include "core/hotset.h"
#include "core/layout.h"
#include "core/partition_manager.h"
#include "switchsim/pipeline.h"
#include "workload/smallbank.h"

using namespace p4db;  // NOLINT: example brevity

namespace {

double PredictSinglePassShare(const core::LayoutPlan& plan,
                              const core::AccessGraph& graph,
                              const std::vector<db::Transaction>& sample,
                              const db::Catalog& catalog,
                              const sw::PipelineConfig& pipe) {
  // Install the plan into a scratch partition manager and dry-compile the
  // sample's hot transactions.
  core::PartitionManager pm(&catalog, &pipe);
  std::map<std::pair<int, int>, uint32_t> next_slot;
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    const core::LayoutPlan::ArrayRef arr = plan.arrays[v];
    const uint32_t slot = next_slot[{arr.stage, arr.reg}]++;
    pm.RegisterHotItem(graph.item(v),
                       sw::RegisterAddress{arr.stage, arr.reg, slot}, 0);
  }
  uint64_t hot_txns = 0, single_pass = 0;
  for (db::Transaction txn : sample) {
    pm.Classify(&txn, 0);
    if (txn.cls != db::TxnClass::kHot) continue;
    auto compiled = pm.Compile(txn, {}, 0, 0);
    if (!compiled.ok()) continue;
    ++hot_txns;
    single_pass += !compiled->txn.is_multipass;
  }
  return hot_txns == 0 ? 0
                       : 100.0 * static_cast<double>(single_pass) /
                             static_cast<double>(hot_txns);
}

}  // namespace

int main() {
  std::printf("Declustered storage model explorer (SmallBank, 8 nodes, 10 "
              "hot accounts/node)\n\n");

  db::Catalog catalog(8);
  wl::SmallBankConfig scfg;
  scfg.hot_accounts_per_node = 10;
  wl::SmallBank bank(scfg);
  bank.Setup(&catalog);

  // 1. Sample the workload and detect the hot set (Section 3.1).
  const auto sample = bank.Sample(20000, 7, 8);
  core::HotSetDetector detector;
  for (const auto& txn : sample) detector.Observe(txn);
  const auto hot_items = detector.TopK(160);
  std::printf("step 1: sampled %zu txns, %zu distinct items, hot set = %zu "
              "items\n",
              sample.size(), detector.distinct_items(), hot_items.size());

  // 2. Build the access graph with directed dependency edges (Section 4.2).
  core::AccessGraph graph =
      core::HotSetDetector::BuildGraph(hot_items, sample);
  uint64_t directed = 0;
  for (const auto& e : graph.Edges()) directed += e.w.forward + e.w.backward;
  std::printf("step 2: access graph: %zu vertices, %zu edges, total weight "
              "%llu (%llu directed by read-dependent writes)\n",
              graph.num_vertices(), graph.Edges().size(),
              static_cast<unsigned long long>(graph.TotalWeight()),
              static_cast<unsigned long long>(directed));

  // 3. Max-cut + partition ordering => layout (Section 4.3).
  sw::PipelineConfig pipe;  // 20 stages x 4 register arrays
  core::LayoutPlanner planner(pipe);
  const core::LayoutPlan optimal = planner.PlanOptimal(graph, 13);
  const core::LayoutPlan random = planner.PlanRandom(graph, 13);
  std::printf("step 3: optimal layout: %.1f%% of co-access weight cut, "
              "violations: intra-array %llu, order %llu\n",
              100.0 * static_cast<double>(optimal.cut_weight) /
                  static_cast<double>(optimal.total_weight),
              static_cast<unsigned long long>(optimal.intra_part_weight),
              static_cast<unsigned long long>(
                  optimal.order_violation_weight));
  std::printf("        random layout:  %.1f%% cut, violations: intra-array "
              "%llu, order %llu\n",
              100.0 * static_cast<double>(random.cut_weight) /
                  static_cast<double>(random.total_weight),
              static_cast<unsigned long long>(random.intra_part_weight),
              static_cast<unsigned long long>(random.order_violation_weight));

  // 4. What that means for execution: predicted single-pass share.
  std::printf("step 4: predicted single-pass hot transactions:\n");
  std::printf("        optimal layout: %5.1f%%\n",
              PredictSinglePassShare(optimal, graph, sample, catalog, pipe));
  std::printf("        random layout:  %5.1f%%\n",
              PredictSinglePassShare(random, graph, sample, catalog, pipe));
  std::printf("\nsavings balances gravitate to early stages so Amalgamate's "
              "dependent credit\n(chk[b] += sav[a] + chk[a]) lands in a "
              "later stage and stays single-pass.\n");
  return 0;
}
