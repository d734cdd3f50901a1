#ifndef P4DB_CORE_LAYOUT_H_
#define P4DB_CORE_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "core/access_graph.h"
#include "core/hot_items.h"
#include "core/maxcut.h"
#include "switchsim/register_file.h"

namespace p4db::core {

/// Assignment of each hot item to a register ARRAY (stage, reg). Concrete
/// slot indices are allocated later by the switch control plane during the
/// offload step, in deterministic item order.
struct LayoutPlan {
  struct ArrayRef {
    uint8_t stage = 0;
    uint8_t reg = 0;
  };

  /// Indexed by the planned graph's vertex id: arrays[v] holds
  /// graph.item(v).
  std::vector<ArrayRef> arrays;

  // Diagnostics (drive Figure 16's optimal-vs-random comparison).
  uint64_t total_weight = 0;      // all co-access weight
  uint64_t cut_weight = 0;        // separated by the max-cut
  uint64_t intra_part_weight = 0; // same array: forces multi-pass
  uint64_t order_violation_weight = 0;  // dependency points backwards
};

/// The declustered storage model's layout algorithm (Section 4.3):
///   1. capacity-constrained max-cut over the access graph;
///   2. partition ordering by dependency direction, removing the minority
///      direction when a cut contains edges both ways;
///   3. assignment of ordered partitions to register arrays in pipeline
///      order.
class LayoutPlanner {
 public:
  explicit LayoutPlanner(const sw::PipelineConfig& pipeline)
      : pipeline_(pipeline) {}

  /// Optimal declustered layout.
  LayoutPlan PlanOptimal(const AccessGraph& graph, uint64_t seed) const;

  /// Random assignment of items to arrays ("worst case" baseline of
  /// Figure 16; also the Unoptimized starting point of Figure 15c).
  LayoutPlan PlanRandom(const AccessGraph& graph, uint64_t seed) const;

 private:
  /// Orders partitions topologically by net dependency direction (greedy
  /// feedback-arc-set heuristic). Returns partition ids, earliest first.
  std::vector<uint32_t> OrderPartitions(
      const AccessGraph& graph, const MaxCutResult& cut,
      uint32_t num_parts, uint64_t* violated_weight) const;

  /// Moves each vertex's array into plan->arrays and scores the layout.
  /// `arrays[v]` is vertex v's array, so scoring an edge needs no lookup.
  void FillPlan(const AccessGraph& graph,
                std::vector<LayoutPlan::ArrayRef> arrays,
                LayoutPlan* plan) const;

  sw::PipelineConfig pipeline_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_LAYOUT_H_
