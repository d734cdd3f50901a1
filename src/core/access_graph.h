#ifndef P4DB_CORE_ACCESS_GRAPH_H_
#define P4DB_CORE_ACCESS_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/hot_items.h"
#include "db/txn.h"

namespace p4db::core {

/// Weighted co-access graph over hot items (Section 4.2).
///
/// Vertices are hot items; an edge connects two items accessed by the same
/// transaction, weighted by co-access frequency. Order dependencies between
/// the two accesses (a read whose result feeds a later write, or simply
/// program order between dependent operations) make the edge *directed*;
/// independent co-accesses are *bidirectional*. The layout algorithm uses
/// weights for the max-cut and directions for the stage ordering.
///
/// Storage is flat: vertex ids and edge slots are interned in open-addressed
/// indexes, and the edges themselves live in one dense vector in the order
/// the sample first co-accessed each pair. Every consumer only sums edge
/// weights, so that order never reaches a result.
class AccessGraph {
 public:
  struct EdgeWeights {
    uint64_t forward = 0;   // directed u -> v (u must precede v)
    uint64_t backward = 0;  // directed v -> u
    uint64_t bidir = 0;     // no ordering dependency
    uint64_t total() const { return forward + backward + bidir; }
  };

  /// Registers `item` as a vertex (idempotent); returns its vertex id.
  uint32_t InternItem(const HotItem& item);

  /// Records the co-accesses of one transaction among the interned items;
  /// ops on other items are ignored. Ordering dependencies: op j depending
  /// on op i's result (operand_src) yields a directed i->j edge; all other
  /// co-access pairs are bidirectional.
  void AddTransaction(const db::Transaction& txn);

  size_t num_vertices() const { return items_.size(); }
  const HotItem& item(uint32_t v) const { return items_[v]; }
  /// Vertex id of `item`, or null if it is not a vertex.
  const uint32_t* FindVertex(const HotItem& item) const {
    return ids_.find(item);
  }
  const std::vector<HotItem>& items() const { return items_; }

  /// Edge weights between u and v (either order); zero weights if absent.
  EdgeWeights WeightsBetween(uint32_t u, uint32_t v) const;

  /// Total weight of all edges (the max-cut upper bound).
  uint64_t TotalWeight() const;

  struct Edge {
    uint32_t u;
    uint32_t v;
    EdgeWeights w;  // forward = u -> v
  };
  /// All edges, each reported once with u < v, in first-seen order.
  const std::vector<Edge>& Edges() const { return edges_; }

  /// Per-vertex access frequency (used to prioritize which items stay on
  /// the switch when capacity is short).
  uint64_t Frequency(uint32_t v) const { return freq_[v]; }
  void AddFrequency(uint32_t v, uint64_t n) { freq_[v] += n; }

 private:
  // Key for the edge index: (min(u,v) << 32) | max(u,v); weights stored
  // from the perspective of u = min.
  static uint64_t EdgeKey(uint32_t u, uint32_t v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  /// The weights of edge {u, v}, appended to edges_ on first sight.
  EdgeWeights& EdgeAt(uint32_t u, uint32_t v);

  struct HotOp {
    uint32_t op_index;
    uint32_t vertex;
  };

  std::vector<HotItem> items_;
  FlatMap<HotItem, uint32_t> ids_;
  std::vector<Edge> edges_;
  FlatMap<uint64_t, uint32_t> edge_index_;  // EdgeKey -> index in edges_
  std::vector<uint64_t> freq_;
  std::vector<HotOp> hot_ops_;  // AddTransaction's scratch, reused
};

}  // namespace p4db::core

#endif  // P4DB_CORE_ACCESS_GRAPH_H_
