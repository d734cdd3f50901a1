#include "core/access_graph.h"

#include <algorithm>

namespace p4db::core {

uint32_t AccessGraph::InternItem(const HotItem& item) {
  const auto [id, inserted] =
      ids_.try_emplace(item, static_cast<uint32_t>(items_.size()));
  if (inserted) {
    items_.push_back(item);
    freq_.push_back(0);
  }
  return *id;
}

AccessGraph::EdgeWeights& AccessGraph::EdgeAt(uint32_t u, uint32_t v) {
  const auto [index, inserted] = edge_index_.try_emplace(
      EdgeKey(u, v), static_cast<uint32_t>(edges_.size()));
  if (inserted) edges_.push_back(Edge{std::min(u, v), std::max(u, v), {}});
  return edges_[*index].w;
}

void AccessGraph::AddTransaction(const db::Transaction& txn) {
  // Collect the hot ops of this transaction with their vertex ids.
  hot_ops_.clear();
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    const uint32_t* id = ids_.find(HotItem{op.tuple, op.column});
    if (id == nullptr) continue;
    hot_ops_.push_back(HotOp{static_cast<uint32_t>(i), *id});
    ++freq_[*id];
  }
  if (hot_ops_.size() < 2) return;

  // Pairwise edges. A dependency (operand_src chain) between two ops makes
  // the pair directed src -> consumer; otherwise bidirectional.
  for (size_t a = 0; a < hot_ops_.size(); ++a) {
    for (size_t b = a + 1; b < hot_ops_.size(); ++b) {
      const uint32_t u = hot_ops_[a].vertex;
      const uint32_t v = hot_ops_[b].vertex;
      if (u == v) continue;  // same item twice: forces multi-pass anyway
      const db::Op& later = txn.ops[hot_ops_[b].op_index];
      const bool dependent =
          (later.has_src() &&
           static_cast<uint32_t>(later.operand_src) == hot_ops_[a].op_index) ||
          (later.has_src2() &&
           static_cast<uint32_t>(later.operand_src2) == hot_ops_[a].op_index);
      EdgeWeights& w = EdgeAt(u, v);
      if (dependent) {
        // Direction: earlier op's item must sit in an earlier stage.
        if (u < v) {
          ++w.forward;
        } else {
          ++w.backward;
        }
      } else {
        ++w.bidir;
      }
    }
  }
}

AccessGraph::EdgeWeights AccessGraph::WeightsBetween(uint32_t u,
                                                     uint32_t v) const {
  const uint32_t* index = edge_index_.find(EdgeKey(u, v));
  if (index == nullptr) return EdgeWeights{};
  EdgeWeights w = edges_[*index].w;
  if (u > v) std::swap(w.forward, w.backward);
  return w;
}

uint64_t AccessGraph::TotalWeight() const {
  uint64_t sum = 0;
  for (const Edge& e : edges_) sum += e.w.total();
  return sum;
}

}  // namespace p4db::core
