#include "core/layout.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "common/rng.h"

namespace p4db::core {

namespace {

/// Maps an ordered partition index to a register array, spreading parts
/// over stages. With k <= num_stages every part gets its own stage (no
/// same-stage dependency hazards); beyond that, parts share stages across
/// register arrays.
LayoutPlan::ArrayRef ArrayForPart(uint32_t part, uint32_t k,
                                  const sw::PipelineConfig& cfg) {
  if (k <= cfg.num_stages) {
    const uint32_t stage =
        static_cast<uint32_t>((static_cast<uint64_t>(part) * cfg.num_stages) /
                              k);
    return LayoutPlan::ArrayRef{static_cast<uint8_t>(stage), 0};
  }
  const uint32_t stage = part / cfg.regs_per_stage;
  const uint32_t reg = part % cfg.regs_per_stage;
  assert(stage < cfg.num_stages);
  return LayoutPlan::ArrayRef{static_cast<uint8_t>(stage),
                              static_cast<uint8_t>(reg)};
}

}  // namespace

std::vector<uint32_t> LayoutPlanner::OrderPartitions(
    const AccessGraph& graph, const MaxCutResult& cut, uint32_t num_parts,
    uint64_t* violated_weight) const {
  // D[p][q]: weight of dependencies requiring p's items before q's items.
  std::vector<std::vector<uint64_t>> d(num_parts,
                                       std::vector<uint64_t>(num_parts, 0));
  for (const AccessGraph::Edge& e : graph.Edges()) {
    const uint32_t pu = cut.assignment[e.u];
    const uint32_t pv = cut.assignment[e.v];
    if (pu == pv) continue;
    d[pu][pv] += e.w.forward;
    d[pv][pu] += e.w.backward;
  }

  // Section 4.3: when a cut carries edges in both directions, drop the
  // lighter direction (those accesses become multi-pass); the remaining
  // edges define a mostly-acyclic order. Residual cycles across >2 parts
  // are broken by the greedy selection below.
  uint64_t violated = 0;
  for (uint32_t p = 0; p < num_parts; ++p) {
    for (uint32_t q = p + 1; q < num_parts; ++q) {
      if (d[p][q] > 0 && d[q][p] > 0) {
        if (d[p][q] >= d[q][p]) {
          violated += d[q][p];
          d[q][p] = 0;
        } else {
          violated += d[p][q];
          d[p][q] = 0;
        }
      }
    }
  }

  // Greedy feedback-arc-set ordering: repeatedly emit the remaining part
  // with the largest (outgoing - incoming) dependency weight.
  std::vector<uint32_t> order;
  order.reserve(num_parts);
  std::vector<bool> placed(num_parts, false);
  for (uint32_t step = 0; step < num_parts; ++step) {
    uint32_t best = UINT32_MAX;
    int64_t best_score = INT64_MIN;
    for (uint32_t p = 0; p < num_parts; ++p) {
      if (placed[p]) continue;
      int64_t out = 0, in = 0;
      for (uint32_t q = 0; q < num_parts; ++q) {
        if (placed[q] || q == p) continue;
        out += static_cast<int64_t>(d[p][q]);
        in += static_cast<int64_t>(d[q][p]);
      }
      const int64_t score = out - in;
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    assert(best != UINT32_MAX);
    placed[best] = true;
    // Any remaining incoming dependency to `best` is now violated.
    for (uint32_t q = 0; q < num_parts; ++q) {
      if (!placed[q]) violated += d[q][best];
    }
    order.push_back(best);
  }
  *violated_weight = violated;
  return order;
}

void LayoutPlanner::FillPlan(
    const AccessGraph& graph, std::vector<LayoutPlan::ArrayRef> arrays,
    LayoutPlan* plan) const {
  plan->arrays = std::move(arrays);
  const std::vector<LayoutPlan::ArrayRef>& placed = plan->arrays;
  plan->total_weight = graph.TotalWeight();
  plan->cut_weight = 0;
  plan->intra_part_weight = 0;
  plan->order_violation_weight = 0;
  for (const AccessGraph::Edge& e : graph.Edges()) {
    const LayoutPlan::ArrayRef au = placed[e.u];
    const LayoutPlan::ArrayRef av = placed[e.v];
    if (au.stage == av.stage && au.reg == av.reg) {
      plan->intra_part_weight += e.w.total();
      continue;
    }
    plan->cut_weight += e.w.total();
    // A dependent pair needs the producer in a strictly earlier stage.
    if (e.w.forward > 0 && au.stage >= av.stage) {
      plan->order_violation_weight += e.w.forward;
    }
    if (e.w.backward > 0 && av.stage >= au.stage) {
      plan->order_violation_weight += e.w.backward;
    }
  }
}

LayoutPlan LayoutPlanner::PlanOptimal(const AccessGraph& graph,
                                      uint64_t seed) const {
  LayoutPlan plan;
  const uint32_t n = static_cast<uint32_t>(graph.num_vertices());
  if (n == 0) return plan;

  const uint32_t num_arrays =
      static_cast<uint32_t>(pipeline_.num_stages) * pipeline_.regs_per_stage;
  const uint32_t cap = pipeline_.SlotsPerRegister();
  uint32_t k = std::min(num_arrays, n);
  // Ensure capacity: k parts of size <= cap must hold n items.
  while (static_cast<uint64_t>(k) * cap < n && k < num_arrays) ++k;
  assert(static_cast<uint64_t>(k) * cap >= n && "hot set exceeds capacity");

  MaxCutConfig mc;
  mc.num_parts = k;
  mc.max_part_size = cap;
  mc.seed = seed;
  if (n > 5000) {
    // Large hot sets (Figure 17's capacity sweeps): fewer restarts/sweeps —
    // the balanced initial assignment is already close to optimal there.
    mc.num_restarts = 2;
    mc.max_sweeps = 8;
  }
  const MaxCutResult cut = SolveMaxCut(graph, mc);

  uint64_t violated = 0;
  const std::vector<uint32_t> order =
      OrderPartitions(graph, cut, k, &violated);

  // order[i] is the partition placed i-th; invert to position-of-partition.
  std::vector<uint32_t> position(k, 0);
  for (uint32_t i = 0; i < k; ++i) position[order[i]] = i;

  std::vector<LayoutPlan::ArrayRef> arrays(n);
  for (uint32_t v = 0; v < n; ++v) {
    arrays[v] = ArrayForPart(position[cut.assignment[v]], k, pipeline_);
  }
  FillPlan(graph, std::move(arrays), &plan);
  return plan;
}

LayoutPlan LayoutPlanner::PlanRandom(const AccessGraph& graph,
                                     uint64_t seed) const {
  LayoutPlan plan;
  const uint32_t n = static_cast<uint32_t>(graph.num_vertices());
  if (n == 0) return plan;

  const uint32_t num_arrays =
      static_cast<uint32_t>(pipeline_.num_stages) * pipeline_.regs_per_stage;
  const uint32_t cap = pipeline_.SlotsPerRegister();
  Rng rng(seed);
  std::vector<uint32_t> load(num_arrays, 0);
  std::vector<LayoutPlan::ArrayRef> arrays(n);
  for (uint32_t v = 0; v < n; ++v) {
    uint32_t a = static_cast<uint32_t>(rng.NextRange(num_arrays));
    for (uint32_t tries = 0; load[a] >= cap && tries < num_arrays; ++tries) {
      a = (a + 1) % num_arrays;
    }
    assert(load[a] < cap && "hot set exceeds capacity");
    ++load[a];
    arrays[v] = LayoutPlan::ArrayRef{
        static_cast<uint8_t>(a / pipeline_.regs_per_stage),
        static_cast<uint8_t>(a % pipeline_.regs_per_stage)};
  }
  FillPlan(graph, std::move(arrays), &plan);
  return plan;
}

}  // namespace p4db::core
