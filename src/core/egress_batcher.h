#ifndef P4DB_CORE_EGRESS_BATCHER_H_
#define P4DB_CORE_EGRESS_BATCHER_H_

#include <array>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "core/config.h"
#include "core/transport.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "switchsim/packet.h"

namespace p4db::core {

/// DPDK-doorbell egress coalescing on the node<->switch hot path.
///
/// Requests: switch-bound transactions from one node join that node's
/// request lane instead of taking the wire alone; the lane flushes as ONE
/// frame (BatchCodec framing — one L2-L4 header for the whole batch) when
/// `batch.size` members joined or `batch.flush_timeout` elapsed since the
/// first join, whichever comes first. Responses ride the mirror image: the
/// switch keeps one response lane per destination node, so a flushed
/// response frame costs the destination host ONE serialized rx_service
/// instead of one per transaction — that amortization is what moves the
/// saturation throughput, since the per-node receive path is the binding
/// resource of the rack model.
///
/// The batcher exists only when batch.size > 1 (the Engine never constructs
/// it otherwise), so unbatched runs execute the historical send path
/// byte-for-byte. Steady state allocates nothing: lanes are preallocated
/// arrays, flush resumption rides the simulator's inline-event fast path,
/// and the doorbell timer lambda fits the inline event capture.
///
/// Lane ownership mirrors the shard map of the parallel runtime: node n's
/// request lane is touched only on shard n (CC coroutines join before
/// migrating), the response lanes only on the switch shard (joins happen
/// where the pipeline resumed the coroutine). Doorbell timers schedule on
/// the owning shard's simulator, epoch-guarded so a timer armed for a batch
/// generation that already flushed is a no-op.
class EgressBatcher {
 public:
  /// Arms the transport's batch counters.
  EgressBatcher(const BatchConfig& config, uint16_t num_nodes,
                Transport* transport)
      : config_(config),
        transport_(transport),
        request_lanes_(num_nodes),
        response_lanes_(num_nodes) {
    assert(config_.size > 1 && config_.size <= BatchConfig::kMaxBatchSize);
    transport_->EnableBatchCounters();
  }

  EgressBatcher(const EgressBatcher&) = delete;
  EgressBatcher& operator=(const EgressBatcher&) = delete;

  /// Awaitable join: suspends the caller into a lane; it resumes at the
  /// flushed batch's arrival (at the switch for requests, after the shared
  /// rx leg at the node for responses). `payload` is the member's frameless
  /// encoded size; `ts` labels trace spans.
  struct JoinAwaiter {
    EgressBatcher* batcher;
    uint16_t node;
    uint32_t payload;
    uint64_t ts;
    bool request;
    SimTime* flush_at;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      batcher->Join(request, node, payload, ts, h, flush_at);
    }
    void await_resume() const noexcept {}
  };

  /// Join node `node`'s uplink request lane (call on the home shard, before
  /// the pipeline submit — the batched replacement of the request SendMsg).
  /// `flush_at` (optional) receives the instant the batch took the wire —
  /// the egress-batch-wait endpoint of the INT critical path; written while
  /// the member coroutine is still suspended, before it resumes.
  JoinAwaiter JoinRequest(NodeId node, uint32_t payload, uint64_t ts,
                          SimTime* flush_at = nullptr) {
    return JoinAwaiter{this, node, payload, ts, /*request=*/true, flush_at};
  }
  /// Join the switch's response lane toward `node` (call where the pipeline
  /// resumed the coroutine — the batched replacement of the response
  /// SendMsg for non-participant replies).
  JoinAwaiter JoinResponse(NodeId node, uint32_t payload, uint64_t ts) {
    return JoinAwaiter{this, node, payload, ts, /*request=*/false, nullptr};
  }

 private:
  struct Member {
    std::coroutine_handle<> handle;
    uint64_t ts = 0;
    /// Optional INT out-param: the flush instant, written at Flush() while
    /// the member is suspended (the pointee lives in its coroutine frame).
    SimTime* flush_at = nullptr;
  };
  struct Lane {
    std::array<Member, BatchConfig::kMaxBatchSize> members;
    uint32_t count = 0;
    uint32_t payload_sum = 0;
    SimTime first_join = 0;
    /// Batch generation counter; a doorbell timer only fires its own
    /// generation (a size-triggered flush already advanced it).
    uint64_t generation = 0;
  };

  sim::Simulator& OwnerSim() { return transport_->CurrentSim(); }
  trace::Tracer& OwnerTracer() { return transport_->CurrentTracer(); }
  Lane& LaneOf(bool request, uint16_t node) {
    return request ? request_lanes_[node] : response_lanes_[node];
  }

  void Join(bool request, uint16_t node, uint32_t payload, uint64_t ts,
            std::coroutine_handle<> h, SimTime* flush_at) {
    Lane& lane = LaneOf(request, node);
    assert(lane.count < config_.size);
    if (lane.count == 0) {
      lane.first_join = OwnerSim().now();
      // Doorbell: a partial batch flushes at most flush_timeout after its
      // first member joined. Armed on the owning shard's simulator.
      OwnerSim().Schedule(config_.flush_timeout,
                          [this, request, node, gen = lane.generation] {
                            Lane& l = LaneOf(request, node);
                            if (l.generation == gen && l.count > 0) {
                              Flush(request, node);
                            }
                          });
    }
    lane.members[lane.count] = Member{h, ts, flush_at};
    ++lane.count;
    lane.payload_sum += payload;
    if (lane.count >= config_.size) Flush(request, node);
  }

  void Flush(bool request, uint16_t node) {
    Lane& lane = LaneOf(request, node);
    ++lane.generation;
    const uint32_t count = lane.count;
    const uint32_t wire =
        static_cast<uint32_t>(sw::BatchCodec::WireSizeFor(lane.payload_sum));
    // The lead member's ts labels the frame's spans, like a plain send.
    const uint64_t label = lane.members[0].ts;
    // Batching is single-switch only (ValidateConfig), so the switch
    // endpoint is always switch 0.
    const net::Endpoint node_ep = net::Endpoint::Node(node);
    const net::Endpoint sw_ep = net::Endpoint::Switch();
    const net::Endpoint from = request ? node_ep : sw_ep;
    const net::Endpoint to = request ? sw_ep : node_ep;
    OwnerTracer().CompleteSpan(lane.first_join, OwnerSim().now(),
                               trace::Category::kBatchFlush, label,
                               from.index, 0, 0, count);
    for (uint32_t i = 0; i < count; ++i) {
      if (lane.members[i].flush_at != nullptr) {
        *lane.members[i].flush_at = OwnerSim().now();
      }
    }
    std::array<std::coroutine_handle<>, BatchConfig::kMaxBatchSize> handles;
    for (uint32_t i = 0; i < count; ++i) handles[i] = lane.members[i].handle;
    transport_->BatchSend(from, to, wire, count, label, handles.data());
    lane.count = 0;
    lane.payload_sum = 0;
  }

  const BatchConfig config_;
  Transport* transport_;
  std::vector<Lane> request_lanes_;   // per origin node (uplink)
  std::vector<Lane> response_lanes_;  // per destination node (downlink)
};

}  // namespace p4db::core

#endif  // P4DB_CORE_EGRESS_BATCHER_H_
