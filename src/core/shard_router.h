#ifndef P4DB_CORE_SHARD_ROUTER_H_
#define P4DB_CORE_SHARD_ROUTER_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/types.h"
#include "core/cc/node_set.h"
#include "core/transport.h"
#include "db/lock_manager.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/wire.h"
#include "sim/sharded_simulator.h"

namespace p4db::core {

/// Cross-shard transport for the parallel runtime.
///
/// In sharded mode every database node (and the switch) is one
/// ShardedSimulator shard, and a coroutine always executes on the shard
/// whose state it is touching. A network send therefore does two things at
/// once: it times the frame on the wire (net::Wire) and it MIGRATES the
/// sending coroutine to the destination shard, resuming it there at the
/// arrival time. Awaiting a lock grant or a switch-pipeline future then
/// resolves on the shard that owns the lock manager / pipeline, which is
/// exactly where the promise's ScheduleResume lands.
///
/// Link-state ownership follows the shard map: node n's uplink and host
/// receive path live on shard n; switch k's per-node downlinks and
/// replication egress on switch k's shard. The sender leg (egress link +
/// flight) is computed on the sending shard; the receiver leg (rx service)
/// is computed by the mailbox record when it executes on the destination
/// shard. The legs compose like LegacyTransport's except in two places:
///  - node->node messages fly point to point in 2x one_way without
///    contending for the switch downlink (routing them through the switch
///    shard would add a third hop the legacy model doesn't have);
///  - the host rx path is reserved when a message arrives (the receiver
///    leg runs on the destination shard), where the legacy transport
///    reserves it at send time.
///
/// All mailbox-record lambdas must fit InlineEvent's inline capacity; the
/// capture sets below are sized for that (<= 40 bytes).
class ShardRouter final : public Transport {
 public:
  /// `tracers` / `registries` are per-shard, indexed by shard id (node id,
  /// switch last).
  ShardRouter(sim::ShardedSimulator* ssim, const net::NetworkConfig& config,
              const std::vector<trace::Tracer*>& tracers,
              std::vector<MetricsRegistry*> registries)
      : ssim_(ssim),
        num_nodes_(config.num_nodes),
        wire_(config),
        registries_(std::move(registries)),
        senders_(ssim->num_shards()) {
    assert(ssim_->num_shards() ==
           uint32_t{config.num_nodes} + config.num_switches);
    assert(tracers.size() == ssim_->num_shards());
    assert(registries_.size() == ssim_->num_shards());
    for (uint32_t s = 0; s < senders_.size(); ++s) {
      senders_[s].tracer = tracers[s];
      senders_[s].messages_sent = &registries_[s]->counter("net.messages_sent");
      senders_[s].bytes_sent = &registries_[s]->counter("net.bytes_sent");
    }
  }
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  sim::Simulator& CurrentSim() override { return ssim_->CurrentSim(); }
  trace::Tracer& CurrentTracer() override {
    return *senders_[ssim_->current_shard()].tracer;
  }

  void SetFaultInjector(uint32_t shard,
                        net::FaultInjector* injector) override {
    senders_[shard].injector = injector;
  }

  /// Per-shard counters, on the shard that models each flush's egress link.
  void EnableBatchCounters() override {
    batches_sent_.reserve(registries_.size());
    batched_txns_.reserve(registries_.size());
    for (MetricsRegistry* reg : registries_) {
      batches_sent_.push_back(&reg->counter("net.batches_sent"));
      batched_txns_.push_back(&reg->counter("net.batched_txns"));
    }
    batch_arrival_slot_.assign(num_nodes_, 0);
  }

  /// Batched egress flush (EgressBatcher): reserves `from`'s egress link
  /// ONCE for the whole `bytes`-sized frame, then resumes every member at
  /// the batch's arrival. A switch destination ingests at line rate — all
  /// members resume at the flight arrival, the lead one emitting the
  /// frame's single net_send span. A node destination pays ONE serialized
  /// rx_service for the frame: the lead member's record runs the rx leg and
  /// parks the arrival in a dst-shard-owned slot; follower records (posted
  /// after it at the same flight time, so mailbox merge order guarantees
  /// they execute after it) resume at the slot time. Call on `from`'s
  /// shard.
  void BatchSend(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                 uint32_t count, uint64_t label,
                 const std::coroutine_handle<>* handles) override {
    const uint32_t s = ssim_->current_shard();
    batches_sent_[s]->Increment();
    batched_txns_[s]->Increment(count);
    const SimTime begin = CurrentSim().now();
    const uint16_t track = from.index;
    const SimTime flight = Depart(from, to, bytes, label);
    const uint32_t dst_shard = ShardOf(to);
    if (to.is_switch()) {
      ssim_->Post(dst_shard, flight,
                  [this, ha = handles[0].address(), begin, label, track,
                   dst = to.index] {
                    DeliverResume(ha, begin, label, track, dst);
                  });
      for (uint32_t i = 1; i < count; ++i) {
        ssim_->Post(dst_shard, flight, [ha = handles[i].address()] {
          std::coroutine_handle<>::from_address(ha).resume();
        });
      }
      return;
    }
    ssim_->Post(dst_shard, flight,
                [this, ha = handles[0].address(), begin, label, track,
                 n = to.index] {
                  sim::Simulator& sim = CurrentSim();
                  const SimTime arrive = RxLeg(n, begin, label, track);
                  batch_arrival_slot_[n] = arrive;
                  sim.ScheduleResume(
                      arrive - sim.now(),
                      std::coroutine_handle<>::from_address(ha));
                });
    for (uint32_t i = 1; i < count; ++i) {
      ssim_->Post(dst_shard, flight,
                  [this, ha = handles[i].address(), n = to.index] {
                    sim::Simulator& sim = CurrentSim();
                    sim.ScheduleResume(
                        batch_arrival_slot_[n] - sim.now(),
                        std::coroutine_handle<>::from_address(ha));
                  });
    }
  }

  /// Suspends the caller and resumes it on `to`'s shard at the message's
  /// arrival time.
  bool Send(net::Endpoint from, net::Endpoint to, uint32_t bytes,
            uint64_t txn_id, std::coroutine_handle<> h) override {
    const SimTime begin = CurrentSim().now();
    // A switch endpoint's index doubles as its trace track (switch 0 ==
    // trace::kSwitchTrack), so `from.index` covers both cases.
    const uint16_t track = from.index;
    const SimTime flight_arrive = Depart(from, to, bytes, txn_id);
    ssim_->Post(ShardOf(to), flight_arrive,
                [this, ha = h.address(), begin, txn_id, track,
                 dst = to.index] {
                  DeliverResume(ha, begin, txn_id, track, dst);
                });
    return true;
  }

  /// Resumes the caller on `node`'s shard one lookahead later when it is
  /// away: the home-node observer side of a timeout. No link occupancy,
  /// no trace span.
  bool ReturnHome(NodeId node, std::coroutine_handle<> h) override {
    if (ssim_->current_shard() == node) return false;
    ssim_->Post(node, CurrentSim().now() + ssim_->lookahead(),
                [ha = h.address()] {
                  std::coroutine_handle<>::from_address(ha).resume();
                });
    return true;
  }

  /// Runs lm->ReleaseAll(txn_id) on `owner`'s shard; `delay` must respect
  /// the lookahead.
  void Release(NodeId owner, SimTime delay, db::LockManager* lm,
               uint64_t txn_id) override {
    ssim_->Post(owner, CurrentSim().now() + delay,
                [lm, txn_id] { lm->ReleaseAll(txn_id); });
  }

  /// Reserves each node's downlink on the switch shard the caller runs on,
  /// in ascending node order, then posts one record per node. At its
  /// arrival (after the rx leg, computed on the node's shard) the record
  /// releases `txn_id`'s locks at a participant and resumes `h` on node
  /// `self`. num_nodes must fit the participant mask.
  bool CommitMulticast(
      uint16_t /*sw*/, NodeId self, uint32_t bytes, uint64_t txn_id,
      const cc::NodeSet& participants,
      const std::vector<std::unique_ptr<db::LockManager>>& lock_managers,
      std::coroutine_handle<> h) override {
    assert(ssim_->current_shard() >= switch_shard());
    assert(num_nodes_ <= 64);
    uint64_t participant_mask = 0;
    participants.ForEachReverse(
        [&](NodeId p) { participant_mask |= uint64_t{1} << p; });
    const uint16_t sw_id =
        static_cast<uint16_t>(ssim_->current_shard() - switch_shard());
    const net::Endpoint sw_ep = net::Endpoint::Switch(sw_id);
    const SimTime begin = CurrentSim().now();
    for (uint16_t n = 0; n < num_nodes_; ++n) {
      // Every multicast hop is unattributed (txn 0).
      const SimTime flight = Depart(sw_ep, net::Endpoint::Node(n), bytes, 0);
      if (n == self) {
        ssim_->Post(n, flight,
                    [this, ha = h.address(), begin, n, tr = sw_ep.index] {
          const SimTime arrive = RxLeg(n, begin, 0, tr);
          CurrentSim().ScheduleResume(arrive - CurrentSim().now(),
                                      std::coroutine_handle<>::from_address(
                                          ha));
        });
      } else if ((participant_mask >> n) & 1) {
        db::LockManager* lm = lock_managers[n].get();
        ssim_->Post(n, flight,
                    [this, lm, txn_id, begin, n, tr = sw_ep.index] {
          const SimTime arrive = RxLeg(n, begin, 0, tr);
          CurrentSim().Schedule(arrive - CurrentSim().now(),
                                [lm, txn_id] { lm->ReleaseAll(txn_id); });
        });
      } else {
        // Non-participants still absorb the broadcast frame: the rx path
        // is reserved so later messages queue behind it.
        ssim_->Post(n, flight,
                    [this, begin, n, tr = sw_ep.index] {
                      RxLeg(n, begin, 0, tr);
                    });
      }
    }
    return true;
  }

  /// Runs on switch `from`'s shard; `deliver` runs on switch `to`'s.
  void Replicate(uint16_t from, uint16_t to, uint32_t bytes,
                 sim::InlineEvent deliver) override {
    const uint32_t s = switch_shard() + from;
    ssim_->Post(switch_shard() + to,
                wire_.Replicate(ssim_->shard(s).now(), from, bytes),
                std::move(deliver));
  }

 private:
  /// Shard of switch 0; switch k lives on shard num_nodes + k.
  uint32_t switch_shard() const { return num_nodes_; }
  uint32_t ShardOf(net::Endpoint ep) const {
    return ep.is_switch() ? switch_shard() + ep.switch_id() : ep.index;
  }

  /// Sender leg, on the sending shard: returns the flight arrival at the
  /// destination (before any rx leg).
  SimTime Depart(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                 uint64_t txn_id) {
    const uint32_t s = ssim_->current_shard();
    assert(s == ShardOf(from));
    const SimTime flight = wire_.Depart(senders_[s], ssim_->shard(s).now(),
                                        from, to, bytes, txn_id);
    // Node->node flies point to point: the second hop's propagation
    // without switch 0's downlink (see class comment).
    if (!from.is_switch() && !to.is_switch()) {
      return flight + wire_.config().node_to_switch_one_way;
    }
    return flight;
  }

  /// Receiver-side rx-path reservation for node `n`; runs on shard n at the
  /// flight arrival time. Emits the net_send span (receiver-shard ring, the
  /// original sender's track) and returns the post-rx arrival time.
  SimTime RxLeg(uint16_t n, SimTime begin, uint64_t txn_id = 0,
                uint16_t track = trace::kSwitchTrack) {
    const SimTime arrive = wire_.Receive(n, CurrentSim().now());
    senders_[n].tracer->CompleteSpan(begin, arrive, trace::Category::kNetSend,
                                     txn_id, track, 0, 0, n);
    return arrive;
  }

  void DeliverResume(void* ha, SimTime begin, uint64_t txn_id,
                     uint16_t track, uint16_t dst) {
    sim::Simulator& sim = CurrentSim();
    const auto h = std::coroutine_handle<>::from_address(ha);
    if (dst >= net::Endpoint::kSwitchBase) {
      // Switches receive at line rate: arrival == flight arrival.
      senders_[ShardOf(net::Endpoint{dst})].tracer->CompleteSpan(
          begin, sim.now(), trace::Category::kNetSend, txn_id, track, 0, 0,
          dst);
      h.resume();
      return;
    }
    const SimTime arrive = RxLeg(dst, begin, txn_id, track);
    sim.ScheduleResume(arrive - sim.now(), h);
  }

  sim::ShardedSimulator* ssim_;
  const uint16_t num_nodes_;
  /// Link state, touched only by the owning shard's thread (or by globals
  /// with every shard quiescent); see the class comment.
  net::Wire wire_;
  std::vector<MetricsRegistry*> registries_;  // per shard
  /// Per shard: its fault stream, trace ring and traffic counters.
  std::vector<net::Wire::Sender> senders_;
  // Batching support (empty until EnableBatchCounters).
  std::vector<MetricsRegistry::Counter*> batches_sent_;   // per shard
  std::vector<MetricsRegistry::Counter*> batched_txns_;   // per shard
  /// Per destination node: the post-rx arrival of the batch frame currently
  /// being delivered there; written by the lead member's record, read by
  /// the followers posted right behind it. Owned by the destination shard.
  std::vector<SimTime> batch_arrival_slot_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_SHARD_ROUTER_H_
