#ifndef P4DB_CORE_TRANSPORT_H_
#define P4DB_CORE_TRANSPORT_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/types.h"
#include "core/cc/node_set.h"
#include "db/lock_manager.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/wire.h"
#include "sim/inline_event.h"
#include "sim/simulator.h"

namespace p4db::core {

/// How a runtime moves messages: the one interface the CC strategies, the
/// egress batcher and the fault controller send through. Both
/// implementations time every frame with one net::Wire; they differ only
/// in where a coroutine resumes and in how they compose the wire's legs:
///  - LegacyTransport (threads == 0): one simulator for the whole cluster.
///    A node->node frame crosses switch 0's contended downlink, and the
///    receive path is reserved at send time.
///  - ShardRouter (threads >= 1, core/shard_router.h): a send migrates the
///    coroutine to the destination's shard. A node->node frame flies point
///    to point, and the receive path is reserved on arrival, on the
///    receiving shard.
///
/// Send, CommitMulticast and ReturnHome are called from an awaiter's
/// await_suspend: they return false when the caller continues at once
/// without suspending (a legacy send that arrives at the current instant),
/// true when they scheduled its resumption.
class Transport {
 public:
  virtual ~Transport() = default;

  /// The simulator and trace ring of the calling coroutine's current
  /// location. A send may move the coroutine, so re-resolve after awaits.
  virtual sim::Simulator& CurrentSim() = 0;
  virtual trace::Tracer& CurrentTracer() = 0;

  /// Sends `bytes` from `from` to `to` now and resumes `h` at the arrival.
  virtual bool Send(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                    uint64_t txn_id, std::coroutine_handle<> h) = 0;

  /// One coalesced frame of `count` members (the egress batcher's flush):
  /// reserves the link once for `bytes` and resumes every member at the
  /// frame's arrival. Requires EnableBatchCounters.
  virtual void BatchSend(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                         uint32_t count, uint64_t label,
                         const std::coroutine_handle<>* handles) = 0;

  /// Switch `sw` multicasts a commit decision (Figure 10) to every node, in
  /// ascending node order. Each participant releases `txn_id`'s locks at
  /// its own arrival, scheduled in `participants`' reverse insertion order,
  /// and `h` resumes at node `self`'s arrival. The sharded runtime sends
  /// from the switch shard the caller runs on.
  virtual bool CommitMulticast(
      uint16_t sw, NodeId self, uint32_t bytes, uint64_t txn_id,
      const cc::NodeSet& participants,
      const std::vector<std::unique_ptr<db::LockManager>>& lock_managers,
      std::coroutine_handle<> h) = 0;

  /// Fire-and-forget release of `txn_id`'s locks at `lm`, on node `owner`,
  /// `delay` from now. Models no link occupancy; `delay` must cover at
  /// least one propagation delay.
  virtual void Release(NodeId owner, SimTime delay, db::LockManager* lm,
                       uint64_t txn_id) = 0;

  /// Moves a coroutine that is away from node `node` (it timed out while
  /// parked at the switch) back home one propagation delay later.
  virtual bool ReturnHome(NodeId node, std::coroutine_handle<> h) = 0;

  /// Ships a replication record of `bytes` from switch `from` to switch
  /// `to` over the replication link; `deliver` runs on `to` at arrival.
  virtual void Replicate(uint16_t from, uint16_t to, uint32_t bytes,
                         sim::InlineEvent deliver) = 0;

  /// Places shard `shard`'s fault stream (the legacy runtime has shard 0
  /// only); null = lossless.
  virtual void SetFaultInjector(uint32_t shard,
                                net::FaultInjector* injector) = 0;

  /// Arms "net.batches_sent" / "net.batched_txns". Registered only when
  /// batching is on, so an unbatched run's dump keeps its key set.
  virtual void EnableBatchCounters() = 0;
};

/// The legacy single-simulator transport: one simulator, one trace ring and
/// one registry for the whole cluster.
class LegacyTransport final : public Transport {
 public:
  LegacyTransport(sim::Simulator* sim, trace::Tracer* tracer,
                  MetricsRegistry* registry, const net::NetworkConfig& config);

  sim::Simulator& CurrentSim() override { return *sim_; }
  trace::Tracer& CurrentTracer() override { return *sender_.tracer; }

  bool Send(net::Endpoint from, net::Endpoint to, uint32_t bytes,
            uint64_t txn_id, std::coroutine_handle<> h) override;
  void BatchSend(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                 uint32_t count, uint64_t label,
                 const std::coroutine_handle<>* handles) override;
  bool CommitMulticast(
      uint16_t sw, NodeId self, uint32_t bytes, uint64_t txn_id,
      const cc::NodeSet& participants,
      const std::vector<std::unique_ptr<db::LockManager>>& lock_managers,
      std::coroutine_handle<> h) override;
  void Release(NodeId owner, SimTime delay, db::LockManager* lm,
               uint64_t txn_id) override;
  /// The coroutine never leaves home: a no-op.
  bool ReturnHome(NodeId, std::coroutine_handle<>) override { return false; }
  void Replicate(uint16_t from, uint16_t to, uint32_t bytes,
                 sim::InlineEvent deliver) override;
  void SetFaultInjector(uint32_t shard, net::FaultInjector* injector) override;
  void EnableBatchCounters() override;

  /// Arrival time of a message sent now, with every link reserved and the
  /// net_send span traced; `now` itself for a self-send.
  SimTime Arrival(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                  uint64_t txn_id = 0);

 private:
  sim::Simulator* sim_;
  MetricsRegistry* registry_;
  net::Wire wire_;
  net::Wire::Sender sender_;
  MetricsRegistry::Counter* batches_sent_ = nullptr;  // EnableBatchCounters
  MetricsRegistry::Counter* batched_txns_ = nullptr;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_TRANSPORT_H_
