#ifndef P4DB_CORE_CC_EXECUTION_CONTEXT_H_
#define P4DB_CORE_CC_EXECUTION_CONTEXT_H_

#include <memory>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "core/config.h"
#include "core/fault_controller.h"
#include "core/int_collector.h"
#include "core/partition_manager.h"
#include "core/cc/node_set.h"
#include "core/transport.h"
#include "db/lock_manager.h"
#include "db/table.h"
#include "db/wal.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "switchsim/pipeline.h"

namespace p4db::core {
class EgressBatcher;
}  // namespace p4db::core

namespace p4db::core::cc {

/// Everything a concurrency-control strategy needs to execute transactions
/// against one simulated cluster: the shared infrastructure owned by the
/// Engine (transport, fault controller, catalog, partition
/// manager, per-node lock managers and WALs) plus the mutable cluster state
/// it must observe (crashed nodes, the switch's fault state) or advance
/// (per-node client sequence numbers for switch packets, degraded counts).
///
/// The context is a non-owning view — the Engine owns every pointee and
/// guarantees they outlive the strategy. Copying the context copies the
/// view, not the cluster.
struct ExecutionContext {
  const SystemConfig* config = nullptr;
  /// The runtime's transport: the only way strategy code reaches a
  /// simulator, a trace ring or the wire. Go through the Sim()/Trace()/
  /// SendMsg()/... helpers below.
  Transport* transport = nullptr;
  /// Switch fault state: primary, epoch, armed / up / draining, degraded
  /// counts. Unarmed it reports switch 0, epoch 0 and always up, so
  /// strategies behave exactly as before fault injection existed.
  FaultController* faults = nullptr;
  db::Catalog* catalog = nullptr;
  PartitionManager* pm = nullptr;
  const std::vector<std::unique_ptr<db::LockManager>>* lock_managers = nullptr;
  db::LockManager* switch_lm = nullptr;
  const std::vector<std::unique_ptr<db::Wal>>* wals = nullptr;
  const std::vector<bool>* node_crashed = nullptr;
  /// Per-node sequence numbers for compiled switch transactions; strategies
  /// increment the home node's entry when they build a switch packet.
  std::vector<uint32_t>* next_client_seq = nullptr;
  /// Egress batcher; non-null exactly when config.batch.size > 1 (the
  /// Engine constructs it then and only then). Strategies route their
  /// switch-bound request sends and non-participant response sends through
  /// JoinRequest/JoinResponse instead of SendMsg; with a null batcher the
  /// historical unbatched path runs byte-for-byte.
  EgressBatcher* batcher = nullptr;

  /// Per-node INT postcard collectors (index == home node); non-null
  /// exactly when config.int_telemetry.enabled (the Engine constructs and
  /// binds them then and only then, so INT-off runs have nothing to probe).
  std::vector<IntCollector>* int_collectors = nullptr;

  /// `node`'s postcard collector, or null when INT is off.
  IntCollector* Int(NodeId node) const {
    return int_collectors != nullptr ? &(*int_collectors)[node] : nullptr;
  }

  /// The serving primary's endpoint. Strategies address all switch traffic
  /// through it, so a view change re-aims every node atomically at the
  /// promotion instant.
  net::Endpoint SwitchEp() const {
    return net::Endpoint::Switch(faults->primary());
  }

  db::LockManager& lock_manager(NodeId node) const {
    return *(*lock_managers)[node];
  }
  db::Wal& wal(NodeId node) const { return *(*wals)[node]; }
  uint16_t num_nodes() const { return config->num_nodes; }
  const TimingConfig& timing() const { return config->timing; }

  /// Estimated node<->node round trip (two hops each way through the ToR
  /// switch plus sender overheads) — the 2PC cost model.
  SimTime NodeRttEstimate() const {
    return 2 * (2 * config->network.node_to_switch_one_way +
                config->network.send_overhead);
  }

  /// The simulator the calling coroutine currently lives on: the engine's
  /// single simulator in legacy mode, the executing shard's simulator in
  /// sharded mode. Strategy code must re-resolve this after every SendMsg
  /// (a send migrates the coroutine to the destination's shard) instead of
  /// caching a Simulator& across awaits.
  sim::Simulator& Sim() const { return transport->CurrentSim(); }
  SimTime Now() const { return Sim().now(); }

  /// The trace ring to emit into from the current shard (the engine's
  /// single tracer in legacy mode). Like Sim(), re-resolve after awaits.
  trace::Tracer& Trace() const { return transport->CurrentTracer(); }

  /// Awaitable network send: resumes the caller at the arrival time — on
  /// the destination's shard in sharded mode.
  struct SendAwaiter {
    Transport* transport;
    net::Endpoint from;
    net::Endpoint to;
    uint32_t bytes;
    uint64_t txn_id;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const {
      return transport->Send(from, to, bytes, txn_id, h);
    }
    void await_resume() const noexcept {}
  };
  SendAwaiter SendMsg(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                      uint64_t txn_id = 0) const {
    return SendAwaiter{transport, from, to, bytes, txn_id};
  }

  /// Awaitable no-op in legacy mode (the coroutine never left home). In
  /// sharded mode, if the coroutine is away from `node`'s shard (e.g. it
  /// timed out while parked at the switch), hops it home one propagation
  /// delay later so the rest of the attempt runs on the home shard.
  struct HomeAwaiter {
    Transport* transport;
    NodeId node;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const {
      return transport->ReturnHome(node, h);
    }
    void await_resume() const noexcept {}
  };
  HomeAwaiter ReturnHome(NodeId node) const {
    return HomeAwaiter{transport, node};
  }

  /// Fire-and-forget remote lock release, `delay` from now at `owner`'s
  /// lock manager. `delay` must be at least the propagation delay, which
  /// every release fan-out already models.
  void ScheduleRelease(NodeId owner, SimTime delay, uint64_t txn_id) const {
    transport->Release(owner, delay, &lock_manager(owner), txn_id);
  }

  /// Awaitable switch multicast of the commit decision from the serving
  /// primary: releases `txn_id` on every participant at that node's
  /// arrival time and resumes the caller at `self`'s arrival (on `self`'s
  /// shard). The caller runs where the pipeline resumed it.
  struct MulticastAwaiter {
    const ExecutionContext* ctx;
    NodeId self;
    uint32_t bytes;
    uint64_t txn_id;
    const NodeSet* participants;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const {
      return ctx->transport->CommitMulticast(ctx->faults->primary(), self,
                                             bytes, txn_id, *participants,
                                             *ctx->lock_managers, h);
    }
    void await_resume() const noexcept {}
  };
  MulticastAwaiter CommitMulticast(NodeId self, uint32_t bytes,
                                   uint64_t txn_id,
                                   const NodeSet& participants) const {
    return MulticastAwaiter{this, self, bytes, txn_id, &participants};
  }
};

}  // namespace p4db::core::cc

#endif  // P4DB_CORE_CC_EXECUTION_CONTEXT_H_
