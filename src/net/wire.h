#ifndef P4DB_NET_WIRE_H_
#define P4DB_NET_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/types.h"
#include "net/network.h"

namespace p4db::net {

class FaultInjector;

/// The rack's links and their timing: the one place a frame's flight is
/// computed. Deterministic; lossless unless a FaultInjector perturbs a send
/// with a retransmit delay, a duplicate or a delay spike.
///
/// The wire owns every link's busy-until time: each node's uplink, each
/// switch's downlink toward each node, each node's receive path and each
/// switch's replication egress. A leg reserves its link and returns when
/// the frame reaches the far end. Callers compose the legs; the two
/// runtimes compose them differently only in where a node->node frame's
/// second link and the receive path are charged (core/transport.h).
///
/// In the sharded runtime each link's state is touched only by the shard
/// that owns it: node n's uplink and receive path by shard n, switch k's
/// downlinks and replication egress by switch k's shard.
class Wire {
 public:
  /// What a send charges on the sending side: the fault stream it draws
  /// from, the trace ring its fault instants land in, and its traffic
  /// counters. One per simulator.
  struct Sender {
    FaultInjector* injector = nullptr;  // unowned; null = lossless
    trace::Tracer* tracer = &trace::Tracer::Disabled();  // never null
    MetricsRegistry::Counter* messages_sent = &MetricsRegistry::NullCounter();
    MetricsRegistry::Counter* bytes_sent = &MetricsRegistry::NullCounter();
  };

  explicit Wire(const NetworkConfig& config);

  /// First leg of a frame sent at `now`: counts it, draws its fault
  /// perturbation, serializes it onto `from`'s egress link (a node's uplink
  /// or the switch's downlink toward `to`) after the send overhead and any
  /// injected delay, and flies one hop. Returns the arrival at the far end
  /// of that link: the switch for a node sender, node `to` for a switch
  /// sender. A duplicate holds the link for a second serialization after
  /// the real copy departs. `txn_id` labels the fault instants.
  SimTime Depart(const Sender& sender, SimTime now, Endpoint from,
                 Endpoint to, uint32_t bytes, uint64_t txn_id);

  /// Switch 0's downlink toward node `to`, for a frame that reached the
  /// switch at `at`: serialization behind earlier frames, then one hop.
  SimTime Forward(SimTime at, uint16_t to, uint32_t bytes);

  /// Node `n`'s receive path, for a frame that reached it at `at`:
  /// rx_service behind earlier frames. Returns when the host has it.
  SimTime Receive(uint16_t n, SimTime at);

  /// Switch `from`'s replication egress at `now`: send overhead, then
  /// serialization behind earlier records, then one switch-to-switch hop.
  /// No fault draws and no traffic counters, so a replicated rack draws
  /// the same fault streams as a single switch.
  SimTime Replicate(SimTime now, uint16_t from, uint32_t bytes);

  const NetworkConfig& config() const { return config_; }

 private:
  SimTime Serialization(uint32_t bytes) const;

  const NetworkConfig config_;
  std::vector<SimTime> uplink_busy_;       // per node
  std::vector<SimTime> downlink_busy_;     // switch k, node n: k * N + n
  std::vector<SimTime> rx_busy_;           // per node
  std::vector<SimTime> replication_busy_;  // per switch
};

}  // namespace p4db::net

#endif  // P4DB_NET_WIRE_H_
