#ifndef P4DB_NET_NETWORK_H_
#define P4DB_NET_NETWORK_H_

#include <cstdint>

#include "common/types.h"

namespace p4db::net {

/// Network endpoint: one of the database nodes, or a programmable switch.
///
/// Switches occupy the top of the 16-bit index space, counting down:
/// switch k has index 0xFFFF - k. Switch 0 therefore keeps the historical
/// 0xFFFF index (== trace::kSwitchTrack), so single-switch topologies are
/// bit-identical to the pre-replication encoding on the wire, in traces,
/// and in every seeded artifact.
struct Endpoint {
  static constexpr uint16_t kSwitchIndex = 0xFFFF;
  /// Indices >= this are switches; supports up to 256 switches, far above
  /// the ValidateConfig cap.
  static constexpr uint16_t kSwitchBase = 0xFF00;

  uint16_t index = 0;

  static Endpoint Node(NodeId id) { return Endpoint{id}; }
  static Endpoint Switch(uint16_t switch_id = 0) {
    return Endpoint{static_cast<uint16_t>(kSwitchIndex - switch_id)};
  }

  bool is_switch() const { return index >= kSwitchBase; }
  /// Only meaningful when is_switch().
  uint16_t switch_id() const {
    return static_cast<uint16_t>(kSwitchIndex - index);
  }
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

struct NetworkConfig {
  uint16_t num_nodes = 8;
  /// Number of programmable switches in the rack. 1 reproduces the classic
  /// star exactly; >= 2 adds per-switch downlink ports and an inter-switch
  /// replication link between each switch and its successor.
  uint16_t num_switches = 1;
  /// One-way propagation latency between a node and the ToR switch. All
  /// node<->node traffic traverses the switch, so a node<->node one-way
  /// trip costs 2x this — the paper's "switch reachable in half the
  /// latency" property (Section 1) falls out structurally.
  SimTime node_to_switch_one_way = 2500 * kNanosecond;
  /// Link serialization rate. 10 GbE = 0.8 ns/byte.
  double ns_per_byte = 0.8;
  /// Fixed per-message software overhead at the sender (DPDK-style stacks:
  /// small but nonzero).
  SimTime send_overhead = 150 * kNanosecond;
  /// Receive-path service time per packet at a NODE (DPDK poll + dispatch
  /// to the worker). Serialized per node: this is what bounds how many
  /// switch responses a host can absorb per second. The switch itself
  /// receives at line rate.
  SimTime rx_service = 500 * kNanosecond;
  /// One-way propagation latency between two switches (the replication
  /// link). Same rack, so same wire length as a node<->switch hop by
  /// default; kept separate so asymmetric topologies stay expressible.
  SimTime switch_to_switch_one_way = 2500 * kNanosecond;
};

}  // namespace p4db::net

#endif  // P4DB_NET_NETWORK_H_
