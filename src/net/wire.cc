#include "net/wire.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/fault_injector.h"

namespace p4db::net {

Wire::Wire(const NetworkConfig& config)
    : config_(config),
      uplink_busy_(config.num_nodes, 0),
      downlink_busy_(
          static_cast<size_t>(config.num_switches) * config.num_nodes, 0),
      rx_busy_(config.num_nodes, 0),
      replication_busy_(config.num_switches, 0) {}

SimTime Wire::Serialization(uint32_t bytes) const {
  return static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * config_.ns_per_byte));
}

SimTime Wire::Depart(const Sender& sender, SimTime now, Endpoint from,
                     Endpoint to, uint32_t bytes, uint64_t txn_id) {
  assert(!(from.is_switch() && to.is_switch()) &&
         "switch-to-switch traffic takes Replicate");
  sender.messages_sent->Increment();
  sender.bytes_sent->Increment(bytes);

  // Injected link faults: a drop costs the transport one retransmit delay
  // before the frame successfully serializes, a delay spike stalls it in a
  // congested queue, a duplicate occupies the egress link for a second
  // copy after the real one departs. All recoverable — unrecoverable loss
  // is modeled at the failure boundary (switch reboot + epoch fencing).
  SimTime injected_delay = 0;
  bool injected_dup = false;
  if (sender.injector != nullptr) {
    const FaultInjector::Perturbation p = sender.injector->OnSend(from, to);
    injected_delay = p.extra_delay;
    injected_dup = p.duplicate;
    trace::Tracer& tracer = *sender.tracer;
    // A node's trace track is its id; switch k's track is its endpoint
    // index 0xFFFF - k (switch 0 == trace::kSwitchTrack), so the sender
    // index IS the track for every endpoint kind.
    if (tracer.enabled()) {
      if (p.dropped) {
        tracer.Instant(trace::Category::kNetDrop, txn_id, from.index,
                       to.index);
      }
      if (p.duplicate) {
        tracer.Instant(trace::Category::kNetDup, txn_id, from.index,
                       to.index);
      }
      if (p.delay_spiked) {
        tracer.Instant(trace::Category::kNetDelaySpike, txn_id, from.index,
                       to.index);
      }
    }
  }

  const SimTime ser = Serialization(bytes);
  const SimTime start = now + config_.send_overhead + injected_delay;
  SimTime& link =
      from.is_switch()
          ? downlink_busy_[static_cast<size_t>(from.switch_id()) *
                               config_.num_nodes +
                           to.index]
          : uplink_busy_[from.index];
  const SimTime depart = std::max(start, link) + ser;
  link = depart + (injected_dup ? ser : 0);
  return depart + config_.node_to_switch_one_way;
}

SimTime Wire::Forward(SimTime at, uint16_t to, uint32_t bytes) {
  SimTime& down = downlink_busy_[to];  // switch 0's row
  const SimTime depart = std::max(at, down) + Serialization(bytes);
  down = depart;
  return depart + config_.node_to_switch_one_way;
}

SimTime Wire::Receive(uint16_t n, SimTime at) {
  SimTime& rx = rx_busy_[n];
  rx = std::max(at, rx) + config_.rx_service;
  return rx;
}

SimTime Wire::Replicate(SimTime now, uint16_t from, uint32_t bytes) {
  SimTime& link = replication_busy_[from];
  link = std::max(now + config_.send_overhead, link) + Serialization(bytes);
  return link + config_.switch_to_switch_one_way;
}

}  // namespace p4db::net
