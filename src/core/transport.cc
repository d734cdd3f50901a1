#include "core/transport.h"

#include <cassert>

#include "common/small_vector.h"

namespace p4db::core {

LegacyTransport::LegacyTransport(sim::Simulator* sim, trace::Tracer* tracer,
                                 MetricsRegistry* registry,
                                 const net::NetworkConfig& config)
    : sim_(sim), registry_(registry), wire_(config) {
  sender_.tracer = tracer;
  sender_.messages_sent = &registry->counter("net.messages_sent");
  sender_.bytes_sent = &registry->counter("net.bytes_sent");
}

SimTime LegacyTransport::Arrival(net::Endpoint from, net::Endpoint to,
                                 uint32_t bytes, uint64_t txn_id) {
  const SimTime now = sim_->now();
  if (from == to) return now;
  SimTime arrive = wire_.Depart(sender_, now, from, to, bytes, txn_id);
  // Node-to-node frames always transit switch 0's forwarding plane — plain
  // L2 forwarding survives a pipeline reboot, so routing does not follow
  // the hot-tuple primary — and contend for its downlink.
  if (!from.is_switch() && !to.is_switch()) {
    arrive = wire_.Forward(arrive, to.index, bytes);
  }
  // The receive path is reserved at send time.
  if (!to.is_switch()) arrive = wire_.Receive(to.index, arrive);
  sender_.tracer->CompleteSpan(now, arrive, trace::Category::kNetSend, txn_id,
                               from.index, 0, 0, to.index);
  return arrive;
}

bool LegacyTransport::Send(net::Endpoint from, net::Endpoint to,
                           uint32_t bytes, uint64_t txn_id,
                           std::coroutine_handle<> h) {
  const SimTime arrive = Arrival(from, to, bytes, txn_id);
  if (arrive <= sim_->now()) return false;
  sim_->ScheduleResumeAt(arrive, h);
  return true;
}

void LegacyTransport::BatchSend(net::Endpoint from, net::Endpoint to,
                                uint32_t bytes, uint32_t count,
                                uint64_t label,
                                const std::coroutine_handle<>* handles) {
  batches_sent_->Increment();
  batched_txns_->Increment(count);
  const SimTime arrive = Arrival(from, to, bytes, label);
  for (uint32_t i = 0; i < count; ++i) {
    sim_->ScheduleResumeAt(arrive, handles[i]);
  }
}

bool LegacyTransport::CommitMulticast(
    uint16_t sw, NodeId self, uint32_t bytes, uint64_t txn_id,
    const cc::NodeSet& participants,
    const std::vector<std::unique_ptr<db::LockManager>>& lock_managers,
    std::coroutine_handle<> h) {
  // Egress occupancy is per node-facing switch port, so the legs proceed in
  // parallel; every hop is unattributed (txn 0).
  const uint16_t num_nodes = wire_.config().num_nodes;
  SmallVector<SimTime, 16> arrivals(num_nodes);
  for (uint16_t n = 0; n < num_nodes; ++n) {
    arrivals[n] =
        Arrival(net::Endpoint::Switch(sw), net::Endpoint::Node(n), bytes);
  }
  participants.ForEachReverse([&](NodeId p) {
    db::LockManager* lm = lock_managers[p].get();
    sim_->ScheduleAt(arrivals[p], [lm, txn_id] { lm->ReleaseAll(txn_id); });
  });
  if (arrivals[self] <= sim_->now()) return false;
  sim_->ScheduleResumeAt(arrivals[self], h);
  return true;
}

void LegacyTransport::Release(NodeId /*owner*/, SimTime delay,
                              db::LockManager* lm, uint64_t txn_id) {
  sim_->Schedule(delay, [lm, txn_id] { lm->ReleaseAll(txn_id); });
}

void LegacyTransport::Replicate(uint16_t from, uint16_t /*to*/,
                                uint32_t bytes, sim::InlineEvent deliver) {
  sim_->ScheduleAt(wire_.Replicate(sim_->now(), from, bytes),
                   std::move(deliver));
}

void LegacyTransport::SetFaultInjector(uint32_t shard,
                                       net::FaultInjector* injector) {
  assert(shard == 0);
  (void)shard;
  sender_.injector = injector;
}

void LegacyTransport::EnableBatchCounters() {
  batches_sent_ = &registry_->counter("net.batches_sent");
  batched_txns_ = &registry_->counter("net.batched_txns");
}

}  // namespace p4db::core
