#include <gtest/gtest.h>

#include <string>

#include "common/metrics_registry.h"
#include "core/cc/node_set.h"
#include "core/transport.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/wire.h"
#include "sim/simulator.h"
#include "sim/task.h"

// The rack's wire (net::Wire: each leg on its own) and the legacy
// runtime's composition of those legs (core::LegacyTransport), plus the
// endpoint encoding and the fault schedule's per-switch addressing.

namespace p4db::net {
namespace {

NetworkConfig TestConfig() {
  NetworkConfig cfg;
  cfg.num_nodes = 4;
  cfg.node_to_switch_one_way = 1000;
  cfg.ns_per_byte = 1.0;
  cfg.send_overhead = 100;
  cfg.rx_service = 50;
  cfg.switch_to_switch_one_way = 700;
  return cfg;
}

TEST(EndpointTest, SwitchEncodingRoundTrips) {
  // Switch 0 keeps the historical 0xFFFF index, so single-switch traces,
  // schedules, and baselines are byte-identical to the pre-replication era.
  EXPECT_EQ(Endpoint::Switch().index, Endpoint::kSwitchIndex);
  EXPECT_EQ(Endpoint::Switch(0).index, 0xFFFFu);
  for (uint16_t k = 0; k < 8; ++k) {
    const Endpoint ep = Endpoint::Switch(k);
    EXPECT_TRUE(ep.is_switch());
    EXPECT_EQ(ep.switch_id(), k);
  }
  EXPECT_FALSE(Endpoint::Node(0).is_switch());
  EXPECT_FALSE(Endpoint::Node(255).is_switch());
}

TEST(FaultScheduleTest, ToJsonCarriesTargetSwitch) {
  FaultSchedule schedule;
  schedule.events.push_back(
      FaultEvent::SwitchReboot(2 * kMillisecond, 500 * kMicrosecond));
  schedule.events.push_back(FaultEvent::SwitchReboot(
      3 * kMillisecond, 500 * kMicrosecond, /*switch_id=*/1));
  const std::string json = schedule.ToJson();
  // Old single-switch schedules keep working (default target 0); the dump
  // names the target either way so chaos artifacts are unambiguous.
  EXPECT_NE(json.find("\"switch\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"switch\": 1"), std::string::npos);
}

// ------------------------------------------------------------------ Wire --

TEST(WireTest, DepartChargesOverheadSerializationAndOneHop) {
  Wire wire(TestConfig());
  const Wire::Sender sender;
  // overhead 100 + ser 10 + one hop 1000, whichever way the frame goes.
  EXPECT_EQ(wire.Depart(sender, 0, Endpoint::Node(0), Endpoint::Switch(), 10,
                        0),
            100 + 10 + 1000);
  EXPECT_EQ(wire.Depart(sender, 0, Endpoint::Switch(), Endpoint::Node(1), 10,
                        0),
            100 + 10 + 1000);
}

TEST(WireTest, DepartCountsTraffic) {
  Wire wire(TestConfig());
  MetricsRegistry reg;
  Wire::Sender sender;
  sender.messages_sent = &reg.counter("net.messages_sent");
  sender.bytes_sent = &reg.counter("net.bytes_sent");
  wire.Depart(sender, 0, Endpoint::Node(0), Endpoint::Switch(), 100, 0);
  wire.Depart(sender, 0, Endpoint::Switch(), Endpoint::Node(1), 50, 0);
  EXPECT_EQ(reg.counter("net.messages_sent").value(), 2u);
  EXPECT_EQ(reg.counter("net.bytes_sent").value(), 150u);
}

TEST(WireTest, DuplicateFrameHoldsTheLinkForASecondSerialization) {
  FaultSchedule schedule;
  schedule.links.dup_prob = 1.0;
  MetricsRegistry reg;
  FaultInjector injector(schedule, /*seed=*/1, &reg);
  Wire clean(TestConfig());
  Wire dup(TestConfig());
  Wire::Sender lossless;
  Wire::Sender duplicating;
  duplicating.injector = &injector;
  // The duplicate leaves after the real copy: the first frame itself is
  // not delayed...
  const SimTime a0 = clean.Depart(lossless, 0, Endpoint::Node(0),
                                  Endpoint::Switch(), 200, 0);
  const SimTime d0 = dup.Depart(duplicating, 0, Endpoint::Node(0),
                                Endpoint::Switch(), 200, 0);
  EXPECT_EQ(d0, a0);
  // ...but the next frame on the same uplink queues behind the copy.
  const SimTime a1 = clean.Depart(lossless, 0, Endpoint::Node(0),
                                  Endpoint::Switch(), 200, 0);
  const SimTime d1 = dup.Depart(lossless, 0, Endpoint::Node(0),
                                Endpoint::Switch(), 200, 0);
  EXPECT_EQ(d1 - a1, 200);
  EXPECT_EQ(reg.counter("net.injected_dups").value(), 1u);
}

TEST(WireTest, ForwardContendsForSwitchZerosDownlink) {
  Wire wire(TestConfig());
  // Two frames reach the switch at t = 0 for node 3: the second waits for
  // the first to serialize.
  EXPECT_EQ(wire.Forward(0, 3, 10), 10 + 1000);
  EXPECT_EQ(wire.Forward(0, 3, 10), 20 + 1000);
  // The switch's own sends to node 3 use the same downlink.
  const Wire::Sender sender;
  EXPECT_EQ(wire.Depart(sender, 0, Endpoint::Switch(), Endpoint::Node(3), 10,
                        0),
            100 + 10 + 1000);
  EXPECT_EQ(wire.Depart(sender, 0, Endpoint::Switch(), Endpoint::Node(2), 10,
                        0),
            100 + 10 + 1000);
}

TEST(WireTest, ReceiveSerializesPerNode) {
  Wire wire(TestConfig());
  EXPECT_EQ(wire.Receive(3, 1000), 1050);
  EXPECT_EQ(wire.Receive(3, 1000), 1100);
  EXPECT_EQ(wire.Receive(2, 1000), 1050);  // another node's path is idle
}

TEST(WireTest, ReplicationLegSerializesPerSwitch) {
  NetworkConfig cfg = TestConfig();
  cfg.num_switches = 2;
  Wire wire(cfg);
  // overhead 100 + ser 60 + one switch-to-switch hop 700.
  EXPECT_EQ(wire.Replicate(0, 0, 60), 100 + 60 + 700);
  // The next record from switch 0 queues behind the first on its egress...
  EXPECT_EQ(wire.Replicate(0, 0, 60), 100 + 120 + 700);
  // ...while switch 1's egress is its own link.
  EXPECT_EQ(wire.Replicate(0, 1, 60), 100 + 60 + 700);
  // The replication link is not a node-facing port.
  const Wire::Sender sender;
  EXPECT_EQ(wire.Depart(sender, 0, Endpoint::Switch(0), Endpoint::Node(0), 60,
                        0),
            100 + 60 + 1000);
}

// -------------------------------------------------------- LegacyTransport --

struct Legacy {
  sim::Simulator sim;
  MetricsRegistry reg;
  core::LegacyTransport net{&sim, &trace::Tracer::Disabled(), &reg,
                            TestConfig()};
};

TEST(LegacyTransportTest, SelfDeliveryIsFree) {
  Legacy l;
  EXPECT_EQ(l.net.Arrival(Endpoint::Node(2), Endpoint::Node(2), 100),
            l.sim.now());
  EXPECT_EQ(l.reg.counter("net.messages_sent").value(), 0u);
}

TEST(LegacyTransportTest, ArrivalIncludesOverheadSerializationAndRx) {
  {
    Legacy l;
    // overhead 100 + ser 10 + prop 1000 (to switch, no rx at switch).
    EXPECT_EQ(l.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 10),
              100 + 10 + 1000);
  }
  {
    // Idle links: node->node = overhead + ser + prop + ser(downlink) +
    // prop + rx, so a node is twice as far as the switch.
    Legacy l;
    EXPECT_EQ(l.net.Arrival(Endpoint::Node(0), Endpoint::Node(1), 10),
              100 + 10 + 1000 + 10 + 1000 + 50);
  }
}

TEST(LegacyTransportTest, UplinkSerializesBackToBackSends) {
  Legacy l;
  const SimTime a = l.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 1000);
  const SimTime b = l.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 1000);
  EXPECT_EQ(b - a, 1000);  // second packet queues behind the first
}

TEST(LegacyTransportTest, DistinctUplinksDoNotInterfere) {
  Legacy l;
  const SimTime a = l.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 1000);
  const SimTime b = l.net.Arrival(Endpoint::Node(1), Endpoint::Switch(), 1000);
  EXPECT_EQ(a, b);
}

TEST(LegacyTransportTest, SwitchIngressHasNoRxCost) {
  // Two sends from different nodes to the switch arrive simultaneously
  // (line-rate ingress); to a node, the second is delayed by rx_service.
  Legacy a;
  const SimTime s1 = a.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 1);
  const SimTime s2 = a.net.Arrival(Endpoint::Node(1), Endpoint::Switch(), 1);
  EXPECT_EQ(s1, s2);
  Legacy b;
  const SimTime n1 = b.net.Arrival(Endpoint::Node(0), Endpoint::Node(3), 1);
  const SimTime n2 = b.net.Arrival(Endpoint::Node(1), Endpoint::Node(3), 1);
  EXPECT_EQ(n2 - n1, TestConfig().rx_service);
}

TEST(LegacyTransportTest, LargeMessagesSerializeProportionally) {
  Legacy a;
  const SimTime small =
      a.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 100);
  Legacy b;
  const SimTime large =
      b.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 1100);
  EXPECT_EQ(large - small, 1000);  // 1 ns per byte in the test config
}

TEST(LegacyTransportTest, SustainedLoadBacklogsTheLink) {
  Legacy l;
  SimTime last = 0;
  for (int i = 0; i < 100; ++i) {
    last = l.net.Arrival(Endpoint::Node(0), Endpoint::Switch(), 500);
  }
  // 100 x 500B at 1 ns/B: the last arrival reflects the full backlog.
  EXPECT_GE(last, 100 * 500);
}

TEST(LegacyTransportTest, SendResumesAtArrivalTime) {
  Legacy l;
  SimTime done = -1;
  struct SendAwaiter {
    core::Transport* net;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const {
      return net->Send(Endpoint::Node(0), Endpoint::Switch(), 10, 0, h);
    }
    void await_resume() const noexcept {}
  };
  auto body = [](Legacy& env, SimTime* out) -> sim::Task {
    co_await SendAwaiter{&env.net};
    *out = env.sim.now();
  };
  sim::Task t = body(l, &done);
  l.sim.Run();
  EXPECT_EQ(done, 100 + 10 + 1000);
}

TEST(LegacyTransportTest, CommitMulticastUsesParallelDownlinks) {
  Legacy l;
  std::vector<std::unique_ptr<db::LockManager>> lms;
  for (int n = 0; n < 4; ++n) {
    lms.push_back(std::make_unique<db::LockManager>(
        &l.sim, db::CcScheme::kNoWait, &l.reg, "lock.node"));
  }
  core::cc::NodeSet participants;
  participants.insert(1);
  participants.insert(3);
  SimTime done = -1;
  struct MulticastAwaiter {
    Legacy* env;
    const std::vector<std::unique_ptr<db::LockManager>>* lms;
    const core::cc::NodeSet* participants;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const {
      return env->net.CommitMulticast(0, /*self=*/0, 100, /*txn_id=*/7,
                                      *participants, *lms, h);
    }
    void await_resume() const noexcept {}
  };
  auto body = [](MulticastAwaiter aw, SimTime* out) -> sim::Task {
    co_await aw;
    *out = aw.env->sim.now();
  };
  sim::Task t = body(MulticastAwaiter{&l, &lms, &participants}, &done);
  l.sim.Run();
  // Different downlinks: every node hears the decision after one switch
  // hop plus its own rx service, and every node absorbed the frame.
  EXPECT_EQ(done, 100 + 100 + 1000 + 50);
  EXPECT_EQ(l.reg.counter("net.messages_sent").value(), 4u);
}

}  // namespace
}  // namespace p4db::net
