#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

// Full-stack runs: every workload under every engine mode on a small
// cluster must make progress, keep its invariants, and (for P4DB) route
// the expected transaction classes through the switch.

SystemConfig Cluster(EngineMode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 8;
  cfg.seed = 1234;
  return cfg;
}

struct RunResult {
  Metrics metrics;
  sw::PipelineStats pipeline;
};

RunResult RunYcsb(EngineMode mode, char variant) {
  wl::YcsbConfig wcfg;
  wcfg.variant = variant;
  wcfg.table_size = 1000000;
  wcfg.hot_keys_per_node = 20;
  wl::Ycsb workload(wcfg);
  Engine engine(Cluster(mode));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 80);
  RunResult r;
  r.metrics = engine.Run(kMillisecond, 4 * kMillisecond);
  r.pipeline = engine.pipeline().stats();
  return r;
}

class YcsbModesTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, char>> {};

TEST_P(YcsbModesTest, MakesProgress) {
  const auto [mode, variant] = GetParam();
  const RunResult r = RunYcsb(mode, variant);
  EXPECT_GT(r.metrics.committed, 300u) << EngineModeName(mode);
  if (mode == EngineMode::kP4db) {
    EXPECT_GT(r.pipeline.txns_completed, 0u);
    EXPECT_EQ(r.metrics.aborts_by_class[0], 0u);  // hot never aborts
  } else {
    EXPECT_EQ(r.pipeline.txns_completed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, YcsbModesTest,
    ::testing::Combine(::testing::Values(EngineMode::kP4db,
                                         EngineMode::kNoSwitch,
                                         EngineMode::kLmSwitch,
                                         EngineMode::kChiller),
                       ::testing::Values('A', 'C')));

TEST(YcsbIntegrationTest, P4dbBeatsNoSwitchUnderContention) {
  const RunResult p4db = RunYcsb(EngineMode::kP4db, 'A');
  const RunResult base = RunYcsb(EngineMode::kNoSwitch, 'A');
  EXPECT_GT(p4db.metrics.committed, base.metrics.committed);
  // The baseline suffers aborts on the contended hot set; P4DB does not.
  EXPECT_GT(base.metrics.AbortRate(), 0.05);
  EXPECT_LT(p4db.metrics.AbortRate(), base.metrics.AbortRate());
}

TEST(YcsbIntegrationTest, AllHotTxnsSinglePassUnderOptimalLayout) {
  const RunResult r = RunYcsb(EngineMode::kP4db, 'A');
  EXPECT_EQ(r.pipeline.multi_pass_txns, 0u);  // Section 7.3's claim
  EXPECT_EQ(r.pipeline.total_passes, r.pipeline.txns_completed);
}

TEST(YcsbIntegrationTest, RandomLayoutForcesMultipass) {
  wl::YcsbConfig wcfg;
  wcfg.variant = 'A';
  wcfg.table_size = 1000000;
  wcfg.hot_keys_per_node = 20;
  wl::Ycsb workload(wcfg);
  SystemConfig cfg = Cluster(EngineMode::kP4db);
  cfg.optimal_layout = false;  // Figure 16's "worst case"
  Engine engine(cfg);
  engine.SetWorkload(&workload);
  engine.Offload(10000, 80);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 0u);
  EXPECT_GT(engine.pipeline().stats().multi_pass_txns, 0u);
  EXPECT_GT(engine.pipeline().stats().lock_acquisitions, 0u);
}

// --------------------------------------------------------------- SmallBank

TEST(SmallBankIntegrationTest, P4dbRunsHotAndColdClasses) {
  wl::SmallBankConfig scfg;
  scfg.num_accounts = 100000;
  scfg.hot_accounts_per_node = 5;
  wl::SmallBank workload(scfg);
  Engine engine(Cluster(EngineMode::kP4db));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 2 * 4 * 5);  // savings+checking per hot account
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kCold)], 0u);
  EXPECT_EQ(m.aborts_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
}

TEST(SmallBankIntegrationTest, SpeedupOverNoSwitch) {
  wl::SmallBankConfig scfg;
  scfg.num_accounts = 100000;
  scfg.hot_accounts_per_node = 5;
  double tput[2];
  for (int i = 0; i < 2; ++i) {
    wl::SmallBank workload(scfg);
    Engine engine(
        Cluster(i == 0 ? EngineMode::kP4db : EngineMode::kNoSwitch));
    engine.SetWorkload(&workload);
    engine.Offload(10000, 40);
    tput[i] = engine.Run(kMillisecond, 4 * kMillisecond)
                  .Throughput(4 * kMillisecond);
  }
  EXPECT_GT(tput[0], 1.5 * tput[1]);  // paper: ~3x at the smallest hot set
}

// ------------------------------------------------------------------- TPC-C

TEST(TpccIntegrationTest, EverySwitchTxnIsWarm) {
  wl::TpccConfig tcfg;
  tcfg.num_warehouses = 8;
  wl::Tpcc workload(tcfg);
  Engine engine(Cluster(EngineMode::kP4db));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 2000);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed, 500u);
  // TPC-C has no purely-hot transactions: everything through the switch is
  // a warm transaction (Section 7.5).
  EXPECT_EQ(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kWarm)], 0u);
  EXPECT_GT(engine.pipeline().stats().txns_completed, 0u);
}

TEST(TpccIntegrationTest, OrderIdsAreUniquePerDistrict) {
  wl::TpccConfig tcfg;
  tcfg.num_warehouses = 4;
  wl::Tpcc workload(tcfg);
  Engine engine(Cluster(EngineMode::kP4db));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 2000);
  engine.Run(kMillisecond, 3 * kMillisecond);
  // next_o_id increments are serialized by the switch: the number of
  // materialized order rows per district must equal the counter value.
  const db::Table& orders = engine.catalog().table(workload.order_table());
  uint64_t total_orders = orders.materialized_rows();
  uint64_t counter_sum = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint32_t d = 0; d < 10; ++d) {
      const HotItem item{
          TupleId{workload.district_table(), workload.DistrictKey(w, d)},
          wl::Tpcc::kDistrictNextOid};
      const auto* addr = engine.partition_manager().AddressOf(item);
      ASSERT_NE(addr, nullptr) << "next_o_id must be offloaded";
      // Counter started at 1 (default row): orders created = value - 1.
      counter_sum +=
          static_cast<uint64_t>(*engine.control_plane().ReadValue(*addr)) - 1;
    }
  }
  // Orders inserted after the horizon cut may be missing the row, so allow
  // a small slack in one direction.
  EXPECT_LE(total_orders, counter_sum);
  EXPECT_GE(total_orders + 200, counter_sum);
}

TEST(TpccIntegrationTest, MoreWarehousesReduceContention) {
  double abort_rate[2];
  int i = 0;
  for (uint32_t warehouses : {4u, 32u}) {
    wl::TpccConfig tcfg;
    tcfg.num_warehouses = warehouses;
    wl::Tpcc workload(tcfg);
    Engine engine(Cluster(EngineMode::kNoSwitch));
    engine.SetWorkload(&workload);
    engine.Offload(10000, 4000);
    abort_rate[i++] =
        engine.Run(kMillisecond, 3 * kMillisecond).AbortRate();
  }
  EXPECT_GT(abort_rate[0], abort_rate[1]);
}


TEST(TpccIntegrationTest, FullMixRunsAndDeliveryCreditsFlow) {
  wl::TpccConfig tcfg;
  tcfg.num_warehouses = 8;
  tcfg.full_mix = true;
  wl::Tpcc workload(tcfg);
  Engine engine(Cluster(EngineMode::kP4db));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 2500);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed, 500u);

  // A scripted NewOrder -> Delivery pair: the delivery must pick up the
  // order's total through the result-derived key chain.
  Rng rng(55);
  const db::Transaction no = workload.MakeNewOrder(rng, 0);
  auto r1 = engine.ExecuteOnce(no, 0);
  ASSERT_TRUE(r1.ok());
  Value64 total = 0;
  for (const db::Op& op : no.ops) {
    if (op.type == db::OpType::kInsert &&
        op.tuple.table == workload.order_table() &&
        op.column == wl::Tpcc::kOrderTotal) {
      total = op.operand;
    }
  }
  // Drive this district's delivery counter right behind the order counter
  // so the next pop returns exactly our order. (The background run above
  // advanced the order counters far beyond the delivery counters.)
  const uint32_t d_of_order = 0;  // MakeNewOrder(rng seeded 55, w=0): see below
  (void)d_of_order;
  // Find the district the order went to (the next_o_id ADD op).
  Key district_key = 0;
  for (const db::Op& op : no.ops) {
    if (op.tuple.table == workload.district_table() &&
        op.column == wl::Tpcc::kDistrictNextOid) {
      district_key = op.tuple.key;
    }
  }
  const HotItem oid_item{TupleId{workload.district_table(), district_key},
                         wl::Tpcc::kDistrictNextOid};
  const auto* oid_addr = engine.partition_manager().AddressOf(oid_item);
  ASSERT_NE(oid_addr, nullptr);
  const Value64 order_counter = *engine.control_plane().ReadValue(*oid_addr);

  // Set the district's delivery counter to order_counter - 1 so the next
  // Delivery pops our order. The column may or may not be offloaded.
  const HotItem del_item{TupleId{workload.district_table(), district_key},
                         wl::Tpcc::kDistrictLastDelivered};
  const auto* del_addr = engine.partition_manager().AddressOf(del_item);
  if (del_addr != nullptr) {
    ASSERT_TRUE(engine.control_plane()
                    .InstallValue(*del_addr, order_counter - 1)
                    .ok());
  } else {
    engine.catalog()
        .table(workload.district_table())
        .GetOrCreate(district_key)[wl::Tpcc::kDistrictLastDelivered] =
        order_counter - 1;
  }

  const db::Transaction delivery = workload.MakeDelivery(rng, 0);
  auto r2 = engine.ExecuteOnce(delivery, 0);
  ASSERT_TRUE(r2.ok());
  // Locate our district's read-total op within the delivery and check it
  // saw the recorded total.
  for (size_t i = 0; i < delivery.ops.size(); ++i) {
    const db::Op& op = delivery.ops[i];
    if (op.key_from_src && op.column == wl::Tpcc::kOrderTotal &&
        delivery.ops[op.operand_src].tuple.key == district_key) {
      EXPECT_EQ((*r2)[i], total);
    }
  }
}

TEST(TpccIntegrationTest, DeliveryLogsCarrierWritesUnderTheirEffectiveKeys) {
  // A Delivery stamps the carrier on the order row its popped counter
  // addresses (key_from_src). The commit record must name that row, and
  // building it must not materialize a row at the op's nominal key.
  wl::TpccConfig tcfg;
  tcfg.num_warehouses = 4;
  tcfg.full_mix = true;
  wl::Tpcc workload(tcfg);
  Engine engine(Cluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&workload);
  Rng rng(7);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.ExecuteOnce(workload.MakeNewOrder(rng, 0), 0).ok());
  }
  const size_t records_before = engine.wal(0).size();
  const db::Transaction delivery = workload.MakeDelivery(rng, 0);
  auto r = engine.ExecuteOnce(delivery, 0);
  ASSERT_TRUE(r.ok());

  std::vector<TupleId> nominal;
  std::vector<TupleId> effective;
  Value64 carrier = 0;
  for (const db::Op& op : delivery.ops) {
    if (!op.key_from_src || op.column != wl::Tpcc::kOrderCarrier) continue;
    carrier = op.operand;
    nominal.push_back(op.tuple);
    effective.push_back(TupleId{
        op.tuple.table,
        op.tuple.key + static_cast<Key>((*r)[op.operand_src])});
  }
  ASSERT_EQ(nominal.size(), tcfg.districts_per_warehouse);

  size_t under_nominal = 0;
  size_t under_effective = 0;
  const auto& records = engine.wal(0).records();
  for (size_t i = records_before; i < records.size(); ++i) {
    for (const db::HostLogOp& w : records[i].host_writes) {
      if (w.tuple.table != workload.order_table() ||
          w.column != wl::Tpcc::kOrderCarrier) {
        continue;
      }
      for (size_t d = 0; d < nominal.size(); ++d) {
        if (w.tuple == nominal[d]) ++under_nominal;
        if (w.tuple == effective[d]) {
          ++under_effective;
          EXPECT_EQ(w.new_value, carrier);
        }
      }
    }
  }
  EXPECT_EQ(under_nominal, 0u);
  EXPECT_EQ(under_effective, nominal.size());
  const db::Table& orders = engine.catalog().table(workload.order_table());
  for (const TupleId& t : nominal) {
    EXPECT_TRUE(orders.Find(t.key).empty()) << "row at nominal key " << t.key;
  }
}

// ----------------------------------------------------------- determinism --

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [] {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    wcfg.table_size = 100000;
    wcfg.hot_keys_per_node = 10;
    wl::Ycsb workload(wcfg);
    Engine engine(Cluster(EngineMode::kP4db));
    engine.SetWorkload(&workload);
    engine.Offload(5000, 40);
    return engine.Run(kMillisecond, 2 * kMillisecond);
  };
  const Metrics a = run();
  const Metrics b = run();
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
  EXPECT_EQ(a.breakdown.Total(), b.breakdown.Total());
}

}  // namespace
}  // namespace p4db::core
