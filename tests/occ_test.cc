#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

// Appendix A.4: warm transactions integrate with optimistic concurrency
// control by issuing the switch sub-transaction between validation and the
// write/commit phase. These tests run the OCC protocol end to end.

SystemConfig OccCluster(EngineMode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.cc_protocol = CcProtocol::kOcc;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 77;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

TEST(OccConfigTest, ProtocolNames) {
  EXPECT_STREQ(CcProtocolName(CcProtocol::k2pl), "2PL");
  EXPECT_STREQ(CcProtocolName(CcProtocol::kOcc), "OCC");
}

TEST(OccExecuteTest, SingleTxnSemanticsMatchHostPath) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  db::Transaction txn;
  db::Op put;
  put.type = db::OpType::kPut;
  put.tuple = TupleId{0, 5000};
  put.operand = 42;
  db::Op add;
  add.type = db::OpType::kAdd;
  add.tuple = TupleId{0, 5000};
  add.operand = 8;
  db::Op get;
  get.type = db::OpType::kGet;
  get.tuple = TupleId{0, 5000};
  txn.ops = {put, add, get};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  // Read-your-own-writes through the OCC write buffer.
  EXPECT_EQ(*r, (std::vector<Value64>{42, 50, 50}));
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(5000)[0], 50);
}

TEST(OccExecuteTest, DependentOperandsFlowThroughBuffer) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  db::Transaction txn;
  db::Op read;
  read.type = db::OpType::kGet;
  read.tuple = TupleId{0, 6000};
  db::Op write;
  write.type = db::OpType::kAdd;
  write.tuple = TupleId{0, 6001};
  write.operand = 1;
  write.operand_src = 0;
  txn.ops = {read, write};
  engine.catalog().table(0).GetOrCreate(6000)[0] = 10;
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[1], 11);  // 0 + 1 + carried 10
}

TEST(OccExecuteTest, CommitRecordLogsEveryWrittenCellWithItsValue) {
  // One write to a non-zero column and one insert: the host commit record
  // names each cell and carries the value the write phase applied.
  wl::Tpcc tpcc(wl::TpccConfig{});
  Engine engine(OccCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&tpcc);

  db::Op add;
  add.type = db::OpType::kAdd;
  add.tuple = TupleId{tpcc.district_table(), 0};
  add.column = 1;
  add.operand = 5;
  db::Op insert;
  insert.type = db::OpType::kInsert;
  insert.tuple = TupleId{tpcc.order_table(), 3};
  insert.column = 2;
  insert.operand = 9;
  db::Transaction txn;
  txn.ops = {add, insert};
  const size_t records_before = engine.wal(0).size();
  ASSERT_TRUE(engine.ExecuteOnce(txn, 0).ok());

  const auto& records = engine.wal(0).records();
  ASSERT_EQ(records.size(), records_before + 1);
  const db::LogRecord& rec = records.back();
  ASSERT_EQ(rec.kind, db::LogKind::kHostCommit);
  ASSERT_EQ(rec.host_writes.size(), 2u);
  const Value64 district =
      engine.catalog().table(tpcc.district_table()).GetOrCreate(0)[1];
  EXPECT_EQ(rec.host_writes[0].tuple, add.tuple);
  EXPECT_EQ(rec.host_writes[0].column, 1);
  EXPECT_EQ(rec.host_writes[0].new_value, district);
  EXPECT_NE(district, 0);
  EXPECT_EQ(rec.host_writes[1].tuple, insert.tuple);
  EXPECT_EQ(rec.host_writes[1].column, 2);
  EXPECT_EQ(rec.host_writes[1].new_value, 9);
}

TEST(OccRunTest, ContendedRunMakesProgressWithValidationAborts) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed, 300u);
  // Write-heavy hot set: OCC validation must be rejecting some attempts.
  EXPECT_GT(m.aborted_attempts, 0u);
}

TEST(OccRunTest, P4dbWithOccRoutesHotToSwitch) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_EQ(m.aborts_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(engine.pipeline().stats().txns_completed, 0u);
}

TEST(OccRunTest, P4dbBeatsOccBaselineUnderContention) {
  double tput[2];
  for (int i = 0; i < 2; ++i) {
    wl::Ycsb ycsb(SmallYcsb());
    Engine engine(
        OccCluster(i == 0 ? EngineMode::kP4db : EngineMode::kNoSwitch));
    engine.SetWorkload(&ycsb);
    engine.Offload(5000, 40);
    tput[i] = engine.Run(kMillisecond, 4 * kMillisecond)
                  .Throughput(4 * kMillisecond);
  }
  EXPECT_GT(tput[0], tput[1]);
}

TEST(OccWarmTest, WarmTxnAppliesSwitchAndHostSides) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Key hot_key = ycsb.HotKey(0, 3);
  db::Transaction txn;
  db::Op hot;
  hot.type = db::OpType::kAdd;
  hot.tuple = TupleId{0, hot_key};
  hot.operand = 11;
  db::Op cold;
  cold.type = db::OpType::kAdd;
  cold.tuple = TupleId{0, 55555};
  cold.operand = 22;
  // A deferred cold op consuming the hot result.
  db::Op dependent;
  dependent.type = db::OpType::kAdd;
  dependent.tuple = TupleId{0, 55556};
  dependent.operand = 0;
  dependent.operand_src = 0;
  txn.ops = {hot, cold, dependent};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 11);
  EXPECT_EQ((*r)[1], 22);
  EXPECT_EQ((*r)[2], 11);  // 0 + carried 11
  const auto* addr = engine.partition_manager().AddressOf(
      HotItem{TupleId{0, hot_key}, 0});
  EXPECT_EQ(*engine.control_plane().ReadValue(*addr), 11);
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(55556)[0], 11);
  // Everything released.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(engine.lock_manager(n).HeldBy(1), 0u);
  }
}

TEST(OccMoneyTest, AmalgamatesConserveMoneyUnderOcc) {
  wl::SmallBankConfig sc;
  sc.num_accounts = 64;
  sc.hot_accounts_per_node = 4;
  wl::SmallBank sb(sc);
  Engine engine(OccCluster(EngineMode::kP4db));
  engine.SetWorkload(&sb);
  engine.Offload(2000, 32);

  const auto total = [&] {
    Value64 sum = 0;
    for (Key a = 0; a < sc.num_accounts; ++a) {
      for (TableId t : {sb.savings_table(), sb.checking_table()}) {
        const HotItem item{TupleId{t, a}, 0};
        const auto* addr = engine.partition_manager().AddressOf(item);
        if (addr != nullptr) {
          sum += *engine.control_plane().ReadValue(*addr);
        } else {
          sum += engine.catalog().table(t).GetOrCreate(a)[0];
        }
      }
    }
    return sum;
  };
  const Value64 before = total();
  Rng rng(5);
  for (int i = 0; i < 150; ++i) {
    const Key a = rng.NextRange(sc.num_accounts);
    Key b = rng.NextRange(sc.num_accounts);
    if (b == a) b = (b + 1) % sc.num_accounts;
    ASSERT_TRUE(engine
                    .ExecuteOnce(sb.Make(wl::SmallBank::kAmalgamate, a, b, 0),
                                 static_cast<NodeId>(rng.NextRange(4)))
                    .ok());
  }
  EXPECT_EQ(total(), before);
}

}  // namespace
}  // namespace p4db::core
