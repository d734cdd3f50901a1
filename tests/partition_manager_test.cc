#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/engine.h"
#include "core/partition_manager.h"
#include "switchsim/pipeline.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

class PartitionManagerTest : public ::testing::Test {
 protected:
  PartitionManagerTest() : catalog_(4), pm_(&catalog_, &pipe_cfg_) {
    pipe_cfg_.num_stages = 4;
    pipe_cfg_.regs_per_stage = 2;
    pipe_cfg_.sram_bytes_per_stage = 1024;
    table_ = catalog_.CreateTable("t", 2, db::PartitionSpec{});
    db::PartitionSpec repl;
    repl.kind = db::PartitionSpec::Kind::kReplicated;
    repl_table_ = catalog_.CreateTable("ref", 1, repl);
  }

  void RegisterHot(Key key, uint16_t column, uint8_t stage, uint8_t reg,
                   uint32_t index, Value64 initial = 0) {
    pm_.RegisterHotItem(HotItem{TupleId{table_, key}, column},
                        sw::RegisterAddress{stage, reg, index}, initial);
  }

  static db::Op Op(db::OpType type, TupleId t, Value64 operand = 0,
                   uint16_t column = 0) {
    db::Op op;
    op.type = type;
    op.tuple = t;
    op.operand = operand;
    op.column = column;
    return op;
  }

  sw::PipelineConfig pipe_cfg_;
  db::Catalog catalog_;
  PartitionManager pm_;
  TableId table_;
  TableId repl_table_;
};

TEST_F(PartitionManagerTest, RegistrationAndLookup) {
  RegisterHot(1, 0, 2, 1, 7, 99);
  EXPECT_TRUE(pm_.IsHot(HotItem{TupleId{table_, 1}, 0}));
  EXPECT_FALSE(pm_.IsHot(HotItem{TupleId{table_, 1}, 1}));
  const auto* addr = pm_.AddressOf(HotItem{TupleId{table_, 1}, 0});
  ASSERT_NE(addr, nullptr);
  EXPECT_EQ(addr->stage, 2);
  EXPECT_EQ(addr->index, 7u);
  ASSERT_EQ(pm_.entries().size(), 1u);
  EXPECT_EQ(pm_.entries()[0].initial_value, 99);
}

TEST_F(PartitionManagerTest, ClassifyHot) {
  RegisterHot(1, 0, 0, 0, 0);
  RegisterHot(2, 0, 1, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kAdd, TupleId{table_, 2}, 5)};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kHot);
}

TEST_F(PartitionManagerTest, ClassifyCold) {
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 10})};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kCold);
}

TEST_F(PartitionManagerTest, ClassifyWarmMixture) {
  RegisterHot(1, 0, 0, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kAdd, TupleId{table_, 1}, 1),
             Op(db::OpType::kGet, TupleId{table_, 10})};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kWarm);
}

TEST_F(PartitionManagerTest, InsertsMakeHotTxnWarm) {
  RegisterHot(1, 0, 0, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kAdd, TupleId{table_, 1}, 1),
             Op(db::OpType::kInsert, TupleId{table_, 500}, 7)};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kWarm);
}

TEST_F(PartitionManagerTest, DistributedFlagFollowsPartitioning) {
  // Round-robin over 4 nodes: key 1 -> node 1, key 4 -> node 0.
  db::Transaction local;
  local.ops = {Op(db::OpType::kGet, TupleId{table_, 4})};
  pm_.Classify(&local, 0);
  EXPECT_FALSE(local.distributed);
  db::Transaction remote;
  remote.ops = {Op(db::OpType::kGet, TupleId{table_, 1})};
  pm_.Classify(&remote, 0);
  EXPECT_TRUE(remote.distributed);
}

TEST_F(PartitionManagerTest, ReplicatedTableIsLocalAndCold) {
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{repl_table_, 3})};
  pm_.Classify(&txn, 2);
  EXPECT_EQ(txn.cls, db::TxnClass::kCold);
  EXPECT_FALSE(txn.distributed);
}

TEST_F(PartitionManagerTest, HotColumnGranularity) {
  RegisterHot(1, 0, 0, 0, 0);  // column 0 hot, column 1 not
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kAdd, TupleId{table_, 1}, 1, /*column=*/1)};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kCold);
}

TEST_F(PartitionManagerTest, CompileLowersOpsToInstructions) {
  RegisterHot(1, 0, 0, 0, 3);
  RegisterHot(2, 0, 2, 1, 4);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kAdd, TupleId{table_, 2}, 9)};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, {}, /*origin_node=*/1, /*client_seq=*/5);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->txn.instrs.size(), 2u);
  EXPECT_EQ(c->txn.origin_node, 1);
  EXPECT_EQ(c->txn.client_seq, 5u);
  EXPECT_EQ(c->txn.instrs[0].op, sw::OpCode::kRead);
  EXPECT_EQ(c->txn.instrs[1].op, sw::OpCode::kAdd);
  EXPECT_EQ(c->txn.instrs[1].operand, 9);
  EXPECT_FALSE(c->txn.is_multipass);
  EXPECT_EQ(sw::PassPlan(c->txn.instrs).passes, 1u);
}

TEST_F(PartitionManagerTest, CompileKeepsProgramOrderAndStaysSinglePass) {
  RegisterHot(1, 0, 3, 0, 0);
  RegisterHot(2, 0, 0, 0, 0);
  db::Transaction txn;  // program order hits stage 3 then stage 0
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kGet, TupleId{table_, 2})};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  // Instructions stay in program order; the data plane executes them out
  // of order (each stage picks its own), so this is still single-pass.
  EXPECT_EQ(c->txn.instrs[0].addr.stage, 3);
  EXPECT_EQ(c->txn.instrs[1].addr.stage, 0);
  EXPECT_FALSE(c->txn.is_multipass);
  EXPECT_EQ(c->op_index[0], 0);
  EXPECT_EQ(c->op_index[1], 1);
}

TEST_F(PartitionManagerTest, CompileSameArrayCollisionIsMultipass) {
  RegisterHot(1, 0, 2, 0, 0);
  RegisterHot(2, 0, 2, 0, 1);  // same register array, different slot
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kGet, TupleId{table_, 2})};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->txn.is_multipass);
  EXPECT_EQ(sw::PassPlan(c->txn.instrs).passes, 2u);
}

TEST_F(PartitionManagerTest, CompileRewiresDependencies) {
  RegisterHot(1, 0, 3, 0, 0);  // producer in LATER stage
  RegisterHot(2, 0, 0, 0, 0);  // consumer in EARLIER stage
  db::Transaction txn;
  db::Op consumer = Op(db::OpType::kAdd, TupleId{table_, 2});
  consumer.operand_src = 0;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}), consumer};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  // The stage-3 producer feeds a stage-0 consumer: the value is carried
  // across passes, making this a 2-pass transaction.
  EXPECT_TRUE(c->txn.is_multipass);
  EXPECT_EQ(c->txn.instrs[0].addr.stage, 3);
  EXPECT_EQ(c->txn.instrs[1].operand_src, 0);
}

TEST_F(PartitionManagerTest, CompileFoldsResolvedColdDependency) {
  RegisterHot(2, 0, 1, 0, 0);
  db::Transaction txn;
  db::Op cold = Op(db::OpType::kGet, TupleId{table_, 100});  // not hot
  db::Op hot = Op(db::OpType::kAdd, TupleId{table_, 2}, 5);
  hot.operand_src = 0;
  txn.ops = {cold, hot};
  std::vector<std::optional<Value64>> resolved = {Value64{37}, std::nullopt};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, resolved, 0, 0);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->txn.instrs.size(), 1u);     // only the hot op compiles
  EXPECT_EQ(c->txn.instrs[0].operand, 42);  // 5 + 37 folded
  EXPECT_FALSE(c->txn.instrs[0].has_src());
}

TEST_F(PartitionManagerTest, CompileFailsOnUnresolvedColdDependency) {
  RegisterHot(2, 0, 1, 0, 0);
  db::Transaction txn;
  db::Op hot = Op(db::OpType::kAdd, TupleId{table_, 2}, 5);
  hot.operand_src = 0;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 100}), hot};
  std::vector<std::optional<Value64>> resolved = {std::nullopt, std::nullopt};
  pm_.Classify(&txn, 0);
  EXPECT_FALSE(pm_.Compile(txn, resolved, 0, 0).ok());
}

TEST_F(PartitionManagerTest, CompileCapsHotOpsAtThePacketLimit) {
  // Source indices are 7-bit wire fields and 0x7F means "immediate", so a
  // packet holds 127 instructions. The 127th may still read instruction 125;
  // a 128th hot op must be refused instead of being silently rewired.
  db::Transaction txn;
  for (Key k = 0; k < 128; ++k) {
    RegisterHot(k, 0, static_cast<uint8_t>(k % 4), 0,
                static_cast<uint32_t>(k / 4));
    txn.ops.push_back(Op(db::OpType::kAdd, TupleId{table_, k}, 1));
  }
  txn.ops[126].operand_src = 125;
  pm_.Classify(&txn, 0);
  db::Transaction fits = txn;
  fits.ops.pop_back();
  auto c = pm_.Compile(fits, {}, 0, 0);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->txn.instrs.size(), sw::PacketCodec::kMaxInstructions);
  EXPECT_EQ(c->txn.instrs.back().operand_src, 125);
  EXPECT_EQ(pm_.Compile(txn, {}, 0, 0).status().code(),
            Code::kCapacityExceeded);
}

TEST_F(PartitionManagerTest, CompileRejectsNoHotOps) {
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 100})};
  const std::vector<std::optional<Value64>> unresolved = {std::nullopt};
  pm_.Classify(&txn, 0);
  EXPECT_FALSE(pm_.Compile(txn, unresolved, 0, 0).ok());
}

TEST_F(PartitionManagerTest, CompileSetsLockHeaders) {
  RegisterHot(1, 0, 0, 0, 0);  // left region
  RegisterHot(2, 0, 3, 0, 0);  // right region
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kGet, TupleId{table_, 2})};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  // Single-pass: nothing to acquire, but both touched regions must be free.
  EXPECT_EQ(c->txn.lock_mask, 0);
  EXPECT_EQ(c->txn.touch_mask, sw::kLockLeft | sw::kLockRight);
}

TEST_F(PartitionManagerTest, CompileMultipassAcquiresPendingRegion) {
  RegisterHot(1, 0, 3, 0, 0);  // producer, right region
  RegisterHot(2, 0, 0, 0, 0);  // consumer, left region
  db::Transaction txn;
  db::Op consumer = Op(db::OpType::kAdd, TupleId{table_, 2});
  consumer.operand_src = 0;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}), consumer};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->txn.is_multipass);
  // Pending after pass 1: the stage-0 consumer -> acquire LEFT only.
  EXPECT_EQ(c->txn.lock_mask, sw::kLockLeft);
  EXPECT_EQ(c->txn.touch_mask, sw::kLockLeft | sw::kLockRight);
}

TEST_F(PartitionManagerTest, SameItemTwiceIsMultipass) {
  // Two ops on the SAME hot item: program order (read then write) is
  // preserved and the array conflict forces two passes.
  RegisterHot(1, 0, 1, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kPut, TupleId{table_, 1}, 42)};
  pm_.Classify(&txn, 0);
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->txn.instrs[0].op, sw::OpCode::kRead);
  EXPECT_EQ(c->txn.instrs[1].op, sw::OpCode::kWrite);
  EXPECT_TRUE(c->txn.is_multipass);  // same tuple twice => 2 passes
}

// Every op's stamp names the entry whose item is its (tuple, column), and
// Compile's addresses are the index's, over real generated streams with
// the hot set the engine offloads for them.
void ExpectStampsMatchTheIndex(wl::Workload* workload) {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  Engine engine(cfg);
  engine.SetWorkload(workload);
  engine.Offload(5000, 200);
  const PartitionManager& pm = engine.partition_manager();
  ASSERT_GT(pm.num_hot_items(), 0u);

  Rng rng(11);
  size_t hot_ops = 0;
  size_t compiled = 0;
  for (int i = 0; i < 400; ++i) {
    const NodeId home = static_cast<NodeId>(i % cfg.num_nodes);
    db::Transaction txn = workload->Next(rng, home);
    pm.Classify(&txn, home);
    for (const db::Op& op : txn.ops) {
      const HotItem item{op.tuple, op.column};
      EXPECT_EQ(op.hot_entry == db::kNotHot, !pm.IsHot(item));
      if (op.hot_entry == db::kNotHot) continue;
      ++hot_ops;
      ASSERT_LT(op.hot_entry, pm.entries().size());
      EXPECT_EQ(pm.entries()[op.hot_entry].item, item);
    }
    if (txn.cls == db::TxnClass::kCold) continue;
    const std::vector<std::optional<Value64>> resolved(txn.ops.size(),
                                                       Value64{0});
    auto c = pm.Compile(txn, resolved, home, 0);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ++compiled;
    for (size_t k = 0; k < c->op_index.size(); ++k) {
      const db::Op& op = txn.ops[c->op_index[k]];
      const sw::RegisterAddress* addr =
          pm.AddressOf(HotItem{op.tuple, op.column});
      ASSERT_NE(addr, nullptr);
      EXPECT_EQ(c->txn.instrs[k].addr, *addr);
    }
  }
  EXPECT_GT(hot_ops, 0u);
  EXPECT_GT(compiled, 0u);
}

TEST_F(PartitionManagerTest, ClassifyStampsMatchTheIndex) {
  wl::YcsbConfig ycfg;
  ycfg.table_size = 100000;
  ycfg.hot_keys_per_node = 10;
  wl::Ycsb ycsb(ycfg);
  ExpectStampsMatchTheIndex(&ycsb);

  wl::SmallBankConfig scfg;
  scfg.num_accounts = 4000;
  scfg.hot_accounts_per_node = 5;
  wl::SmallBank smallbank(scfg);
  ExpectStampsMatchTheIndex(&smallbank);

  wl::TpccConfig tcfg;
  tcfg.num_warehouses = 4;
  tcfg.full_mix = true;
  wl::Tpcc tpcc(tcfg);
  ExpectStampsMatchTheIndex(&tpcc);
}

}  // namespace
}  // namespace p4db::core
