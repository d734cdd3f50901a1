#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/engine.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

SystemConfig SmallCluster(EngineMode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 7;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

TEST(EngineOffloadTest, DetectsAndInstallsHotSet) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  const OffloadReport report = engine.Offload(5000, 40);
  EXPECT_EQ(report.offloaded_hot_items, 40u);
  EXPECT_FALSE(report.truncated_by_capacity);
  EXPECT_EQ(engine.control_plane().allocated_slots(), 40u);
  EXPECT_EQ(engine.partition_manager().num_hot_items(), 40u);
  // The detected hot set is exactly the workload's declared one.
  for (uint16_t n = 0; n < 4; ++n) {
    for (uint32_t j = 0; j < 10; ++j) {
      EXPECT_TRUE(engine.partition_manager().IsHot(
          HotItem{TupleId{ycsb.table_id(), ycsb.HotKey(n, j)}, 0}));
    }
  }
}

TEST(EngineOffloadTest, CapacityTruncatesHotSet) {
  wl::Ycsb ycsb(SmallYcsb());
  SystemConfig cfg = SmallCluster(EngineMode::kP4db);
  cfg.pipeline.num_stages = 2;
  cfg.pipeline.regs_per_stage = 1;
  cfg.pipeline.sram_bytes_per_stage = 10 * 8;  // 10 rows per stage, 20 total
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  const OffloadReport report = engine.Offload(5000, 40);
  EXPECT_TRUE(report.truncated_by_capacity);
  EXPECT_LE(report.offloaded_hot_items, 20u);
}

TEST(EngineOffloadTest, InitialValuesMoveToSwitch) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  // Pre-populate one hot key with a recognizable value.
  const Key hot_key = ycsb.HotKey(0, 0);
  engine.catalog().table(0).GetOrCreate(hot_key)[0] = 4242;
  engine.Offload(5000, 40);
  const auto* addr = engine.partition_manager().AddressOf(
      HotItem{TupleId{0, hot_key}, 0});
  ASSERT_NE(addr, nullptr);
  EXPECT_EQ(*engine.control_plane().ReadValue(*addr), 4242);
}

/// FNV-1a over each offloaded item and its register array, in vertex
/// (hot-rank) order.
uint64_t LayoutHash(const PartitionManager& pm) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const PartitionManager::HotEntry& e : pm.entries()) {
    mix(e.item.tuple.table, 4);
    mix(e.item.tuple.key, 8);
    mix(e.item.column, 2);
    mix(e.addr.stage, 1);
    mix(e.addr.reg, 1);
  }
  return h;
}

TEST(EngineTest, OffloadLayoutIsPinned) {
  // perfbench's tpcc_p4db setup at seed 42: the paper's 8-node rack, a
  // 20000-transaction sample and 2000 hot items. A change to counting,
  // ranking, graph building or layout that moves any item shows here.
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 8;
  cfg.workers_per_node = 20;
  cfg.seed = 42;
  wl::Tpcc tpcc(wl::TpccConfig{});
  Engine engine(cfg);
  engine.SetWorkload(&tpcc);
  const OffloadReport report = engine.Offload(20000, 2000);
  const LayoutPlan& plan = report.plan;
  EXPECT_EQ(report.offloaded_hot_items, 2000u);
  EXPECT_EQ(plan.total_weight, 192179u);
  EXPECT_EQ(plan.cut_weight, 192179u);
  EXPECT_EQ(plan.intra_part_weight, 0u);
  EXPECT_EQ(plan.order_violation_weight, 0u);
  EXPECT_EQ(LayoutHash(engine.partition_manager()), 0x6623df2b9917206dULL);
}

TEST(EngineRunTest, P4dbCommitsWithoutAborts) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 5 * kMillisecond);
  EXPECT_GT(m.committed, 1000u);
  // Hot transactions never abort on the switch.
  EXPECT_EQ(m.aborts_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(engine.pipeline().stats().txns_completed, 0u);
}

TEST(EngineRunTest, NoSwitchNeverTouchesPipeline) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 100u);
  EXPECT_EQ(engine.pipeline().stats().txns_completed, 0u);
}

TEST(EngineRunTest, LmSwitchUsesSwitchLockManager) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kLmSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 100u);
  EXPECT_EQ(engine.pipeline().stats().txns_completed, 0u);
  EXPECT_GT(engine.switch_lock_manager().stats().acquisitions, 0u);
}

TEST(EngineRunTest, ChillerRunsAndCommits) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kChiller));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 100u);
}

TEST(EngineRunTest, LatencyBreakdownCoversLatency) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  ASSERT_GT(m.committed, 0u);
  const double mean_latency = m.latency_all.Mean();
  const double mean_breakdown =
      static_cast<double>(m.breakdown.Total()) /
      static_cast<double>(m.committed);
  // The component attribution should explain most of the latency (some
  // response-path queueing is not attributed).
  EXPECT_GT(mean_breakdown, 0.5 * mean_latency);
  EXPECT_LT(mean_breakdown, 1.5 * mean_latency);
}

TEST(EngineRunTest, WalRecordsSwitchTransactions) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  engine.Run(kMillisecond, 2 * kMillisecond);
  size_t intents = 0, with_result = 0;
  for (NodeId n = 0; n < 4; ++n) {
    for (const auto* rec : engine.wal(n).SwitchIntents()) {
      ++intents;
      with_result += rec->has_result;
    }
  }
  EXPECT_GT(intents, 0u);
  // Almost all intents have results (a few in-flight at the horizon).
  EXPECT_GT(with_result, intents * 9 / 10);
}

TEST(EngineRunTest, GidsInWalsAreUnique) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  engine.Run(kMillisecond, 2 * kMillisecond);
  std::set<Gid> gids;
  size_t total = 0;
  for (NodeId n = 0; n < 4; ++n) {
    for (const auto* rec : engine.wal(n).SwitchIntents()) {
      if (!rec->has_result) continue;
      gids.insert(rec->gid);
      ++total;
    }
  }
  EXPECT_EQ(gids.size(), total);  // serial order ids never repeat
}

TEST(EngineExecuteOnceTest, ColdReadReturnsDefault) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  db::Transaction txn;
  db::Op op;
  op.type = db::OpType::kGet;
  op.tuple = TupleId{0, 77777};  // cold key
  txn.ops.push_back(op);
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0);
}

TEST(EngineExecuteOnceTest, WarmTxnAppliesBothSides) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
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
  txn.ops = {hot, cold};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 11);
  EXPECT_EQ((*r)[1], 22);
  const auto* addr = engine.partition_manager().AddressOf(
      HotItem{TupleId{0, hot_key}, 0});
  EXPECT_EQ(*engine.control_plane().ReadValue(*addr), 11);
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(55555)[0], 22);
}

TEST(EngineModeTest, Names) {
  EXPECT_STREQ(EngineModeName(EngineMode::kP4db), "P4DB");
  EXPECT_STREQ(EngineModeName(EngineMode::kNoSwitch), "No-Switch");
  EXPECT_STREQ(EngineModeName(EngineMode::kLmSwitch), "LM-Switch");
  EXPECT_STREQ(EngineModeName(EngineMode::kChiller), "Chiller");
}


TEST(EngineWarmTest, DistributedWarmReleasesRemoteLocksViaMulticast) {
  // A warm transaction with a remote cold participant: after commit, every
  // lock everywhere must be gone (remote ones release when the switch's
  // result multicast arrives, Figure 10).
  wl::YcsbConfig ycfg = SmallYcsb();
  wl::Ycsb ycsb(ycfg);
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  const Key hot_key = ycsb.HotKey(0, 1);
  db::Transaction txn;
  db::Op hot;
  hot.type = db::OpType::kAdd;
  hot.tuple = TupleId{0, hot_key};
  hot.operand = 3;
  db::Op remote_cold;
  remote_cold.type = db::OpType::kAdd;
  remote_cold.tuple = TupleId{0, 10001};  // key%4==1: owned by node 1
  remote_cold.operand = 5;
  txn.ops = {hot, remote_cold};
  auto r = engine.ExecuteOnce(txn, /*home=*/0);
  ASSERT_TRUE(r.ok());
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(engine.lock_manager(n).IsLocked(remote_cold.tuple))
        << "node " << n;
  }
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(10001)[0], 5);
}

TEST(EngineLmSwitchTest, HotLocksGoToSwitchNotOwners) {
  wl::YcsbConfig ycfg = SmallYcsb();
  wl::Ycsb ycsb(ycfg);
  Engine engine(SmallCluster(EngineMode::kLmSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  const Key hot_key = ycsb.HotKey(1, 2);  // owned by node 1
  db::Transaction txn;
  db::Op op;
  op.type = db::OpType::kAdd;
  op.tuple = TupleId{0, hot_key};
  op.operand = 1;
  txn.ops = {op};
  ASSERT_TRUE(engine.ExecuteOnce(txn, /*home=*/0).ok());
  // The lock decision happened at the switch's lock manager; the owner
  // node's table was never consulted for the lock.
  EXPECT_GT(engine.switch_lock_manager().stats().acquisitions, 0u);
  EXPECT_EQ(engine.lock_manager(1).stats().acquisitions, 0u);
  // Data still lives on the owner node (LM-Switch stores nothing).
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(hot_key)[0], 1);
}

TEST(EngineChillerTest, HotLocksReleaseBeforeCommitCompletes) {
  // Chiller's early release: by the time a distributed transaction's 2PC
  // finishes, its hot locks were already free. Observable end-state: no
  // locks anywhere, data applied.
  wl::YcsbConfig ycfg = SmallYcsb();
  wl::Ycsb ycsb(ycfg);
  Engine engine(SmallCluster(EngineMode::kChiller));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Key hot_key = ycsb.HotKey(0, 0);
  db::Transaction txn;
  db::Op hot;
  hot.type = db::OpType::kAdd;
  hot.tuple = TupleId{0, hot_key};
  hot.operand = 2;
  db::Op cold;
  cold.type = db::OpType::kAdd;
  cold.tuple = TupleId{0, 20001};
  cold.operand = 4;
  txn.ops = {hot, cold};
  ASSERT_TRUE(engine.ExecuteOnce(txn, 0).ok());
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(hot_key)[0], 2);
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(20001)[0], 4);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(engine.lock_manager(n).HeldBy(1), 0u);
  }
}

TEST(EngineMetricsTest, ThroughputAndAbortRateMath) {
  Metrics m;
  m.committed = 500;
  m.aborted_attempts = 500;
  EXPECT_DOUBLE_EQ(m.Throughput(kSecond / 2), 1000.0);
  EXPECT_DOUBLE_EQ(m.AbortRate(), 0.5);
  EXPECT_DOUBLE_EQ(Metrics().AbortRate(), 0.0);
  EXPECT_DOUBLE_EQ(Metrics().Throughput(0), 0.0);
}

TEST(EngineMetricsTest, RecorderProjectsThroughRegistry) {
  MetricsRegistry registry;
  OutcomeRecorder outcomes;
  outcomes.Bind(&registry, /*retry_capped=*/false);
  TxnTimers t;
  t.lock_wait = 10;
  t.switch_access = 20;
  outcomes.Commit(db::TxnClass::kHot, /*distributed=*/true,
                  /*latency_ns=*/100, t, /*attempts=*/1);
  outcomes.Abort(db::TxnClass::kCold);
  outcomes.Commit(db::TxnClass::kCold, false, 200, t, 2);
  const Metrics m = Metrics::FromRegistry(registry);
  EXPECT_EQ(m.committed, 2u);
  EXPECT_EQ(m.committed_distributed, 1u);
  EXPECT_EQ(m.aborted_attempts, 1u);
  EXPECT_EQ(m.committed_by_class[0], 1u);
  EXPECT_EQ(m.committed_by_class[1], 1u);
  EXPECT_EQ(m.aborts_by_class[1], 1u);
  EXPECT_EQ(m.attempts_by_class[0], 1u);
  EXPECT_EQ(m.attempts_by_class[1], 2u);
  EXPECT_EQ(m.breakdown.lock_wait, 20);
  EXPECT_EQ(m.breakdown.switch_access, 40);
  EXPECT_EQ(m.breakdown.Total(), 60);
  EXPECT_EQ(m.latency_by_class[0].count(), 1u);
  EXPECT_EQ(m.latency_all.count(), 2u);
  EXPECT_EQ(m.latency_all.sum(), 300);
  EXPECT_EQ(m.latency_all.min(), 100);
  EXPECT_EQ(m.latency_all.max(), 200);
  // Uncapped retries register no retry-cap series; absent keys read as 0.
  EXPECT_EQ(registry.FindCounter("engine.txn_gaveup"), nullptr);
  EXPECT_EQ(Metrics::FromRegistry(MetricsRegistry()).committed, 0u);
}

void ExpectSameHistogram(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    ASSERT_EQ(a.bucket_count(i), b.bucket_count(i)) << "bucket " << i;
  }
}

void ExpectSameMetrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
  EXPECT_EQ(a.committed_distributed, b.committed_distributed);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(a.committed_by_class[c], b.committed_by_class[c]);
    EXPECT_EQ(a.attempts_by_class[c], b.attempts_by_class[c]);
    EXPECT_EQ(a.aborts_by_class[c], b.aborts_by_class[c]);
    ExpectSameHistogram(a.latency_by_class[c], b.latency_by_class[c]);
  }
  ExpectSameHistogram(a.latency_all, b.latency_all);
  EXPECT_EQ(a.breakdown.lock_wait, b.breakdown.lock_wait);
  EXPECT_EQ(a.breakdown.remote_access, b.breakdown.remote_access);
  EXPECT_EQ(a.breakdown.switch_access, b.breakdown.switch_access);
  EXPECT_EQ(a.breakdown.local_work, b.breakdown.local_work);
  EXPECT_EQ(a.breakdown.commit, b.breakdown.commit);
  EXPECT_EQ(a.breakdown.backoff, b.breakdown.backoff);
}

uint64_t CounterOf(const Engine& engine, const char* name) {
  const MetricsRegistry::Counter* c =
      engine.metrics_registry().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

/// A contended P4DB YCSB run: only a quarter of the hot keys go to the
/// switch, so the rest collide on the hosts and cold/warm attempts abort.
struct ContendedRun {
  explicit ContendedRun(int threads) : ycsb(SmallYcsb()) {
    SystemConfig cfg = SmallCluster(EngineMode::kP4db);
    cfg.threads = threads;
    engine = std::make_unique<Engine>(cfg);
    engine->SetWorkload(&ycsb);
    engine->Offload(5000, 10);
    metrics = engine->Run(kMillisecond, 3 * kMillisecond);
  }
  wl::Ycsb ycsb;
  std::unique_ptr<Engine> engine;  // destroyed before the workload
  Metrics metrics;
};

TEST(EngineMetricsTest, OneSinkIdentitiesHoldInBothRuntimes) {
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    const ContendedRun run(threads);
    const Metrics& m = run.metrics;
    const Engine& engine = *run.engine;
    ASSERT_GT(m.committed, 0u);
    ASSERT_GT(m.aborted_attempts, 0u);
    uint64_t committed = 0;
    uint64_t aborts = 0;
    for (int c = 0; c < 3; ++c) {
      committed += m.committed_by_class[c];
      aborts += m.aborts_by_class[c];
      // Every attempt either commits or aborts.
      EXPECT_EQ(m.attempts_by_class[c],
                m.committed_by_class[c] + m.aborts_by_class[c]);
    }
    EXPECT_EQ(committed, m.committed);
    EXPECT_EQ(CounterOf(engine, "engine.committed"), m.committed);
    EXPECT_EQ(m.latency_all.count(), m.committed);
    EXPECT_EQ(aborts, m.aborted_attempts);
    EXPECT_EQ(CounterOf(engine, "engine.aborted_attempts"),
              m.aborted_attempts);
    uint64_t attempts = 0;
    for (uint64_t a : m.attempts_by_class) attempts += a;
    EXPECT_EQ(attempts, m.committed + m.aborted_attempts);
    uint64_t breakdown = 0;
    for (const char* term : {"lock_wait", "remote_access", "switch_access",
                             "local_work", "commit", "backoff"}) {
      breakdown += CounterOf(
          engine, ("engine.breakdown." + std::string(term) + "_ns").c_str());
    }
    EXPECT_EQ(static_cast<int64_t>(breakdown), m.breakdown.Total());
    // The returned struct is exactly the projection of the dumped registry.
    ExpectSameMetrics(m, Metrics::FromRegistry(engine.metrics_registry()));
  }
}

TEST(EngineMetricsTest, ShardedThreadCountsReturnFieldEqualMetrics) {
  // The two runtimes order same-instant events differently (DESIGN.md §4g),
  // so their values legitimately differ; within the sharded runtime the
  // thread count must not move a single field.
  const ContendedRun one(1);
  const ContendedRun two(2);
  ASSERT_GT(one.metrics.aborted_attempts, 0u);
  ExpectSameMetrics(one.metrics, two.metrics);
}

// --------------------------------------------------- money conservation --

double TotalMoney(Engine& engine, wl::SmallBank& sb, uint64_t accounts) {
  // Sum balances wherever they live (switch registers for hot accounts).
  Value64 total = 0;
  for (Key a = 0; a < accounts; ++a) {
    for (TableId t : {sb.savings_table(), sb.checking_table()}) {
      const HotItem item{TupleId{t, a}, 0};
      const auto* addr = engine.partition_manager().AddressOf(item);
      if (addr != nullptr && engine.config().mode == EngineMode::kP4db) {
        total += *engine.control_plane().ReadValue(*addr);
      } else {
        total += engine.catalog().table(t).GetOrCreate(a)[0];
      }
    }
  }
  return static_cast<double>(total);
}

class MoneyConservationTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(MoneyConservationTest, TransfersConserveTotalBalance) {
  // Amalgamate moves (never creates) money, whatever path it takes —
  // switch single-pass, switch multi-pass, host, or warm mixtures. The
  // system-wide total must stay exactly constant.
  wl::SmallBankConfig sc;
  sc.num_accounts = 64;
  sc.hot_accounts_per_node = 4;
  sc.initial_balance = 1000000;
  wl::SmallBank sb(sc);

  SystemConfig cfg = SmallCluster(GetParam());
  Engine engine(cfg);
  engine.SetWorkload(&sb);
  engine.Offload(2000, 32);

  const double before = TotalMoney(engine, sb, sc.num_accounts);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Key a = rng.NextRange(sc.num_accounts);
    Key b = rng.NextRange(sc.num_accounts);
    if (b == a) b = (b + 1) % sc.num_accounts;
    auto r = engine.ExecuteOnce(
        sb.Make(wl::SmallBank::kAmalgamate, a, b,
                1 + static_cast<Value64>(rng.NextRange(500))),
        static_cast<NodeId>(rng.NextRange(4)));
    ASSERT_TRUE(r.ok());
  }
  const double after = TotalMoney(engine, sb, sc.num_accounts);
  EXPECT_EQ(before, after);
}

INSTANTIATE_TEST_SUITE_P(Modes, MoneyConservationTest,
                         ::testing::Values(EngineMode::kP4db,
                                           EngineMode::kNoSwitch,
                                           EngineMode::kChiller));

TEST(SendPaymentSemanticsTest, CreditAppliesEvenWhenDebitConstraintFires) {
  // SendPayment's debit is a constrained write; its credit is a separate
  // register op that cannot be gated on the debit's outcome within one
  // pipeline pass (Section 5.1). Both substrates implement exactly this
  // (the equivalence suite pins host == switch); this test documents the
  // resulting behaviour on a drained account.
  wl::SmallBankConfig sc;
  sc.num_accounts = 16;
  sc.hot_accounts_per_node = 0;
  wl::SmallBank sb(sc);
  Engine engine(SmallCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&sb);
  engine.Offload(100, 0);
  // Drain account 1's checking, then pay from it.
  ASSERT_TRUE(engine.ExecuteOnce(sb.Make(wl::SmallBank::kAmalgamate, 1, 2, 0),
                                 0)
                  .ok());
  auto r = engine.ExecuteOnce(sb.Make(wl::SmallBank::kSendPayment, 1, 3, 50),
                              0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0);  // debit skipped: balance unchanged at 0
  EXPECT_EQ((*r)[1], sb.config().initial_balance + 50);  // credit applied
}

}  // namespace
}  // namespace p4db::core
