#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "core/engine.h"
#include "net/fault_injector.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

// Determinism suite for the parallel sharded runtime: a sharded run is a
// pure function of (seed, schedule) — the OS thread count only changes how
// fast the answer arrives, never the answer. Every test compares complete
// artifacts (metrics registry dump, sampler time series, trace export)
// byte for byte between thread counts.

namespace p4db::core {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("P4DB_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 42;
  return std::strtoull(env, nullptr, 10);
}

SystemConfig ShardedCluster(int threads, uint64_t seed) {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

struct ParallelRun {
  std::string metrics_json;      // complete registry dump
  std::string time_series_json;  // sampler curves over the window
  std::string trace_json;        // merged per-shard trace export
};

/// One full sharded run with every observable artifact captured. The trace
/// is a FULL trace (not just the flight ring) so record interleaving across
/// shards is part of the comparison.
ParallelRun RunSharded(int threads, uint64_t seed, wl::Workload* workload,
                       size_t hot_items,
                       const net::FaultSchedule* schedule = nullptr,
                       void (*mutate)(SystemConfig&) = nullptr) {
  SystemConfig cfg = ShardedCluster(threads, seed);
  if (mutate != nullptr) mutate(cfg);
  Engine engine(cfg);
  engine.SetWorkload(workload);
  trace::Sampler& sampler = engine.EnableTimeSeries(100 * kMicrosecond);
  engine.EnableFullTrace();
  engine.Offload(5000, hot_items);
  std::string schedule_json;
  if (schedule != nullptr) {
    EXPECT_TRUE(engine.InstallFaultSchedule(*schedule).ok());
    schedule_json = schedule->ToJson();
  }
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 0u);
  ParallelRun out;
  out.metrics_json = engine.metrics_registry().ToJson();
  out.time_series_json = sampler.ToJson();
  out.trace_json = engine.TraceJson(schedule_json);
  return out;
}

void ExpectIdentical(const ParallelRun& a, const ParallelRun& b,
                     const char* what) {
  EXPECT_EQ(a.metrics_json, b.metrics_json)
      << what << ": metrics dumps differ between thread counts";
  EXPECT_EQ(a.time_series_json, b.time_series_json)
      << what << ": time series differ between thread counts";
  EXPECT_EQ(a.trace_json, b.trace_json)
      << what << ": trace exports differ between thread counts";
}

TEST(ParallelParityTest, YcsbThreads1Vs4ByteIdentical) {
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun t1 = RunSharded(1, 42, &a, 40);
  const ParallelRun t4 = RunSharded(4, 42, &b, 40);
  ExpectIdentical(t1, t4, "YCSB");
}

TEST(ParallelParityTest, SmallBankThreads1Vs4ByteIdentical) {
  wl::SmallBankConfig cfg;
  cfg.num_accounts = 100000;
  wl::SmallBank a(cfg), b(cfg);
  const ParallelRun t1 = RunSharded(1, 42, &a, 80);
  const ParallelRun t4 = RunSharded(4, 42, &b, 80);
  ExpectIdentical(t1, t4, "SmallBank");
}

TEST(ParallelParityTest, RepeatedThreads4RunsAreByteIdentical) {
  // Same thread count twice: catches nondeterminism that happens to bite
  // both sides of a 1-vs-4 comparison the same way (e.g. an address-keyed
  // container leaking iteration order into an artifact).
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun first = RunSharded(4, 1234, &a, 40);
  const ParallelRun second = RunSharded(4, 1234, &b, 40);
  ExpectIdentical(first, second, "repeat");
}

TEST(ParallelParityTest, DifferentSeedsDiverge) {
  // Sanity check that the comparison has teeth: a different seed must
  // produce a different run.
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun s1 = RunSharded(2, 42, &a, 40);
  const ParallelRun s2 = RunSharded(2, 43, &b, 40);
  EXPECT_NE(s1.metrics_json, s2.metrics_json);
}

TEST(ParallelParityTest, OpenLoopBatchedThreads1Vs4ByteIdentical) {
  // Open-loop MMPP arrivals + egress batching: generator draws, admission
  // queueing/shedding, doorbell flushes, and batched cross-shard delivery
  // must all stay a pure function of the seed under the parallel runtime.
  // The offered load overloads this small cluster on purpose so the shed
  // path is part of the compared artifacts.
  const auto openloop = [](SystemConfig& cfg) {
    cfg.open_loop.enabled = true;
    cfg.open_loop.offered_load = 2e6;
    cfg.open_loop.process = ArrivalProcess::kMmpp;
    cfg.batch.size = 4;
  };
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun t1 = RunSharded(1, 42, &a, 40, nullptr, openloop);
  const ParallelRun t4 = RunSharded(4, 42, &b, 40, nullptr, openloop);
  ExpectIdentical(t1, t4, "open-loop");
  // The run actually exercised the new machinery.
  EXPECT_NE(t1.metrics_json.find("net.batches_sent"), std::string::npos);
  EXPECT_NE(t1.metrics_json.find("engine.admission_admitted"),
            std::string::npos);
}

TEST(ParallelChaosTest, RebootChaosThreads1Vs4ByteIdentical) {
  // The chaos machinery end to end — per-shard fault injectors, scripted
  // mid-run switch reboot, epoch fencing, failback — must stay a pure
  // function of (seed, schedule) under the parallel runtime too. CI runs
  // this across a seed matrix via P4DB_CHAOS_SEED.
  const uint64_t seed = ChaosSeed();
  net::FaultSchedule schedule;
  schedule.links.drop_prob = 0.01;
  schedule.links.dup_prob = 0.005;
  schedule.links.delay_spike_prob = 0.01;
  // Lands mid-measurement (warmup 1ms + 3ms window).
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(2 * kMillisecond, 400 * kMicrosecond));
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun t1 = RunSharded(1, seed, &a, 40, &schedule);
  const ParallelRun t4 = RunSharded(4, seed, &b, 40, &schedule);
  ExpectIdentical(t1, t4, "chaos");
  // The reboot actually exercised the fencing machinery.
  EXPECT_NE(t1.metrics_json.find("switch.stale_epoch_drops"),
            std::string::npos);
  EXPECT_NE(t1.metrics_json.find("net.injected_drops"), std::string::npos);
}

TEST(ParallelAllocTest, SteadyStateWindowIsAllocFree) {
  // The 0-allocs/txn guarantee survives the parallel runtime: with the
  // working set materialized and every shard's event storage, mailboxes and
  // global queue pre-sized, the measured window performs exactly zero heap
  // allocations — across ALL shards (the counters are process-wide).
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 4;
  cfg.seed = 42;
  cfg.threads = 2;
  wl::YcsbConfig wcfg;
  wcfg.variant = 'A';
  wcfg.table_size = 20000;
  wcfg.hot_keys_per_node = 10;
  wl::Ycsb workload(wcfg);
  Engine engine(cfg);
  engine.SetWorkload(&workload);
  engine.Offload(5000, 20);
  db::Catalog& catalog = engine.catalog();
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    for (uint64_t k = 0; k < wcfg.table_size; ++k) {
      catalog.table(t).GetOrCreate(static_cast<Key>(k));
    }
  }
  engine.ReserveSteadyState(wcfg.table_size, size_t{1} << 16, 8u << 20);
  testing::AllocSnapshot begin, end;
  const SimTime warmup = kMillisecond;
  const SimTime measure = 2 * kMillisecond;
  engine.ScheduleGlobalAt(warmup + 1, [&begin] {
    begin = testing::CaptureAllocs();
    if (std::getenv("P4DB_TRAP_ALLOCS") != nullptr) {
      testing::SetAllocTrap(true);
    }
  });
  engine.ScheduleGlobalAt(warmup + measure, [&end] {
    testing::SetAllocTrap(false);
    end = testing::CaptureAllocs();
  });
  const Metrics m = engine.Run(warmup, measure);
  EXPECT_GT(m.committed, 0u);
  EXPECT_EQ(end.allocs - begin.allocs, 0u)
      << "parallel steady state allocated in the measured window";
}

/// Counter and histogram names of a registry dump, tagged by section.
std::set<std::string> RegistryKeys(const std::string& json) {
  std::set<std::string> keys;
  std::istringstream in(json);
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    if (line.rfind("  \"", 0) == 0) {
      section = line.substr(3, line.find('"', 3) - 3);  // "counters", ...
    } else if (line.rfind("    \"", 0) == 0) {
      keys.insert(section + ":" + line.substr(5, line.find('"', 5) - 5));
    }
  }
  return keys;
}

/// Series names of a sampler dump, in registration order.
std::vector<std::string> SeriesNames(const std::string& json) {
  std::vector<std::string> names;
  const std::regex series(R"re("([^"]+)": \[)re");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), series);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

struct ShapeConfig {
  const char* name;
  bool smallbank;
  void (*mutate)(SystemConfig&);
  void (*schedule)(net::FaultSchedule&);
};

TEST(RuntimeShapeParityTest, LegacyAndShardedRegisterTheSameKeys) {
  // Both runtimes bind every node's and switch's series through one shard
  // table; a key registered in only one of them would silently change the
  // dump shape between threads=0 and threads>=1. Values legitimately
  // differ (global events order differently), names must not.
  const ShapeConfig configs[] = {
      {"p4db-ycsb", false, nullptr, nullptr},
      {"noswitch-smallbank", true,
       [](SystemConfig& c) { c.mode = EngineMode::kNoSwitch; }, nullptr},
      {"openloop-batch8", false,
       [](SystemConfig& c) {
         c.open_loop.enabled = true;
         c.open_loop.offered_load = 2e6;
         c.batch.size = 8;
       },
       nullptr},
      {"int", false, [](SystemConfig& c) { c.int_telemetry.enabled = true; },
       nullptr},
      {"link-faults-reboot", false, nullptr,
       [](net::FaultSchedule& f) {
         f.links.drop_prob = 0.01;
         f.links.dup_prob = 0.005;
         f.links.delay_spike_prob = 0.01;
         f.events.push_back(net::FaultEvent::SwitchReboot(
             2 * kMillisecond, 400 * kMicrosecond));
       }},
      {"k2-primary-reboot", false,
       [](SystemConfig& c) { c.num_switches = 2; },
       [](net::FaultSchedule& f) {
         f.events.push_back(net::FaultEvent::SwitchReboot(
             2 * kMillisecond, 400 * kMicrosecond, /*switch_id=*/0));
       }},
      {"max-attempts-3", false,
       [](SystemConfig& c) { c.max_attempts = 3; }, nullptr},
  };
  for (const ShapeConfig& sc : configs) {
    SCOPED_TRACE(sc.name);
    net::FaultSchedule schedule;
    if (sc.schedule != nullptr) sc.schedule(schedule);
    ParallelRun runs[2];
    for (int threads : {0, 1}) {
      wl::SmallBankConfig bank;
      bank.num_accounts = 100000;
      std::unique_ptr<wl::Workload> workload;
      if (sc.smallbank) {
        workload = std::make_unique<wl::SmallBank>(bank);
      } else {
        workload = std::make_unique<wl::Ycsb>(SmallYcsb());
      }
      runs[threads] = RunSharded(threads, 42, workload.get(),
                                 sc.smallbank ? 80 : 40,
                                 sc.schedule != nullptr ? &schedule : nullptr,
                                 sc.mutate);
    }
    EXPECT_EQ(RegistryKeys(runs[0].metrics_json),
              RegistryKeys(runs[1].metrics_json));
    EXPECT_EQ(SeriesNames(runs[0].time_series_json),
              SeriesNames(runs[1].time_series_json));
    EXPECT_GT(RegistryKeys(runs[0].metrics_json).size(), 10u);
  }
}

}  // namespace
}  // namespace p4db::core
