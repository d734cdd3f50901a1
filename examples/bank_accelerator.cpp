// SmallBank on P4DB: the paper's motivating scenario of a banking workload
// whose handful of celebrity accounts melt a classical distributed DBMS.
//
// The example walks through the full P4DB lifecycle:
//   1. schema setup and hot-set detection from a workload sample,
//   2. declustered layout + offload of the hot balances to the switch,
//   3. a contended run, compared against the No-Switch baseline,
//   4. a direct look at one Amalgamate executing as a single-pass switch
//      transaction (two drains + a dependent credit in one pipeline pass).
//
// Build & run:   cmake --build build && ./build/examples/bank_accelerator

#include <cstdio>

#include "core/engine.h"
#include "workload/smallbank.h"

using namespace p4db;  // NOLINT: example brevity

namespace {

core::SystemConfig Cluster(core::EngineMode mode) {
  core::SystemConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 8;
  cfg.workers_per_node = 20;
  return cfg;
}

void RunContended(core::EngineMode mode) {
  wl::SmallBankConfig scfg;
  scfg.hot_accounts_per_node = 5;  // the paper's most contended setting
  wl::SmallBank bank(scfg);

  core::Engine engine(Cluster(mode));
  engine.SetWorkload(&bank);
  const auto report = engine.Offload(
      20000, 2ull * scfg.hot_accounts_per_node * 8);
  const core::Metrics m = engine.Run(2 * kMillisecond, 10 * kMillisecond);

  std::printf("  [%s] %.2f M txn/s, abort rate %.1f%%\n",
              core::EngineModeName(mode),
              m.Throughput(10 * kMillisecond) / 1e6, m.AbortRate() * 100);
  std::printf("      committed: hot %llu, cold %llu (hot set: %zu switch "
              "registers)\n",
              static_cast<unsigned long long>(m.committed_by_class[0]),
              static_cast<unsigned long long>(m.committed_by_class[1]),
              report.offloaded_hot_items);
  if (mode == core::EngineMode::kP4db) {
    const auto& p = engine.pipeline().stats();
    std::printf("      switch: %llu txns, %.1f%% single-pass\n",
                static_cast<unsigned long long>(p.txns_completed),
                p.txns_completed == 0
                    ? 0
                    : 100.0 * p.single_pass_txns / p.txns_completed);
  }
}

void AmalgamateCloseUp() {
  std::printf("\nOne Amalgamate under the microscope (account 1 -> 2, both "
              "hot):\n");
  wl::SmallBankConfig scfg;
  scfg.hot_accounts_per_node = 5;
  wl::SmallBank bank(scfg);
  core::Engine engine(Cluster(core::EngineMode::kP4db));
  engine.SetWorkload(&bank);
  engine.Offload(20000, 80);

  db::Transaction amalgamate = bank.Make(wl::SmallBank::kAmalgamate, 1, 2, 0);
  engine.partition_manager().Classify(&amalgamate, 0);
  const auto compiled =
      engine.partition_manager().Compile(amalgamate, {}, 0, 0);
  if (compiled.ok()) {
    for (size_t i = 0; i < compiled->txn.instrs.size(); ++i) {
      std::printf("  instr %zu: %s\n", i,
                  sw::ToString(compiled->txn.instrs[i]).c_str());
    }
    const uint32_t passes = sw::PassPlan(compiled->txn.instrs).passes;
    std::printf("  predicted pipeline passes: %u%s\n", passes,
                passes == 1 ? " (single-pass, lock-free)" : "");
  }
  auto result =
      engine.ExecuteOnce(bank.Make(wl::SmallBank::kAmalgamate, 1, 2, 0), 0);
  if (result.ok()) {
    std::printf("  drained savings=%lld and checking=%lld from account 1; "
                "account 2's checking is now %lld\n",
                static_cast<long long>((*result)[0]),
                static_cast<long long>((*result)[1]),
                static_cast<long long>((*result)[2]));
  }
}

}  // namespace

int main() {
  std::printf("SmallBank bank accelerator: 8 nodes x 20 workers, 5 hot "
              "accounts/node (90%% of traffic)\n");
  RunContended(core::EngineMode::kNoSwitch);
  RunContended(core::EngineMode::kP4db);
  AmalgamateCloseUp();
  return 0;
}
