// Figure 12: break-down of committed hot vs. cold transactions, YCSB A/B/C
// at 20 workers/node and 20% distributed. In No-Switch, hot-classified
// transactions struggle to commit under contention; in P4DB the committed
// mix matches the generated 75/25 hot/cold mix and the hot side never
// aborts.

#include "bench_common.h"

namespace p4db::bench {
namespace {

void Row(core::EngineMode mode, char variant, const BenchTime& time) {
  core::SystemConfig cfg = PaperCluster(mode);
  wl::YcsbConfig wcfg;
  wcfg.variant = variant;
  wl::Ycsb workload(wcfg);
  const RunOutput r = RunWorkload(cfg, &workload, 20000,
                                  YcsbHotItems(wcfg, cfg.num_nodes), time);
  const auto& m = r.metrics;
  const double hot =
      static_cast<double>(m.committed_by_class[0]);  // TxnClass::kHot
  const double cold = static_cast<double>(m.committed_by_class[1]);
  const double total = hot + cold;
  const uint64_t hot_attempts = m.attempts_by_class[0];
  const uint64_t cold_attempts = m.attempts_by_class[1];
  std::printf("%-10s  YCSB-%c %12.0f %10.1f%% %10.1f%% %12.1f%% %12.1f%%\n",
              core::EngineModeName(mode), variant, r.throughput,
              total == 0 ? 0 : 100 * hot / total,
              total == 0 ? 0 : 100 * cold / total,
              hot_attempts == 0 ? 0 : 100.0 * hot / hot_attempts,
              cold_attempts == 0 ? 0 : 100.0 * cold / cold_attempts);
}

}  // namespace
}  // namespace p4db::bench

int main() {
  using namespace p4db::bench;
  const BenchTime time = BenchTime::FromEnv();
  PrintBanner("Figure 12",
              "committed hot/cold break-down (20 workers, 20% distributed)");
  std::printf("%-10s %7s %12s %11s %11s %13s %13s\n", "engine", "wl",
              "tput(tx/s)", "hot-share", "cold-share", "hot-commit%",
              "cold-commit%");
  for (char variant : {'A', 'B', 'C'}) {
    Row(p4db::core::EngineMode::kNoSwitch, variant, time);
    Row(p4db::core::EngineMode::kP4db, variant, time);
  }
  std::printf("\nhot-/cold-commit%% = committed / attempted within the "
              "class (abort pressure).\n");
  return 0;
}
