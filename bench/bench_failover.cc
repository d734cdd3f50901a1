// Robustness experiment (Section 6.1, Appendix A.3): throughput timeline
// around a scripted mid-run switch reboot, in two configurations.
//
//  * failover_dark (1 switch): the switch goes dark for a fixed window,
//    traffic degrades to host-side execution, and the control plane
//    re-provisions the registers from the WALs while the cluster keeps
//    running — the deep historical dip.
//  * failover_replicated (2 switches): the same reboot hits the PRIMARY of
//    a replicated pair; the backup promotes through an epoch-fenced view
//    change after view_change_delay, so the dip collapses to a brief
//    fenced pause.
//
// Reported per scenario: steady-state baseline, dip depth during the
// fault window, and time-to-recover back to 90% of baseline. Both runs
// are seeded and fully deterministic, so committed counts and dip depths
// are gated by tools/perf_gate.py.

#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/fault_injector.h"

namespace p4db::bench {
namespace {

constexpr SimTime kBucket = 100 * kMicrosecond;
constexpr SimTime kDowntime = 500 * kMicrosecond;

double RatePerSecond(uint64_t commits) {
  return static_cast<double>(commits) *
         (static_cast<double>(kSecond) / static_cast<double>(kBucket));
}

void RunFailover(const BenchTime& time, uint16_t num_switches,
                 const char* scenario) {
  core::SystemConfig cfg = PaperCluster(core::EngineMode::kP4db);
  cfg.num_switches = num_switches;
  wl::YcsbConfig wcfg;
  wcfg.variant = 'A';
  wcfg.distributed_fraction = 0.2;
  wl::Ycsb workload(wcfg);

  const SimTime fault_at = time.warmup + time.measure / 3;

  core::Engine engine(cfg);
  engine.SetWorkload(&workload);
  engine.Offload(20000, YcsbHotItems(wcfg, cfg.num_nodes));

  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(fault_at, kDowntime));
  if (const Status st = engine.InstallFaultSchedule(schedule); !st.ok()) {
    std::fprintf(stderr, "fault schedule rejected: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }

  // The shared virtual-time sampler snapshots the commit counter every
  // bucket across the measured window. The ticks only read, so the observed
  // run is the run.
  trace::Sampler& sampler = engine.EnableTimeSeries(kBucket);

  const core::Metrics metrics = engine.Run(time.warmup, time.measure);

  // Bucket i covers (warmup + i*b, warmup + (i+1)*b]: the "committed" rate
  // series is the per-tick delta of the commit counter.
  const std::vector<int64_t>* committed_series = sampler.Find("committed");
  std::vector<uint64_t> rates;
  for (const int64_t d : *committed_series) {
    rates.push_back(static_cast<uint64_t>(d));
  }
  const size_t fault_idx =
      static_cast<size_t>((fault_at - time.warmup) / kBucket);

  // Baseline: mean pre-fault rate once the closed loop has ramped.
  double baseline = 0;
  const size_t base_lo = 2;
  for (size_t i = base_lo; i < fault_idx; ++i) baseline += rates[i];
  baseline /= static_cast<double>(fault_idx - base_lo);

  // Dip: worst bucket from the crash until shortly after failback.
  const size_t dip_hi =
      std::min(rates.size(),
               fault_idx + static_cast<size_t>(kDowntime / kBucket) + 3);
  uint64_t min_rate = rates[fault_idx];
  for (size_t i = fault_idx; i < dip_hi; ++i) {
    min_rate = std::min(min_rate, rates[i]);
  }
  const double dip_depth =
      baseline <= 0 ? 0 : 1.0 - static_cast<double>(min_rate) / baseline;

  // Recovery: first bucket at/after the crash back within 90% of baseline.
  SimTime time_to_recover = -1;
  for (size_t i = fault_idx; i < rates.size(); ++i) {
    if (static_cast<double>(rates[i]) >= 0.9 * baseline) {
      time_to_recover = static_cast<SimTime>(i + 1) * kBucket +
                        time.warmup - fault_at;
      break;
    }
  }

  const bool replicated = num_switches > 1;
  std::printf("\n-- scenario: %s (%u switch%s) --\n", scenario, num_switches,
              num_switches == 1 ? "" : "es");
  PrintSectionHeader("Throughput timeline around the reboot (100us buckets)");
  std::printf("%12s %14s %s\n", "t-fault(us)", "rate(tx/s)", "phase");
  const size_t show_lo = fault_idx >= 3 ? fault_idx - 3 : 0;
  const size_t show_hi = std::min(rates.size(), dip_hi + 12);
  for (size_t i = show_lo; i < show_hi; ++i) {
    const SimTime rel =
        static_cast<SimTime>(i) * kBucket + time.warmup - fault_at;
    const char* phase =
        rel < 0           ? "pre-fault"
        : rel < kDowntime ? (replicated ? "view change" : "switch dark")
                          : (replicated ? "rejoined" : "failed back");
    std::printf("%12lld %14.0f %s\n", static_cast<long long>(rel / 1000),
                RatePerSecond(rates[i]), phase);
  }

  const uint64_t stale =
      engine.metrics_registry().counter("switch.stale_epoch_drops").value();
  const uint64_t timeouts =
      engine.metrics_registry().counter("engine.txn_timeouts").value();
  const uint64_t failovers =
      engine.metrics_registry().counter("engine.failovers").value();
  const uint64_t view_changes =
      engine.metrics_registry().counter("engine.view_changes").value();
  const uint64_t rep_applied =
      engine.metrics_registry().counter("switch.rep_records_applied").value();

  PrintSectionHeader("Failover summary");
  const double baseline_tps =
      baseline * (static_cast<double>(kSecond) / static_cast<double>(kBucket));
  std::printf("  baseline            %14.0f tx/s\n", baseline_tps);
  std::printf("  worst bucket        %14.0f tx/s\n",
              RatePerSecond(min_rate));
  std::printf("  dip depth           %14.1f %%\n", dip_depth * 100);
  std::printf("  time to recover     %14.0f us (to 90%% of baseline)\n",
              static_cast<double>(time_to_recover) / 1000.0);
  std::printf("  stale epoch drops   %14llu\n",
              static_cast<unsigned long long>(stale));
  std::printf("  txn timeouts        %14llu\n",
              static_cast<unsigned long long>(timeouts));
  std::printf("  degraded (failover) %14llu txns\n",
              static_cast<unsigned long long>(failovers));
  if (replicated) {
    std::printf("  view changes        %14llu\n",
                static_cast<unsigned long long>(view_changes));
    std::printf("  rep records applied %14llu\n",
                static_cast<unsigned long long>(rep_applied));
  }

  std::string entry = "{\"scenario\": \"";
  entry += scenario;
  entry += "\", \"mode\": \"P4DB\", \"workload\": \"ycsb-A\"";
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                ", \"num_switches\": %u, \"fault_at_ns\": %lld, "
                "\"downtime_ns\": %lld, "
                "\"bucket_ns\": %lld, \"committed\": %llu, "
                "\"baseline_tps\": %.0f, "
                "\"min_tps\": %.0f, \"dip_depth\": %.4f, "
                "\"time_to_recover_ns\": %lld, \"view_changes\": %llu",
                num_switches, static_cast<long long>(fault_at),
                static_cast<long long>(kDowntime),
                static_cast<long long>(kBucket),
                static_cast<unsigned long long>(metrics.committed),
                baseline_tps, RatePerSecond(min_rate), dip_depth,
                static_cast<long long>(time_to_recover),
                static_cast<unsigned long long>(view_changes));
  entry += buf;
  entry += ", \"bucket_commits\": [";
  for (size_t i = 0; i < rates.size(); ++i) {
    if (i != 0) entry += ", ";
    entry += std::to_string(rates[i]);
  }
  entry += "], \"registry\": ";
  entry += engine.metrics_registry().ToJson();
  entry += ", \"time_series\": ";
  entry += sampler.ToJson();
  entry += "}";
  AppendRunEntry(entry);
}

}  // namespace
}  // namespace p4db::bench

int main(int argc, char** argv) {
  using namespace p4db::bench;
  ParseBenchArgs(argc, argv);
  const BenchTime time = BenchTime::FromEnv();
  PrintBanner("failover",
              "online failover: switch reboot mid-run, WAL re-provisioning "
              "vs in-network replication");
  RunFailover(time, /*num_switches=*/1, "failover_dark");
  RunFailover(time, /*num_switches=*/2, "failover_replicated");
  return 0;
}
