// Component micro-benchmarks (google-benchmark): the building blocks whose
// costs matter for the simulator itself and for the offline offload step.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "core/hotset.h"
#include "core/layout.h"
#include "core/maxcut.h"
#include "core/partition_manager.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/packet.h"
#include "switchsim/pipeline.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db {
namespace {

// ----------------------------------------------------------- primitives --

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(static_cast<uint64_t>(state.range(0)), 0.99);
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Next(rng));
}
BENCHMARK(BM_ZipfNext)->Arg(1000)->Arg(1000000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(3);
  for (auto _ : state) h.Record(static_cast<int64_t>(rng.NextRange(1 << 20)));
  benchmark::DoNotOptimize(h.Mean());
}
BENCHMARK(BM_HistogramRecord);

// ----------------------------------------------------------- wire codec --

sw::SwitchTxn MakeTxn(size_t instrs) {
  sw::SwitchTxn txn;
  Rng rng(4);
  for (size_t i = 0; i < instrs; ++i) {
    sw::Instruction in;
    in.op = sw::OpCode::kAdd;
    in.addr = sw::RegisterAddress{static_cast<uint8_t>(i % 20),
                                  static_cast<uint8_t>(i % 2),
                                  static_cast<uint32_t>(rng.NextRange(1000))};
    in.operand = static_cast<Value64>(rng.Next());
    txn.instrs.push_back(in);
  }
  return txn;
}

void BM_PacketEncode(benchmark::State& state) {
  const sw::SwitchTxn txn = MakeTxn(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::PacketCodec::Encode(txn));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(sw::PacketCodec::EncodedSize(txn)));
}
BENCHMARK(BM_PacketEncode)->Arg(2)->Arg(8)->Arg(32);

void BM_PacketDecode(benchmark::State& state) {
  const auto bytes =
      sw::PacketCodec::Encode(MakeTxn(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    auto decoded = sw::PacketCodec::Decode(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_PacketDecode)->Arg(2)->Arg(8)->Arg(32);

// -------------------------------------------------------- switch engine --

void BM_PipelineSinglePassTxn(benchmark::State& state) {
  sim::Simulator sim;
  sw::PipelineConfig cfg;
  sw::Pipeline pipe(&sim, cfg);
  const sw::SwitchTxn txn = MakeTxn(8);
  for (auto _ : state) {
    sw::SwitchTxn copy = txn;
    sw::StampHeader(cfg, sw::PassPlan(copy.instrs), &copy);
    auto fut = pipe.Submit(std::move(copy));
    sim.Run();
    benchmark::DoNotOptimize(&fut);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineSinglePassTxn);

void BM_PassPlan(benchmark::State& state) {
  const sw::SwitchTxn txn = MakeTxn(static_cast<size_t>(state.range(0)));
  sw::PassPlan plan;
  for (auto _ : state) {
    plan.Build(txn.instrs);
    benchmark::DoNotOptimize(plan.passes);
  }
}
BENCHMARK(BM_PassPlan)->Arg(8)->Arg(32);

// ------------------------------------------------------ offload pipeline --

core::AccessGraph YcsbGraph(uint32_t hot_keys) {
  wl::YcsbConfig wcfg;
  wcfg.hot_keys_per_node = hot_keys / 8;
  wl::Ycsb ycsb(wcfg);
  db::Catalog catalog(8);
  ycsb.Setup(&catalog);
  const auto sample = ycsb.Sample(20000, 7, 8);
  core::HotSetDetector detector;
  for (const auto& txn : sample) detector.Observe(txn);
  return core::HotSetDetector::BuildGraph(detector.TopK(hot_keys), sample);
}

void BM_MaxCut(benchmark::State& state) {
  const core::AccessGraph graph =
      YcsbGraph(static_cast<uint32_t>(state.range(0)));
  core::MaxCutConfig cfg;
  cfg.num_parts = 40;
  cfg.num_restarts = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolveMaxCut(graph, cfg).cut_weight);
  }
}
BENCHMARK(BM_MaxCut)->Arg(80)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_LayoutPlanOptimal(benchmark::State& state) {
  const core::AccessGraph graph =
      YcsbGraph(static_cast<uint32_t>(state.range(0)));
  sw::PipelineConfig pipe;
  core::LayoutPlanner planner(pipe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PlanOptimal(graph, 13).cut_weight);
  }
}
BENCHMARK(BM_LayoutPlanOptimal)->Arg(80)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// One offload layer per benchmark, over the input perfbench's tpcc_p4db
// offloads: 8 nodes, seed 42 (Engine::Offload samples with seed + 7 and
// lays out with seed + 13), 20000 sampled txns, 2000 hot items.
struct TpccOffloadInput {
  std::vector<db::Transaction> sample;
  core::HotSetDetector detector;
  bool written_only = false;
  std::vector<core::HotItem> hot_items;
  core::AccessGraph graph;
};

const TpccOffloadInput& TpccOffload() {
  static const TpccOffloadInput input = [] {
    TpccOffloadInput in;
    wl::Tpcc tpcc(wl::TpccConfig{});
    db::Catalog catalog(8);
    tpcc.Setup(&catalog);
    in.sample = tpcc.Sample(20000, 42 + 7, 8);
    for (const auto& txn : in.sample) in.detector.Observe(txn);
    in.written_only = tpcc.OffloadWrittenOnly();
    in.hot_items = in.detector.TopK(2000, 2, in.written_only);
    in.graph = core::HotSetDetector::BuildGraph(in.hot_items, in.sample);
    return in;
  }();
  return input;
}

void BM_OffloadObserve(benchmark::State& state) {
  const TpccOffloadInput& in = TpccOffload();
  for (auto _ : state) {
    core::HotSetDetector detector;
    for (const auto& txn : in.sample) detector.Observe(txn);
    benchmark::DoNotOptimize(detector.distinct_items());
  }
}
BENCHMARK(BM_OffloadObserve)->Unit(benchmark::kMillisecond);

void BM_OffloadTopK(benchmark::State& state) {
  const TpccOffloadInput& in = TpccOffload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        in.detector.TopK(2000, 2, in.written_only).size());
  }
}
BENCHMARK(BM_OffloadTopK)->Unit(benchmark::kMillisecond);

void BM_OffloadBuildGraph(benchmark::State& state) {
  const TpccOffloadInput& in = TpccOffload();
  for (auto _ : state) {
    const core::AccessGraph graph =
        core::HotSetDetector::BuildGraph(in.hot_items, in.sample);
    benchmark::DoNotOptimize(graph.Edges().size());
  }
}
BENCHMARK(BM_OffloadBuildGraph)->Unit(benchmark::kMillisecond);

void BM_OffloadPlanOptimal(benchmark::State& state) {
  const TpccOffloadInput& in = TpccOffload();
  core::LayoutPlanner planner(sw::PipelineConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PlanOptimal(in.graph, 42 + 13).cut_weight);
  }
}
BENCHMARK(BM_OffloadPlanOptimal)->Unit(benchmark::kMillisecond);

void BM_CompileHotTxn(benchmark::State& state) {
  db::Catalog catalog(8);
  wl::SmallBankConfig scfg;
  wl::SmallBank sb(scfg);
  sb.Setup(&catalog);
  sw::PipelineConfig pipe;
  core::PartitionManager pm(&catalog, &pipe);
  // Register the two accounts' balances as hot.
  pm.RegisterHotItem({TupleId{sb.savings_table(), 1}, 0},
                     sw::RegisterAddress{0, 0, 0}, 0);
  pm.RegisterHotItem({TupleId{sb.checking_table(), 1}, 0},
                     sw::RegisterAddress{3, 0, 0}, 0);
  pm.RegisterHotItem({TupleId{sb.checking_table(), 2}, 0},
                     sw::RegisterAddress{7, 0, 0}, 0);
  db::Transaction txn = sb.Make(wl::SmallBank::kAmalgamate, 1, 2, 10);
  pm.Classify(&txn, 0);
  uint32_t seq = 0;
  for (auto _ : state) {
    auto compiled = pm.Compile(txn, {}, 0, seq++);
    benchmark::DoNotOptimize(compiled.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CompileHotTxn);

void BM_WorkloadNext(benchmark::State& state) {
  db::Catalog catalog(8);
  wl::YcsbConfig wcfg;
  wl::Ycsb ycsb(wcfg);
  ycsb.Setup(&catalog);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ycsb.Next(rng, 0).ops.size());
  }
}
BENCHMARK(BM_WorkloadNext);

}  // namespace
}  // namespace p4db

BENCHMARK_MAIN();
