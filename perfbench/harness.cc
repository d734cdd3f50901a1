// Repository benchmark harness. Runs one named workload on core::Engine the
// way the figure benches do (construct -> SetWorkload -> Offload -> Run) and
// prints one JSON line of results; perfbench/run.py repeats it, aggregates
// the repetitions and checks them against each other.
//
// Modes:
//   run    one untraced repetition: end-to-end metrics, the simulated-result
//          digest and the by-construction identity checks.
//   trace  one traced repetition (a span per Engine phase call), then timed
//          replays of each layer's public functions over the workload's own
//          generated inputs. Prints the per-layer metrics and writes the
//          spans to --spans.
//
// The simulated results depend only on the workload and --seed, which
// reaches the simulator solely through SystemConfig::seed.

#include "tests/alloc_counter.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "db/lock_manager.h"
#include "db/table.h"
#include "db/wal.h"
#include "sim/simulator.h"
#include "switchsim/packet.h"
#include "switchsim/pipeline.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::array<std::string_view, 4> kWorkloads = {
    "ycsb_p4db", "smallbank_noswitch", "tpcc_p4db", "ycsb_openloop_t2"};

// Offload sample size and warm-up shared by every workload, as in the
// figure benches.
constexpr size_t kOffloadSample = 20000;
constexpr SimTime kWarmup = 2 * kMillisecond;
// Transactions generated for the traced run's layer replays.
constexpr size_t kReplayTxns = 50000;
// Salt separating the replay input stream from every engine RNG stream.
constexpr uint64_t kReplaySalt = 0x5eedbe7c4a11ab1eULL;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ workloads ---

struct Spec {
  std::string name;
  core::SystemConfig config;
  std::function<std::unique_ptr<wl::Workload>()> make_workload;
  size_t hot_items = 0;
  SimTime measure = 0;
};

// The paper's 8-node rack (Section 7.1), as bench_common's PaperCluster.
core::SystemConfig PaperCluster(core::EngineMode mode, uint64_t seed) {
  core::SystemConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 8;
  cfg.workers_per_node = 20;
  cfg.seed = seed;
  return cfg;
}

// Why each workload is in the benchmark: perfbench/README.md.
std::optional<Spec> MakeSpec(std::string_view name, uint64_t seed) {
  Spec s;
  s.name = std::string(name);
  if (name == "ycsb_p4db") {
    s.config = PaperCluster(core::EngineMode::kP4db, seed);
    wl::YcsbConfig w;
    w.variant = 'A';
    s.make_workload = [w] { return std::make_unique<wl::Ycsb>(w); };
    s.hot_items = size_t{w.hot_keys_per_node} * s.config.num_nodes;
    s.measure = 20 * kMillisecond;
  } else if (name == "smallbank_noswitch") {
    s.config = PaperCluster(core::EngineMode::kNoSwitch, seed);
    wl::SmallBankConfig w;
    s.make_workload = [w] { return std::make_unique<wl::SmallBank>(w); };
    s.hot_items = 2 * size_t{w.hot_accounts_per_node} * s.config.num_nodes;
    s.measure = 100 * kMillisecond;
  } else if (name == "tpcc_p4db") {
    s.config = PaperCluster(core::EngineMode::kP4db, seed);
    wl::TpccConfig w;
    s.make_workload = [w] { return std::make_unique<wl::Tpcc>(w); };
    s.hot_items = 2000;
    s.measure = 20 * kMillisecond;
  } else if (name == "ycsb_openloop_t2") {
    // bench_openloop's setup at one offered load, on two host threads.
    s.config = PaperCluster(core::EngineMode::kP4db, seed);
    s.config.open_loop.enabled = true;
    s.config.open_loop.offered_load = 4e6;
    s.config.open_loop.sessions_per_node = 64;
    s.config.batch.size = 8;
    s.config.network.rx_service = 2 * kMicrosecond;
    s.config.threads = 2;
    wl::YcsbConfig w;
    w.variant = 'A';
    w.hot_txn_fraction = 1.0;
    s.make_workload = [w] { return std::make_unique<wl::Ycsb>(w); };
    s.hot_items = size_t{w.hot_keys_per_node} * s.config.num_nodes;
    s.measure = 60 * kMillisecond;
  } else {
    return std::nullopt;
  }
  return s;
}

// ---------------------------------------------------------------- spans ---

/// In-memory span log of the traced run: one span per Engine phase call and
/// one per replayed call batch, written out as JSON when the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::string trace_id)
      : trace_id_(std::move(trace_id)), epoch_(Clock::now()) {}

  int Open(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, Now(), 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id, uint64_t calls = 0) {
    spans_[static_cast<size_t>(id)].end_ns = Now();
    spans_[static_cast<size_t>(id)].calls = calls;
  }

  std::string ToJson() const {
    std::string out = "{\"trace_id\": ";
    AppendJsonString(&out, trace_id_);
    out += ", \"spans\": [";
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += i == 0 ? "\n  {\"id\": " : ",\n  {\"id\": ";
      out += std::to_string(i);
      out += ", \"name\": ";
      AppendJsonString(&out, s.name);
      std::snprintf(buf, sizeof(buf),
                    ", \"parent\": %d, \"start_ns\": %" PRId64
                    ", \"end_ns\": %" PRId64 ", \"calls\": %" PRIu64 "}",
                    s.parent, s.start_ns, s.end_ns, s.calls);
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t calls;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  std::string trace_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Times `fn` and, when `spans` is set, records it as a child of `parent`.
/// Returns host seconds.
template <typename Fn>
double Timed(SpanLog* spans, const char* name, int parent, Fn&& fn,
             uint64_t calls = 0) {
  const int id = spans != nullptr ? spans->Open(name, parent) : -1;
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (spans != nullptr) spans->Close(id, calls);
  return Seconds(t0, t1);
}

// ----------------------------------------------------------- one run ---

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void AppendHistogram(std::string* out, const Histogram& h) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{%" PRIu64 " %" PRId64 " %" PRId64 " %" PRId64 "}",
                h.count(), h.sum(), h.min(), h.max());
  *out += buf;
  h.AppendBucketsJson(out);
}

/// Digest of everything the simulation decided: the registry dump without
/// harness.* keys, the engine metrics and the latency histograms. A
/// harness-only change must leave it unchanged for every seed.
uint64_t ResultDigest(const MetricsRegistry& registry,
                      const core::Metrics& m) {
  std::string doc;
  const std::string dump = registry.ToJson();
  size_t begin = 0;
  while (begin < dump.size()) {
    size_t end = dump.find('\n', begin);
    if (end == std::string::npos) end = dump.size();
    const std::string_view line(dump.data() + begin, end - begin);
    if (line.find("\"harness.") == std::string_view::npos) {
      doc.append(line).push_back('\n');
    }
    begin = end + 1;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%" PRIu64 " %" PRIu64 " %" PRIu64 " | %" PRId64 " %" PRId64
                " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                m.committed, m.aborted_attempts, m.committed_distributed,
                m.breakdown.lock_wait, m.breakdown.remote_access,
                m.breakdown.switch_access, m.breakdown.local_work,
                m.breakdown.commit, m.breakdown.backoff);
  doc += buf;
  for (int c = 0; c < 3; ++c) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                  m.committed_by_class[c], m.attempts_by_class[c],
                  m.aborts_by_class[c]);
    doc += buf;
    AppendHistogram(&doc, m.latency_by_class[c]);
  }
  AppendHistogram(&doc, m.latency_all);
  return Fnv1a(doc);
}

/// Quantile of a latency histogram, linearly interpolated inside the
/// log-linear bucket (1/16 octave) that holds the target rank. The engine's
/// own Histogram::Quantile returns the bucket midpoint, which moves in
/// ~6% steps and would hide small shifts.
double InterpolatedQuantile(const Histogram& h, double q) {
  if (h.count() == 0) return 0;
  const double target = q * static_cast<double>(h.count());
  double seen = 0;
  double result = static_cast<double>(h.max());
  bool found = false;
  h.ForEachBucket([&](int, int64_t lower, int64_t upper, uint64_t count) {
    if (found) return;
    const double c = static_cast<double>(count);
    if (seen + c >= target) {
      const double lo = static_cast<double>(std::max(lower, h.min()));
      const double hi = static_cast<double>(std::min(upper, h.max() + 1));
      result = lo + (hi - lo) * ((target - seen) / c);
      found = true;
    }
    seen += c;
  });
  return result;
}

uint64_t MaterializedRows(const db::Catalog& catalog) {
  uint64_t rows = 0;
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    rows += catalog.table(t).materialized_rows();
  }
  return rows;
}

/// One construct -> SetWorkload -> Offload -> Run cycle. Owns the engine so
/// the traced run can replay against its post-offload state.
struct Rep {
  std::unique_ptr<wl::Workload> workload;
  std::unique_ptr<core::Engine> engine;  // destroyed before the workload
  double ctor_s = 0;
  double schema_s = 0;
  double offload_s = 0;
  double run_s = 0;
  core::Metrics metrics;
  uint64_t events = 0;
  uint64_t window_allocs = 0;
  uint64_t window_rows = 0;
  uint64_t digest = 0;
  std::vector<std::string> failed_checks;

  double setup_s() const { return ctor_s + schema_s + offload_s; }
  uint64_t Counter(std::string_view name) const {
    const auto* c = engine->metrics_registry().FindCounter(name);
    return c != nullptr ? c->value() : 0;
  }
  /// Transactions begun in the window: committed, given up after the retry
  /// cap, or shed at admission (open loop).
  uint64_t Started() const {
    return metrics.committed + Counter("engine.txn_gaveup") +
           Counter("engine.admission_shed");
  }
};

void Check(Rep* rep, bool ok, const char* what) {
  if (!ok) rep->failed_checks.emplace_back(what);
}

/// By-construction identities of one run's outputs.
void CheckIdentities(const Spec& spec, Rep* rep) {
  const core::Metrics& m = rep->metrics;
  Check(rep, m.committed > 0, "committed > 0");
  Check(rep, rep->Counter("engine.committed") == m.committed,
        "engine.committed == Metrics::committed");
  Check(rep,
        m.committed_by_class[0] + m.committed_by_class[1] +
                m.committed_by_class[2] ==
            m.committed,
        "sum(committed_by_class) == committed");
  Check(rep, m.latency_all.count() == m.committed,
        "latency_all.count == committed");
  Check(rep,
        rep->Counter("switch.single_pass_txns") +
                rep->Counter("switch.multi_pass_txns") ==
            rep->Counter("switch.txns_completed"),
        "switch.single_pass_txns + switch.multi_pass_txns == "
        "switch.txns_completed");
  if (spec.config.mode == core::EngineMode::kNoSwitch) {
    Check(rep, rep->Counter("switch.txns_completed") == 0,
          "No-Switch mode leaves the switch idle");
  } else {
    Check(rep, rep->Counter("switch.txns_completed") > 0,
          "P4DB mode executes switch transactions");
  }
}

Rep RunRep(const Spec& spec, SpanLog* spans, int parent) {
  Rep rep;
  rep.workload = spec.make_workload();
  rep.ctor_s = Timed(spans, "Engine::Engine", parent, [&] {
    rep.engine = std::make_unique<core::Engine>(spec.config);
  });
  core::Engine& engine = *rep.engine;
  rep.schema_s = Timed(spans, "Engine::SetWorkload", parent,
                       [&] { engine.SetWorkload(rep.workload.get()); });
  rep.offload_s = Timed(spans, "Engine::Offload", parent, [&] {
    engine.Offload(kOffloadSample, spec.hot_items);
  });

  // Window brackets as in bench_hotpath: scheduled before Run, so they fire
  // before any same-instant work — `begin` just past the warmup boundary
  // (Run's own registry reset allocates), `end` at the horizon.
  testing::AllocSnapshot alloc_begin, alloc_end;
  uint64_t rows_begin = 0;
  uint64_t rows_end = 0;
  engine.ScheduleGlobalAt(kWarmup + 1, [&] {
    alloc_begin = testing::CaptureAllocs();
    rows_begin = MaterializedRows(engine.catalog());
  });
  engine.ScheduleGlobalAt(kWarmup + spec.measure, [&] {
    alloc_end = testing::CaptureAllocs();
    rows_end = MaterializedRows(engine.catalog());
  });
  rep.run_s = Timed(spans, "Engine::Run", parent, [&] {
    rep.metrics = engine.Run(kWarmup, spec.measure);
  });
  rep.events = engine.TotalExecutedEvents();
  rep.window_allocs = alloc_end.allocs - alloc_begin.allocs;
  rep.window_rows = rows_end - rows_begin;
  rep.digest = ResultDigest(engine.metrics_registry(), rep.metrics);
  CheckIdentities(spec, &rep);
  return rep;
}

// ------------------------------------------------------ layer replays ---

struct LayerCost {
  double next_ns_per_txn = 0;
  double compile_ns_per_txn = 0;
  double pipeline_ns_per_txn = 0;
  double codec_ns_per_packet = 0;
  double table_ns_per_access = 0;
  double lock_ns_per_acquire = 0;
  double wal_ns_per_record = 0;
};

double NsPer(double seconds, size_t calls) {
  return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
}

/// Times each layer's public functions on the workload's own generated
/// transactions, fed as this workload's mode routes them: in P4DB mode hot
/// and warm transactions compile to the switch and the rest go to the
/// hosts; in No-Switch mode every op is a host op. Replays whose calls fail
/// add to `failed`.
LayerCost ReplayLayers(const Spec& spec, Rep& rep, SpanLog& spans,
                       int parent, std::vector<std::string>* failed) {
  const core::SystemConfig& cfg = spec.config;
  const core::PartitionManager& pm = rep.engine->partition_manager();
  const bool switch_mode = cfg.mode == core::EngineMode::kP4db;
  LayerCost cost;
  uint64_t sink = 0;

  // Input stream: the workload's own generator, seeded from --seed.
  std::vector<db::Transaction> stream;
  std::vector<NodeId> homes;
  stream.reserve(kReplayTxns);
  homes.reserve(kReplayTxns);
  {
    Rng rng(cfg.seed ^ kReplaySalt);
    cost.next_ns_per_txn = NsPer(
        Timed(&spans, "replay Workload::Next", parent,
              [&] {
                for (size_t i = 0; i < kReplayTxns; ++i) {
                  const NodeId home = static_cast<NodeId>(i % cfg.num_nodes);
                  stream.push_back(rep.workload->Next(rng, home));
                  homes.push_back(home);
                }
              },
              kReplayTxns),
        kReplayTxns);
  }
  for (size_t i = 0; i < stream.size(); ++i) pm.Classify(&stream[i], homes[i]);

  // Switch side: compile, codec, pipeline.
  std::vector<sw::SwitchTxn> compiled;
  if (switch_mode) {
    size_t calls = 0;
    size_t max_ops = 0;
    for (const db::Transaction& txn : stream) {
      calls += txn.cls != db::TxnClass::kCold;
      max_ops = std::max(max_ops, txn.ops.size());
    }
    // Cold results feeding hot ops are resolved (to 0) as after a warm
    // transaction's host phase.
    const std::vector<std::optional<Value64>> resolved(max_ops, Value64{0});
    uint32_t seq = 0;
    const double s = Timed(
        &spans, "replay PartitionManager::Compile", parent,
        [&] {
          for (size_t i = 0; i < stream.size(); ++i) {
            const db::Transaction& txn = stream[i];
            if (txn.cls == db::TxnClass::kCold) continue;
            auto c = pm.Compile(txn, std::span(resolved.data(), txn.ops.size()),
                                homes[i], seq++);
            if (c.ok()) compiled.push_back(std::move(c->txn));
          }
        },
        calls);
    cost.compile_ns_per_txn = NsPer(s, calls);
    if (compiled.size() != calls) {
      failed->emplace_back("replay: every hot and warm txn compiles");
    }
  }

  if (!compiled.empty()) {
    std::vector<uint8_t> bytes;
    size_t packets = 0;
    size_t decoded_ok = 0;
    const size_t batch = cfg.batch.size;
    const double s = Timed(
        &spans, batch > 1 ? "replay BatchCodec" : "replay PacketCodec",
        parent,
        [&] {
          if (batch <= 1) {
            for (const sw::SwitchTxn& txn : compiled) {
              bytes.clear();
              sw::PacketCodec::Encode(txn, &bytes);
              auto decoded = sw::PacketCodec::Decode(bytes);
              decoded_ok += decoded.ok() ? 1 : 0;
              ++packets;
            }
            return;
          }
          // A frame carries one origin node's txns, in stream order.
          std::vector<sw::SwitchBatch> lanes(cfg.num_nodes);
          const auto flush = [&](sw::SwitchBatch& lane) {
            bytes.clear();
            sw::BatchCodec::Encode(lane, &bytes);
            auto decoded = sw::BatchCodec::Decode(bytes);
            decoded_ok += decoded.ok() ? decoded->txns.size() : 0;
            packets += lane.txns.size();
            lane.txns.clear();
            ++lane.batch_seq;
          };
          for (const sw::SwitchTxn& txn : compiled) {
            sw::SwitchBatch& lane = lanes[txn.origin_node];
            lane.origin_node = txn.origin_node;
            lane.txns.push_back(txn);
            if (lane.txns.size() == batch) flush(lane);
          }
          for (sw::SwitchBatch& lane : lanes) {
            if (!lane.txns.empty()) flush(lane);
          }
        },
        compiled.size());
    cost.codec_ns_per_packet = NsPer(s, packets);
    if (decoded_ok != compiled.size()) {
      failed->emplace_back("replay: every encoded switch txn decodes");
    }
  }

  // Host side: the ops the hosts execute, in stream order.
  std::vector<const db::Op*> host_ops;
  std::vector<uint32_t> host_txn_end;  // host_ops prefix end per txn
  for (const db::Transaction& txn : stream) {
    if (!switch_mode || txn.cls != db::TxnClass::kHot) {
      for (const db::Op& op : txn.ops) {
        if (op.key_from_src) continue;  // key known only at run time
        const bool hot = switch_mode && op.type != db::OpType::kInsert &&
                         pm.IsHot(core::HotItem{op.tuple, op.column});
        if (!hot) host_ops.push_back(&op);
      }
    }
    host_txn_end.push_back(static_cast<uint32_t>(host_ops.size()));
  }

  {
    std::unique_ptr<wl::Workload> fresh = spec.make_workload();
    db::Catalog catalog(cfg.num_nodes);
    fresh->Setup(&catalog);
    const double s = Timed(
        &spans, "replay Table::GetOrCreate", parent,
        [&] {
          for (const db::Op* op : host_ops) {
            sink += catalog.table(op->tuple.table)
                        .GetOrCreate(op->tuple.key)
                        .size();
          }
        },
        host_ops.size());
    cost.table_ns_per_access = NsPer(s, host_ops.size());
  }

  {
    sim::Simulator sim;
    db::LockManager lm(&sim, cfg.cc_scheme);
    size_t acquires = 0;
    const double s = Timed(
        &spans, "replay LockManager::Acquire+ReleaseAll", parent,
        [&] {
          uint32_t begin = 0;
          for (size_t t = 0; t < stream.size(); ++t) {
            const uint32_t end = host_txn_end[t];
            if (end == begin) continue;
            for (uint32_t k = begin; k < end; ++k) {
              const db::Op& op = *host_ops[k];
              auto granted = lm.Acquire(t + 1, t + 1, op.tuple,
                                        db::IsWrite(op.type)
                                            ? db::LockMode::kExclusive
                                            : db::LockMode::kShared);
              (void)granted;
              ++acquires;
            }
            lm.ReleaseAll(t + 1);
            begin = end;
          }
        },
        host_ops.size());
    cost.lock_ns_per_acquire = NsPer(s, acquires);
  }

  {
    // Host commit records carry the txn's host writes; switch intents the
    // compiled instructions. Payloads are built outside the timed span.
    std::vector<std::vector<db::HostLogOp>> commits;
    uint32_t begin = 0;
    for (size_t t = 0; t < stream.size(); ++t) {
      std::vector<db::HostLogOp> writes;
      for (uint32_t k = begin; k < host_txn_end[t]; ++k) {
        const db::Op& op = *host_ops[k];
        if (db::IsWrite(op.type)) {
          writes.push_back(db::HostLogOp{op.tuple, op.column, op.operand});
        }
      }
      if (!writes.empty()) commits.push_back(std::move(writes));
      begin = host_txn_end[t];
    }
    db::Wal wal;
    const size_t records = commits.size() + compiled.size();
    const double s = Timed(
        &spans, "replay Wal::Append", parent,
        [&] {
          for (const auto& writes : commits) {
            sink += wal.AppendHostCommit(writes);
          }
          for (const sw::SwitchTxn& txn : compiled) {
            sink += wal.AppendSwitchIntent(txn.client_seq, txn.instrs);
          }
        },
        records);
    cost.wal_ns_per_record = NsPer(s, records);
  }

  if (!compiled.empty()) {
    // The switch at its post-offload state, fed at the mean rate the run's
    // switch saw, so contention and recirculation match the run on average.
    sim::Simulator sim;
    sw::Pipeline pipe(&sim, cfg.pipeline);
    for (const auto& e : pm.entries()) {
      pipe.registers().Write(e.addr, e.initial_value);
    }
    const double gap_ns =
        static_cast<double>(spec.measure) /
        static_cast<double>(
            std::max<uint64_t>(1, rep.Counter("switch.txns_completed")));
    const size_t n = compiled.size();
    for (size_t k = 0; k < n; ++k) {
      sim.ScheduleAt(static_cast<SimTime>(static_cast<double>(k) * gap_ns),
                     [&pipe, &compiled, k] {
                       auto reply = pipe.Submit(std::move(compiled[k]));
                       (void)reply;
                     });
    }
    const double s = Timed(&spans, "replay Pipeline::Submit+Simulator::Run",
                           parent, [&] { sim.Run(); }, n);
    cost.pipeline_ns_per_txn = NsPer(s, n);
    if (pipe.stats().txns_completed != n) {
      failed->emplace_back("replay: every submitted switch txn completes");
    }
  }

  // Keeps the replayed results observable so no loop is optimized away.
  if (sink == 0x5eed) std::fputc('\n', stderr);
  return cost;
}

// -------------------------------------------------------------- output ---

/// Flat JSON object writer; doubles keep all their digits.
class JsonOut {
 public:
  JsonOut& Num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonOut& Int(std::string_view key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonOut& Str(std::string_view key, std::string_view v) {
    std::string s;
    AppendJsonString(&s, v);
    return Raw(key, s);
  }
  JsonOut& Raw(std::string_view key, std::string_view json) {
    out_ += out_.empty() ? "{" : ", ";
    AppendJsonString(&out_, key);
    out_ += ": ";
    out_ += json;
    return *this;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, items[i]);
  }
  return out + "]";
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string BuildInfo() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return JsonOut()
      .Str("compiler", __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Raw("ndebug", ndebug ? "true" : "false")
      .Done();
}

void AddRunFields(JsonOut& out, const Spec& spec, const Rep& rep) {
  const double committed = static_cast<double>(rep.metrics.committed);
  out.Str("workload", spec.name)
      .Int("seed", spec.config.seed)
      .Int("threads", static_cast<uint64_t>(spec.config.threads))
      .Int("sim_warmup_ns", static_cast<uint64_t>(kWarmup))
      .Int("sim_measure_ns", static_cast<uint64_t>(spec.measure))
      .Num("setup_s", rep.setup_s())
      .Num("run_s", rep.run_s)
      .Num("wall_txn_per_s", committed / rep.run_s)
      .Num("allocs_per_txn", static_cast<double>(rep.window_allocs) /
                                 std::max(committed, 1.0))
      .Num("sim_txn_per_s", rep.metrics.Throughput(spec.measure))
      .Num("sim_p50_us", InterpolatedQuantile(rep.metrics.latency_all, 0.5) /
                             1e3)
      .Num("sim_p99_us",
           InterpolatedQuantile(rep.metrics.latency_all, 0.99) / 1e3)
      .Num("sim_p999_us",
           InterpolatedQuantile(rep.metrics.latency_all, 0.999) / 1e3)
      .Int("committed", rep.metrics.committed)
      .Int("started", rep.Started())
      .Int("gaveup", rep.Counter("engine.txn_gaveup"))
      .Int("shed", rep.Counter("engine.admission_shed"))
      .Int("window_allocs", rep.window_allocs)
      .Str("digest", Hex(rep.digest))
      .Raw("build", BuildInfo());
}

int RunMode(const Spec& spec) {
  const Rep rep = RunRep(spec, nullptr, -1);
  JsonOut out;
  out.Str("mode", "run");
  AddRunFields(out, spec, rep);
  out.Raw("failed_checks", StringList(rep.failed_checks))
      .Num("peak_rss_mb", PeakRssMiB());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

int TraceMode(const Spec& spec, const std::string& spans_path) {
  SpanLog spans(spec.name + "-seed" + std::to_string(spec.config.seed));
  const int root = spans.Open("perfbench " + spec.name, -1);
  const int rep_span = spans.Open("traced repetition", root);
  Rep traced = RunRep(spec, &spans, rep_span);
  spans.Close(rep_span);
  const int replay_span = spans.Open("layer replays", root);
  std::vector<std::string> failed = traced.failed_checks;
  const LayerCost cost =
      ReplayLayers(spec, traced, spans, replay_span, &failed);
  spans.Close(replay_span);
  spans.Close(root);

  const double committed =
      std::max(static_cast<double>(traced.metrics.committed), 1.0);
  const auto per_txn = [&](uint64_t v) {
    return static_cast<double>(v) / committed;
  };
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const uint64_t switch_txns = traced.Counter("switch.txns_completed");
  const double lock_acquires =
      per_txn(traced.Counter("lock.node.acquisitions"));
  const double wal_records = per_txn(traced.Counter("wal.host_commits") +
                                     traced.Counter("wal.switch_intents"));
  // Replayed cost per op times ops per committed txn. Each switch intent
  // follows one compile; every host tuple access takes a node lock under
  // 2PL, so lock acquisitions also count table accesses. The engine never
  // calls the byte codec on its hot path (frames are only sized), so the
  // codec replay has no share in Run's wall time.
  const double attributed =
      cost.next_ns_per_txn +
      cost.compile_ns_per_txn *
          per_txn(traced.Counter("wal.switch_intents")) +
      cost.pipeline_ns_per_txn * per_txn(switch_txns) +
      (cost.table_ns_per_access + cost.lock_ns_per_acquire) * lock_acquires +
      cost.wal_ns_per_record * wal_records;

  JsonOut layer;
  layer.Num("sim.events_per_txn", per_txn(traced.events))
      .Num("sim.ns_per_event",
           traced.run_s * 1e9 / std::max<double>(1.0, traced.events))
      .Num("switchsim.passes_per_txn",
           ratio(traced.Counter("switch.total_passes"), switch_txns))
      .Num("switchsim.recircs_per_txn",
           ratio(traced.Counter("switch.lock_blocked_recircs") +
                     traced.Counter("switch.holder_recircs"),
                 switch_txns))
      .Num("switchsim.pipeline_ns_per_txn", cost.pipeline_ns_per_txn)
      .Num("switchsim.codec_ns_per_packet", cost.codec_ns_per_packet)
      .Num("core.compile_ns_per_txn", cost.compile_ns_per_txn)
      .Num("core.schema_s", traced.schema_s)
      .Num("core.offload_s", traced.offload_s)
      .Num("core.commit_ratio",
           ratio(traced.metrics.committed,
                 traced.metrics.committed + traced.metrics.aborted_attempts))
      .Num("core.batch_fill", ratio(traced.Counter("net.batched_txns"),
                                    traced.Counter("net.batches_sent")))
      .Num("db.table_ns_per_access", cost.table_ns_per_access)
      .Num("db.rows_per_txn", per_txn(traced.window_rows))
      .Num("db.lock_ns_per_acquire", cost.lock_ns_per_acquire)
      .Num("db.lock_waits_per_txn",
           per_txn(traced.Counter("lock.node.waits")))
      .Num("db.wal_ns_per_record", cost.wal_ns_per_record)
      .Num("db.wal_records_per_txn", wal_records)
      .Num("net.messages_per_txn",
           per_txn(traced.Counter("net.messages_sent")))
      .Num("net.bytes_per_txn", per_txn(traced.Counter("net.bytes_sent")))
      .Num("workload.next_ns_per_txn", cost.next_ns_per_txn)
      .Num("bench.unattributed_ns_per_txn",
           traced.run_s * 1e9 / committed - attributed);

  std::FILE* f = std::fopen(spans_path.c_str(), "w");
  const std::string doc = spans.ToJson();
  bool wrote = f != nullptr &&
               std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (f != nullptr) wrote = std::fclose(f) == 0 && wrote;
  if (!wrote) failed.emplace_back("spans file written to " + spans_path);

  JsonOut out;
  out.Str("mode", "trace");
  AddRunFields(out, spec, traced);
  out.Raw("failed_checks", StringList(failed))
      .Raw("per_layer", layer.Done());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// ---------------------------------------------------------- arguments ---

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload NAME [--seed N] "
               "[--mode run|trace] [--threads N] [--spans PATH]\n"
               "workloads:",
               error.c_str());
  for (std::string_view w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.size()), w.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

}  // namespace
}  // namespace p4db::perfbench

int main(int argc, char** argv) {
  using namespace p4db::perfbench;
  std::string workload;
  std::string mode = "run";
  std::string spans_path;
  uint64_t seed = 42;
  uint64_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (flag != "--workload" && flag != "--seed" && flag != "--mode" &&
        flag != "--threads" && flag != "--spans") {
      return Usage("unknown argument '" + std::string(flag) + "'");
    }
    if (i + 1 >= argc) return Usage(std::string(flag) + " needs a value");
    const std::string_view value(argv[++i]);
    if (flag == "--workload") {
      workload = std::string(value);
    } else if (flag == "--mode") {
      if (value != "run" && value != "trace") {
        return Usage("--mode must be run or trace");
      }
      mode = std::string(value);
    } else if (flag == "--spans") {
      spans_path = std::string(value);
    } else if (flag == "--seed") {
      if (!ParseU64(value, &seed)) return Usage("malformed --seed");
    } else if (!ParseU64(value, &threads) || threads < 1 || threads > 64) {
      return Usage("--threads must be an integer in [1, 64]");
    }
  }
  if (workload.empty()) return Usage("--workload is required");
  std::optional<Spec> spec = MakeSpec(workload, seed);
  if (!spec) return Usage("unknown workload '" + workload + "'");
  if (threads != 0) {
    if (spec->config.threads == 0) {
      return Usage("--threads applies only to the sharded workload");
    }
    spec->config.threads = static_cast<int>(threads);
  }
  if (mode == "trace") {
    if (spans_path.empty()) return Usage("--mode trace needs --spans PATH");
    return TraceMode(*spec, spans_path);
  }
  return RunMode(*spec);
}
