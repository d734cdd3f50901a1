#ifndef P4DB_CORE_ENGINE_H_
#define P4DB_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/cc/concurrency_control.h"
#include "core/config.h"
#include "core/egress_batcher.h"
#include "core/fault_controller.h"
#include "core/int_collector.h"
#include "core/layout.h"
#include "core/metrics.h"
#include "core/partition_manager.h"
#include "core/transport.h"
#include "db/lock_manager.h"
#include "db/table.h"
#include "db/txn.h"
#include "db/wal.h"
#include "net/fault_injector.h"
#include "sim/co_task.h"
#include "sim/future.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/control_plane.h"
#include "switchsim/pipeline.h"
#include "workload/workload.h"

namespace p4db::core {

/// Result of the offline offload step (Section 3.1).
struct OffloadReport {
  size_t requested_hot_items = 0;
  size_t offloaded_hot_items = 0;  // may be smaller: switch capacity
  bool truncated_by_capacity = false;
  LayoutPlan plan;
};

/// One simulated P4DB cluster: N database nodes with worker threads, the
/// ToR switch (pipeline + control plane), the rack network, per-node lock
/// managers and WALs — wired to a workload and executed under one of the
/// four engine modes (P4DB, No-Switch, LM-Switch, Chiller).
///
/// The Engine is a thin orchestrator: it owns the shared infrastructure,
/// runs the closed-loop workers, performs the offline offload and the node
/// crash/recovery hooks — delegates switch faults and replication to a
/// FaultController, and all transaction execution to a
/// pluggable cc::ConcurrencyControl strategy (TwoPhaseLocking or
/// OptimisticCC, selected by SystemConfig::cc_protocol) that sees the
/// cluster through a cc::ExecutionContext.
///
/// Execution runtimes (SystemConfig::threads), chosen once at construction:
///  - threads == 0 (legacy): one Simulator drives the whole cluster. The
///    reference runtime for every historical seeded baseline.
///  - threads >= 1 (sharded): one shard per node plus one per switch, each
///    with its own Simulator, event-synchronized by a ShardedSimulator over
///    conservative lookahead windows and connected by a ShardRouter. The
///    merged metrics/trace outputs are a pure function of (seed, schedule),
///    so any threads >= 1 run is bit-identical to threads == 1.
/// Both runtimes keep per-node and per-switch state in one shard table
/// (EngineShard, looked up with Home / SwitchHome). The sharded table has
/// num_nodes + num_switches shards, each owning its registry and tracer.
/// The legacy table has a single shard that aliases the engine's simulator,
/// registry and tracer, and every node and switch maps to it. The few
/// sites where the runtimes really differ are listed in DESIGN.md §4g.
///
/// Lifecycle: construct -> SetWorkload -> Offload -> Run (once) -> inspect
/// metrics / state. Crash-recovery experiments use SimulateSwitchCrash +
/// RecoverSwitch between runs of the recovery tests.
class Engine {
 public:
  explicit Engine(const SystemConfig& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs the workload: creates and populates the schema.
  void SetWorkload(wl::Workload* workload);

  /// Offline step: sample the workload, detect the hot set (at most
  /// max_hot_items, further bounded by switch capacity), compute the data
  /// layout and install hot items on the switch. In kNoSwitch/kChiller
  /// modes the hot set is still registered (classification statistics need
  /// it) but execution ignores the switch.
  OffloadReport Offload(size_t sample_size, size_t max_hot_items);

  /// Runs the closed-loop workers for warmup + duration (simulated time)
  /// and returns metrics collected over the measured window. Callable once.
  Metrics Run(SimTime warmup, SimTime duration);

  /// Executes a single transaction to completion on an otherwise idle
  /// cluster (for tests and examples). Returns per-op results. Legacy
  /// runtime only.
  StatusOr<std::vector<Value64>> ExecuteOnce(db::Transaction txn,
                                             NodeId home);

  // -- Crash / recovery hooks (Section 6.1, Appendix A.3) --

  /// Power-cycles the switch: all register state and allocations are lost.
  void SimulateSwitchCrash() { control_plane().Reset(); }
  /// Marks a node as crashed: its WAL survives, but gids of its in-flight
  /// switch transactions can never be filled in.
  void SimulateNodeCrash(NodeId node);
  /// Rebuilds the switch state from all node WALs (delegates to
  /// RecoverSwitchState in core/recovery.h).
  Status RecoverSwitch() { return faults_->RecoverPrimary(); }
  /// Brings a crashed node back: scans its WAL (committed records and
  /// switch intents are durable; applying in-flight intents is the switch
  /// recovery's job) and, if a run is in progress, respawns its workers
  /// with a fresh RNG generation. Inverse of SimulateNodeCrash.
  Status RecoverNode(NodeId node);

  // -- Deterministic chaos harness (call before Run) --

  /// Arms the fault schedule: link perturbations install on the network and
  /// every scripted event (switch reboot with online failback, node crash /
  /// restart) is scheduled at its absolute simulated time. Runs are
  /// reproducible from (config.seed, schedule); an empty schedule arms
  /// nothing and leaves the run byte-identical to an engine that never
  /// heard of fault injection. A schedule naming an unknown switch or node
  /// is rejected (InvalidArgument) before anything arms.
  Status InstallFaultSchedule(const net::FaultSchedule& schedule);

  /// Pre-sizes per-tuple/per-record bookkeeping (table indexes and row
  /// arenas, CC version tables, WAL record indexes and payload arenas) for
  /// a bounded run so the measured window executes without growing any of
  /// them — the allocation-free steady state the hot-path benchmarks
  /// assert, whether or not the rows were materialized beforehand. In
  /// sharded mode every shard simulator, the cross-shard mailboxes and the
  /// global-event heap are pre-sized too.
  void ReserveSteadyState(size_t tuples_per_node, size_t wal_records_per_node,
                          size_t wal_payload_bytes_per_node) {
    const size_t tuples = tuples_per_node * config_.num_nodes;
    for (TableId t = 0; t < catalog_->num_tables(); ++t) {
      catalog_->table(t).Reserve(tuples);
    }
    cc_->ReserveTupleCapacity(tuples);
    for (auto& wal : wals_) {
      wal->Reserve(wal_records_per_node, wal_payload_bytes_per_node);
    }
    // Closed-loop workers bound the pending-event count; the bucket cap
    // covers the worst single-timestamp burst (every worker resuming at
    // once plus the harness marks). Open-loop runs are bounded by the
    // session pool plus one generator per node (queued arrivals hold no
    // events — they sit in the preallocated admission ring).
    const size_t per_node =
        config_.open_loop.enabled
            ? size_t{config_.open_loop.sessions_per_node} + 1
            : size_t{config_.workers_per_node};
    const size_t workers = size_t{config_.num_nodes} * per_node;
    // Every shard gets the full-cluster budget: the switch shard parks most
    // in-flight coroutines at peak, and memory is cheap next to a realloc
    // inside the measured window.
    for (auto& es : eshards_) {
      es->sim->Reserve(workers * 8 + 1024, workers * 4 + 256);
    }
    if (sharded_) {
      ssim_->Reserve(/*global_events=*/workers * 4 + 4096,
                     /*mailbox_records_per_pair=*/workers * 4 + 256);
    }
  }

  // -- Observability (call before Run) --

  /// Arms the virtual-time sampler: counters snapshot into windowed series
  /// every `tick` of simulated time across the measured window (throughput,
  /// abort rate, switch txn mix, p99 latency). Read-only probes — the
  /// simulated execution and its metric dump are unchanged. The series land
  /// in BENCH_<name>.json via Sampler::ToJson.
  trace::Sampler& EnableTimeSeries(SimTime tick);

  /// The engine's tracer, the legacy runtime's only ring. Always-on flight
  /// recorder by default; sharded runs record into per-shard tracers
  /// instead — use EnableFullTrace()/TraceJson() for runtime-agnostic
  /// capture/export.
  trace::Tracer& tracer() { return tracer_; }
  /// Null until EnableTimeSeries.
  trace::Sampler* sampler() { return sampler_.get(); }

  /// Upgrades every shard's flight recorder to full-run capture for --trace
  /// runs.
  void EnableFullTrace();
  /// Chrome-trace JSON export: the shard rings concatenated in fixed shard
  /// order and re-sorted inside the exporter, so the bytes are a pure
  /// function of (seed, schedule) — identical for every thread count (and,
  /// with the legacy runtime's single ring, Tracer::ToChromeJson).
  std::string TraceJson(std::string_view fault_schedule_json = {});

  /// Switch fault and replication state (primary, epoch, view, liveness).
  const FaultController& faults() const { return *faults_; }

  // -- Accessors --
  const SystemConfig& config() const { return config_; }
  /// The primary switch's pipeline / control plane (the only ones with one
  /// switch); use the indexed overloads to inspect a specific replica.
  sw::Pipeline& pipeline() { return *pipelines_[faults_->primary()]; }
  sw::ControlPlane& control_plane() {
    return control_plane(faults_->primary());
  }
  sw::Pipeline& pipeline(uint16_t sw) { return *pipelines_[sw]; }
  sw::ControlPlane& control_plane(uint16_t sw) { return *control_planes_[sw]; }
  db::Catalog& catalog() { return *catalog_; }
  PartitionManager& partition_manager() { return pm_; }
  db::LockManager& lock_manager(NodeId node) { return *lock_managers_[node]; }
  db::LockManager& switch_lock_manager() { return *switch_lm_; }
  db::Wal& wal(NodeId node) { return *wals_[node]; }
  /// The active execution strategy (2PL or OCC).
  cc::ConcurrencyControl& concurrency_control() { return *cc_; }
  /// Cluster-wide named counters/histograms published by the transport,
  /// Pipeline, LockManager, Wal and the engine itself; reset at the start of
  /// the measured window; dumped as JSON by the bench harness. In sharded mode
  /// the per-shard registries are merged into this one (fixed shard order)
  /// when Run finishes.
  MetricsRegistry& metrics_registry() { return registry_; }
  const MetricsRegistry& metrics_registry() const { return registry_; }

  /// INT critical-path section of the bench JSON ("postcards", per-term
  /// histogram summaries, the dominant term, top-k hottest register slots).
  /// Empty string when INT is off. Call after Run: sharded per-shard
  /// registries merge into the engine registry only when Run finishes.
  std::string CriticalPathJson(size_t top_k = 8) const;

  /// Total simulator events executed (summed over shards when sharded) —
  /// the bench harness's events/txn statistic.
  uint64_t TotalExecutedEvents() const {
    uint64_t total = 0;
    for (const auto& es : eshards_) total += es->sim->executed_events();
    return total;
  }

  /// Schedules `fn` at absolute simulated time `t`: a coordinator-phase
  /// global in sharded mode (runs with every shard quiescent), a plain
  /// simulator event in legacy mode. Schedules the chaos handlers' follow-up
  /// events, and serves harnesses as a hook (e.g. allocation window
  /// brackets).
  void ScheduleGlobalAt(SimTime t, std::function<void()> fn) {
    if (sharded_) {
      ssim_->ScheduleGlobal(t, std::move(fn));
    } else {
      sim_.ScheduleAt(t, std::move(fn));
    }
  }

 private:
  /// Per-node and per-switch runtime state, one slot per shard (see the
  /// class comment for the two tables). Everything a worker's hot path
  /// touches lives here, so no two shards share mutable state; the
  /// registries fold into the engine registry in fixed shard order when
  /// Run finishes, and the returned Metrics is read from that merge.
  struct EngineShard {
    /// The shard's simulator, registry and tracer: its own when sharded,
    /// the engine's sim_ / registry_ / tracer_ for the legacy shard.
    sim::Simulator* sim = nullptr;
    MetricsRegistry* registry = nullptr;
    trace::Tracer* tracer = nullptr;
    /// Base seed of the shard's worker, generator and fault streams, and
    /// the RNG-ownership token they bind to (null: unowned).
    uint64_t seed_base = 0;
    const void* rng_token = nullptr;
    /// Transaction ids are next_txn_id * id_stride + id_offset (see
    /// TakeTxnId).
    uint64_t next_txn_id = 0;
    uint64_t id_stride = 1;
    uint64_t id_offset = 1;
    /// Node shards only: where workers record every transaction outcome.
    OutcomeRecorder outcomes;
    /// Chaos only: this shard's deterministic fault stream, seeded
    /// seed_base.
    std::unique_ptr<net::FaultInjector> injector;
    /// Storage behind `registry` / `tracer` when the shard owns them
    /// (sharded); unused by the legacy shard.
    MetricsRegistry own_registry;
    std::unique_ptr<trace::Tracer> own_tracer;
  };

  /// One client of node `node`, looping until the run stops: a closed-loop
  /// worker drawing transactions from the workload, or (open_loop.enabled)
  /// a session draining the node's admission ring. Each transaction is
  /// retried with backoff until it commits or exhausts max_attempts; its
  /// latency runs from the issue instant (closed loop) or the arrival
  /// instant (open loop).
  sim::Task RunWorker(NodeId node, WorkerId worker, uint64_t seed_salt = 0);

  // -- Open-loop runtime (open_loop.enabled; see DESIGN.md §4i) --

  /// One admitted client arrival waiting for a session.
  struct ArrivalRec {
    db::Transaction txn;
    SimTime arrival = 0;  // the client's send instant (latency epoch)
  };
  /// Per-node open-loop state: the bounded admission ring, the idle-session
  /// stack and (kDelay) the stalled generator. Node-shard-local in sharded
  /// runs — only ever touched from the home shard.
  struct OpenLoopNode {
    std::vector<ArrivalRec> ring;  // preallocated, admission_queue_bound
    uint32_t head = 0;
    uint32_t size = 0;
    std::vector<std::coroutine_handle<>> idle_sessions;  // LIFO pop
    std::coroutine_handle<> parked_generator = nullptr;  // kDelay stall
    MetricsRegistry::Counter* admitted = nullptr;
    MetricsRegistry::Counter* shed = nullptr;
    MetricsRegistry::Counter* delayed = nullptr;
    Histogram* depth = nullptr;  // queue depth at each admit
  };

  /// The node's arrival source: draws Poisson/MMPP inter-arrival gaps for
  /// the (simulated) client population and admits transactions into the
  /// bounded ring — shedding or stalling on overflow per the policy.
  sim::Task RunOpenLoopGenerator(NodeId node, uint64_t seed_salt = 0);
  /// Spawns node `node`'s coroutines for the configured load mode (closed
  /// loop: workers_per_node workers; open loop: generator + session pool).
  void SpawnNode(NodeId node, uint64_t seed_salt);
  /// Clears parked open-loop coroutine handles after run teardown freed
  /// their frames (no-op in closed-loop runs).
  void DropParkedHandles();

  /// Driver for ExecuteOnce: retries one transaction to completion.
  sim::Task DriveOnce(db::Transaction* txn, NodeId home,
                      std::vector<std::optional<Value64>>* results,
                      bool* done);

  /// Measurement-window start: resets every component's statistics and
  /// every shard's registry, arms the sampler, and opens the window.
  void BeginWindow(SimTime warmup, SimTime duration);
  /// Drops every queued event (and undelivered cross-shard record) so no
  /// event can outlive the coroutine frame it resumes.
  void StopAndDiscard();

  SimTime BackoffDelay(int attempt, Rng& rng);

  /// The shard that owns node `node` / switch `k` (shard 0 in legacy).
  EngineShard& Home(NodeId node) { return *eshards_[sharded_ ? node : 0]; }
  EngineShard& SwitchHome(uint16_t k) {
    return *eshards_[sharded_ ? config_.num_nodes + k : 0];
  }
  /// Node shards are the first NodeShardCount() slots of eshards_: every
  /// node's own in the sharded table, the one shared slot in legacy.
  uint32_t NodeShardCount() const {
    return sharded_ ? config_.num_nodes : 1;
  }
  /// Simulated time at a quiescent instant: the coordinator's clock when
  /// sharded, the one simulator's otherwise.
  SimTime GlobalNow() const {
    return sharded_ ? ssim_->global_now() : sim_.now();
  }
  /// Transaction ids: the home shard's counter c maps to
  /// c * id_stride + id_offset. Legacy: one counter from 1 with stride 1.
  /// Sharded: per-node counters interleaved as c * num_nodes + node + 1, so
  /// ids stay globally unique and nodes keep comparable WAIT_DIE priorities
  /// without sharing a counter across shards.
  uint64_t PeekTxnId(NodeId node) {
    const EngineShard& es = Home(node);
    return es.next_txn_id * es.id_stride + es.id_offset;
  }
  uint64_t TakeTxnId(NodeId node) {
    EngineShard& es = Home(node);
    return es.next_txn_id++ * es.id_stride + es.id_offset;
  }

  SystemConfig config_;
  const bool sharded_;
  sim::Simulator sim_;
  MetricsRegistry registry_;  // before the components that register into it
  trace::Tracer tracer_{&sim_};  // flight-recorder mode until EnableFull
  /// Parallel runtime (sharded only; null in legacy mode).
  std::unique_ptr<sim::ShardedSimulator> ssim_;
  /// The shard table (see EngineShard). Declared before the components so
  /// shard sims/registries/tracers exist when lock managers, WALs, the
  /// pipelines and the transport bind to them.
  std::vector<std::unique_ptr<EngineShard>> eshards_;
  /// The runtime's transport: a ShardRouter when sharded, a LegacyTransport
  /// over sim_ / tracer_ / registry_ otherwise. Chosen once, here.
  std::unique_ptr<Transport> transport_;
  /// One pipeline + control plane per switch (index == switch id). Slot 0
  /// is the boot-time primary; with one switch this is exactly the classic
  /// single-ToR cluster.
  std::vector<std::unique_ptr<sw::Pipeline>> pipelines_;
  std::vector<std::unique_ptr<sw::ControlPlane>> control_planes_;
  std::unique_ptr<db::Catalog> catalog_;
  PartitionManager pm_;
  std::vector<std::unique_ptr<db::LockManager>> lock_managers_;
  std::unique_ptr<db::LockManager> switch_lm_;
  std::vector<std::unique_ptr<db::Wal>> wals_;
  std::vector<bool> node_crashed_;

  /// Egress batcher (batch.size > 1 only; null otherwise, and every send
  /// takes the historical path).
  std::unique_ptr<EgressBatcher> batcher_;
  /// Open-loop per-node state (open_loop.enabled only). unique_ptr for
  /// stable addresses — parked coroutines hold pointers into their node's
  /// entry.
  std::vector<std::unique_ptr<OpenLoopNode>> open_loop_;

  wl::Workload* workload_ = nullptr;
  std::unique_ptr<trace::Sampler> sampler_;
  SimTime sampler_tick_ = 0;
  std::vector<sim::Task> workers_;
  bool ran_ = false;
  bool measuring_ = false;
  /// True while Run's workers are live — RecoverNode only respawns then.
  bool running_ = false;

  std::vector<uint32_t> next_client_seq_;

  /// The installed fault schedule (the injectors read it); empty until
  /// InstallFaultSchedule arms a non-empty one.
  net::FaultSchedule fault_schedule_;
  /// Generation counter salting respawned workers' RNG streams.
  uint64_t recover_generation_ = 0;

  /// Per-node INT postcard collectors (config.int_telemetry.enabled only;
  /// empty otherwise so INT-off runs carry no collector state at all).
  /// Sized once in the constructor — element addresses stay stable for the
  /// ExecutionContext view below.
  std::vector<IntCollector> int_collectors_;

  /// Switch crash, failback, view change and replication. Declared after
  /// every component it points at.
  std::unique_ptr<FaultController> faults_;

  /// The pluggable execution strategy. Declared last: its ExecutionContext
  /// points at the members above.
  std::unique_ptr<cc::ConcurrencyControl> cc_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_ENGINE_H_
