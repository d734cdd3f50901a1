#ifndef P4DB_CORE_CONFIG_H_
#define P4DB_CORE_CONFIG_H_

#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "db/lock_manager.h"
#include "net/network.h"
#include "switchsim/register_file.h"

namespace p4db::core {

/// Which transaction-processing architecture the cluster runs (Section 7.1
/// "Baselines").
enum class EngineMode : uint8_t {
  /// Full P4DB: hot transactions on the switch, warm via the extended 2PC.
  kP4db,
  /// Traditional distributed DBMS; the switch only forwards packets.
  kNoSwitch,
  /// NetLock-style baseline: the switch is a centralized lock manager for
  /// hot tuples, data stays on the nodes.
  kLmSwitch,
  /// No-Switch plus Chiller-style two-region execution with early lock
  /// release on contended items (Figure 18b).
  kChiller,
};

const char* EngineModeName(EngineMode mode);

/// Concurrency-control protocol for cold/warm transactions (Appendix A.4).
/// k2pl uses the pessimistic lock manager (NO_WAIT / WAIT_DIE per
/// SystemConfig::cc_scheme); kOcc runs optimistic concurrency control:
/// buffered writes, a validation phase that locks the write set and checks
/// read versions, and — for warm transactions — the switch sub-transaction
/// issued between validation and the write phase, exactly where the
/// appendix places it ("the coordinator sends and receives the switch
/// sub-transaction on the hot items before broadcasting the
/// commit-decision").
enum class CcProtocol : uint8_t { k2pl, kOcc };

const char* CcProtocolName(CcProtocol protocol);

/// Host-side CPU cost model (all values simulated nanoseconds). These are
/// calibration constants, not measurements; DESIGN.md Section 5 documents
/// the choices.
struct TimingConfig {
  SimTime txn_setup = 400;       // parse/plan/marshal one transaction
  SimTime op_local = 200;        // execute one tuple op on a node
  SimTime lock_op = 100;         // lock-table manipulation
  SimTime wal_append = 150;      // append one WAL record
  SimTime commit_local = 300;    // local commit bookkeeping
  SimTime abort_cost = 300;      // rollback bookkeeping
  SimTime backoff_base = 2 * kMicrosecond;   // retry backoff (exponential)
  SimTime backoff_max = 64 * kMicrosecond;
  /// Deadline for one switch round trip (submit -> response) when a fault
  /// schedule is armed. Generous against the healthy RTT (~10-20 us with
  /// queueing) so it only fires when the switch genuinely went dark or the
  /// packet was fenced. With no fault schedule installed the await is
  /// deadline-free, exactly as before this knob existed.
  SimTime switch_timeout = 100 * kMicrosecond;
  /// Fenced pause of a replicated view change: the gap between detecting a
  /// dead primary and promoting the backup (control-plane round trips to
  /// re-aim the nodes). Orders of magnitude below the WAL re-provisioning
  /// downtime — that asymmetry is the whole point of replication.
  SimTime view_change_delay = 40 * kMicrosecond;
};

/// Inter-arrival process of the open-loop client population.
enum class ArrivalProcess : uint8_t {
  /// Memoryless aggregate of a huge independent client population.
  kPoisson,
  /// Two-state Markov-modulated Poisson process: the generator alternates
  /// between a calm and a burst state (exponential dwell times), with the
  /// burst state running `burst_factor` times hotter. Long-run average rate
  /// equals `offered_load`; the bursts are what exposes queueing collapse.
  kMmpp,
};

const char* ArrivalProcessName(ArrivalProcess process);

/// Open-loop load generation: instead of N closed-loop workers (one
/// inflight transaction each), a per-node arrival generator models millions
/// of independent clients multiplexed onto a bounded pool of session
/// workers. Arrivals land in a bounded admission queue; sessions drain it.
/// Latency is measured from the *arrival instant* (queueing included), the
/// number a user behind an open network actually sees. Disabled by default:
/// the closed-loop path stays byte-identical to every committed baseline.
struct OpenLoopConfig {
  bool enabled = false;
  /// Aggregate offered load across the whole cluster, transactions per
  /// second of simulated time. Split evenly over the nodes.
  double offered_load = 0.0;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// kMmpp: burst-state rate multiplier (>= 1) relative to the calm state.
  /// Rates are solved so the long-run average stays `offered_load`.
  double burst_factor = 4.0;
  /// kMmpp: mean exponential dwell time in each state.
  SimTime burst_dwell = 200 * kMicrosecond;
  /// Session workers per node draining the admission queue; 0 = use
  /// workers_per_node.
  uint16_t sessions_per_node = 0;
  /// Bound of the per-node admission queue (arrivals waiting for a free
  /// session). Must be >= 1 when open-loop is enabled.
  uint32_t admission_queue_bound = 1024;
  /// What to do with an arrival that finds the admission queue full:
  /// shed it (count it and drop — graceful overload degradation), or stall
  /// the arrival generator until a slot frees (backpressure onto the
  /// source, TCP-style).
  enum class Overflow : uint8_t { kShed, kDelay };
  Overflow overflow = Overflow::kShed;
};

/// Node→switch egress batching (DPDK doorbell style): switch-bound requests
/// from one node coalesce into a single wire frame, flushed when `size`
/// requests joined or `flush_timeout` elapsed since the first join —
/// whichever comes first. The switch egress runs the mirror image for the
/// responses riding back to each node. Amortizes the per-packet frame
/// overhead and, on the response leg, the serialized per-frame host receive
/// cost. `size` 1 (default) disables batching entirely: every send takes
/// the historical unbatched code path, byte-identical to committed
/// baselines.
struct BatchConfig {
  /// Max switch transactions per wire batch; 1 = batching off. Capped at
  /// kMaxBatchSize (the batcher's inline, allocation-free member storage).
  uint32_t size = 1;
  /// Doorbell timer: an open batch flushes at most this long after its
  /// first member joined. Must be > 0 when size > 1.
  SimTime flush_timeout = 2 * kMicrosecond;

  static constexpr uint32_t kMaxBatchSize = 64;
};

/// In-band network telemetry (postcard model). When enabled, switch-bound
/// packets carry a telemetry block the pipeline stamps in place as the
/// packet moves — ingress queue depth, per-pass stage occupancy,
/// recirculation count and cause, pipeline-lock wait, per-register access
/// tags, switch-residency interval — and the reply carries it back to the
/// origin node, where an IntCollector folds it into per-register hotness
/// counters and the per-transaction critical-path decomposition. Postcard
/// mode models ZERO wire cost (the block rides for free, like a mirrored
/// postcard to a collector port), so the observed system is unperturbed:
/// commit counts and event schedules are identical to an untelemetered run.
/// `wire_cost` opts into charging the INT bytes to request/response/recirc
/// serialization so the perturbation itself becomes measurable.
struct IntConfig {
  bool enabled = false;
  /// Charge kIntRequestBytes to every switch-bound request/recirculation
  /// and kIntPostcardBytes to every reply. Requires `enabled`.
  bool wire_cost = false;
};

/// Complete configuration of one simulated cluster run.
struct SystemConfig {
  EngineMode mode = EngineMode::kP4db;
  uint16_t num_nodes = 8;
  uint16_t workers_per_node = 20;
  CcProtocol cc_protocol = CcProtocol::k2pl;
  db::CcScheme cc_scheme = db::CcScheme::kNoWait;
  uint64_t seed = 42;
  /// Retry budget per transaction; 0 = unbounded (historical behavior).
  /// When bounded, a transaction that aborts `max_attempts` times is given
  /// up ("engine.txn_gaveup") instead of silently pinning its worker, and
  /// per-transaction attempt counts land in the "engine.txn_attempts"
  /// histogram.
  uint32_t max_attempts = 0;

  /// Number of programmable switches (replicas of the hot-tuple pipeline).
  /// 1 = the classic single-ToR cluster, byte-identical to every committed
  /// baseline. >= 2 enables primary-backup replication: the primary
  /// forwards per-slot replication records to its chain successor, and a
  /// primary crash costs an epoch-fenced view change instead of a dark
  /// period. Mirrored into network.num_switches by the Engine.
  uint16_t num_switches = 1;

  /// Execution runtime. 0 (default) = the legacy single event queue, the
  /// reference for all historical seeded baselines. >= 1 = the sharded
  /// parallel runtime: one shard per node plus a switch shard, executed by
  /// min(threads, num_nodes + 1) OS threads over conservative lookahead
  /// windows. Because the shard structure is fixed by num_nodes, every
  /// threads >= 1 value produces bit-identical results for a given seed —
  /// threads only buys wall-clock speed. Sharded mode supports
  /// kP4db/kNoSwitch with the 2PL protocol (the modes every figure
  /// benchmark scales); ValidateConfig rejects other combinations.
  int threads = 0;

  TimingConfig timing;
  net::NetworkConfig network;
  sw::PipelineConfig pipeline;
  OpenLoopConfig open_loop;
  BatchConfig batch;
  IntConfig int_telemetry;

  /// Use the declustered data-layout algorithm (Section 4.3); if false, hot
  /// items are placed randomly ("worst case" layout of Figure 16).
  bool optimal_layout = true;
};

/// Startup-time validation: every configuration rule lives here. Returns a
/// clear InvalidArgument/Unsupported Status for inconsistent combinations
/// (zero switches, a non-positive link propagation, replication or the
/// sharded runtime under a mode or protocol they cannot run) instead of
/// letting the engine assert mid-run. Benches and tests call it
/// before constructing an Engine; the Engine constructor re-checks it.
Status ValidateConfig(const SystemConfig& config);

}  // namespace p4db::core

#endif  // P4DB_CORE_CONFIG_H_
