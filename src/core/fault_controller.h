#ifndef P4DB_CORE_FAULT_CONTROLLER_H_
#define P4DB_CORE_FAULT_CONTROLLER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics_registry.h"
#include "core/config.h"
#include "core/int_collector.h"
#include "core/partition_manager.h"
#include "db/table.h"
#include "db/wal.h"
#include "net/fault_injector.h"
#include "sim/inline_event.h"
#include "switchsim/control_plane.h"
#include "switchsim/pipeline.h"
#include "switchsim/replication.h"

namespace p4db::core {

/// The switch control plane under faults (Section 6.1, Appendix A.3): crash
/// and failback, the replicated view change and the replication stream,
/// driven by SwitchDown(k), SwitchUp(k) and OnReplicationRecord(from, rec).
/// The CC strategies read the getters to route and fence hot/warm traffic.
/// It reaches the simulators only through the Runtime hooks. Every handler
/// runs at a quiescent instant, except OnReplicationRecord, which runs on
/// the emitting switch's shard and touches only its replication state.
///
/// Go-dark invariant: the hot items' host rows hold the switch's state
/// exactly while the cluster is dark. GoDark() seeds them, cuts the
/// straggler watermark and wipes the plane in one instant; the failback
/// folds the rows plus every intent after that watermark back in.
class FaultController : public sw::ReplicationSink {
 public:
  struct Runtime {
    std::function<SimTime()> global_now;  // clock at a quiescent instant
    std::function<void(SimTime, std::function<void()>)> schedule_global_at;
    /// Runs `ev` at `t` on switch `k`'s shard (from a switch's shard).
    std::function<void(uint16_t k, SimTime t, sim::InlineEvent ev)>
        post_to_switch;
  };

  /// Vectors are indexed by switch id; the caller owns every pointee. With
  /// more than one switch the controller sinks every pipeline's records.
  FaultController(const SystemConfig& config, Runtime runtime,
                  const std::vector<std::unique_ptr<sw::Pipeline>>* pipelines,
                  const std::vector<std::unique_ptr<sw::ControlPlane>>*
                      control_planes,
                  PartitionManager* pm, db::Catalog* catalog,
                  const std::vector<std::unique_ptr<db::Wal>>* wals,
                  std::vector<IntCollector>* int_collectors,
                  MetricsRegistry* registry,
                  std::vector<MetricsRegistry*> switch_registries);

  /// Switch awaits get deadlines; pipelines count fenced packets.
  void Arm();
  void ScheduleReboot(const net::FaultEvent& ev);  // SwitchDown, SwitchUp

  /// A backup only leaves the stream. A primary with a live backup starts a
  /// fenced view change, and without one the cluster goes dark.
  void SwitchDown(uint16_t k);
  /// Re-provisions `k` as sole primary (no live peer), rejoins it as a
  /// backup, or waits out a view change still mid-pause. No-op if alive.
  void SwitchUp(uint16_t k);
  /// Ships the record over the inter-switch link to the target.
  void OnReplicationRecord(uint16_t from,
                           const sw::ReplicationRecord& rec) override;

  /// Offload: every backup starts as a snapshot of the primary.
  void SnapshotBackups();
  /// Offline recovery between runs: rebuilds the primary's control plane
  /// from every node's WAL (RecoverSwitchState).
  Status RecoverPrimary();

  bool chaos_armed() const { return chaos_armed_; }
  bool switch_up() const { return switch_up_; }
  /// Hot/warm work aborts and retries (view-change pause, failback drain).
  bool draining() const { return switch_draining_; }
  /// Stamped (mod 256) into switch packets; the pipeline fences others.
  uint32_t epoch() const { return switch_epoch_; }
  uint16_t primary() const { return primary_switch_; }
  sw::Pipeline& primary_pipeline() const {
    return *pipelines_[primary_switch_];
  }
  /// Replication view; records stamped with an older one are fenced.
  uint32_t view() const { return rep_view_; }
  bool alive(uint16_t k) const { return switch_alive_[k]; }
  /// Switch receiving the primary's records; -1 = none.
  int replication_target() const { return rep_target_; }
  /// Degraded transactions in flight from `node` (touched by its shard).
  uint32_t& degraded(NodeId node) { return degraded_inflight_[node]; }

 private:
  using HotState = std::unordered_map<uint64_t, Value64>;

  void GoDark(uint16_t k);
  void PowerCycle(uint16_t k);
  /// Host rows plus stragglers into the primary, once degraded work drains.
  void FinalizeFailback();
  /// Reconciles backup `np` against the WALs and opens it as primary.
  void PromoteBackup(uint16_t np);
  void ApplyReplicationRecord(uint16_t k, const sw::ReplicationRecord& rec);
  /// On a target change, snapshots the new target from the primary.
  void RetargetReplication();
  void SnapshotBackup(uint16_t k);
  void Provision(uint16_t k, const HotState& state);
  HotState RegisterState(uint16_t k) const;
  /// Ring successor of `k` among the alive switches; -1 if none.
  int NextAliveSwitch(uint16_t k) const;
  std::vector<size_t> WalEnds() const;
  Value64& HostRow(const PartitionManager::HotEntry& e);
  void ScheduleIn(SimTime delay, std::function<void()> fn) {
    runtime_.schedule_global_at(runtime_.global_now() + delay, std::move(fn));
  }

  const SystemConfig& config_;
  Runtime runtime_;
  const std::vector<std::unique_ptr<sw::Pipeline>>& pipelines_;
  const std::vector<std::unique_ptr<sw::ControlPlane>>& control_planes_;
  PartitionManager& pm_;
  db::Catalog& catalog_;
  std::vector<const db::Wal*> logs_;
  std::vector<IntCollector>& int_collectors_;
  MetricsRegistry& registry_;
  std::vector<MetricsRegistry*> switch_registries_;

  bool chaos_armed_ = false;
  bool switch_up_ = true;
  bool switch_draining_ = false;
  bool dark_ = false;  // host rows hold the hot state
  uint32_t switch_epoch_ = 0;
  std::vector<uint32_t> degraded_inflight_;
  /// Straggler watermark: later intents are replayed at failback.
  std::vector<size_t> crash_record_offset_;

  // Replication: all but switch_alive_ stays empty with one switch.
  std::vector<bool> switch_alive_;
  uint16_t primary_switch_ = 0;
  int rep_target_ = -1;
  uint32_t rep_view_ = 0;
  std::vector<SimTime> rep_link_busy_;  // per-switch egress occupancy
  std::vector<sw::ReplicaState> replica_states_;
  /// "switch.rep_*" counters, in each switch's home registry.
  std::vector<MetricsRegistry::Counter*> rep_sent_;
  std::vector<MetricsRegistry::Counter*> rep_applied_;
  std::vector<MetricsRegistry::Counter*> rep_stale_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_FAULT_CONTROLLER_H_
