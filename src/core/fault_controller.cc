#include "core/fault_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/recovery.h"

namespace p4db::core {

FaultController::FaultController(
    const SystemConfig& config, Runtime runtime,
    const std::vector<std::unique_ptr<sw::Pipeline>>* pipelines,
    const std::vector<std::unique_ptr<sw::ControlPlane>>* control_planes,
    PartitionManager* pm, db::Catalog* catalog,
    const std::vector<std::unique_ptr<db::Wal>>* wals,
    std::vector<IntCollector>* int_collectors, MetricsRegistry* registry,
    std::vector<MetricsRegistry*> switch_registries)
    : config_(config),
      runtime_(std::move(runtime)),
      pipelines_(*pipelines),
      control_planes_(*control_planes),
      pm_(*pm),
      catalog_(*catalog),
      int_collectors_(*int_collectors),
      registry_(*registry),
      switch_registries_(std::move(switch_registries)),
      degraded_inflight_(config.num_nodes, 0),
      crash_record_offset_(config.num_nodes, 0),
      switch_alive_(config.num_switches, true) {
  for (const auto& w : *wals) logs_.push_back(w.get());
  if (config_.num_switches < 2) return;
  // Replication counters are registered up front so the dumped key set is
  // fixed per configuration.
  replica_states_.resize(config_.num_switches);
  for (auto& rs : replica_states_) rs.Reset(config_.num_nodes);
  rep_link_busy_.assign(config_.num_switches, 0);
  rep_target_ = 1;
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    MetricsRegistry& reg = *switch_registries_[k];
    rep_sent_.push_back(&reg.counter("switch.rep_records_sent"));
    rep_applied_.push_back(&reg.counter("switch.rep_records_applied"));
    rep_stale_.push_back(&reg.counter("switch.rep_stale_drops"));
    pipelines_[k]->set_replication_sink(this);
  }
}

void FaultController::Arm() {
  chaos_armed_ = true;
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    pipelines_[k]->BindStaleEpochCounter(
        &switch_registries_[k]->counter("switch.stale_epoch_drops"));
  }
}

void FaultController::ScheduleReboot(const net::FaultEvent& ev) {
  runtime_.schedule_global_at(ev.at,
                              [this, k = ev.switch_id] { SwitchDown(k); });
  runtime_.schedule_global_at(ev.at + ev.downtime,
                              [this, k = ev.switch_id] { SwitchUp(k); });
}

void FaultController::SwitchDown(uint16_t k) {
  if (!switch_alive_[k]) return;  // coalesce overlapping reboot events
  switch_alive_[k] = false;
  if (k != primary_switch_) {
    // Invisible to clients: the primary just stops forwarding to it.
    PowerCycle(k);
    RetargetReplication();
    return;
  }
  switch_up_ = false;
  pipelines_[k]->set_serving(false);  // a dead primary stamps no INT
  const int backup = NextAliveSwitch(k);
  if (backup < 0) {
    GoDark(k);  // the classic dark period
    return;
  }
  // View change: hot/warm work retries through a fenced pause.
  PowerCycle(k);
  switch_draining_ = true;
  ScheduleIn(config_.timing.view_change_delay,
             [this, np = static_cast<uint16_t>(backup)] { PromoteBackup(np); });
}

void FaultController::SwitchUp(uint16_t k) {
  if (switch_alive_[k]) return;  // double failback / never crashed
  if (NextAliveSwitch(k) < 0) {
    // Sole primary. A view change mid-pause left the rows unseeded.
    primary_switch_ = k;
    if (!dark_) GoDark(k);
    switch_draining_ = true;
    FinalizeFailback();
    return;
  }
  if (!switch_up_) {
    // A view change is mid-pause: rejoin once the new primary serves.
    ScheduleIn(config_.timing.view_change_delay, [this, k] { SwitchUp(k); });
    return;
  }
  // Rejoin as backup; an epoch bump would fence the primary's packets.
  pipelines_[k]->PowerOn(static_cast<uint8_t>(switch_epoch_));
  switch_alive_[k] = true;
  registry_.counter("engine.switch_rejoins").Increment();  // lazily created
  RetargetReplication();
}

void FaultController::SnapshotBackups() {
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    if (k != primary_switch_) SnapshotBackup(k);
  }
}

Status FaultController::RecoverPrimary() {
  return RecoverSwitchState(pm_, logs_, control_planes_[primary_switch_].get());
}

void FaultController::GoDark(uint16_t k) {
  // An intent before this cut is in the seed, one after it a straggler the
  // failback replays. (Best effort: a live cluster cannot halt.)
  crash_record_offset_ = WalEnds();
  StatusOr<WalReplayResult> replay =
      ReplaySinceWatermark(pm_, logs_, /*best_effort=*/true);
  assert(replay.ok());
  for (const PartitionManager::HotEntry& e : pm_.entries()) {
    HostRow(e) = replay->state[PackAddr(e.addr)];
  }
  PowerCycle(k);
  dark_ = true;
}

void FaultController::PowerCycle(uint16_t k) {
  control_planes_[k]->Reset();
  pipelines_[k]->Reboot();
}

void FaultController::FinalizeFailback() {
  uint32_t degraded = 0;
  for (uint32_t d : degraded_inflight_) degraded += d;
  if (degraded > 0) {
    // Installing now would lose their host-row writes (polled globally).
    ScheduleIn(5 * kMicrosecond, [this] { FinalizeFailback(); });
    return;
  }
  // Host rows (seed plus degraded writes), then the stragglers, whose
  // packets the dark or fenced pipeline provably dropped.
  HotState baseline;
  const std::vector<PartitionManager::HotEntry>& entries = pm_.entries();
  for (const PartitionManager::HotEntry& e : entries) {
    baseline[PackAddr(e.addr)] = HostRow(e);
  }
  StatusOr<WalReplayResult> replay = ReplayWalSwitchState(
      std::move(baseline), logs_,
      {.first_record = crash_record_offset_, .best_effort = true});
  assert(replay.ok());
  const uint16_t p = primary_switch_;
  Provision(p, replay->state);
  // The installed values are the new recovery baseline and host rows.
  for (size_t i = 0; i < entries.size(); ++i) {
    const Value64 value = replay->state[PackAddr(entries[i].addr)];
    pm_.UpdateInitialValue(i, value);
    HostRow(entries[i]) = value;
  }
  pm_.set_recovery_watermarks(WalEnds());
  sw::Pipeline& pl = *pipelines_[p];
  pl.set_next_gid(
      RestartGid(pl.next_gid(), replay->max_gid, replay->num_inflight));
  if (config_.num_switches > 1) {
    // Replication restarts empty; the view bump fences older records.
    for (auto& rs : replica_states_) rs.Reset(config_.num_nodes);
    ++rep_view_;
    pl.set_view(rep_view_);
    pl.set_apply_seq(0);
  }
  // The epoch advances at the watermark cut: older-epoch packets are
  // fenced (their intents were replayed above), newer ones execute.
  ++switch_epoch_;
  pl.PowerOn(static_cast<uint8_t>(switch_epoch_));
  switch_alive_[p] = true;
  switch_draining_ = false;
  switch_up_ = true;
  dark_ = false;
  // INT stamping resumes; collectors fence pre-crash postcards by view.
  pl.set_serving(true);
  for (IntCollector& ic : int_collectors_) ic.OnViewChange(rep_view_);
  RetargetReplication();
}

void FaultController::PromoteBackup(uint16_t np) {
  if (switch_up_) return;  // a failback already reopened a switch
  if (!switch_alive_[np]) {
    // The backup died in the pause: promote the next alive switch (the
    // reconciliation covers what its stream missed) or go dark.
    const int next = NextAliveSwitch(primary_switch_);
    if (next < 0) {
      GoDark(primary_switch_);
      switch_draining_ = false;  // degraded host-row execution may proceed
      return;
    }
    np = static_cast<uint16_t>(next);
  }
  // Apply, exactly once, every intent since the recovery watermark whose
  // (node, client_seq) the stream never delivered — its packet died with
  // the primary or was fenced.
  sw::ReplicaState& rs = replica_states_[np];
  HotState state = RegisterState(np);
  const std::vector<size_t>& marks = pm_.recovery_watermarks();
  size_t reconciled = 0;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    const auto& recs = logs_[n]->records();
    for (size_t i = marks.empty() ? 0 : marks[n]; i < recs.size(); ++i) {
      const db::LogRecord& r = recs[i];
      if (r.kind != db::LogKind::kSwitchIntent) continue;
      if (!rs.MarkSeen(n, r.client_seq)) continue;  // stream delivered it
      ReplayInstructions(r.instrs, &state);
      if (r.has_result) rs.NoteGid(r.gid);
      ++reconciled;
    }
  }
  Provision(np, state);
  sw::Pipeline& pl = *pipelines_[np];
  pl.set_next_gid(RestartGid(pl.next_gid(), rs.max_gid(), reconciled));
  // New view and epoch fence the dead primary's records and packets.
  pl.set_apply_seq(rs.max_apply_seq());
  ++rep_view_;
  pl.set_view(rep_view_);
  ++switch_epoch_;
  pl.PowerOn(static_cast<uint8_t>(switch_epoch_));
  primary_switch_ = np;
  switch_draining_ = false;
  switch_up_ = true;
  // Exactly one pipeline stamps INT; collectors restart at the new view.
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    pipelines_[k]->set_serving(k == np);
  }
  for (IntCollector& ic : int_collectors_) ic.OnViewChange(rep_view_);
  registry_.counter("engine.view_changes").Increment();
  RetargetReplication();
}

void FaultController::OnReplicationRecord(uint16_t from,
                                          const sw::ReplicationRecord& rec) {
  // The emitter's own ReplicaState mirrors its registers, so a snapshot
  // hands a backup a consistent (registers, seen-set) pair.
  sw::ReplicaState& rs = replica_states_[from];
  rs.MarkSeen(rec.origin_node, rec.client_seq);
  rs.NoteGid(rec.gid);
  for (const sw::SlotWrite& w : rec.writes) rs.AdvanceSlot(w.addr, w.apply_seq);
  if (rep_target_ < 0) return;  // sole survivor: the WALs cover the gap
  const uint16_t backup = static_cast<uint16_t>(rep_target_);
  rep_sent_[from]->Increment();
  // Egress serialization plus one propagation delay, with no injector
  // draws (legacy and sharded stay draw-for-draw identical).
  const SimTime ser = static_cast<SimTime>(
      std::llround(static_cast<double>(sw::ReplicationWireSize(rec)) *
                   config_.network.ns_per_byte));
  const SimTime depart =
      std::max(pipelines_[from]->now() + config_.network.send_overhead,
               rep_link_busy_[from]) +
      ser;
  rep_link_busy_[from] = depart;
  const SimTime arrive = depart + config_.network.switch_to_switch_one_way;
  // shared_ptr: a small copyable closure that frees a discarded record.
  auto boxed = std::make_shared<const sw::ReplicationRecord>(rec);
  runtime_.post_to_switch(backup, arrive, [this, backup, boxed] {
    ApplyReplicationRecord(backup, *boxed);
  });
}

void FaultController::ApplyReplicationRecord(
    uint16_t k, const sw::ReplicationRecord& rec) {
  // Fenced: the target died since the record left, or a deposed primary
  // (older view) emitted it; or a duplicate delivery.
  sw::ReplicaState& rs = replica_states_[k];
  if (!switch_alive_[k] || rec.view != rep_view_ ||
      !rs.MarkSeen(rec.origin_node, rec.client_seq)) {
    rep_stale_[k]->Increment();
    return;
  }
  rs.NoteGid(rec.gid);
  sw::RegisterFile& regs = pipelines_[k]->registers();
  for (const sw::SlotWrite& w : rec.writes) {
    // Skip a write a snapshot already superseded.
    if (rs.AdvanceSlot(w.addr, w.apply_seq)) regs.Write(w.addr, w.value);
  }
  rep_applied_[k]->Increment();
}

void FaultController::RetargetReplication() {
  if (config_.num_switches < 2) return;
  const int next = switch_up_ ? NextAliveSwitch(primary_switch_) : -1;
  if (next == rep_target_) return;
  rep_target_ = next;
  if (next >= 0) SnapshotBackup(static_cast<uint16_t>(next));
}

void FaultController::SnapshotBackup(uint16_t k) {
  // Registers and seen-set from the primary: a consistent pair.
  const uint16_t p = primary_switch_;
  Provision(k, RegisterState(p));
  replica_states_[k] = replica_states_[p];
  pipelines_[k]->set_next_gid(pipelines_[p]->next_gid());
}

void FaultController::Provision(uint16_t k, const HotState& state) {
  const Status st = ProvisionSwitch(pm_, state, control_planes_[k].get());
  assert(st.ok() && "hot-set provisioning failed");
  (void)st;
}

FaultController::HotState FaultController::RegisterState(uint16_t k) const {
  HotState state;
  const sw::RegisterFile& regs = pipelines_[k]->registers();
  for (const PartitionManager::HotEntry& e : pm_.entries()) {
    state[PackAddr(e.addr)] = regs.Read(e.addr);
  }
  return state;
}

int FaultController::NextAliveSwitch(uint16_t k) const {
  for (uint16_t step = 1; step < config_.num_switches; ++step) {
    const uint16_t cand =
        static_cast<uint16_t>((k + step) % config_.num_switches);
    if (switch_alive_[cand]) return cand;
  }
  return -1;
}

std::vector<size_t> FaultController::WalEnds() const {
  std::vector<size_t> ends;
  for (const db::Wal* w : logs_) ends.push_back(w->records().size());
  return ends;
}

Value64& FaultController::HostRow(const PartitionManager::HotEntry& e) {
  return catalog_.table(e.item.tuple.table)
      .GetOrCreate(e.item.tuple.key)[e.item.column];
}

}  // namespace p4db::core
