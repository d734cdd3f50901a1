#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "core/cc/execution_context.h"
#include "core/hotset.h"
#include "core/shard_router.h"

namespace p4db::core {

namespace {

SystemConfig Normalize(SystemConfig config) {
  config.network.num_nodes = config.num_nodes;
  config.network.num_switches = config.num_switches;
  // Resolve the open-loop session-pool default here so everything
  // downstream (spawning, reserves, benches) sees one concrete value.
  if (config.open_loop.sessions_per_node == 0) {
    config.open_loop.sessions_per_node = config.workers_per_node;
  }
  return config;
}

}  // namespace

Engine::Engine(const SystemConfig& config)
    : config_(Normalize(config)),
      sharded_(config_.threads > 0),
      catalog_(std::make_unique<db::Catalog>(config_.num_nodes)),
      pm_(catalog_.get(), &config_.pipeline),
      node_crashed_(config_.num_nodes, false),
      next_client_seq_(config_.num_nodes, 1) {
  {
    const Status valid = ValidateConfig(config_);
    assert(valid.ok() && "invalid SystemConfig — see ValidateConfig()");
    (void)valid;
  }
  if (sharded_) {
    const uint32_t shard_count =
        static_cast<uint32_t>(config_.num_nodes) + config_.num_switches;
    // Lookahead = the minimum cross-shard latency: every network leg
    // crosses node<->switch (or, with replication, switch<->switch) at
    // least once, so no cross-shard effect can land earlier than one
    // propagation delay after its cause.
    const SimTime lookahead =
        config_.num_switches > 1
            ? std::min(config_.network.node_to_switch_one_way,
                       config_.network.switch_to_switch_one_way)
            : config_.network.node_to_switch_one_way;
    ssim_ = std::make_unique<sim::ShardedSimulator>(shard_count, lookahead);
    std::vector<trace::Tracer*> shard_tracers;
    std::vector<MetricsRegistry*> shard_registries;
    for (uint32_t s = 0; s < shard_count; ++s) {
      auto es = std::make_unique<EngineShard>();
      es->sim = &ssim_->shard(s);
      es->own_tracer = std::make_unique<trace::Tracer>(es->sim);
      es->tracer = es->own_tracer.get();
      es->registry = &es->own_registry;
      es->seed_base = ShardSeed(config_.seed, s);
      es->rng_token = ssim_->RngToken(s);
      es->id_stride = config_.num_nodes;
      es->id_offset = s + 1;
      shard_tracers.push_back(es->tracer);
      shard_registries.push_back(es->registry);
      eshards_.push_back(std::move(es));
    }
    transport_ = std::make_unique<ShardRouter>(ssim_.get(), config_.network,
                                               shard_tracers,
                                               std::move(shard_registries));
  } else {
    // One shard for the whole cluster, aliasing the engine's own simulator,
    // registry and tracer: the historical seeds and id sequence.
    auto es = std::make_unique<EngineShard>();
    es->sim = &sim_;
    es->registry = &registry_;
    es->tracer = &tracer_;
    es->seed_base = config_.seed;
    eshards_.push_back(std::move(es));
    // The flight recorder is live from the first event; EnableFull upgrades
    // the same tracer in place for --trace runs.
    transport_ = std::make_unique<LegacyTransport>(&sim_, &tracer_,
                                                   &registry_, config_.network);
  }

  // Under OCC the lock manager only serves short validation-phase locks;
  // a denied request is an immediate validation failure (NO_WAIT).
  const db::CcScheme scheme = config_.cc_protocol == CcProtocol::kOcc
                                  ? db::CcScheme::kNoWait
                                  : config_.cc_scheme;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    // Each node's lock manager and WAL bind to its home shard: the
    // simulator that resumes its waiters and the registry its series
    // merge from.
    EngineShard& home = Home(n);
    lock_managers_.push_back(std::make_unique<db::LockManager>(
        home.sim, scheme, home.registry, "lock.node"));
    wals_.push_back(std::make_unique<db::Wal>(home.registry));
  }
  switch_lm_ = std::make_unique<db::LockManager>(
      SwitchHome(0).sim, scheme, SwitchHome(0).registry, "lock.switch");
  std::vector<MetricsRegistry*> switch_registries;
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    // Pipeline k lives on shard num_nodes + k when sharded and emits into
    // that shard's ring; network spans are the transport's job (each leg
    // lands on the shard that models it).
    EngineShard& home = SwitchHome(k);
    switch_registries.push_back(home.registry);
    pipelines_.push_back(std::make_unique<sw::Pipeline>(
        home.sim, config_.pipeline, home.registry, k));
    pipelines_.back()->set_trace_track(net::Endpoint::Switch(k).index);
    pipelines_.back()->set_tracer(home.tracer);
    // Only the serving primary stamps INT postcards; backups flip on at
    // promotion (and a rejoined ex-primary stays off until promoted again).
    if (k != 0) pipelines_.back()->set_serving(false);
    control_planes_.push_back(
        std::make_unique<sw::ControlPlane>(pipelines_.back().get()));
  }

  for (uint32_t s = 0; s < NodeShardCount(); ++s) {
    eshards_[s]->outcomes.Bind(eshards_[s]->registry,
                               config_.max_attempts > 0);
  }

  if (config_.batch.size > 1) {
    // Egress batching armed: the CC send sites route switch-bound requests
    // (and switch-egress responses) through the batcher. At size <= 1 the
    // pointer stays null and every send takes the historical path
    // byte-for-byte. The batch counters register here, not at first use,
    // so the dumped key set is a pure function of the configuration.
    batcher_ = std::make_unique<EgressBatcher>(config_.batch,
                                               config_.num_nodes,
                                               transport_.get());
  }
  if (config_.open_loop.enabled) {
    open_loop_.reserve(config_.num_nodes);
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      auto ol = std::make_unique<OpenLoopNode>();
      ol->ring.resize(config_.open_loop.admission_queue_bound);
      ol->idle_sessions.reserve(config_.open_loop.sessions_per_node);
      // Admission telemetry exists only in open-loop runs (closed-loop
      // dumps keep the historical key set), in the node's home registry
      // like every other per-node series.
      MetricsRegistry& reg = *Home(n).registry;
      ol->admitted = &reg.counter("engine.admission_admitted");
      ol->shed = &reg.counter("engine.admission_shed");
      ol->delayed = &reg.counter("engine.admission_delayed");
      ol->depth = &reg.histogram("engine.admission_depth");
      open_loop_.push_back(std::move(ol));
    }
  }

  if (config_.int_telemetry.enabled) {
    // One postcard collector per home node, bound to the node's home
    // registry (the get-or-create semantics share one series set when
    // several nodes share a shard — merged totals agree either way).
    // Bound at construction so the INT-on metric key set is a pure function
    // of the configuration; INT-off runs never reach this and publish the
    // historical keys byte-for-byte.
    int_collectors_.resize(config_.num_nodes);
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      int_collectors_[n].Bind(
          Home(n).registry, config_.num_switches,
          static_cast<size_t>(config_.pipeline.CapacityRows()));
    }
  }

  // The fault controller reaches the runtime only through these hooks.
  FaultController::Runtime runtime;
  runtime.global_now = [this] { return GlobalNow(); };
  runtime.schedule_global_at = [this](SimTime t, std::function<void()> fn) {
    ScheduleGlobalAt(t, std::move(fn));
  };
  runtime.transport = transport_.get();
  faults_ = std::make_unique<FaultController>(
      config_, std::move(runtime), &pipelines_, &control_planes_, &pm_,
      catalog_.get(), &wals_, &int_collectors_, &registry_,
      std::move(switch_registries));

  cc::ExecutionContext ctx;
  ctx.config = &config_;
  ctx.transport = transport_.get();
  ctx.faults = faults_.get();
  ctx.catalog = catalog_.get();
  ctx.pm = &pm_;
  ctx.lock_managers = &lock_managers_;
  ctx.switch_lm = switch_lm_.get();
  ctx.wals = &wals_;
  ctx.node_crashed = &node_crashed_;
  ctx.next_client_seq = &next_client_seq_;
  ctx.batcher = batcher_.get();
  ctx.int_collectors = int_collectors_.empty() ? nullptr : &int_collectors_;
  cc_ = cc::MakeConcurrencyControl(config_.cc_protocol, ctx);
}

Engine::~Engine() {
  StopAndDiscard();
  workers_.clear();
}

void Engine::StopAndDiscard() {
  // Teardown protocol: no queued event may outlive a coroutine frame.
  if (sharded_) ssim_->DiscardMailboxes();
  for (auto& es : eshards_) {
    es->sim->Stop();
    es->sim->DiscardPending();
  }
}

void Engine::SetWorkload(wl::Workload* workload) {
  workload_ = workload;
  workload_->Setup(catalog_.get());
}

OffloadReport Engine::Offload(size_t sample_size, size_t max_hot_items) {
  assert(workload_ != nullptr);
  OffloadReport report;
  report.requested_hot_items = max_hot_items;

  const std::vector<db::Transaction> sample =
      workload_->Sample(sample_size, config_.seed + 7, config_.num_nodes);
  HotSetDetector detector;
  for (const db::Transaction& txn : sample) detector.Observe(txn);

  const uint64_t capacity = config_.pipeline.CapacityRows();
  size_t budget = max_hot_items;
  if (budget > capacity) {
    budget = capacity;
    report.truncated_by_capacity = true;
  }
  // The workload's natural hot set may be larger than what fits; the
  // remainder stays on the nodes (Figure 17's graceful degradation).
  std::vector<HotItem> hot_items =
      detector.TopK(budget, /*min_accesses=*/2,
                    workload_->OffloadWrittenOnly());

  AccessGraph graph = HotSetDetector::BuildGraph(hot_items, sample);
  LayoutPlanner planner(config_.pipeline);
  report.plan = config_.optimal_layout
                    ? planner.PlanOptimal(graph, config_.seed + 13)
                    : planner.PlanRandom(graph, config_.seed + 13);

  // Install: allocate slots on switch 0 in deterministic item order, move
  // the current host value into the switch register.
  sw::ControlPlane& cp = *control_planes_[0];
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    const HotItem& item = graph.item(v);
    const LayoutPlan::ArrayRef arr = report.plan.arrays[v];
    const Value64 value = catalog_->table(item.tuple.table).GetOrCreate(
        item.tuple.key)[item.column];
    auto addr = cp.AllocateSlot(arr.stage, arr.reg);
    assert(addr.ok());
    Status st = cp.InstallValue(*addr, value);
    assert(st.ok());
    (void)st;
    pm_.RegisterHotItem(item, *addr, value);
  }
  faults_->SnapshotBackups();
  report.offloaded_hot_items = pm_.num_hot_items();
  return report;
}

SimTime Engine::BackoffDelay(int attempt, Rng& rng) {
  const int shift = std::min(attempt - 1, 5);
  SimTime base = config_.timing.backoff_base << shift;
  base = std::min(base, config_.timing.backoff_max);
  const double jitter = 0.5 + rng.NextDouble();
  return static_cast<SimTime>(static_cast<double>(base) * jitter);
}

sim::Task Engine::RunWorker(NodeId node, WorkerId worker,
                            uint64_t seed_salt) {
  // Workers derive their stream from the home shard's seed base and bind
  // it to the shard's token, so in the sharded runtime a draw from any
  // other shard trips the RNG ownership assert. Open-loop sessions replace
  // closed-loop workers one-for-one and reuse the formula — only one of the
  // two pools ever exists, so the streams cannot collide.
  EngineShard& home = Home(node);
  Rng rng(home.seed_base ^ seed_salt ^
          (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(node) * 1024 +
                                    worker + 1)));
  rng.BindOwner(home.rng_token);
  // Home-shard bindings. Every ExecuteAttempt path ends back on the home
  // shard (sends migrate the coroutine out and back; timeout paths hop home
  // explicitly), so the loop's bookkeeping below always runs there and
  // these references never go stale.
  sim::Simulator& hsim = *home.sim;
  trace::Tracer& htracer = *home.tracer;
  OutcomeRecorder& outcomes = home.outcomes;
  OpenLoopNode* ol =
      config_.open_loop.enabled ? open_loop_[node].get() : nullptr;
  std::vector<std::optional<Value64>> results;
  while (!hsim.stopped()) {
    if (node_crashed_[node]) co_return;  // crashed nodes issue nothing
    db::Transaction txn;
    // Latency epoch: a closed-loop worker's issue instant, or an open-loop
    // arrival's send instant — admission queueing then counts, which is
    // what bends the knee curve upward past saturation.
    SimTime epoch = hsim.now();
    if (ol == nullptr) {
      txn = workload_->Next(rng, node);
      pm_.Classify(&txn, node);
    } else {
      if (ol->size == 0) {
        // Idle: park on the node's LIFO stack; the generator wakes exactly
        // one session per admitted arrival.
        struct ParkAwaiter {
          OpenLoopNode* ol;
          bool await_ready() const noexcept { return false; }
          void await_suspend(std::coroutine_handle<> h) {
            ol->idle_sessions.push_back(h);
          }
          void await_resume() const noexcept {}
        };
        co_await ParkAwaiter{ol};
        continue;  // re-check stop/crash/queue state after waking
      }
      ArrivalRec& slot = ol->ring[ol->head];
      txn = std::move(slot.txn);
      epoch = slot.arrival;
      ol->head = (ol->head + 1) % config_.open_loop.admission_queue_bound;
      --ol->size;
      if (ol->parked_generator) {
        // kDelay backpressure: the slot this pop freed un-stalls the source.
        const std::coroutine_handle<> g = ol->parked_generator;
        ol->parked_generator = nullptr;
        hsim.ScheduleResume(0, g);
      }
    }
    TxnTimers timers;
    const uint64_t ts = PeekTxnId(node);  // kept across retries (fairness)
    if (ol != nullptr) {
      // Admission wait: the client's send instant to dispatch — queueing
      // the open load observes before execution even begins.
      htracer.CompleteSpan(epoch, hsim.now(), trace::Category::kAdmission,
                           ts, node);
      if (!int_collectors_.empty()) {
        int_collectors_[node].RecordAdmissionWait(hsim.now() - epoch);
      }
    }
    int attempt = 0;
    bool committed = true;
    // Spans carry `ts` (stable across retries, globally unique) so every
    // record of one transaction shares a trace lane.
    trace::Tracer::Span txn_span(&htracer, trace::Category::kTxn, ts, node);
    for (;;) {
      const uint64_t txn_id = TakeTxnId(node);
      results.assign(txn.ops.size(), std::nullopt);
      trace::Tracer::Span attempt_span(&htracer, trace::Category::kAttempt,
                                       ts, node,
                                       static_cast<uint8_t>(
                                           std::min(attempt + 1, 255)));
      const bool ok = co_await cc_->ExecuteAttempt(node, txn, txn_id, ts,
                                                   &results, &timers);
      attempt_span.End();
      if (ok) break;
      if (measuring_) outcomes.Abort(txn.cls);
      ++attempt;
      if (config_.max_attempts > 0 &&
          static_cast<uint32_t>(attempt) >= config_.max_attempts) {
        committed = false;  // retry budget exhausted: give the txn up
        break;
      }
      const SimTime backoff = BackoffDelay(attempt, rng);
      timers.backoff += backoff;
      const SimTime backoff_begin = hsim.now();
      co_await sim::Delay(hsim, backoff);
      htracer.CompleteSpan(backoff_begin, hsim.now(),
                           trace::Category::kBackoff, ts, node,
                           static_cast<uint8_t>(std::min(attempt, 255)));
    }
    txn_span.End();
    if (measuring_) {
      // Attempts used: aborts plus the final success (gave-up txns spent
      // exactly `attempt` == max_attempts).
      if (committed) {
        outcomes.Commit(txn.cls, txn.distributed, hsim.now() - epoch, timers,
                        attempt + 1);
      } else {
        outcomes.GiveUp(attempt);
      }
    }
  }
}

sim::Task Engine::RunOpenLoopGenerator(NodeId node, uint64_t seed_salt) {
  // The generator's stream is distinct from every session stream (different
  // multiplier), and — like workers — derives from the home shard's seed
  // base so thread counts cannot perturb the draws.
  EngineShard& home = Home(node);
  Rng rng(home.seed_base ^ seed_salt ^
          (0xda3e39cb94b95bdbULL * (static_cast<uint64_t>(node) + 1)));
  rng.BindOwner(home.rng_token);
  sim::Simulator& hsim = *home.sim;
  trace::Tracer& htracer = *home.tracer;
  OpenLoopNode& ol = *open_loop_[node];
  const OpenLoopConfig& olc = config_.open_loop;
  const uint32_t bound = olc.admission_queue_bound;
  // Arrival rates in transactions per simulated nanosecond. The MMPP's two
  // state rates solve to the configured long-run average: equal mean dwell
  // in each state means the average rate is (r0 + r1) / 2.
  const double per_node_rate =
      olc.offered_load / static_cast<double>(config_.num_nodes) / 1e9;
  const bool mmpp = olc.process == ArrivalProcess::kMmpp;
  double rate[2] = {per_node_rate, per_node_rate};
  if (mmpp) {
    rate[0] = 2.0 * per_node_rate / (1.0 + olc.burst_factor);
    rate[1] = olc.burst_factor * rate[0];
  }
  // Inverse-CDF exponential draw; NextDouble() is in [0, 1), so the log
  // argument never hits zero.
  const auto exp_ns = [&rng](double per_ns) {
    return -std::log(1.0 - rng.NextDouble()) / per_ns;
  };
  const double dwell_rate = mmpp ? 1.0 / static_cast<double>(olc.burst_dwell)
                                 : 0.0;
  int state = 0;
  SimTime pos = hsim.now();
  SimTime state_end =
      mmpp ? pos + std::max<SimTime>(
                       1, static_cast<SimTime>(std::llround(exp_ns(dwell_rate))))
           : 0;
  while (!hsim.stopped()) {
    if (node_crashed_[node]) co_return;
    // Draw the next client arrival. An MMPP gap that crosses the state
    // boundary moves to the boundary, flips state, and redraws — exact
    // sampling, justified by the exponential's memorylessness.
    for (;;) {
      const SimTime dt = std::max<SimTime>(
          1, static_cast<SimTime>(std::llround(exp_ns(rate[state]))));
      if (!mmpp || pos + dt <= state_end) {
        pos += dt;
        break;
      }
      pos = state_end;
      state ^= 1;
      state_end = pos + std::max<SimTime>(
                            1, static_cast<SimTime>(
                                   std::llround(exp_ns(dwell_rate))));
    }
    if (pos > hsim.now()) co_await sim::Delay(hsim, pos - hsim.now());
    if (hsim.stopped()) co_return;
    if (node_crashed_[node]) co_return;
    db::Transaction txn = workload_->Next(rng, node);
    pm_.Classify(&txn, node);
    if (ol.size >= bound) {
      if (olc.overflow == OpenLoopConfig::Overflow::kShed) {
        // Graceful overload: count the arrival and drop it on the floor.
        ol.shed->Increment();
        htracer.Instant(trace::Category::kAdmissionShed,
                        static_cast<uint64_t>(pos), node);
        continue;
      }
      // Backpressure: stall the source until a session frees a slot. The
      // arrival keeps its intended instant — the stall is queueing delay
      // the client observes.
      ol.delayed->Increment();
      struct StallAwaiter {
        OpenLoopNode* ol;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) noexcept {
          ol->parked_generator = h;
        }
        void await_resume() const noexcept {}
      };
      co_await StallAwaiter{&ol};
      if (hsim.stopped() || node_crashed_[node]) co_return;
    }
    ArrivalRec& slot = ol.ring[(ol.head + ol.size) % bound];
    slot.txn = std::move(txn);
    slot.arrival = pos;
    ++ol.size;
    ol.admitted->Increment();
    ol.depth->Record(static_cast<int64_t>(ol.size));
    if (!ol.idle_sessions.empty()) {
      const std::coroutine_handle<> h = ol.idle_sessions.back();
      ol.idle_sessions.pop_back();
      hsim.ScheduleResume(0, h);
    }
    // After a kDelay stall the source restarts its clock at the drain
    // instant (like a throttled TCP sender); otherwise now == pos and this
    // is a no-op.
    pos = std::max(pos, hsim.now());
  }
}

void Engine::SpawnNode(NodeId node, uint64_t seed_salt) {
  // Tasks start eagerly; in the sharded runtime their first synchronous
  // section (and any cross-shard posts it makes) must run under the home
  // shard's context.
  std::optional<sim::ShardedSimulator::ScopedShard> guard;
  if (sharded_) guard.emplace(ssim_.get(), node);
  if (config_.open_loop.enabled) {
    workers_.push_back(RunOpenLoopGenerator(node, seed_salt));
    for (uint16_t s = 0; s < config_.open_loop.sessions_per_node; ++s) {
      workers_.push_back(RunWorker(node, s, seed_salt));
    }
  } else {
    for (uint16_t w = 0; w < config_.workers_per_node; ++w) {
      workers_.push_back(RunWorker(node, w, seed_salt));
    }
  }
}

Metrics Engine::Run(SimTime warmup, SimTime duration) {
  assert(!ran_ && "Engine::Run is single-shot");
  assert(workload_ != nullptr);
  ran_ = true;

  measuring_ = false;
  running_ = true;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) SpawnNode(n, 0);
  if (sharded_) {
    assert(workload_->ThreadSafeGeneration() &&
           "sharded runtime requires a thread-safe workload generator");
    // Rows materialize lazily from several shards at once mid-run.
    catalog_->EnableConcurrentAccess();
    // Coordinator-phase globals. Scheduling order fixes the sequence
    // numbers, which break same-time ties: at t == warmup the reset runs
    // before any tick, and at t == warmup + duration the last tick runs
    // before the stop.
    ssim_->ScheduleGlobal(warmup, [this, warmup, duration] {
      BeginWindow(warmup, duration);
    });
    if (sampler_ != nullptr) {
      // Sampler ticks are quiescent barrier-phase snapshots of the summed
      // per-shard sources — same tick times as a legacy Begin()-driven run.
      for (SimTime t = warmup + sampler_tick_; t <= warmup + duration;
           t += sampler_tick_) {
        ssim_->ScheduleGlobal(t, [this] { sampler_->TickExternal(); });
      }
    }
    ssim_->ScheduleGlobal(warmup + duration, [this] {
      measuring_ = false;
      ssim_->RequestStop();
    });
    ssim_->Run(config_.threads);
  } else {
    sim_.RunUntil(warmup);
    BeginWindow(warmup, duration);
    sim_.RunUntil(warmup + duration);
  }
  measuring_ = false;
  running_ = false;

  // Teardown: drop pending events before destroying worker frames, then
  // resume the (now idle) simulators so post-run inspection such as
  // ExecuteOnce or recovery still works.
  StopAndDiscard();
  workers_.clear();
  DropParkedHandles();
  for (auto& es : eshards_) es->sim->Resume();

  // The one merge, in fixed shard order (the legacy shard owns no registry,
  // so nothing merges there); the result is a projection of the merge.
  for (auto& es : eshards_) registry_.MergeFrom(es->own_registry);
  return Metrics::FromRegistry(registry_);
}

void Engine::BeginWindow(SimTime warmup, SimTime duration) {
  for (auto& p : pipelines_) p->ResetStats();
  for (auto& lm : lock_managers_) lm->ResetStats();
  switch_lm_->ResetStats();
  registry_.Reset();
  for (auto& es : eshards_) es->own_registry.Reset();
  for (IntCollector& ic : int_collectors_) ic.ResetWindow();
  if (sampler_ != nullptr) {
    // Baselines snapshot after the reset so the first window starts at
    // zero; ticks cover (warmup, warmup + duration] inclusive. The legacy
    // simulator schedules its own ticks; sharded ticks are the globals Run
    // scheduled.
    if (sharded_) {
      sampler_->BeginExternal(warmup, warmup + duration, sampler_tick_);
    } else {
      sampler_->Begin(warmup, warmup + duration, sampler_tick_);
    }
  }
  measuring_ = true;
}

trace::Sampler& Engine::EnableTimeSeries(SimTime tick) {
  assert(!ran_ && "arm the sampler before Run");
  assert(tick > 0);
  sampler_tick_ = tick;
  sampler_ = std::make_unique<trace::Sampler>(&sim_);
  // The standard series every bench cares about: throughput, abort rate,
  // how much of the mix the switch absorbed, and tail latency — all as
  // curves over the measured window instead of end-of-run scalars. One
  // logical series per metric, summed over every node shard's (or switch's)
  // instance, and for latency over the three per-class histograms.
  std::vector<const MetricsRegistry::Counter*> committed;
  std::vector<const MetricsRegistry::Counter*> aborted;
  std::vector<const Histogram*> latency;
  std::vector<const MetricsRegistry::Counter*> postcards;
  std::vector<const MetricsRegistry::Counter*> accesses;
  for (uint32_t s = 0; s < NodeShardCount(); ++s) {
    EngineShard& es = *eshards_[s];
    committed.push_back(es.outcomes.committed());
    aborted.push_back(es.outcomes.aborted());
    for (int c = 0; c < 3; ++c) latency.push_back(es.outcomes.latency(c));
    if (config_.int_telemetry.enabled) {
      // Postcard fold + register-touch rates, summed over the node
      // collectors (and, for accesses, over the per-switch key family).
      postcards.push_back(&es.registry->counter("int.postcards"));
      for (uint16_t k = 0; k < config_.num_switches; ++k) {
        accesses.push_back(&es.registry->counter(
            IntCollector::SwitchPrefix(k) + "int_reg_accesses"));
      }
    }
  }
  // Every switch counts under its own prefix, so the series keeps counting
  // after a view change hands the traffic to switch k >= 1.
  std::vector<const MetricsRegistry::Counter*> switch_txns;
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    switch_txns.push_back(&SwitchHome(k).registry->counter(
        IntCollector::SwitchPrefix(k) + "txns_completed"));
  }
  sampler_->AddCounterRate("committed", std::move(committed));
  sampler_->AddCounterRate("aborted_attempts", std::move(aborted));
  sampler_->AddCounterRate("switch_txns", std::move(switch_txns));
  sampler_->AddHistogramQuantile("p99_latency_ns", latency, 0.99);
  if (config_.open_loop.enabled) {
    // Extreme-tail series only for open-loop runs (the knee bench gates on
    // p999); closed-loop dumps keep the historical key set.
    sampler_->AddHistogramQuantile("p999_latency_ns", std::move(latency),
                                   0.999);
  }
  if (config_.int_telemetry.enabled) {
    sampler_->AddCounterRate("int_postcards", std::move(postcards));
    sampler_->AddCounterRate("int_reg_accesses", std::move(accesses));
  }
  return *sampler_;
}

std::string Engine::CriticalPathJson(size_t top_k) const {
  std::string out;
  if (int_collectors_.empty()) return out;
  // Cluster-wide slot hotness: the per-node arrays summed in fixed node
  // order, so the emitted list is identical for every thread count.
  std::vector<uint64_t> slots(int_collectors_[0].slot_accesses().size(), 0);
  for (const IntCollector& ic : int_collectors_) {
    const std::span<const uint64_t> s = ic.slot_accesses();
    for (size_t i = 0; i < s.size(); ++i) slots[i] += s[i];
  }
  AppendCriticalPathJson(registry_, slots, top_k, &out);
  return out;
}

void Engine::EnableFullTrace() {
  for (auto& es : eshards_) es->tracer->EnableFull();
}

std::string Engine::TraceJson(std::string_view fault_schedule_json) {
  // Concatenate the shard rings in fixed shard order; the exporter re-sorts
  // globally, so the output is a pure function of the record set.
  std::vector<trace::Record> records;
  size_t recorded = 0;
  uint64_t dropped = 0;
  for (auto& es : eshards_) {
    std::vector<trace::Record> snap = es->tracer->Snapshot();
    recorded += snap.size();
    dropped += es->tracer->dropped();
    records.insert(records.end(), snap.begin(), snap.end());
  }
  return trace::Tracer::ChromeJsonFromRecords(
      std::move(records), eshards_[0]->tracer->mode(), recorded, dropped,
      sampler_.get(), fault_schedule_json);
}

sim::Task Engine::DriveOnce(db::Transaction* txn, NodeId home,
                            std::vector<std::optional<Value64>>* results,
                            bool* done) {
  Rng rng(config_.seed ^ 0x5eed5eed5eed5eedULL);
  TxnTimers timers;
  const uint64_t ts = PeekTxnId(home);
  int attempt = 0;
  for (;;) {
    const uint64_t txn_id = TakeTxnId(home);
    results->assign(txn->ops.size(), std::nullopt);
    const bool ok = co_await cc_->ExecuteAttempt(home, *txn, txn_id, ts,
                                                 results, &timers);
    if (ok) break;
    ++attempt;
    co_await sim::Delay(sim_, BackoffDelay(attempt, rng));
  }
  *done = true;
}

StatusOr<std::vector<Value64>> Engine::ExecuteOnce(db::Transaction txn,
                                                   NodeId home) {
  assert(!sharded_ && "ExecuteOnce drives the legacy runtime only");
  assert(workload_ != nullptr || !txn.ops.empty());
  pm_.Classify(&txn, home);
  std::vector<std::optional<Value64>> results;
  bool done = false;
  sim::Task driver = DriveOnce(&txn, home, &results, &done);
  sim_.Run();
  if (!done) {
    return Status::Internal("transaction did not complete");
  }
  std::vector<Value64> out;
  out.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].has_value()) {
      // The attempt "committed" but this op never produced a value (its
      // switch response was lost to a crash, or the issuing node died).
      // Report that instead of masking it as a literal 0.
      return Status::Unavailable("op " + std::to_string(i) +
                                 " completed without a result");
    }
    out.push_back(*results[i]);
  }
  return out;
}

void Engine::SimulateNodeCrash(NodeId node) {
  node_crashed_[node] = true;
  if (node < open_loop_.size()) {
    // The node's client sessions die with it: parked coroutines are
    // abandoned (their frames are reclaimed at teardown) and queued
    // arrivals are lost — recovery respawns a fresh generator + session
    // pool under a new RNG generation.
    OpenLoopNode& ol = *open_loop_[node];
    ol.idle_sessions.clear();
    ol.parked_generator = nullptr;
    ol.head = 0;
    ol.size = 0;
  }
}

void Engine::DropParkedHandles() {
  // Post-teardown the parked coroutine frames are gone (workers_ owned
  // them); dangling handles must not survive into post-run inspection.
  for (auto& ol : open_loop_) {
    ol->idle_sessions.clear();
    ol->parked_generator = nullptr;
  }
}

Status Engine::RecoverNode(NodeId node) {
  if (node >= config_.num_nodes) {
    return Status::InvalidArgument("no such node");
  }
  if (!node_crashed_[node]) {
    return Status::InvalidArgument("node is not crashed");
  }
  // Nothing to replay: every committed host record's effects already live
  // in the (shared) storage model, and gid-less switch intents are the
  // *switch* recovery's job to apply — the node must never replay them
  // itself, or a recovered intent would be applied twice.
  node_crashed_[node] = false;
  // Lazily created, so only runs that actually recover a node publish it.
  registry_.counter("engine.node_recoveries").Increment();
  if (running_) {
    // Respawn the node's workers under a fresh RNG generation: the crashed
    // generation's streams died mid-sequence, and reusing them would replay
    // transactions the node already issued.
    ++recover_generation_;
    SpawnNode(node, 0xa0761d6478bd642fULL * recover_generation_);
  }
  return Status::Ok();
}

Status Engine::InstallFaultSchedule(const net::FaultSchedule& schedule) {
  assert(!ran_ && "install the fault schedule before Run");
  assert(!faults_->chaos_armed() && "fault schedule already installed");
  for (const net::FaultEvent& ev : schedule.events) {
    if (ev.kind == net::FaultEvent::Kind::kSwitchReboot
            ? ev.switch_id >= config_.num_switches
            : ev.node >= config_.num_nodes) {
      return Status::InvalidArgument("fault event targets an unknown switch "
                                     "or node");
    }
  }
  if (schedule.empty()) return Status::Ok();  // nothing arms, zero overhead
  fault_schedule_ = schedule;
  // One injector per shard: link faults are drawn on the SENDER's shard in
  // its deterministic send order, from a stream that is a pure function of
  // (seed, shard). The legacy transport draws from its one shard's stream.
  for (uint32_t s = 0; s < eshards_.size(); ++s) {
    EngineShard& es = *eshards_[s];
    es.injector = std::make_unique<net::FaultInjector>(
        fault_schedule_, es.seed_base, es.registry);
    es.injector->BindRngOwner(es.rng_token);
    transport_->SetFaultInjector(s, es.injector.get());
  }
  // Chaos-only series are registered at arming (not first use) so two runs
  // with the same (seed, schedule) dump identical key sets even when an
  // event never fires.
  std::vector<MetricsRegistry*> node_registries;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    node_registries.push_back(Home(n).registry);
  }
  cc_->BindChaosCounters(SwitchHome(0).registry, node_registries);
  faults_->Arm();
  for (const net::FaultEvent& ev : fault_schedule_.events) {
    // Scripted events are cluster-scope state changes; the sharded runtime
    // runs them as quiescent coordinator-phase globals.
    switch (ev.kind) {
      case net::FaultEvent::Kind::kSwitchReboot:
        faults_->ScheduleReboot(ev);
        break;
      case net::FaultEvent::Kind::kNodeCrash:
        ScheduleGlobalAt(ev.at, [this, n = ev.node] { SimulateNodeCrash(n); });
        break;
      case net::FaultEvent::Kind::kNodeRestart:
        ScheduleGlobalAt(ev.at, [this, n = ev.node] { (void)RecoverNode(n); });
        break;
    }
  }
  return Status::Ok();
}

}  // namespace p4db::core
