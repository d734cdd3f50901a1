// Stress and determinism coverage for the calendar/ladder scheduling core.
//
// The queue's contract — exact (time, seq) FIFO order under any interleaving
// of Schedule / ScheduleAt / ScheduleResume — is load-bearing for the whole
// repository: every run is reproducible only if ties break identically on
// every execution. These tests check the rebuilt core against a trivially
// correct std::priority_queue reference model and pin end-to-end
// reproducibility at the Engine level.

#include <coroutine>
#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "workload/ycsb.h"

namespace p4db::sim {
namespace {

// Delays chosen to land on every tier of the calendar queue and straddle its
// boundaries: the zero-delay FIFO lane, the current bucket's sorted drain
// run (late inserts in front of, between and behind its pending keys), the
// rung-1 sub-buckets (1 ns each), the 1024 x 512 ns ring, and the overflow
// heap past the ~524 us horizon.
constexpr SimTime kBoundaryDelays[] = {
    0,      0,      1,      3,       7,       64,        511,
    512,    513,    1023,   1024,    4096,    262143,    262144,
    524287, 524288, 524289, 1048576, 4194304, 100000000,
};
constexpr size_t kNumDelays = sizeof(kBoundaryDelays) / sizeof(SimTime);

// Execution trace: (timestamp, event id). Two schedulers agree iff their
// traces are byte-identical — order within a timestamp included.
using Trace = std::vector<std::pair<SimTime, uint64_t>>;

// ---------------------------------------------------------------------------
// Reference model: one global binary heap with explicit (time, seq) keys.
// Obviously correct, never fast.
// ---------------------------------------------------------------------------
class ModelSim {
 public:
  SimTime now() const { return now_; }

  void Schedule(SimTime delay, uint64_t id) { ScheduleAt(now_ + delay, id); }
  void ScheduleAt(SimTime t, uint64_t id) {
    queue_.push(Ev{t, next_seq_++, id});
  }

  // Returns false when drained.
  bool Step(uint64_t* id) {
    if (queue_.empty()) return false;
    const Ev ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    *id = ev.id;
    return true;
  }

 private:
  struct Ev {
    SimTime time;
    uint64_t seq;
    uint64_t id;
    bool operator<(const Ev& o) const {  // max-heap: invert
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Ev> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// The workload both schedulers run. All scheduling decisions come from one
// seeded Rng consumed in execution order, so the real core and the model
// make identical decisions exactly as long as they fire events in the same
// order; the first ordering divergence derails the traces for good.
//
// Mix: plain callback events that fan out children (Schedule / ScheduleAt
// picked at random), plus coroutine "loopers" whose wakeups go through
// ScheduleResume / ScheduleResumeAt (also picked at random) — the wakeup
// route that stores only the frame address. Loopers carry most of the
// traffic, as suspended-worker wakeups do in engine runs.
// ---------------------------------------------------------------------------
struct StressState {
  Rng rng;
  Trace trace;
  uint64_t next_id = 0;
  uint64_t resumes = 0;  // looper wakeups executed
  int budget = 0;  // remaining event executions allowed to spawn children
};

// Real core: recursive callback fan-out.
struct RealFire {
  Simulator* sim;
  StressState* st;
  uint64_t id;
  void operator()() const {
    st->trace.emplace_back(sim->now(), id);
    if (st->budget <= 0) return;
    const uint64_t children = st->rng.NextRange(4);  // 0..3 children: supercritical fan-out
    for (uint64_t c = 0; c < children && st->budget > 0; ++c) {
      --st->budget;
      const SimTime d = kBoundaryDelays[st->rng.NextRange(kNumDelays)];
      const uint64_t child = st->next_id++;
      if (st->rng.NextBool(0.5)) {
        sim->Schedule(d, RealFire{sim, st, child});
      } else {
        sim->ScheduleAt(sim->now() + d, RealFire{sim, st, child});
      }
    }
  }
};

// Real core: coroutine looper resumed via ScheduleResume(At).
struct ResumeAfterDelay {
  Simulator* sim;
  SimTime delay;
  bool absolute = false;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    if (absolute) {
      sim->ScheduleResumeAt(sim->now() + delay, h);
    } else {
      sim->ScheduleResume(delay, h);
    }
  }
  void await_resume() const noexcept {}
};

Task RealLooper(Simulator& sim, StressState& st, int hops) {
  for (int i = 0; i < hops; ++i) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    co_await ResumeAfterDelay{&sim, d, st.rng.NextBool(0.5)};
    st.trace.emplace_back(sim.now(), id);
    ++st.resumes;
  }
}

Trace RunReal(uint64_t seed, int num_seeds, int num_loopers, int hops,
              int budget, uint64_t* resumes = nullptr) {
  Simulator sim;
  StressState st;
  st.rng.Seed(seed);
  st.budget = budget;
  std::vector<Task> tasks;
  // Interleave seeding of callbacks and loopers so their rng draws mix.
  for (int i = 0; i < num_seeds; ++i) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    sim.Schedule(d, RealFire{&sim, &st, id});
    if (i < num_loopers) tasks.push_back(RealLooper(sim, st, hops));
  }
  sim.Run();
  if (resumes != nullptr) *resumes = st.resumes;
  return std::move(st.trace);
}

// Model: the same workload against the reference heap. A looper is modeled
// as a self-rescheduling event — same rng draw positions as the coroutine
// (delay and relative/absolute coin drawn at schedule time, trace appended
// at fire time).
struct ModelEvent {
  uint64_t id;
  bool is_looper;
  int hops_left;  // loopers only
};

Trace RunModel(uint64_t seed, int num_seeds, int num_loopers, int hops,
               int budget) {
  ModelSim sim;
  StressState st;
  st.rng.Seed(seed);
  st.budget = budget;
  std::vector<ModelEvent> events;  // indexed by model handle
  auto schedule_looper = [&](int hops_left) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    st.rng.NextBool(0.5);  // real core's ScheduleResume-vs-At coin
    events.push_back(ModelEvent{id, true, hops_left});
    sim.Schedule(d, events.size() - 1);
  };
  for (int i = 0; i < num_seeds; ++i) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    events.push_back(ModelEvent{id, false, 0});
    sim.Schedule(d, events.size() - 1);
    if (i < num_loopers && hops > 0) schedule_looper(hops - 1);
  }
  uint64_t handle = 0;
  while (sim.Step(&handle)) {
    const ModelEvent ev = events[handle];
    st.trace.emplace_back(sim.now(), ev.id);
    if (ev.is_looper) {
      if (ev.hops_left > 0) schedule_looper(ev.hops_left - 1);
      continue;
    }
    if (st.budget <= 0) continue;
    const uint64_t children = st.rng.NextRange(4);
    for (uint64_t c = 0; c < children && st.budget > 0; ++c) {
      --st.budget;
      const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
      const uint64_t child = st.next_id++;
      st.rng.NextBool(0.5);  // real core's Schedule-vs-ScheduleAt coin
      events.push_back(ModelEvent{child, false, 0});
      sim.Schedule(d, events.size() - 1);
    }
  }
  return std::move(st.trace);
}

TEST(EventQueueStressTest, MatchesReferenceModelAcrossSeeds) {
  for (uint64_t seed : {1u, 7u, 42u, 1234567u}) {
    uint64_t resumes = 0;
    const Trace real = RunReal(seed, 256, 160, 100, 8000, &resumes);
    const Trace model = RunModel(seed, 256, 160, 100, 8000);
    ASSERT_EQ(real.size(), model.size()) << "seed " << seed;
    for (size_t i = 0; i < real.size(); ++i) {
      ASSERT_EQ(real[i], model[i])
          << "seed " << seed << " diverges at event " << i << ": real=("
          << real[i].first << "," << real[i].second << ") model=("
          << model[i].first << "," << model[i].second << ")";
    }
    // Sanity: the workload actually exercised a non-trivial schedule, and
    // wakeups were at least half of it.
    EXPECT_GT(real.size(), 20000u) << "seed " << seed;
    EXPECT_GE(2 * resumes, real.size()) << "seed " << seed;
  }
}

// Two runs of the same seed through the REAL core must agree with
// themselves too (guards against hidden global state in the queue).
TEST(EventQueueStressTest, RealCoreSelfReproducible) {
  const Trace a = RunReal(99, 128, 16, 40, 8000);
  const Trace b = RunReal(99, 128, 16, 40, 8000);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// RunUntil / Stop interaction: Stop() mid-drain freezes the clock at the
// last executed event instead of jumping to the horizon.
// ---------------------------------------------------------------------------
TEST(SimulatorRunUntilTest, StopMidDrainFreezesClock) {
  Simulator sim;
  sim.Schedule(10, [&sim] { sim.Stop(); });
  sim.Schedule(20, [] {});  // never runs
  sim.RunUntil(100);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.now(), 10);  // frozen at the Stop event, not advanced to 100
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorRunUntilTest, CleanDrainAdvancesToHorizon) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.RunUntil(100);
  EXPECT_EQ(sim.now(), 100);
}

// ---------------------------------------------------------------------------
// DiscardPending drops everything from every tier in one call.
// ---------------------------------------------------------------------------
TEST(SimulatorDiscardTest, DiscardPendingClearsAllTiers) {
  Simulator sim;
  int fired = 0;
  // One event per tier: zero-delay lane, near bucket, ring, overflow.
  sim.Schedule(0, [&fired] { ++fired; });
  sim.Schedule(3, [&fired] { ++fired; });
  sim.Schedule(100000, [&fired] { ++fired; });
  sim.Schedule(100000000, [&fired] { ++fired; });
  ASSERT_EQ(sim.pending_events(), 4u);
  sim.DiscardPending();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 0);

  // The queue stays usable after a clear.
  sim.Schedule(5, [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

// Sleeps once for `delay`, then records (wake time, id).
Task SleepOnce(Simulator& sim, SimTime delay, uint64_t id, Trace* woke) {
  co_await ResumeAfterDelay{&sim, delay};
  woke->emplace_back(sim.now(), id);
}

// Wakeups pending in every tier at once: the zero-delay lane, the current
// bucket (as a sorted drain run when it is sparse, as rung 1 when it is
// dense), the ring and the overflow heap. Discarding must drop all of them,
// and the cleared queue must then deliver fresh wakeups and callbacks in
// exact (time, seq) order — also when side-table entries were free at the
// discard, so the reused queue must not hand out stale ones.
TEST(SimulatorDiscardTest, DiscardPendingDropsResumesInEveryTier) {
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "dense bucket (rung 1)" : "sparse bucket (run)");
    Simulator sim;
    Trace woke;
    int fired = 0;
    std::vector<Task> sleepers;
    // Eight wakeups that fire (and free their entries) before 600.
    Trace early;
    for (uint64_t i = 0; i < 8; ++i) {
      sleepers.push_back(SleepOnce(sim, 10 * (i + 1), i, &early));
    }
    // Bucket [512, 1024): the control event at 600, then fillers every 2 ns
    // — 5 events in all (sorted into the drain run) or 61 (scattered).
    sim.ScheduleAt(600, [&] {
      // Delays 0 (zero-delay lane); 1, 3 and 20 (in front of, between and
      // behind the fillers); 1000 (ring); 1e8 (overflow).
      const SimTime delays[] = {0, 1, 3, 20, 1000, 100000000};
      for (uint64_t i = 0; i < 6; ++i) {
        sleepers.push_back(SleepOnce(sim, delays[i], i, &woke));
      }
      sim.Stop();
    });
    const int fillers = dense ? 60 : 4;
    for (int i = 0; i < fillers; ++i) {
      sim.ScheduleAt(601 + 2 * i, [&fired] { ++fired; });
    }
    sim.Run();
    ASSERT_EQ(sim.now(), 600);
    ASSERT_EQ(early.size(), 8u);
    ASSERT_EQ(sim.pending_events(), static_cast<size_t>(fillers) + 6);

    sim.DiscardPending();
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.Resume();
    sim.Run();
    EXPECT_TRUE(woke.empty());
    EXPECT_EQ(fired, 0);
    sleepers.clear();  // safe: no queued event references these frames

    // Reuse: the same tiers again, wakeups interleaved with callbacks.
    std::vector<std::pair<SimTime, uint64_t>> expected;
    const SimTime delays[] = {0, 1, 3, 20, 1000, 100000000};
    for (uint64_t i = 0; i < 6; ++i) {
      sleepers.push_back(SleepOnce(sim, delays[i], 2 * i, &woke));
      sim.Schedule(delays[i], [&woke, &sim, i] {
        woke.emplace_back(sim.now(), 2 * i + 1);
      });
      expected.emplace_back(600 + delays[i], 2 * i);
      expected.emplace_back(600 + delays[i], 2 * i + 1);
    }
    sim.Run();
    EXPECT_EQ(woke, expected);
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: two identically-seeded Engine runs produce
// byte-identical metrics — the registry dump (every counter and histogram)
// and the pipeline's stats snapshot.
// ---------------------------------------------------------------------------
TEST(EngineDeterminismTest, IdenticalSeedsProduceIdenticalMetrics) {
  auto run = [](std::string* registry_json, sw::PipelineStats* pipe,
                uint64_t* committed) {
    core::SystemConfig cfg;
    cfg.mode = core::EngineMode::kP4db;
    cfg.num_nodes = 4;
    cfg.workers_per_node = 8;
    cfg.seed = 42;
    wl::YcsbConfig ycfg;
    ycfg.table_size = 100000;
    ycfg.hot_keys_per_node = 10;
    wl::Ycsb ycsb(ycfg);
    core::Engine engine(cfg);
    engine.SetWorkload(&ycsb);
    engine.Offload(2000, 160);
    const core::Metrics m = engine.Run(1 * kMillisecond, 3 * kMillisecond);
    *registry_json = engine.metrics_registry().ToJson();
    *pipe = engine.pipeline().stats();
    *committed = m.committed;
  };

  std::string json_a, json_b;
  sw::PipelineStats pipe_a, pipe_b;
  uint64_t committed_a = 0, committed_b = 0;
  run(&json_a, &pipe_a, &committed_a);
  run(&json_b, &pipe_b, &committed_b);

  EXPECT_GT(committed_a, 0u);
  EXPECT_EQ(committed_a, committed_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(pipe_a.txns_completed, pipe_b.txns_completed);
  EXPECT_EQ(pipe_a.total_passes, pipe_b.total_passes);
  EXPECT_EQ(pipe_a.lock_blocked_recircs, pipe_b.lock_blocked_recircs);
  EXPECT_EQ(pipe_a.holder_recircs, pipe_b.holder_recircs);
  EXPECT_EQ(pipe_a.lock_acquisitions, pipe_b.lock_acquisitions);
}

}  // namespace
}  // namespace p4db::sim
