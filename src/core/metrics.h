#ifndef P4DB_CORE_METRICS_H_
#define P4DB_CORE_METRICS_H_

#include <cstdint>

#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/types.h"
#include "db/txn.h"

namespace p4db::core {

/// Per-transaction wall-time attribution (simulated ns), accumulated by the
/// CC layer across all attempts. Summed over committed transactions (the
/// `engine.breakdown.*_ns` keys) it is the Figure 18a latency breakdown.
struct TxnTimers {
  int64_t lock_wait = 0;      // lock manager round trips + queueing
  int64_t remote_access = 0;  // node<->node data round trips
  int64_t switch_access = 0;  // node<->switch round trip incl. pipeline
  int64_t local_work = 0;     // setup + tuple ops + WAL
  int64_t commit = 0;         // 2PC rounds / local commit
  int64_t backoff = 0;        // abort penalty + retry backoff

  int64_t Total() const {
    return lock_wait + remote_access + switch_access + local_work + commit +
           backoff;
  }
};

/// The TxnTimers terms in field order, which is the breakdown keys' order.
inline constexpr int64_t TxnTimers::*kTimerTerms[6] = {
    &TxnTimers::lock_wait,     &TxnTimers::remote_access,
    &TxnTimers::switch_access, &TxnTimers::local_work,
    &TxnTimers::commit,        &TxnTimers::backoff};

/// The one sink for transaction outcomes: handles into a node shard's
/// registry, bound once, each fact written once. metrics.cc alone names
/// the keys; Metrics::FromRegistry reads them back.
class OutcomeRecorder {
 public:
  /// Registers the outcome keys in `registry`. Uncapped runs keep their
  /// key set: the retry-cap series then go to this recorder's own sinks
  /// (the process-wide null sinks would be shared across shards).
  void Bind(MetricsRegistry* registry, bool retry_capped);

  /// A transaction committed on its `attempts`-th attempt, `latency_ns`
  /// after its issue (closed loop) or arrival (open loop) instant.
  void Commit(db::TxnClass cls, bool distributed, int64_t latency_ns,
              const TxnTimers& timers, int attempts) {
    committed_->Increment();
    if (distributed) committed_distributed_->Increment();
    latency_[static_cast<int>(cls)]->Record(latency_ns);
    for (int i = 0; i < 6; ++i) {
      breakdown_[i]->Increment(static_cast<uint64_t>(timers.*kTimerTerms[i]));
    }
    attempts_->Record(attempts);
  }
  /// One attempt of a class-`cls` transaction aborted.
  void Abort(db::TxnClass cls) {
    aborted_->Increment();
    aborted_by_class_[static_cast<int>(cls)]->Increment();
  }
  /// The retry budget ran out after `attempts` aborted attempts.
  void GiveUp(int attempts) {
    gaveup_->Increment();
    attempts_->Record(attempts);
  }

  /// Sampler sources; the latency histograms are indexed by TxnClass.
  const MetricsRegistry::Counter* committed() const { return committed_; }
  const MetricsRegistry::Counter* aborted() const { return aborted_; }
  const Histogram* latency(int cls) const { return latency_[cls]; }

 private:
  MetricsRegistry::Counter* committed_ = nullptr;
  MetricsRegistry::Counter* committed_distributed_ = nullptr;
  MetricsRegistry::Counter* aborted_ = nullptr;
  MetricsRegistry::Counter* aborted_by_class_[3] = {};
  Histogram* latency_[3] = {};
  MetricsRegistry::Counter* breakdown_[6] = {};  // kTimerTerms order
  MetricsRegistry::Counter* gaveup_ = nullptr;
  Histogram* attempts_ = nullptr;
  MetricsRegistry::Counter own_gaveup_;
  Histogram own_attempts_;
};

/// Aggregated results of one simulated run: not a sink but the end-of-run
/// projection of the merged registry's outcome keys. Per-class commits are
/// the class histograms' counts, latency_all is their exact merge.
struct Metrics {
  uint64_t committed = 0;
  uint64_t aborted_attempts = 0;
  uint64_t committed_by_class[3] = {0, 0, 0};  // indexed by TxnClass
  uint64_t attempts_by_class[3] = {0, 0, 0};
  uint64_t aborts_by_class[3] = {0, 0, 0};
  uint64_t committed_distributed = 0;

  Histogram latency_all;
  Histogram latency_by_class[3];

  TxnTimers breakdown;  // sums over committed transactions

  /// Projects the outcome keys of `registry`; absent keys read as zero.
  static Metrics FromRegistry(const MetricsRegistry& registry);

  /// Committed transactions per (real) second of simulated time.
  double Throughput(SimTime duration) const {
    return duration <= 0 ? 0.0
                         : static_cast<double>(committed) * kSecond /
                               static_cast<double>(duration);
  }

  double AbortRate() const {
    const uint64_t attempts = committed + aborted_attempts;
    return attempts == 0 ? 0.0
                         : static_cast<double>(aborted_attempts) /
                               static_cast<double>(attempts);
  }
};

}  // namespace p4db::core

#endif  // P4DB_CORE_METRICS_H_
