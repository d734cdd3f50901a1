#include "core/metrics.h"

namespace p4db::core {
namespace {

// The outcome keys. Per-class names are indexed by TxnClass, breakdown
// names follow kTimerTerms.
constexpr const char* kCommitted = "engine.committed";
constexpr const char* kCommittedDistributed = "engine.committed_distributed";
constexpr const char* kAborted = "engine.aborted_attempts";
constexpr const char* kAbortedByClass[3] = {"engine.aborted_attempts.hot",
                                            "engine.aborted_attempts.cold",
                                            "engine.aborted_attempts.warm"};
constexpr const char* kLatency[3] = {"engine.latency_ns.hot",
                                     "engine.latency_ns.cold",
                                     "engine.latency_ns.warm"};
constexpr const char* kBreakdown[6] = {
    "engine.breakdown.lock_wait_ns",     "engine.breakdown.remote_access_ns",
    "engine.breakdown.switch_access_ns", "engine.breakdown.local_work_ns",
    "engine.breakdown.commit_ns",        "engine.breakdown.backoff_ns"};

}  // namespace

void OutcomeRecorder::Bind(MetricsRegistry* registry, bool retry_capped) {
  committed_ = &registry->counter(kCommitted);
  committed_distributed_ = &registry->counter(kCommittedDistributed);
  aborted_ = &registry->counter(kAborted);
  for (int c = 0; c < 3; ++c) {
    aborted_by_class_[c] = &registry->counter(kAbortedByClass[c]);
    latency_[c] = &registry->histogram(kLatency[c]);
  }
  for (int i = 0; i < 6; ++i) breakdown_[i] = &registry->counter(kBreakdown[i]);
  gaveup_ = retry_capped ? &registry->counter("engine.txn_gaveup")
                         : &own_gaveup_;
  attempts_ = retry_capped ? &registry->histogram("engine.txn_attempts")
                           : &own_attempts_;
}

Metrics Metrics::FromRegistry(const MetricsRegistry& registry) {
  const auto value = [&registry](const char* key) -> uint64_t {
    const MetricsRegistry::Counter* c = registry.FindCounter(key);
    return c == nullptr ? 0 : c->value();
  };
  Metrics m;
  m.committed = value(kCommitted);
  m.committed_distributed = value(kCommittedDistributed);
  m.aborted_attempts = value(kAborted);
  for (int c = 0; c < 3; ++c) {
    if (const Histogram* h = registry.FindHistogram(kLatency[c])) {
      m.latency_by_class[c] = *h;
    }
    m.committed_by_class[c] = m.latency_by_class[c].count();
    m.aborts_by_class[c] = value(kAbortedByClass[c]);
    m.attempts_by_class[c] = m.committed_by_class[c] + m.aborts_by_class[c];
    // Exact: the merge adds counts, buckets and int64 sums and keeps the
    // extreme min/max, as recording every sample once more would.
    m.latency_all.Merge(m.latency_by_class[c]);
  }
  for (int i = 0; i < 6; ++i) {
    m.breakdown.*kTimerTerms[i] = static_cast<int64_t>(value(kBreakdown[i]));
  }
  return m;
}

}  // namespace p4db::core
