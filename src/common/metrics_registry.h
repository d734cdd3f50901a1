#ifndef P4DB_COMMON_METRICS_REGISTRY_H_
#define P4DB_COMMON_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/histogram.h"

namespace p4db {

/// Named-metric registry shared by the components of one simulated cluster
/// (transport, Pipeline, LockManager, Wal, Engine). Components register
/// counters/histograms by hierarchical name ("net.messages_sent",
/// "switch.txns_completed", ...) at construction and bump them on the hot
/// path through stable pointers; the bench harness dumps the whole registry
/// as JSON so every run leaves a machine-readable trace.
///
/// Identity semantics: counter(name) is get-or-create — two components
/// registering the same name share one counter (used to aggregate the
/// per-node lock managers / WALs into cluster-wide series). Returned
/// references stay valid for the registry's lifetime.
///
/// Not thread-safe; the simulator is single-threaded.
class MetricsRegistry {
 public:
  class Counter {
   public:
    void Increment(uint64_t delta = 1) { value_ += delta; }
    void Set(uint64_t value) { value_ = value; }
    uint64_t value() const { return value_; }
    void Reset() { value_ = 0; }

   private:
    uint64_t value_ = 0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. The reference is stable.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Get-or-create under a two-part name (prefix + name, concatenated at
  /// registration time, never on the hot path). Used for per-instance
  /// keying — "switch1." + "txns_completed" — where the prefix is chosen
  /// once at construction.
  Counter& counter(std::string_view prefix, std::string_view name);
  Histogram& histogram(std::string_view prefix, std::string_view name);

  /// Process-wide discard sinks. Components that mirror their stats into an
  /// *optional* registry point at these when none was supplied, so the hot
  /// path stays an unconditional increment through a stable pointer instead
  /// of a null check and branch per bump. Writes land in a static dummy
  /// nothing ever reads; both are constant-memory, so unbounded traffic is
  /// harmless.
  static Counter& NullCounter() {
    static Counter sink;
    return sink;
  }
  static Histogram& NullHistogram() {
    static Histogram sink;
    return sink;
  }

  /// Lookup without creating; nullptr if absent.
  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  /// Zeroes every counter and clears every histogram (names stay
  /// registered). The engine calls this at the start of the measured
  /// window so dumps cover exactly the measurement interval.
  void Reset();

  /// Folds `other` into this registry: counters add, histograms merge,
  /// names absent here are created. The parallel runtime merges the
  /// per-shard registries into the engine's dump registry with this, in
  /// fixed shard order; since std::map keeps names sorted, the resulting
  /// ToJson is a pure function of the merged values.
  void MergeFrom(const MetricsRegistry& other);

  size_t num_counters() const { return counters_.size(); }
  size_t num_histograms() const { return histograms_.size(); }

  /// Serializes the registry as a JSON object:
  ///   {"counters": {"name": value, ...},
  ///    "histograms": {"name": {"count": .., "mean": .., "p50": ..,
  ///                            "p95": .., "p99": .., "max": ..}, ...}}
  /// Keys are sorted (std::map iteration order) so output is diffable.
  std::string ToJson() const;

 private:
  // unique_ptr for stable addresses across rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace p4db

#endif  // P4DB_COMMON_METRICS_REGISTRY_H_
