#ifndef P4DB_DB_TABLE_H_
#define P4DB_DB_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/types.h"

namespace p4db::db {

/// Fixed-width numeric row: a view of the row's `num_columns` values, which
/// live inline in the owning table's arena. String columns are
/// dictionary-encoded to integers by the workloads (the same trick the
/// switch needs, Table 1), so one representation serves both substrates.
using Row = std::span<Value64>;

/// How a table's keys are spread over database nodes (shared-nothing
/// partitioning, Section 7.1).
struct PartitionSpec {
  enum class Kind : uint8_t {
    kRoundRobin,  // owner = key % num_nodes   (YCSB, Section 7.2)
    kRange,       // owner = (key / block) % num_nodes (SmallBank accounts)
    kByHighBits,  // owner = (key >> shift) % num_nodes (TPC-C by warehouse)
    kReplicated,  // read-only reference data; every node owns a copy
  };
  Kind kind = Kind::kRoundRobin;
  uint64_t block = 1;   // kRange block size
  uint32_t shift = 0;   // kByHighBits shift

  NodeId OwnerOf(Key key, uint16_t num_nodes) const {
    switch (kind) {
      case Kind::kRoundRobin:
        return static_cast<NodeId>(key % num_nodes);
      case Kind::kRange:
        return static_cast<NodeId>((key / block) % num_nodes);
      case Kind::kByHighBits:
        return static_cast<NodeId>((key >> shift) % num_nodes);
      case Kind::kReplicated:
        return 0;  // any node can serve it locally; 0 is the canonical copy
    }
    return 0;
  }
};

/// In-memory table storing one relation. Rows materialize lazily with
/// schema defaults: benchmark tables are logically huge (YCSB: 10^9 keys)
/// but only touched keys occupy memory. A materialized row is
/// `num_columns` contiguous values bump-allocated from the table's arena
/// and indexed by an open-addressed key -> row map, so materializing a row
/// costs no heap allocation of its own (only the occasional index rehash or
/// fresh arena chunk, both of which Reserve can take up front). Arena
/// chunks never move: a Row stays valid for the table's lifetime, across
/// any number of index rehashes.
class Table {
 public:
  Table(TableId id, std::string name, uint16_t num_columns,
        PartitionSpec partition, std::vector<Value64> default_row = {});

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint16_t num_columns() const { return num_columns_; }
  const PartitionSpec& partition() const { return partition_; }

  /// Row accessor; creates the row with defaults on first touch.
  Row GetOrCreate(Key key);
  /// Read-only lookup; an empty span if the row was never materialized.
  std::span<const Value64> Find(Key key) const;

  /// Pre-sizes the index and the arena so that materializing rows until
  /// the table holds `rows` of them allocates nothing.
  void Reserve(size_t rows);

  /// Switches the accessors to mutex-guarded mode for the parallel sharded
  /// runtime: rows materialize lazily, so several shards can race the index
  /// and the arena mid-run (2PL runs a remote partition's ops on the
  /// coordinator's shard, so no table is touched by its owner's shard
  /// alone). Only the index and the arena are guarded — a returned Row
  /// stays valid without the lock, and row CONTENT synchronization remains
  /// the lock managers' job (conflicting accesses are serialized by 2PL,
  /// and the lock handoff always crosses a window barrier between shards).
  /// Legacy single-thread runs never take the mutex.
  void EnableConcurrentAccess() { concurrent_ = true; }

  size_t materialized_rows() const { return rows_.size(); }

 private:
  TableId id_;
  std::string name_;
  uint16_t num_columns_;
  PartitionSpec partition_;
  std::vector<Value64> default_row_;
  FlatMap<Key, Value64*> rows_;
  Arena arena_;
  bool concurrent_ = false;
  mutable std::mutex mu_;
};

/// The cluster's schema and storage. In the simulator all node partitions
/// live in one address space; ownership (which node pays local vs. remote
/// access cost and whose lock table guards a tuple) is defined by each
/// table's PartitionSpec.
class Catalog {
 public:
  explicit Catalog(uint16_t num_nodes) : num_nodes_(num_nodes) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  TableId CreateTable(std::string name, uint16_t num_columns,
                      PartitionSpec partition,
                      std::vector<Value64> default_row = {});
  Table& table(TableId id) { return *tables_[id]; }
  const Table& table(TableId id) const { return *tables_[id]; }
  size_t num_tables() const { return tables_.size(); }

  /// Arms mutex-guarded access on every table (see
  /// Table::EnableConcurrentAccess). Called by the engine when the parallel
  /// sharded runtime starts.
  void EnableConcurrentAccess() {
    for (auto& t : tables_) t->EnableConcurrentAccess();
  }

  NodeId OwnerOf(const TupleId& t) const {
    return tables_[t.table]->partition().OwnerOf(t.key, num_nodes_);
  }
  /// Replicated (read-only reference) tables are served locally on every
  /// node: no locks, no remote access, never distributed.
  bool IsReplicated(TableId id) const {
    return tables_[id]->partition().kind ==
           PartitionSpec::Kind::kReplicated;
  }
  uint16_t num_nodes() const { return num_nodes_; }

 private:
  uint16_t num_nodes_;
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace p4db::db

#endif  // P4DB_DB_TABLE_H_
