#include "core/cc/optimistic_cc.h"

#include <algorithm>
#include <cassert>

#include "core/cc/node_set.h"
#include "switchsim/packet.h"

namespace p4db::core::cc {

uint64_t OptimisticCC::VersionOf(const TupleId& tuple) const {
  const uint64_t* v = versions_.find(tuple);
  return v == nullptr ? 0 : *v;
}

Value64 OptimisticCC::OccApplyOp(
    const db::Op& op, const std::vector<std::optional<Value64>>& results,
    OccContext* ctx) {
  const auto carried = [&](int16_t src, bool negate) -> Value64 {
    const Value64 v = results[src].has_value() ? *results[src] : 0;
    return negate ? -v : v;
  };

  Key key = op.tuple.key;
  Value64 operand = op.operand;
  if (op.type == db::OpType::kInsert) {
    if (op.has_src()) key += static_cast<Key>(carried(op.operand_src,
                                                      op.negate_src));
    if (op.has_src2()) operand += carried(op.operand_src2, op.negate_src2);
    const HotItem cell{TupleId{op.tuple.table, key}, op.column};
    ctx->inserts.emplace_back(cell, operand);
    return operand;
  }
  if (op.key_from_src) {
    if (op.has_src()) key += static_cast<Key>(carried(op.operand_src,
                                                      op.negate_src));
    if (op.has_src2()) operand += carried(op.operand_src2, op.negate_src2);
  } else {
    if (op.has_src()) operand += carried(op.operand_src, op.negate_src);
    if (op.has_src2()) operand += carried(op.operand_src2, op.negate_src2);
  }

  const HotItem cell{TupleId{op.tuple.table, key}, op.column};
  // Current value: write buffer first, then the table.
  Value64 value;
  if (const Value64* buffered = ctx->write_buffer.find(cell)) {
    value = *buffered;
  } else {
    value = ctx_.catalog->table(op.tuple.table).GetOrCreate(key)[op.column];
  }
  const TupleId effective{op.tuple.table, key};
  // Snapshot (key_from_src) accesses target write-once rows: no version
  // tracking, no validation locks (db/txn.h).
  if (!ctx_.catalog->IsReplicated(op.tuple.table) && !op.key_from_src) {
    ctx->read_versions.try_emplace(effective, VersionOf(effective));
  }

  const auto buffer_write = [&](Value64 v) {
    if (!ctx->write_buffer.contains(cell)) {
      bool known = false;
      for (const TupleId& t : ctx->write_set) known |= (t == effective);
      if (!known && !op.key_from_src) ctx->write_set.push_back(effective);
    }
    ctx->write_buffer[cell] = v;
  };

  switch (op.type) {
    case db::OpType::kGet:
      return value;
    case db::OpType::kPut:
      buffer_write(operand);
      return operand;
    case db::OpType::kAdd:
      buffer_write(value + operand);
      return value + operand;
    case db::OpType::kCondAddGeZero:
      if (value + operand >= 0) {
        buffer_write(value + operand);
        return value + operand;
      }
      return value;
    case db::OpType::kMax:
      buffer_write(std::max(value, operand));
      return std::max(value, operand);
    case db::OpType::kSwap:
      buffer_write(operand);
      return value;
    case db::OpType::kInsert:
      break;  // handled above
  }
  return 0;
}

sim::CoTask<bool> OptimisticCC::ExecuteCold(
    NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  const TimingConfig& t = config().timing;
  co_await sim::Delay(ctx_.Sim(), t.txn_setup);
  timers->local_work += t.txn_setup;

  // ---- READ PHASE ----
  OccContext occ;
  const net::Endpoint self = net::Endpoint::Node(node);
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    const NodeId owner = ctx_.catalog->OwnerOf(op.tuple);
    if (op.type != db::OpType::kInsert &&
        !ctx_.catalog->IsReplicated(op.tuple.table) && owner != node &&
        !occ.fetched.contains(op.tuple)) {
      // Remote snapshot read: one data round trip per distinct tuple.
      const SimTime t0 = ctx_.Now();
      co_await ctx_.SendMsg(self, net::Endpoint::Node(owner),
                            kDataRequestBytes, ts);
      co_await ctx_.SendMsg(net::Endpoint::Node(owner), self,
                            kDataRequestBytes, ts);
      timers->remote_access += ctx_.Now() - t0;
      occ.fetched.insert(op.tuple);
    }
    (*results)[i] = OccApplyOp(op, *results, &occ);
  }
  const SimTime exec_cost = t.op_local * static_cast<SimTime>(txn.ops.size());
  co_await sim::Delay(ctx_.Sim(), exec_cost);
  timers->local_work += exec_cost;

  // ---- VALIDATION PHASE ----
  const SimTime validate_begin = ctx_.Now();
  bool valid = true;
  for (const TupleId& tuple : occ.write_set) {
    const NodeId owner = ctx_.catalog->OwnerOf(tuple);
    const SimTime t0 = ctx_.Now();
    if (owner != node) {
      co_await ctx_.SendMsg(self, net::Endpoint::Node(owner),
                            kDataRequestBytes, ts);
    }
    co_await sim::Delay(ctx_.Sim(), t.lock_op);
    Status st = co_await ctx_.lock_manager(owner).Acquire(
        txn_id, ts, tuple, db::LockMode::kExclusive);
    if (owner != node) {
      co_await ctx_.SendMsg(net::Endpoint::Node(owner), self,
                            kDataRequestBytes, ts);
    }
    timers->lock_wait += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(), trace::Category::kLockWait,
                              ts, node);
    if (!st.ok()) {
      valid = false;
      break;
    }
  }
  if (valid) {
    for (const auto& [tuple, version] : occ.read_versions) {
      if (VersionOf(tuple) != version) {
        valid = false;
        break;
      }
    }
  }
  ctx_.Trace().CompleteSpan(validate_begin, ctx_.Now(),
                            trace::Category::kValidate, ts, node,
                            /*attempt=*/0, /*pass=*/0,
                            /*aux=*/valid ? 1u : 0u);
  if (!valid) {
    for (NodeId n = 0; n < ctx_.num_nodes(); ++n) {
      ctx_.lock_manager(n).ReleaseAll(txn_id);
    }
    co_await sim::Delay(ctx_.Sim(), t.abort_cost);
    timers->backoff += t.abort_cost;
    co_return false;
  }

  // ---- WRITE PHASE ----
  // Every applied cell is logged with the value it now holds.
  SmallVector<db::HostLogOp, 8> writes;
  for (const auto& [cell, value] : occ.write_buffer) {
    ctx_.catalog->table(cell.tuple.table).GetOrCreate(cell.tuple.key)
        [cell.column] = value;
    writes.push_back(db::HostLogOp{cell.tuple, cell.column, value});
  }
  for (const auto& [cell, value] : occ.inserts) {
    ctx_.catalog->table(cell.tuple.table).GetOrCreate(cell.tuple.key)
        [cell.column] = value;
    writes.push_back(db::HostLogOp{cell.tuple, cell.column, value});
  }
  for (const TupleId& tuple : occ.write_set) ++versions_[tuple];
  const SimTime wal_begin = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.wal_append);
  timers->local_work += t.wal_append;
  ctx_.wal(node).AppendHostCommit(writes);
  ctx_.Trace().CompleteSpan(wal_begin, ctx_.Now(),
                            trace::Category::kWalAppend, ts, node);

  bool has_remote = false;
  for (const TupleId& tuple : occ.write_set) {
    has_remote |= (ctx_.catalog->OwnerOf(tuple) != node);
  }
  const SimTime commit_begin = ctx_.Now();
  if (has_remote) {
    const SimTime rtt = ctx_.NodeRttEstimate();
    co_await sim::Delay(ctx_.Sim(), 2 * rtt + t.wal_append);  // 2PC rounds
    timers->commit += 2 * rtt + t.wal_append;
  } else {
    co_await sim::Delay(ctx_.Sim(), t.commit_local);
    timers->commit += t.commit_local;
  }
  ctx_.Trace().CompleteSpan(commit_begin, ctx_.Now(),
                            trace::Category::kCommit, ts, node);
  for (NodeId n = 0; n < ctx_.num_nodes(); ++n) {
    ctx_.lock_manager(n).ReleaseAll(txn_id);
  }
  co_return true;
}

sim::CoTask<bool> OptimisticCC::ExecuteWarm(
    NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  const TimingConfig& t = config().timing;
  co_await sim::Delay(ctx_.Sim(), t.txn_setup);
  timers->local_work += t.txn_setup;

  // Partition ops as in the 2PL warm path: hot (switch), deferred cold
  // (after the switch sub-txn), immediate cold (read phase now).
  SmallVector<uint8_t, 64> is_hot_op(txn.ops.size(), 0);
  SmallVector<uint8_t, 64> deferred(txn.ops.size(), 0);
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    if (op.type != db::OpType::kInsert && !op.key_from_src &&
        op.hot_entry != db::kNotHot) {
      is_hot_op[i] = true;
      continue;
    }
    const auto dep = [&](int16_t src) {
      return src >= 0 && (is_hot_op[src] || deferred[src]);
    };
    deferred[i] = op.type == db::OpType::kInsert || dep(op.operand_src) ||
                  dep(op.operand_src2);
    for (size_t k = 0; !deferred[i] && k < i; ++k) {
      deferred[i] = deferred[k] && !is_hot_op[k] &&
                    txn.ops[k].type != db::OpType::kInsert &&
                    txn.ops[k].tuple == op.tuple &&
                    txn.ops[k].column == op.column;
    }
  }

  // ---- READ PHASE (immediate cold ops) ----
  OccContext occ;
  const net::Endpoint self = net::Endpoint::Node(node);
  size_t cold_ops = 0;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    if (is_hot_op[i] || deferred[i]) continue;
    const db::Op& op = txn.ops[i];
    const NodeId owner = ctx_.catalog->OwnerOf(op.tuple);
    if (!ctx_.catalog->IsReplicated(op.tuple.table) && owner != node &&
        !occ.fetched.contains(op.tuple)) {
      const SimTime t0 = ctx_.Now();
      co_await ctx_.SendMsg(self, net::Endpoint::Node(owner),
                            kDataRequestBytes, ts);
      co_await ctx_.SendMsg(net::Endpoint::Node(owner), self,
                            kDataRequestBytes, ts);
      timers->remote_access += ctx_.Now() - t0;
      occ.fetched.insert(op.tuple);
    }
    (*results)[i] = OccApplyOp(op, *results, &occ);
    ++cold_ops;
  }
  if (cold_ops > 0) {
    const SimTime exec_cost = t.op_local * static_cast<SimTime>(cold_ops);
    co_await sim::Delay(ctx_.Sim(), exec_cost);
    timers->local_work += exec_cost;
  }

  // ---- VALIDATION PHASE ----
  // Deferred cold ops run after the switch sub-transaction, so their
  // tuples must be locked now (they are not yet in the write buffer).
  SmallVector<TupleId, 8> to_lock = occ.write_set;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    if (!deferred[i] || txn.ops[i].type == db::OpType::kInsert) continue;
    bool known = false;
    for (const TupleId& t2 : to_lock) known |= (t2 == txn.ops[i].tuple);
    if (!known) to_lock.push_back(txn.ops[i].tuple);
  }
  const SimTime validate_begin = ctx_.Now();
  bool valid = true;
  NodeSet participants;
  for (const TupleId& tuple : to_lock) {
    const NodeId owner = ctx_.catalog->OwnerOf(tuple);
    if (owner != node) participants.insert(owner);
    const SimTime t0 = ctx_.Now();
    if (owner != node) {
      co_await ctx_.SendMsg(self, net::Endpoint::Node(owner),
                            kDataRequestBytes, ts);
    }
    co_await sim::Delay(ctx_.Sim(), t.lock_op);
    Status st = co_await ctx_.lock_manager(owner).Acquire(
        txn_id, ts, tuple, db::LockMode::kExclusive);
    if (owner != node) {
      co_await ctx_.SendMsg(net::Endpoint::Node(owner), self,
                            kDataRequestBytes, ts);
    }
    timers->lock_wait += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(), trace::Category::kLockWait,
                              ts, node);
    if (!st.ok()) {
      valid = false;
      break;
    }
  }
  if (valid) {
    for (const auto& [tuple, version] : occ.read_versions) {
      if (VersionOf(tuple) != version) {
        valid = false;
        break;
      }
    }
  }
  ctx_.Trace().CompleteSpan(validate_begin, ctx_.Now(),
                            trace::Category::kValidate, ts, node,
                            /*attempt=*/0, /*pass=*/0,
                            /*aux=*/valid ? 1u : 0u);
  if (!valid) {
    for (NodeId n = 0; n < ctx_.num_nodes(); ++n) {
      ctx_.lock_manager(n).ReleaseAll(txn_id);
    }
    co_await sim::Delay(ctx_.Sim(), t.abort_cost);
    timers->backoff += t.abort_cost;
    co_return false;
  }

  // ---- SWITCH SUB-TRANSACTION (validated: can no longer abort) ----
  auto compiled = ctx_.pm->Compile(txn, *results, node,
                                   (*ctx_.next_client_seq)[node]++);
  assert(compiled.ok() && "warm transaction's hot part must compile");
  const SimTime wal_begin = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.wal_append);
  timers->local_work += t.wal_append;
  // Epoch stamp and intent append in one synchronous block (see
  // SubmitToSwitch's contract).
  compiled->txn.epoch = static_cast<uint8_t>(ctx_.faults->epoch());
  const db::Lsn lsn = ctx_.wal(node).AppendSwitchIntent(
      compiled->txn.client_seq, compiled->txn.instrs);
  ctx_.Trace().CompleteSpan(wal_begin, ctx_.Now(),
                            trace::Category::kWalAppend, ts, node);

  const size_t wire = sw::PacketCodec::WireSize(compiled->txn);
  const size_t resp_bytes =
      sw::PacketCodec::ResponseWireSize(compiled->txn.instrs.size());
  const auto& op_index = compiled->op_index;

  const SimTime t0 = ctx_.Now();
  co_await ctx_.SendMsg(self, net::Endpoint::Switch(),
                        static_cast<uint32_t>(wire), ts);
  std::optional<sw::SwitchResult> res =
      co_await SubmitToSwitch(std::move(compiled->txn));
  if (!res.has_value()) {
    // Deadline fired: the logged intent makes the switch part committed
    // (recovery applies it exactly once); no multicast will arrive, so the
    // coordinator itself releases the remote validation locks. Hot results
    // stay nullopt.
    txn_timeouts_->Increment();
    timers->switch_access += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(),
                              trace::Category::kSwitchAccess, ts, node);
    const SimTime one_way_node = 2 * config().network.node_to_switch_one_way;
    participants.ForEachReverse([&](NodeId p) {
      ctx_.ScheduleRelease(p, one_way_node, txn_id);
    });
  } else {
    if (!participants.empty()) {
      co_await ctx_.CommitMulticast(node, static_cast<uint32_t>(resp_bytes),
                                    txn_id, participants);
    } else {
      co_await ctx_.SendMsg(net::Endpoint::Switch(), self,
                            static_cast<uint32_t>(resp_bytes), ts);
    }
    timers->switch_access += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(),
                              trace::Category::kSwitchAccess, ts, node);
    if (!(*ctx_.node_crashed)[node]) {
      ctx_.wal(node).FillSwitchResult(lsn, res->gid, res->values);
    }
    for (size_t i = 0; i < op_index.size(); ++i) {
      (*results)[op_index[i]] = res->values[i];
    }
  }

  // ---- WRITE PHASE (buffer + deferred ops) ----
  size_t deferred_ops = 0;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    if (!deferred[i]) continue;
    (*results)[i] = OccApplyOp(txn.ops[i], *results, &occ);
    ++deferred_ops;
  }
  if (deferred_ops > 0) {
    const SimTime def_cost = t.op_local * static_cast<SimTime>(deferred_ops);
    co_await sim::Delay(ctx_.Sim(), def_cost);
    timers->local_work += def_cost;
  }
  for (const auto& [cell, value] : occ.write_buffer) {
    ctx_.catalog->table(cell.tuple.table).GetOrCreate(cell.tuple.key)
        [cell.column] = value;
  }
  for (const auto& [cell, value] : occ.inserts) {
    ctx_.catalog->table(cell.tuple.table).GetOrCreate(cell.tuple.key)
        [cell.column] = value;
  }
  for (const TupleId& tuple : occ.write_set) ++versions_[tuple];

  const SimTime commit_begin = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.commit_local);
  timers->commit += t.commit_local;
  ctx_.Trace().CompleteSpan(commit_begin, ctx_.Now(),
                            trace::Category::kCommit, ts, node);
  ctx_.lock_manager(node).ReleaseAll(txn_id);
  co_return true;
}

}  // namespace p4db::core::cc
