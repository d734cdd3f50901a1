#include "workload/smallbank.h"

#include <cassert>

namespace p4db::wl {

void SmallBank::Setup(db::Catalog* catalog) {
  num_nodes_ = catalog->num_nodes();
  accounts_per_node_ = config_.num_accounts / num_nodes_;
  db::PartitionSpec part;
  part.kind = db::PartitionSpec::Kind::kRange;
  part.block = accounts_per_node_;
  const std::vector<Value64> default_row = {config_.initial_balance};
  savings_ = catalog->CreateTable("savings", 1, part, default_row);
  checking_ = catalog->CreateTable("checking", 1, part, default_row);
}

Key SmallBank::PickAccount(Rng& rng, NodeId node, bool hot) const {
  // A config with no hot accounts degrades every hot pick to a cold one
  // (NextRange(0) is ill-defined).
  if (hot && config_.hot_accounts_per_node > 0) {
    return HotAccount(node,
                      static_cast<uint32_t>(
                          rng.NextRange(config_.hot_accounts_per_node)));
  }
  const uint64_t j = config_.hot_accounts_per_node +
                     rng.NextRange(accounts_per_node_ -
                                   config_.hot_accounts_per_node);
  return static_cast<Key>(node) * accounts_per_node_ + j;
}

db::Transaction SmallBank::Make(TxnType type, Key a, Key b,
                                Value64 amount) const {
  db::Transaction txn;
  txn.type_tag = type;
  const TupleId sav_a{savings_, a};
  const TupleId chk_a{checking_, a};
  const TupleId chk_b{checking_, b};

  switch (type) {
    case kBalance: {
      // Total balance: read both accounts.
      txn.ops.push_back({db::OpType::kGet, sav_a, 0, 0});
      txn.ops.push_back({db::OpType::kGet, chk_a, 0, 0});
      break;
    }
    case kDepositChecking: {
      txn.ops.push_back({db::OpType::kAdd, chk_a, 0, amount});
      break;
    }
    case kTransactSavings: {
      // Withdraw/deposit on savings; the balance may not go negative
      // (constrained write, Section 5.1).
      txn.ops.push_back({db::OpType::kCondAddGeZero, sav_a, 0, amount});
      break;
    }
    case kAmalgamate: {
      // Drain a's savings and checking into b's checking. The credited
      // amount is the sum of the two old balances — a read-dependent write
      // carried in packet metadata on the switch.
      db::Op drain_sav{db::OpType::kSwap, sav_a, 0, 0};
      db::Op drain_chk{db::OpType::kSwap, chk_a, 0, 0};
      db::Op credit{db::OpType::kAdd, chk_b, 0, 0};
      credit.operand_src = 0;
      credit.operand_src2 = 1;
      txn.ops.push_back(drain_sav);
      txn.ops.push_back(drain_chk);
      txn.ops.push_back(credit);
      break;
    }
    case kWriteCheck: {
      // Check the total balance, then debit checking (overdraft allowed as
      // in the original benchmark; we skip the 1$ penalty branch — it is
      // not expressible as a single-register constrained write).
      txn.ops.push_back({db::OpType::kGet, sav_a, 0, 0});
      txn.ops.push_back({db::OpType::kAdd, chk_a, 0, -amount});
      break;
    }
    case kSendPayment: {
      // Transfer checking->checking; debit only if it stays non-negative.
      // NOTE on semantics: the credit is unconditional (the debit's
      // constraint outcome cannot gate another register on a single
      // pipeline pass). Workloads keep balances large enough that the
      // constraint never fires; tests pin this behaviour down.
      txn.ops.push_back({db::OpType::kCondAddGeZero, chk_a, 0, -amount});
      txn.ops.push_back({db::OpType::kAdd, chk_b, 0, amount});
      break;
    }
  }
  return txn;
}

db::Transaction SmallBank::Next(Rng& rng, NodeId home) {
  const bool hot = rng.NextBool(config_.hot_txn_fraction);
  const bool distributed = rng.NextBool(config_.distributed_fraction);

  const NodeId node_a =
      distributed ? static_cast<NodeId>(rng.NextRange(num_nodes_)) : home;
  NodeId node_b =
      distributed ? static_cast<NodeId>(rng.NextRange(num_nodes_)) : home;

  // Type mix: Balance 15% (the paper's read ratio), the five write types
  // 17% each.
  const double r = rng.NextDouble();
  TxnType type;
  if (r < 0.15) {
    type = kBalance;
  } else {
    type = static_cast<TxnType>(1 + static_cast<int>((r - 0.15) / 0.17));
    if (type > kSendPayment) type = kSendPayment;
  }

  const Key a = PickAccount(rng, node_a, hot);
  Key b = PickAccount(rng, node_b, hot);
  for (int guard = 0; b == a && guard < 8; ++guard) {
    b = PickAccount(rng, node_b, hot);
  }
  if (b == a) {
    // Tiny hot sets: fall back to another node's hot set to keep the two
    // accounts distinct.
    node_b = static_cast<NodeId>((node_b + 1) % num_nodes_);
    b = PickAccount(rng, node_b, hot);
  }
  const Value64 amount = 1 + static_cast<Value64>(rng.NextRange(100));
  return Make(type, a, b, amount);
}

}  // namespace p4db::wl
