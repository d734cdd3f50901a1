#include "workload/tpcc.h"

#include <cassert>

namespace p4db::wl {

void Tpcc::Setup(db::Catalog* catalog) {
  num_nodes_ = catalog->num_nodes();
  using Kind = db::PartitionSpec::Kind;
  const auto range = [](uint64_t block) {
    db::PartitionSpec p;
    p.kind = Kind::kRange;
    p.block = block;
    return p;
  };
  db::PartitionSpec rr;
  rr.kind = Kind::kRoundRobin;
  db::PartitionSpec repl;
  repl.kind = Kind::kReplicated;

  // Default rows: see column constants in the header.
  warehouse_ = catalog->CreateTable("warehouse", 2, rr, {0, 8});
  // {ytd, next_o_id, tax, last_delivered_o_id}
  district_ = catalog->CreateTable("district", 4, range(10), {0, 1, 10, 1});
  customer_ =
      catalog->CreateTable("customer", 3, range(1000000ULL), {0, 0, 0});
  stock_ = catalog->CreateTable("stock", 2, range(1000000ULL),
                                {1000000000, 0});
  item_ = catalog->CreateTable("item", 1, repl, {500});
  // {customer, total_amount, carrier}
  order_ = catalog->CreateTable("order", 3, range(100000000ULL));
  new_order_ = catalog->CreateTable("new_order", 1, range(100000000ULL));
  order_line_ = catalog->CreateTable("order_line", 1, range(1600000000ULL));
  history_ = catalog->CreateTable("history", 1, range(1000000ULL));

  // Materialize warehouses and districts (everything else is lazy).
  for (uint32_t w = 0; w < config_.num_warehouses; ++w) {
    catalog->table(warehouse_).GetOrCreate(WarehouseKey(w));
    for (uint32_t d = 0; d < config_.districts_per_warehouse; ++d) {
      catalog->table(district_).GetOrCreate(DistrictKey(w, d));
    }
  }
}

uint32_t Tpcc::LocalWarehouse(Rng& rng, NodeId home) const {
  if (config_.num_warehouses <= num_nodes_) {
    return home % config_.num_warehouses;
  }
  const uint32_t per_node = config_.num_warehouses / num_nodes_;
  return home + static_cast<uint32_t>(rng.NextRange(per_node)) * num_nodes_;
}

uint32_t Tpcc::PickItem(Rng& rng) const {
  if (rng.NextBool(config_.popular_item_fraction)) {
    return static_cast<uint32_t>(rng.NextRange(config_.popular_items));
  }
  return static_cast<uint32_t>(rng.NextRange(config_.num_items));
}

db::Transaction Tpcc::MakeNewOrder(Rng& rng, uint32_t w) {
  db::Transaction txn;
  txn.type_tag = kNewOrder;
  const uint32_t d =
      static_cast<uint32_t>(rng.NextRange(config_.districts_per_warehouse));
  const uint32_t c =
      static_cast<uint32_t>(rng.NextRange(config_.customers_per_district));
  const uint32_t ol_cnt = 5 + static_cast<uint32_t>(rng.NextRange(11));
  // Three header ops, two per order line, three inserts and one insert per
  // line: sized once instead of growing 8 -> 16 -> 32 -> 64.
  txn.ops.reserve(6 + 3 * ol_cnt);

  // Header reads + the contended next-order-id increment.
  txn.ops.push_back(
      {db::OpType::kGet, {warehouse_, WarehouseKey(w)}, kWarehouseTax, 0});
  txn.ops.push_back(
      {db::OpType::kGet, {district_, DistrictKey(w, d)}, kDistrictTax, 0});
  const int16_t oid_op = static_cast<int16_t>(txn.ops.size());
  txn.ops.push_back({db::OpType::kAdd,
                     {district_, DistrictKey(w, d)},
                     kDistrictNextOid,
                     1});

  // Order lines: item lookup + stock decrement per line. The generator
  // tracks the order total (host-side knowledge: price x quantity).
  Value64 total = 0;
  for (uint32_t l = 0; l < ol_cnt; ++l) {
    const uint32_t item = PickItem(rng);
    uint32_t supply_w = w;
    if (config_.num_warehouses > 1 && rng.NextBool(config_.remote_fraction)) {
      supply_w = static_cast<uint32_t>(
          rng.NextRange(config_.num_warehouses - 1));
      if (supply_w >= w) ++supply_w;
    }
    const Value64 qty = 1 + static_cast<Value64>(rng.NextRange(10));
    total += 500 * qty;  // default item price (see Setup)
    txn.ops.push_back({db::OpType::kGet, {item_, item}, kItemPrice, 0});
    txn.ops.push_back({db::OpType::kCondAddGeZero,
                       {stock_, StockKey(supply_w, item)},
                       kStockQuantity,
                       -qty});
  }

  // Inserts, keyed by the order id the switch (or host) returned.
  db::Op order_ins{db::OpType::kInsert,
                   {order_, OrderKeyBase(w, d)},
                   kOrderCustomer,
                   static_cast<Value64>(c)};
  order_ins.operand_src = oid_op;
  txn.ops.push_back(order_ins);

  db::Op total_ins{db::OpType::kInsert,
                   {order_, OrderKeyBase(w, d)},
                   kOrderTotal,
                   total};
  total_ins.operand_src = oid_op;
  txn.ops.push_back(total_ins);

  db::Op no_ins{db::OpType::kInsert,
                {new_order_, OrderKeyBase(w, d)},
                0,
                static_cast<Value64>(ol_cnt)};
  no_ins.operand_src = oid_op;
  txn.ops.push_back(no_ins);

  for (uint32_t l = 0; l < ol_cnt; ++l) {
    db::Op ol_ins{db::OpType::kInsert,
                  {order_line_, OrderKeyBase(w, d) * 16 + l * 10000000ULL},
                  0,
                  static_cast<Value64>(l)};
    ol_ins.operand_src = oid_op;
    txn.ops.push_back(ol_ins);
  }
  return txn;
}

db::Transaction Tpcc::MakePayment(Rng& rng, uint32_t w) {
  db::Transaction txn;
  txn.type_tag = kPayment;
  const uint32_t d =
      static_cast<uint32_t>(rng.NextRange(config_.districts_per_warehouse));
  const Value64 amount = 100 + static_cast<Value64>(rng.NextRange(500000));

  // Customer: local district, or a remote warehouse's customer.
  uint32_t cw = w, cd = d;
  if (config_.num_warehouses > 1 && rng.NextBool(config_.remote_fraction)) {
    cw = static_cast<uint32_t>(rng.NextRange(config_.num_warehouses - 1));
    if (cw >= w) ++cw;
    cd = static_cast<uint32_t>(
        rng.NextRange(config_.districts_per_warehouse));
  }
  const uint32_t c =
      static_cast<uint32_t>(rng.NextRange(config_.customers_per_district));
  const Key cust = CustomerKey(cw, cd, c);

  txn.ops.push_back(
      {db::OpType::kAdd, {warehouse_, WarehouseKey(w)}, kWarehouseYtd,
       amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {district_, DistrictKey(w, d)}, kDistrictYtd,
       amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {customer_, cust}, kCustomerBalance, -amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {customer_, cust}, kCustomerYtdPayment, amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {customer_, cust}, kCustomerPaymentCnt, 1});

  db::Op hist{db::OpType::kInsert,
              {history_, static_cast<Key>(w) * 1000000ULL +
                             (history_seq_++ % 1000000ULL)},
              0,
              amount};
  txn.ops.push_back(hist);
  return txn;
}

db::Transaction Tpcc::MakeDelivery(Rng& rng, uint32_t w) {
  // One carrier sweeps every district: pop the oldest undelivered order
  // (the per-district counters serialize concurrent deliveries), read its
  // total, stamp the carrier, credit a customer of the district.
  db::Transaction txn;
  txn.type_tag = kDelivery;
  const Value64 carrier = 1 + static_cast<Value64>(rng.NextRange(10));
  for (uint32_t d = 0; d < config_.districts_per_warehouse; ++d) {
    const int16_t pop_op = static_cast<int16_t>(txn.ops.size());
    txn.ops.push_back({db::OpType::kAdd,
                       {district_, DistrictKey(w, d)},
                       kDistrictLastDelivered,
                       1});
    db::Op read_total{db::OpType::kGet,
                      {order_, OrderKeyBase(w, d)},
                      kOrderTotal,
                      0};
    read_total.operand_src = pop_op;
    read_total.key_from_src = true;
    const int16_t total_op = static_cast<int16_t>(txn.ops.size());
    txn.ops.push_back(read_total);

    db::Op stamp{db::OpType::kPut,
                 {order_, OrderKeyBase(w, d)},
                 kOrderCarrier,
                 carrier};
    stamp.operand_src = pop_op;
    stamp.key_from_src = true;
    txn.ops.push_back(stamp);

    const uint32_t c = static_cast<uint32_t>(
        rng.NextRange(config_.customers_per_district));
    db::Op credit{db::OpType::kAdd,
                  {customer_, CustomerKey(w, d, c)},
                  kCustomerBalance,
                  0};
    credit.operand_src = total_op;
    txn.ops.push_back(credit);
  }
  return txn;
}

db::Transaction Tpcc::MakeOrderStatus(Rng& rng, uint32_t w) {
  // Read-only: a customer's balance plus their district's most recent
  // order (order keys equal the counter value at insert time, so
  // base + current counter addresses the latest order).
  db::Transaction txn;
  txn.type_tag = kOrderStatus;
  const uint32_t d =
      static_cast<uint32_t>(rng.NextRange(config_.districts_per_warehouse));
  const uint32_t c =
      static_cast<uint32_t>(rng.NextRange(config_.customers_per_district));
  txn.ops.push_back({db::OpType::kGet,
                     {customer_, CustomerKey(w, d, c)},
                     kCustomerBalance,
                     0});
  const int16_t oid_op = static_cast<int16_t>(txn.ops.size());
  txn.ops.push_back({db::OpType::kGet,
                     {district_, DistrictKey(w, d)},
                     kDistrictNextOid,
                     0});
  db::Op last_order{db::OpType::kGet,
                    {order_, OrderKeyBase(w, d)},
                    kOrderTotal,
                    0};
  last_order.operand_src = oid_op;
  last_order.key_from_src = true;
  txn.ops.push_back(last_order);
  return txn;
}

db::Transaction Tpcc::MakeStockLevel(Rng& rng, uint32_t w) {
  // Read-only: the most recent order's lines vs. low stock (approximation
  // of the spec's last-20-orders join; see tpcc.h).
  db::Transaction txn;
  txn.type_tag = kStockLevel;
  const uint32_t d =
      static_cast<uint32_t>(rng.NextRange(config_.districts_per_warehouse));
  const int16_t oid_op = static_cast<int16_t>(txn.ops.size());
  txn.ops.push_back({db::OpType::kGet,
                     {district_, DistrictKey(w, d)},
                     kDistrictNextOid,
                     0});
  for (uint64_t line = 0; line < 5; ++line) {
    db::Op ol{db::OpType::kGet,
              {order_line_, OrderKeyBase(w, d) * 16 + line * 10000000ULL},
              0,
              0};
    ol.operand_src = oid_op;
    ol.key_from_src = true;
    txn.ops.push_back(ol);
  }
  for (int k = 0; k < 5; ++k) {
    const uint32_t item = PickItem(rng);
    txn.ops.push_back({db::OpType::kGet,
                       {stock_, StockKey(w, item)},
                       kStockQuantity,
                       0});
  }
  return txn;
}

db::Transaction Tpcc::Next(Rng& rng, NodeId home) {
  const uint32_t w = LocalWarehouse(rng, home);
  if (!config_.full_mix) {
    if (rng.NextBool(config_.new_order_fraction)) {
      return MakeNewOrder(rng, w);
    }
    return MakePayment(rng, w);
  }
  // Spec-style full mix: 45/43/4/4/4.
  const double r = rng.NextDouble();
  if (r < 0.45) return MakeNewOrder(rng, w);
  if (r < 0.88) return MakePayment(rng, w);
  if (r < 0.92) return MakeDelivery(rng, w);
  if (r < 0.96) return MakeOrderStatus(rng, w);
  return MakeStockLevel(rng, w);
}

}  // namespace p4db::wl
