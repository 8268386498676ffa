#include "workload/tpcc.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hermes::workload {

Status TpccConfig::Validate() const {
  const std::pair<const char*, int> counts[] = {
      {"num_warehouses", num_warehouses},
      {"num_nodes", num_nodes},
      {"items", items},
      {"customers_per_district", customers_per_district},
      {"order_slots_per_warehouse", order_slots_per_warehouse}};
  for (const auto& [field, value] : counts) {
    if (value < 1) return InvalidField(field, "be at least 1", value);
  }
  const std::pair<const char*, double> ratios[] = {
      {"remote_stock_ratio", remote_stock_ratio},
      {"remote_customer_ratio", remote_customer_ratio},
      {"hotspot_concentration", hotspot_concentration},
      {"new_order_ratio", new_order_ratio}};
  for (const auto& [field, value] : ratios) {
    if (!(value >= 0 && value <= 1)) {
      return InvalidField(field, "lie in [0, 1]", value);
    }
  }
  return Status::Ok();
}

TpccWorkload::TpccWorkload(const TpccConfig& config)
    : config_(config), rng_(config.seed) {
  assert(config_.num_warehouses > 0 && config_.num_nodes > 0);
  block_size_ = 1 + 10 +
                static_cast<uint64_t>(10) * config_.customers_per_district +
                config_.items + config_.order_slots_per_warehouse;
  num_records_ = block_size_ * config_.num_warehouses;
  next_slot_.assign(config_.num_warehouses, 0);
}

Key TpccWorkload::WarehouseKey(int w) const { return w * block_size_; }

Key TpccWorkload::DistrictKey(int w, int d) const {
  assert(d >= 0 && d < 10);
  return w * block_size_ + 1 + d;
}

Key TpccWorkload::CustomerKey(int w, int d, int c) const {
  assert(c >= 0 && c < config_.customers_per_district);
  return w * block_size_ + 11 +
         static_cast<uint64_t>(d) * config_.customers_per_district + c;
}

Key TpccWorkload::StockKey(int w, int item) const {
  assert(item >= 0 && item < config_.items);
  return w * block_size_ + 11 +
         static_cast<uint64_t>(10) * config_.customers_per_district + item;
}

Key TpccWorkload::OrderSlotKey(int w, uint64_t slot) const {
  return w * block_size_ + 11 +
         static_cast<uint64_t>(10) * config_.customers_per_district +
         config_.items + (slot % config_.order_slots_per_warehouse);
}

std::unique_ptr<partition::PartitionMap>
TpccWorkload::WarehousePartitioning() const {
  // Node i owns warehouses [i*wpn, (i+1)*wpn).
  const int wpn =
      (config_.num_warehouses + config_.num_nodes - 1) / config_.num_nodes;
  std::vector<Key> bounds;
  bounds.push_back(0);
  for (int n = 1; n < config_.num_nodes; ++n) {
    const int w = std::min(n * wpn, config_.num_warehouses);
    bounds.push_back(static_cast<Key>(w) * block_size_);
  }
  bounds.push_back(num_records_);
  return std::make_unique<partition::CustomRangePartitionMap>(
      std::move(bounds));
}

int TpccWorkload::PickHomeWarehouse() {
  const int wpn =
      (config_.num_warehouses + config_.num_nodes - 1) / config_.num_nodes;
  if (config_.hotspot_concentration > 0 &&
      rng_.NextDouble() < config_.hotspot_concentration) {
    // Concentrate on node 0's warehouses.
    return static_cast<int>(
        rng_.NextBounded(std::min(wpn, config_.num_warehouses)));
  }
  return static_cast<int>(rng_.NextBounded(config_.num_warehouses));
}

TxnRequest TpccWorkload::Next(SimTime) {
  const int w = PickHomeWarehouse();
  if (rng_.NextDouble() < config_.new_order_ratio) return NewOrder(w);
  return Payment(w);
}

TxnRequest TpccWorkload::NewOrder(int w) {
  TxnRequest txn;
  txn.tag = kTpccNewOrderTag;
  const int d = static_cast<int>(rng_.NextBounded(10));

  const Key customer = CustomerKey(
      w, d, static_cast<int>(rng_.NextBounded(config_.customers_per_district)));

  // 5-15 order lines; each reads+writes one stock row, 1% remote. Both sets
  // are sized exactly once `lines` is known, so a request kept in the
  // command log carries no growth slack.
  const int lines = 5 + static_cast<int>(rng_.NextBounded(11));
  txn.read_set.reserve(3 + lines);
  txn.write_set.reserve(2 + 2 * lines);
  txn.read_set.push_back(WarehouseKey(w));
  txn.read_set.push_back(DistrictKey(w, d));  // D_NEXT_O_ID: read + write
  txn.write_set.push_back(DistrictKey(w, d));
  txn.read_set.push_back(customer);
  for (int l = 0; l < lines; ++l) {
    int supply_w = w;
    if (config_.num_warehouses > 1 &&
        rng_.NextDouble() < config_.remote_stock_ratio) {
      supply_w = static_cast<int>(rng_.NextBounded(config_.num_warehouses - 1));
      if (supply_w >= w) ++supply_w;
    }
    const int item = static_cast<int>(rng_.NextBounded(config_.items));
    const Key stock = StockKey(supply_w, item);
    txn.read_set.push_back(stock);
    txn.write_set.push_back(stock);
  }

  // Order + order-line inserts: blind writes into pre-allocated slots.
  const uint64_t base_slot = next_slot_[w];
  next_slot_[w] += 1 + lines;
  for (int i = 0; i <= lines; ++i) {
    txn.write_set.push_back(OrderSlotKey(w, base_slot + i));
  }

  // ~1% of New-Orders abort on an unused item number (TPC-C spec 2.4.1.4).
  txn.user_abort = rng_.NextDouble() < 0.01;

  std::sort(txn.read_set.begin(), txn.read_set.end());
  txn.read_set.erase(std::unique(txn.read_set.begin(), txn.read_set.end()),
                     txn.read_set.end());
  std::sort(txn.write_set.begin(), txn.write_set.end());
  txn.write_set.erase(std::unique(txn.write_set.begin(), txn.write_set.end()),
                      txn.write_set.end());
  return txn;
}

TxnRequest TpccWorkload::Payment(int w) {
  TxnRequest txn;
  txn.tag = kTpccPaymentTag;
  const int d = static_cast<int>(rng_.NextBounded(10));

  int cust_w = w;
  if (config_.num_warehouses > 1 &&
      rng_.NextDouble() < config_.remote_customer_ratio) {
    cust_w = static_cast<int>(rng_.NextBounded(config_.num_warehouses - 1));
    if (cust_w >= w) ++cust_w;
  }
  const int c =
      static_cast<int>(rng_.NextBounded(config_.customers_per_district));

  // W_YTD, D_YTD, C_BALANCE are all read-modify-write.
  txn.read_set.reserve(3);
  txn.write_set.reserve(3);
  for (Key k : {WarehouseKey(w), DistrictKey(w, d), CustomerKey(cust_w, d, c)}) {
    txn.read_set.push_back(k);
    txn.write_set.push_back(k);
  }
  std::sort(txn.read_set.begin(), txn.read_set.end());
  std::sort(txn.write_set.begin(), txn.write_set.end());
  return txn;
}

}  // namespace hermes::workload
