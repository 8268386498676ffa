#ifndef HERMES_WORKLOAD_TPCC_H_
#define HERMES_WORKLOAD_TPCC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "partition/partition_map.h"
#include "txn/transaction.h"

namespace hermes::workload {

/// TPC-C-derived workload (§5.3.1): New-Order and Payment only (they form
/// 88% of the standard mix and its main characteristics). The relational
/// schema is flattened into the key space warehouse-block by warehouse-
/// block; the read-only ITEM table is treated as replicated on every node
/// (standard practice for partitioned TPC-C) and therefore never appears
/// in read-sets.
///
/// Key layout inside warehouse w's block (block size = BlockSize()):
///   +0                          warehouse row
///   +1 .. +10                   district rows
///   +11 .. +11+10*C-1           customer rows (C per district)
///   +.. stock                   stock rows (one per item)
///   +.. order slots             pre-allocated order/order-line slots,
///                               written blindly by New-Order round-robin
struct TpccConfig {
  int num_warehouses = 40;
  int num_nodes = 20;
  int items = 1000;                ///< stock rows per warehouse
  int customers_per_district = 300;
  int order_slots_per_warehouse = 12'000;
  /// Fraction of New-Order lines supplied by a remote warehouse (TPC-C
  /// spec: 1%) and of Payment customers living at a remote warehouse
  /// (spec: 15%).
  double remote_stock_ratio = 0.01;
  double remote_customer_ratio = 0.15;
  /// Fraction of requests aimed at the warehouses of node 0 (the paper's
  /// hot-spot concentration: 0 = Normal, then 50% / 80% / 90%).
  double hotspot_concentration = 0.0;
  /// New-Order share of the mix (the rest are Payments). The standard
  /// 10:10 card deck is ~52% New-Order among the two.
  double new_order_ratio = 0.52;
  uint64_t seed = 3;

  /// The values the generator can run with; the error names the field.
  Status Validate() const;

  bool operator==(const TpccConfig&) const = default;
};

class TpccWorkload {
 public:
  explicit TpccWorkload(const TpccConfig& config);

  TpccWorkload(const TpccWorkload&) = delete;
  TpccWorkload& operator=(const TpccWorkload&) = delete;

  TxnRequest Next(SimTime now);

  uint64_t num_records() const { return num_records_; }
  uint64_t BlockSize() const { return block_size_; }

  /// Warehouse-aligned range partitioning (the paper's "already well
  /// partitioned" baseline placement).
  std::unique_ptr<partition::PartitionMap> WarehousePartitioning() const;

  // Key helpers (exposed for tests).
  Key WarehouseKey(int w) const;
  Key DistrictKey(int w, int d) const;
  Key CustomerKey(int w, int d, int c) const;
  Key StockKey(int w, int item) const;
  Key OrderSlotKey(int w, uint64_t slot) const;

 private:
  int PickHomeWarehouse();
  TxnRequest NewOrder(int w);
  TxnRequest Payment(int w);

  TpccConfig config_;
  Rng rng_;
  uint64_t block_size_;
  uint64_t num_records_;
  /// Next order slot per warehouse (wraps; slots are pre-allocated).
  std::vector<uint64_t> next_slot_;
};

/// Tag values stored in TxnRequest::tag.
inline constexpr int32_t kTpccNewOrderTag = 1;
inline constexpr int32_t kTpccPaymentTag = 2;

}  // namespace hermes::workload

#endif  // HERMES_WORKLOAD_TPCC_H_
