#include "migration/squall.h"

#include <algorithm>

namespace hermes::migration {

std::vector<TxnRequest> BuildChunkTransactions(
    const std::vector<routing::ClumpMove>& moves, uint64_t chunk_records) {
  const uint64_t chunk = std::max<uint64_t>(chunk_records, 1);
  std::vector<TxnRequest> txns;
  for (const routing::ClumpMove& mv : moves) {
    for (Key lo = mv.lo; lo <= mv.hi;) {
      const Key hi = std::min(mv.hi, lo + chunk - 1);
      TxnRequest txn;
      txn.kind = TxnKind::kChunkMigration;
      txn.mutable_extras().migration_target = mv.target;
      txn.write_set.reserve(hi - lo + 1);
      for (Key k = lo; k <= hi; ++k) txn.write_set.push_back(k);
      txns.push_back(std::move(txn));
      if (hi == mv.hi) break;
      lo = hi + 1;
    }
  }
  return txns;
}

}  // namespace hermes::migration
