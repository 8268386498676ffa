#ifndef HERMES_MIGRATION_SQUALL_H_
#define HERMES_MIGRATION_SQUALL_H_

#include <vector>

#include "common/types.h"
#include "routing/clay_planner.h"
#include "txn/transaction.h"

namespace hermes::migration {

/// Squall-style migration execution (Elmore et al., SIGMOD'15; paper
/// §3.3, §5.4): a coarse migration plan is broken into fixed-size chunks,
/// each moved by a dedicated chunk-migration transaction that is totally
/// ordered with normal traffic. The chunk transaction exclusive-locks the
/// chunk at its source, which is precisely the interference with normal
/// transactions the paper measures in Fig. 14; under Hermes the router
/// skips fusion-table (hot) keys, so chunks only ever carry cold records.
///
/// Splits `moves` into chunk transactions of at most `chunk_records` keys
/// (at least one), in plan order.
std::vector<TxnRequest> BuildChunkTransactions(
    const std::vector<routing::ClumpMove>& moves, uint64_t chunk_records);

}  // namespace hermes::migration

#endif  // HERMES_MIGRATION_SQUALL_H_
