#include "storage/serialization.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

namespace hermes::storage {
namespace {

constexpr uint64_t kLogMagic = 0x48524d53'4c4f4731ULL;   // "HRMSLOG1"
constexpr uint64_t kCkptMagic = 0x48524d53'434b5031ULL;  // "HRMSCKP1"

/// Buffered little-endian writer with a running XOR-fold checksum.
class Writer {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
    sum_ = (sum_ << 1 | sum_ >> 63) ^ v;
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  Status Flush(const std::string& path) {
    U64(sum_);  // trailing checksum (folds everything before it)
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "wb"),
                                            &std::fclose);
    if (!f) return Status::Internal("cannot open " + path + " for writing");
    if (std::fwrite(buf_.data(), 1, buf_.size(), f.get()) != buf_.size()) {
      return Status::Internal("short write to " + path);
    }
    return Status::Ok();
  }

 private:
  std::vector<char> buf_;
  uint64_t sum_ = 0;
};

/// Whole-file reader validating the trailing checksum up front.
class Reader {
 public:
  static Status Open(const std::string& path, Reader* out) {
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "rb"),
                                            &std::fclose);
    if (!f) return Status::NotFound("cannot open " + path);
    std::fseek(f.get(), 0, SEEK_END);
    const long size = std::ftell(f.get());
    std::fseek(f.get(), 0, SEEK_SET);
    if (size < 16 || size % 8 != 0) {
      return Status::FailedPrecondition(path + ": truncated file");
    }
    out->buf_.resize(static_cast<size_t>(size));
    if (std::fread(out->buf_.data(), 1, out->buf_.size(), f.get()) !=
        out->buf_.size()) {
      return Status::Internal("short read from " + path);
    }
    // Validate the checksum over everything but the final word.
    uint64_t sum = 0;
    const size_t words = out->buf_.size() / 8 - 1;
    for (size_t w = 0; w < words; ++w) {
      sum = (sum << 1 | sum >> 63) ^ out->WordAt(w);
    }
    if (sum != out->WordAt(words)) {
      return Status::FailedPrecondition(path + ": checksum mismatch");
    }
    out->limit_ = words;
    return Status::Ok();
  }

  Status U64(uint64_t* v) {
    if (pos_ >= limit_) return Status::OutOfRange("read past end of file");
    *v = WordAt(pos_++);
    return Status::Ok();
  }
  Status I64(int64_t* v) {
    uint64_t u;
    Status s = U64(&u);
    *v = static_cast<int64_t>(u);
    return s;
  }
  /// Reads a length that must fit in remaining words (defends against
  /// corrupted counts causing huge allocations).
  Status Count(uint64_t* v) {
    Status s = U64(v);
    if (!s.ok()) return s;
    if (*v > limit_ - pos_) {
      return Status::FailedPrecondition("implausible element count");
    }
    return Status::Ok();
  }
  bool AtEnd() const { return pos_ >= limit_; }

 private:
  uint64_t WordAt(size_t w) const {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(buf_[w * 8 + i]);
    }
    return v;
  }
  std::vector<char> buf_;
  size_t pos_ = 0;
  size_t limit_ = 0;
};

#define HERMES_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::hermes::Status _s = (expr);               \
    if (!_s.ok()) return _s;                    \
  } while (0)

void WriteTxn(Writer& w, const TxnRequest& txn) {
  w.U64(txn.id);
  w.U64(static_cast<uint64_t>(txn.kind));
  w.U64(txn.read_set.size());
  for (Key k : txn.read_set) w.U64(k);
  w.U64(txn.write_set.size());
  for (Key k : txn.write_set) w.U64(k);
  w.U64((txn.user_abort ? 1u : 0u) | (txn.requires_reconnaissance ? 2u : 0u));
  w.I64(txn.client);
  w.I64(txn.tag);
  w.I64(txn.home_sequencer);
  w.I64(txn.migration_target());
  w.U64(txn.submit_time);
  w.U64(txn.attempt());
  w.U64(txn.retry_of());
  w.U64(txn.range_moves().size());
  for (const RangeMove& mv : txn.range_moves()) {
    w.U64(mv.lo);
    w.U64(mv.hi);
    w.I64(mv.target);
  }
}

Status ReadTxn(Reader& r, TxnRequest* txn) {
  uint64_t u;
  int64_t i;
  HERMES_RETURN_IF_ERROR(r.U64(&txn->id));
  HERMES_RETURN_IF_ERROR(r.U64(&u));
  if (u > static_cast<uint64_t>(TxnKind::kRemoveNode)) {
    return Status::FailedPrecondition("invalid txn kind");
  }
  txn->kind = static_cast<TxnKind>(u);
  HERMES_RETURN_IF_ERROR(r.Count(&u));
  txn->read_set.resize(u);
  for (Key& k : txn->read_set) HERMES_RETURN_IF_ERROR(r.U64(&k));
  HERMES_RETURN_IF_ERROR(r.Count(&u));
  txn->write_set.resize(u);
  for (Key& k : txn->write_set) HERMES_RETURN_IF_ERROR(r.U64(&k));
  HERMES_RETURN_IF_ERROR(r.U64(&u));
  txn->user_abort = (u & 1u) != 0;
  txn->requires_reconnaissance = (u & 2u) != 0;
  HERMES_RETURN_IF_ERROR(r.I64(&i));
  txn->client = static_cast<int32_t>(i);
  HERMES_RETURN_IF_ERROR(r.I64(&i));
  txn->tag = static_cast<int32_t>(i);
  HERMES_RETURN_IF_ERROR(r.I64(&i));
  txn->home_sequencer = static_cast<NodeId>(i);
  TxnRequest::Extras extras;
  HERMES_RETURN_IF_ERROR(r.I64(&i));
  extras.migration_target = static_cast<NodeId>(i);
  HERMES_RETURN_IF_ERROR(r.U64(&txn->submit_time));
  HERMES_RETURN_IF_ERROR(r.U64(&u));
  extras.attempt = static_cast<uint32_t>(u);
  HERMES_RETURN_IF_ERROR(r.U64(&extras.retry_of));
  HERMES_RETURN_IF_ERROR(r.Count(&u));
  extras.range_moves.resize(u);
  for (RangeMove& mv : extras.range_moves) {
    HERMES_RETURN_IF_ERROR(r.U64(&mv.lo));
    HERMES_RETURN_IF_ERROR(r.U64(&mv.hi));
    HERMES_RETURN_IF_ERROR(r.I64(&i));
    mv.target = static_cast<NodeId>(i);
  }
  // A request read back boxes its cold fields only if one is set, so a
  // replayed log of ordinary requests holds no boxes.
  if (extras != kNoTxnExtras) txn->mutable_extras() = std::move(extras);
  return Status::Ok();
}

/// Checkpoint stores and overlays are written in strictly ascending key
/// order; a reader that finds otherwise has a corrupt file.
template <typename V>
bool KeysAscend(const std::vector<std::pair<Key, V>>& entries) {
  return std::adjacent_find(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.first >= b.first;
                            }) == entries.end();
}

}  // namespace

Status WriteCommandLog(const CommandLog& log, const std::string& path) {
  Writer w;
  w.U64(kLogMagic);
  w.U64(log.batches().size());
  for (const Batch& batch : log.batches()) {
    w.U64(batch.id);
    w.U64(batch.sequenced_at);
    w.U64(batch.txns.size());
    for (const TxnRequest& txn : batch.txns) WriteTxn(w, txn);
  }
  return w.Flush(path);
}

Status ReadCommandLog(const std::string& path, CommandLog* log) {
  if (log->size() != 0) {
    return Status::InvalidArgument("target command log is not empty");
  }
  Reader r;
  HERMES_RETURN_IF_ERROR(Reader::Open(path, &r));
  uint64_t magic;
  HERMES_RETURN_IF_ERROR(r.U64(&magic));
  if (magic != kLogMagic) {
    return Status::FailedPrecondition(path + ": not a command log");
  }
  uint64_t batches;
  HERMES_RETURN_IF_ERROR(r.Count(&batches));
  for (uint64_t b = 0; b < batches; ++b) {
    Batch batch;
    HERMES_RETURN_IF_ERROR(r.U64(&batch.id));
    HERMES_RETURN_IF_ERROR(r.U64(&batch.sequenced_at));
    uint64_t txns;
    HERMES_RETURN_IF_ERROR(r.Count(&txns));
    batch.txns.resize(txns);
    for (TxnRequest& txn : batch.txns) {
      HERMES_RETURN_IF_ERROR(ReadTxn(r, &txn));
    }
    log->Append(std::move(batch));
  }
  return Status::Ok();
}

Status WriteCheckpoint(const Checkpoint& checkpoint,
                       const std::string& path) {
  Writer w;
  w.U64(kCkptMagic);
  w.U64(checkpoint.next_batch);
  w.U64(checkpoint.next_txn_id);
  // Checkpoint files must be byte-identical across replicas (and across
  // HERMES_HASH_SALT values); stores and the overlay are already in
  // ascending key order, so they are written as they are.
  w.U64(checkpoint.stores.size());
  for (const auto& store : checkpoint.stores) {
    w.U64(store.size());
    for (const auto& [key, record] : store) {
      w.U64(key);
      w.U64(record.value);
      w.U64(record.last_writer);
      w.U64(record.version);
    }
  }
  w.U64(checkpoint.ownership_overlay.size());
  for (const auto& [key, node] : checkpoint.ownership_overlay) {
    w.U64(key);
    w.I64(node);
  }
  w.U64(checkpoint.intervals.size());
  for (const auto& [lo, hi, node] : checkpoint.intervals) {
    w.U64(lo);
    w.U64(hi);
    w.I64(node);
  }
  w.U64(checkpoint.fusion_order.size());
  for (Key k : checkpoint.fusion_order) w.U64(k);
  w.U64(checkpoint.active_nodes.size());
  for (NodeId n : checkpoint.active_nodes) w.I64(n);
  return w.Flush(path);
}

Status ReadCheckpoint(const std::string& path, Checkpoint* checkpoint) {
  Reader r;
  HERMES_RETURN_IF_ERROR(Reader::Open(path, &r));
  uint64_t magic;
  HERMES_RETURN_IF_ERROR(r.U64(&magic));
  if (magic != kCkptMagic) {
    return Status::FailedPrecondition(path + ": not a checkpoint");
  }
  HERMES_RETURN_IF_ERROR(r.U64(&checkpoint->next_batch));
  HERMES_RETURN_IF_ERROR(r.U64(&checkpoint->next_txn_id));
  uint64_t stores;
  HERMES_RETURN_IF_ERROR(r.Count(&stores));
  checkpoint->stores.resize(stores);
  for (auto& store : checkpoint->stores) {
    uint64_t records;
    HERMES_RETURN_IF_ERROR(r.Count(&records));
    store.resize(records);
    for (auto& [key, record] : store) {
      uint64_t version;
      HERMES_RETURN_IF_ERROR(r.U64(&key));
      HERMES_RETURN_IF_ERROR(r.U64(&record.value));
      HERMES_RETURN_IF_ERROR(r.U64(&record.last_writer));
      HERMES_RETURN_IF_ERROR(r.U64(&version));
      record.version = static_cast<uint32_t>(version);
    }
    if (!KeysAscend(store)) {
      return Status::FailedPrecondition(path + ": store keys out of order");
    }
  }
  uint64_t count;
  int64_t node;
  HERMES_RETURN_IF_ERROR(r.Count(&count));
  checkpoint->ownership_overlay.resize(count);
  for (auto& [key, owner] : checkpoint->ownership_overlay) {
    HERMES_RETURN_IF_ERROR(r.U64(&key));
    HERMES_RETURN_IF_ERROR(r.I64(&node));
    if (node < 0 || node > std::numeric_limits<NodeId>::max()) {
      return Status::FailedPrecondition(path + ": invalid overlay owner");
    }
    owner = static_cast<NodeId>(node);
  }
  if (!KeysAscend(checkpoint->ownership_overlay)) {
    return Status::FailedPrecondition(path + ": overlay keys out of order");
  }
  HERMES_RETURN_IF_ERROR(r.Count(&count));
  checkpoint->intervals.resize(count);
  for (auto& [lo, hi, target] : checkpoint->intervals) {
    HERMES_RETURN_IF_ERROR(r.U64(&lo));
    HERMES_RETURN_IF_ERROR(r.U64(&hi));
    HERMES_RETURN_IF_ERROR(r.I64(&node));
    target = static_cast<NodeId>(node);
  }
  HERMES_RETURN_IF_ERROR(r.Count(&count));
  checkpoint->fusion_order.resize(count);
  for (Key& k : checkpoint->fusion_order) HERMES_RETURN_IF_ERROR(r.U64(&k));
  HERMES_RETURN_IF_ERROR(r.Count(&count));
  checkpoint->active_nodes.resize(count);
  for (NodeId& n : checkpoint->active_nodes) {
    HERMES_RETURN_IF_ERROR(r.I64(&node));
    n = static_cast<NodeId>(node);
  }
  return Status::Ok();
}

}  // namespace hermes::storage
