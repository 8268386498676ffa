#include "storage/record_store.h"

#include <cassert>

#include "common/rng.h"

namespace hermes::storage {

RecordStore::RecordStore()
    : owned_(std::make_unique<RecordTable>()), table_(owned_.get()), node_(0) {}

void RecordStore::Insert(Key key, const Record& record) {
  if (key >= table_->num_keys()) table_->Reserve(key + 1);
  NodeId& loc = table_->location_[key];
  assert((loc == kInvalidNode || loc == node_) &&
         "record singularity: key is located at another node or in flight");
  if (loc != node_) ++size_;
  loc = node_;
  table_->records_[key] = record;
}

std::optional<Record> RecordStore::Extract(Key key) {
  if (!Contains(key)) return std::nullopt;
  table_->location_[key] = kInvalidNode;
  --size_;
  return table_->records_[key];
}

void RecordStore::Ship(Key key, NodeId to) {
  assert(Contains(key) && "shipping a record that is not present");
  assert(to >= 0 && to != node_ && "a shipment must leave this node");
  table_->location_[key] = RecordTable::InFlightCode(to);
  --size_;
}

void RecordStore::Land(Key key) {
  assert(table_->in_flight_to(key) != kInvalidNode &&
         "landing a record that is not in flight");
  table_->location_[key] = node_;
  ++size_;
}

bool RecordStore::ApplyWrite(Key key, TxnId writer) {
  if (!Contains(key)) return false;
  Record& r = table_->records_[key];
  r.value = Mix64(r.value ^ Mix64(writer) ^ Mix64(key));
  r.last_writer = writer;
  ++r.version;
  return true;
}

void RecordStore::Clear() {
  for (NodeId& loc : table_->location_) {
    if (loc == node_) loc = kInvalidNode;
  }
  size_ = 0;
}

uint64_t RecordStore::Checksum() const {
  uint64_t sum = 0;
  for (Key key = 0; key < table_->num_keys(); ++key) {
    if (Contains(key)) sum ^= RecordDigest(key, table_->records_[key]);
  }
  return sum;
}

std::vector<std::pair<Key, Record>> RecordStore::records() const {
  std::vector<std::pair<Key, Record>> out;
  out.reserve(size_);
  for (Key key = 0; key < table_->num_keys(); ++key) {
    if (Contains(key)) out.emplace_back(key, table_->records_[key]);
  }
  return out;
}

uint64_t RecordDigest(Key key, const Record& record) {
  return Mix64(Mix64(key) ^ record.value ^
               (static_cast<uint64_t>(record.version) << 32));
}

}  // namespace hermes::storage
