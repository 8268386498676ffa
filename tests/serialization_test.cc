#include "storage/serialization.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes::storage {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Batch SampleBatch(BatchId id, int txns, uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.id = id;
  batch.sequenced_at = 1000 * id;
  for (int i = 0; i < txns; ++i) {
    TxnRequest txn;
    txn.id = id * 100 + i;
    txn.kind = i % 7 == 3 ? TxnKind::kChunkMigration : TxnKind::kRegular;
    for (int k = 0; k < 3; ++k) txn.read_set.push_back(rng.NextBounded(1000));
    txn.write_set = {txn.read_set.front()};
    txn.user_abort = (i % 5) == 0;
    txn.requires_reconnaissance = (i % 4) == 0;
    txn.client = i;
    txn.tag = -i;
    txn.home_sequencer = i % 4;
    txn.submit_time = 17 * i;
    TxnRequest::Extras& extras = txn.mutable_extras();
    extras.migration_target = i % 3;
    if (i % 6 == 0) extras.range_moves.push_back(RangeMove{10, 20, 2});
    if (i % 5 == 2) {
      extras.attempt = 1 + i % 3;
      extras.retry_of = id * 100;
    }
    batch.txns.push_back(std::move(txn));
  }
  return batch;
}

bool TxnEq(const TxnRequest& a, const TxnRequest& b) {
  return a.id == b.id && a.kind == b.kind && a.read_set == b.read_set &&
         a.write_set == b.write_set && a.user_abort == b.user_abort &&
         a.requires_reconnaissance == b.requires_reconnaissance &&
         a.client == b.client && a.tag == b.tag &&
         a.home_sequencer == b.home_sequencer &&
         a.submit_time == b.submit_time &&
         a.migration_target() == b.migration_target() &&
         a.attempt() == b.attempt() && a.retry_of() == b.retry_of() &&
         a.range_moves() == b.range_moves();
}

/// A request with hot and cold fields set.
TxnRequest RequestWithExtras() {
  TxnRequest txn;
  txn.id = 9;
  txn.kind = TxnKind::kRemoveNode;
  txn.read_set = {1, 2, 3};
  txn.write_set = {4};
  txn.client = 5;
  TxnRequest::Extras& extras = txn.mutable_extras();
  extras.migration_target = 2;
  extras.range_moves = {{10, 19, 1}, {20, 29, 0}};
  extras.attempt = 3;
  extras.retry_of = 7;
  return txn;
}

TEST(SerializationTest, RegularRequestHasNoExtras) {
  const TxnRequest txn{};
  EXPECT_FALSE(txn.has_extras());
  EXPECT_EQ(txn.migration_target(), kInvalidNode);
  EXPECT_EQ(txn.retry_of(), kInvalidTxn);
  EXPECT_EQ(txn.attempt(), 0u);
  EXPECT_TRUE(txn.range_moves().empty());
}

TEST(SerializationTest, RequestCopiesOwnTheirExtras) {
  const TxnRequest original = RequestWithExtras();

  // A deep copy: changing it leaves the source alone.
  TxnRequest copy(original);
  ASSERT_TRUE(copy.has_extras());
  EXPECT_TRUE(TxnEq(copy, original));
  copy.mutable_extras().range_moves.push_back(RangeMove{30, 39, 2});
  copy.mutable_extras().attempt = 4;
  copy.read_set.push_back(6);
  EXPECT_EQ(original.range_moves().size(), 2u);
  EXPECT_EQ(original.attempt(), 3u);
  EXPECT_EQ(original.read_set.size(), 3u);

  // Assignment over a request with a box, over one without, and from one
  // without a box, which drops the target's.
  copy = original;
  EXPECT_TRUE(TxnEq(copy, original));
  TxnRequest plain;
  plain = original;
  EXPECT_TRUE(TxnEq(plain, original));
  plain.mutable_extras().migration_target = 0;
  EXPECT_EQ(original.migration_target(), 2);
  const TxnRequest empty{};
  plain = empty;
  EXPECT_FALSE(plain.has_extras());
  EXPECT_TRUE(TxnEq(plain, empty));
  const TxnRequest plain_copy(empty);
  EXPECT_FALSE(plain_copy.has_extras());

  // Self-assignment keeps everything.
  TxnRequest& alias = copy;
  copy = alias;
  EXPECT_TRUE(TxnEq(copy, original));

  // A move takes the box and leaves the source without one.
  TxnRequest moved(std::move(copy));
  EXPECT_TRUE(TxnEq(moved, original));
  EXPECT_FALSE(copy.has_extras());  // NOLINT(bugprone-use-after-move)
  TxnRequest target;
  target = std::move(moved);
  EXPECT_TRUE(TxnEq(target, original));
  EXPECT_FALSE(moved.has_extras());  // NOLINT(bugprone-use-after-move)
}

TEST(SerializationTest, ColdFieldsRoundTripOnlyWhereSet) {
  // A marker, a degraded retry and a chunk migration each come back with
  // their cold fields; a regular request comes back without a box.
  Batch batch;
  batch.id = 3;
  TxnRequest marker;
  marker.id = 1;
  marker.kind = TxnKind::kAddNode;
  marker.mutable_extras().migration_target = 4;
  marker.mutable_extras().range_moves = {{0, 99, 4}, {500, 599, 4}};
  TxnRequest retry;
  retry.id = 2;
  retry.write_set = {8};
  retry.mutable_extras().attempt = 2;
  retry.mutable_extras().retry_of = 1;
  TxnRequest chunk;
  chunk.id = 3;
  chunk.kind = TxnKind::kChunkMigration;
  chunk.write_set = {100, 101, 102};
  chunk.mutable_extras().migration_target = 1;
  TxnRequest regular;
  regular.id = 4;
  regular.read_set = {5, 6};
  regular.write_set = {6};
  // A box holding only defaults writes the same bytes as no box and is
  // not recreated on the way back.
  TxnRequest defaults = regular;
  defaults.id = 5;
  defaults.mutable_extras();
  batch.txns = {marker, retry, chunk, regular, defaults};
  CommandLog log;
  log.Append(std::move(batch));
  const std::string path = TempPath("cold_fields.bin");
  ASSERT_TRUE(WriteCommandLog(log, path).ok());

  CommandLog restored;
  ASSERT_TRUE(ReadCommandLog(path, &restored).ok());
  const std::vector<TxnRequest>& got = restored.batches()[0].txns;
  ASSERT_EQ(got.size(), 5u);
  for (size_t t = 0; t < got.size(); ++t) {
    EXPECT_TRUE(TxnEq(got[t], log.batches()[0].txns[t])) << "txn " << t;
    EXPECT_EQ(got[t].has_extras(), t < 3) << "txn " << t;
  }
  EXPECT_EQ(got[0].range_moves(), marker.range_moves());
  EXPECT_EQ(got[1].attempt(), 2u);
  EXPECT_EQ(got[1].retry_of(), 1u);
  EXPECT_EQ(got[2].migration_target(), 1);
}

TEST(SerializationTest, CommandLogRoundTrips) {
  CommandLog log;
  for (BatchId b = 0; b < 5; ++b) log.Append(SampleBatch(b, 10, b));
  const std::string path = TempPath("log.bin");
  ASSERT_TRUE(WriteCommandLog(log, path).ok());

  CommandLog restored;
  ASSERT_TRUE(ReadCommandLog(path, &restored).ok());
  ASSERT_EQ(restored.size(), log.size());
  for (size_t b = 0; b < log.size(); ++b) {
    const Batch& x = log.batches()[b];
    const Batch& y = restored.batches()[b];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.sequenced_at, y.sequenced_at);
    ASSERT_EQ(x.txns.size(), y.txns.size());
    for (size_t t = 0; t < x.txns.size(); ++t) {
      EXPECT_TRUE(TxnEq(x.txns[t], y.txns[t])) << "batch " << b << " txn " << t;
    }
  }
}

TEST(SerializationTest, EmptyCommandLogRoundTrips) {
  CommandLog log;
  const std::string path = TempPath("empty_log.bin");
  ASSERT_TRUE(WriteCommandLog(log, path).ok());
  CommandLog restored;
  ASSERT_TRUE(ReadCommandLog(path, &restored).ok());
  EXPECT_EQ(restored.size(), 0u);
}

TEST(SerializationTest, ReadIntoNonEmptyLogFails) {
  CommandLog log;
  log.Append(SampleBatch(0, 1, 1));
  const std::string path = TempPath("log2.bin");
  ASSERT_TRUE(WriteCommandLog(log, path).ok());
  EXPECT_FALSE(ReadCommandLog(path, &log).ok());
}

TEST(SerializationTest, MissingFileIsNotFound) {
  CommandLog log;
  const Status s = ReadCommandLog(TempPath("nonexistent.bin"), &log);
  EXPECT_EQ(s.code(), Status::Code::kNotFound);
}

TEST(SerializationTest, TruncatedFileRejected) {
  CommandLog log;
  for (BatchId b = 0; b < 3; ++b) log.Append(SampleBatch(b, 5, b));
  const std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(WriteCommandLog(log, path).ok());
  // Chop the file.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(0, ::ftruncate(fileno(f), size / 2 - (size / 2) % 8));
  std::fclose(f);

  CommandLog restored;
  EXPECT_FALSE(ReadCommandLog(path, &restored).ok());
}

TEST(SerializationTest, CorruptedByteRejected) {
  CommandLog log;
  log.Append(SampleBatch(0, 8, 3));
  const std::string path = TempPath("corrupt.bin");
  ASSERT_TRUE(WriteCommandLog(log, path).ok());
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 48, SEEK_SET);
  std::fputc(0xff, f);
  std::fclose(f);

  CommandLog restored;
  const Status s = ReadCommandLog(path, &restored);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition);
}

TEST(SerializationTest, WrongMagicRejected) {
  Checkpoint cp;
  const std::string path = TempPath("magic.bin");
  ASSERT_TRUE(WriteCheckpoint(cp, path).ok());
  CommandLog log;
  const Status s = ReadCommandLog(path, &log);
  EXPECT_FALSE(s.ok());
}

TEST(SerializationTest, CheckpointRoundTrips) {
  Checkpoint cp;
  cp.next_batch = 42;
  cp.next_txn_id = 4200;
  cp.stores.resize(3);
  Rng rng(7);
  for (auto& store : cp.stores) {
    std::map<Key, Record> records;
    for (int i = 0; i < 50; ++i) {
      Record record;
      record.value = rng.Next();
      record.last_writer = rng.Next();
      record.version = static_cast<uint32_t>(rng.NextBounded(100));
      records[rng.NextBounded(100'000)] = record;
    }
    store.assign(records.begin(), records.end());
  }
  cp.ownership_overlay = {{5, 2}, {17, 0}};
  cp.intervals = {{100, 199, 1}, {300, 350, 2}};
  cp.fusion_order = {5, 17};
  cp.active_nodes = {0, 1, 2};

  const std::string path = TempPath("ckpt.bin");
  ASSERT_TRUE(WriteCheckpoint(cp, path).ok());
  Checkpoint restored;
  ASSERT_TRUE(ReadCheckpoint(path, &restored).ok());

  EXPECT_EQ(restored.next_batch, cp.next_batch);
  EXPECT_EQ(restored.next_txn_id, cp.next_txn_id);
  EXPECT_EQ(restored.ownership_overlay, cp.ownership_overlay);
  EXPECT_EQ(restored.intervals, cp.intervals);
  EXPECT_EQ(restored.fusion_order, cp.fusion_order);
  EXPECT_EQ(restored.active_nodes, cp.active_nodes);
  EXPECT_EQ(restored.Checksum(), cp.Checksum());
}

TEST(SerializationTest, CheckpointImplausibleCountRejected) {
  Checkpoint cp;
  cp.stores.resize(1);
  const std::string path = TempPath("count.bin");
  ASSERT_TRUE(WriteCheckpoint(cp, path).ok());
  // Blow up the store-count word (offset 24) — the reader must reject it
  // instead of allocating terabytes. Recompute nothing: checksum now
  // fails first, which is also an acceptable rejection.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 24, SEEK_SET);
  const uint64_t huge = ~0ULL;
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fclose(f);
  Checkpoint restored;
  EXPECT_FALSE(ReadCheckpoint(path, &restored).ok());
}

TEST(SerializationTest, MalformedCheckpointEntriesRejected) {
  // Stores are written as given; a reader must refuse one whose keys do
  // not strictly ascend, since restore relies on key order.
  Checkpoint cp;
  cp.stores = {{{7, Record{.value = 1}}, {3, Record{.value = 2}}}};
  const std::string path = TempPath("order.bin");
  ASSERT_TRUE(WriteCheckpoint(cp, path).ok());
  Checkpoint restored;
  EXPECT_FALSE(ReadCheckpoint(path, &restored).ok());

  Checkpoint dup;
  dup.ownership_overlay = {{5, 1}, {5, 2}};
  ASSERT_TRUE(WriteCheckpoint(dup, path).ok());
  EXPECT_FALSE(ReadCheckpoint(path, &restored).ok());

  // An overlay entry names a node; kInvalidNode is "no override" and is
  // never written.
  Checkpoint unowned;
  unowned.ownership_overlay = {{5, kInvalidNode}};
  ASSERT_TRUE(WriteCheckpoint(unowned, path).ok());
  EXPECT_FALSE(ReadCheckpoint(path, &restored).ok());
}

/// FNV-1a over a file's bytes.
uint64_t FileFnv1a(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 14695981039346656037ULL;
  for (auto it = std::istreambuf_iterator<char>(in);
       it != std::istreambuf_iterator<char>(); ++it) {
    h = (h ^ static_cast<unsigned char>(*it)) * 1099511628211ULL;
  }
  return h;
}

TEST(SerializationTest, KeySetsOfEverySizeRoundTrip) {
  // Up to two keys sit inside the request, more spill to the heap; every
  // size writes and reads the same bytes (pinned).
  Batch batch;
  batch.id = 7;
  for (const Key n : {0, 1, 2, 3, 5}) {
    TxnRequest txn;
    txn.id = 100 + n;
    for (Key k = 0; k < n; ++k) txn.read_set.push_back(1000 * n + k);
    for (Key k = n; k < 5; ++k) txn.write_set.push_back(1000 * n + k);
    batch.txns.push_back(std::move(txn));
  }
  CommandLog log;
  log.Append(std::move(batch));
  const std::string path = TempPath("key_sets.bin");
  ASSERT_TRUE(WriteCommandLog(log, path).ok());
  EXPECT_EQ(FileFnv1a(path), 0x6c7d6e0ac0881282ULL);

  CommandLog restored;
  ASSERT_TRUE(ReadCommandLog(path, &restored).ok());
  ASSERT_EQ(restored.size(), 1u);
  const std::vector<TxnRequest>& want = log.batches()[0].txns;
  const std::vector<TxnRequest>& got = restored.batches()[0].txns;
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < want.size(); ++t) {
    EXPECT_TRUE(TxnEq(want[t], got[t])) << "txn " << t;
    EXPECT_FALSE(got[t].has_extras()) << "txn " << t;
    EXPECT_EQ(got[t].read_set.size(), t < 3 ? t : 2 * t - 3);
  }
}

TEST(SerializationTest, ClusterCheckpointBytesArePinned) {
  // Pins the on-disk format end to end: a checkpoint of a loaded Hermes
  // cluster that has run fusion migrations (non-empty key overlay and
  // fusion order) must serialize to exactly these bytes. Any change to
  // the layout, the record order or the overlay order moves the hash.
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_records = 2'000;
  config.hermes.fusion_table_capacity = 100;
  engine::Cluster cluster(config, engine::RouterKind::kHermes,
                          std::make_unique<partition::RangePartitionMap>(
                              config.num_records, config.num_nodes));
  cluster.Load();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 21;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(100));
  driver.Start();
  cluster.RunUntil(MsToSim(100));
  cluster.Drain();

  const Checkpoint cp = cluster.TakeCheckpoint();
  ASSERT_FALSE(cp.ownership_overlay.empty());
  ASSERT_FALSE(cp.fusion_order.empty());
  ASSERT_EQ(cp.stores.size(), 3u);
  const std::string path = TempPath("pinned_ckpt.bin");
  ASSERT_TRUE(WriteCheckpoint(cp, path).ok());
  EXPECT_EQ(FileFnv1a(path), 0x5e148aaa1211d490ULL);
}

}  // namespace
}  // namespace hermes::storage
