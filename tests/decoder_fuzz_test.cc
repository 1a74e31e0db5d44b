// Decoder robustness under hostile bytes: a seeded ByteMutator
// (tests/byte_mutator.h) damages a valid snapshot log and a valid registry
// delta thousands of times. A damaged log must open to records that were
// written, or fail with a non-OK Status; a damaged delta must be imported
// whole or rejected whole. Nothing may crash, hang or allocate without
// bound, which the ASan+UBSan build checks on the same cases. Each decoder
// is fed the damage twice: as raw bytes, where the frame checksums catch
// most of it, and with one record's payload damaged and framed again under
// a valid checksum, so the damage reaches DecodeSnapshotRecord.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "serving/snapshot.h"
#include "serving/snapshot_store.h"
#include "tests/byte_mutator.h"

namespace qcore {
namespace {

constexpr int kMutations = 3000;
constexpr uint64_t kRecords = 8;
constexpr size_t kLogHeaderBytes = 8;    // magic + format version
constexpr size_t kDeltaHeaderBytes = 16;  // magic + format version + count

// The record of `version` as the tests write it.
std::shared_ptr<const ModelSnapshot> MakeSnap(uint64_t version) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = version;
  snap->device_id = "dev" + std::to_string(version % 3);
  snap->batches_seen = version * 10;
  snap->bytes.resize(40 + version * 9);
  for (size_t i = 0; i < snap->bytes.size(); ++i) {
    snap->bytes[i] = static_cast<uint8_t>(version * 131 + i * 7);
  }
  return snap;
}

// True iff `snap` is exactly the record of its version that was written.
bool IsWritten(const ModelSnapshot& snap) {
  if (snap.version == 0 || snap.version > kRecords) return false;
  const auto want = MakeSnap(snap.version);
  return snap.device_id == want->device_id &&
         snap.batches_seen == want->batches_seen && snap.bytes == want->bytes;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// `encoding` with the payload of one of its CRC-framed records (which
// start after a `header`-byte header) mutated and framed again under a
// valid checksum.
std::vector<uint8_t> MutateOneRecord(const std::vector<uint8_t>& encoding,
                                     size_t header, ByteMutator* mutator,
                                     Rng* rng) {
  std::vector<std::vector<uint8_t>> payloads;
  size_t pos = header;
  while (pos < encoding.size()) {
    payloads.push_back(ReadFramedRecord(encoding, &pos).value());
  }
  auto& victim = payloads[rng->NextUint64(payloads.size())];
  victim = mutator->Mutate(std::move(victim));
  std::vector<uint8_t> out(encoding.begin(),
                           encoding.begin() + static_cast<int64_t>(header));
  for (const auto& payload : payloads) AppendFramedRecord(payload, &out);
  return out;
}

// A log holding the kRecords written records, as bytes.
std::vector<uint8_t> WrittenLog(const std::string& path) {
  std::remove(path.c_str());
  {
    auto store = SnapshotStore::Open({path, false});
    EXPECT_TRUE(store.ok());
    for (uint64_t v = 1; v <= kRecords; ++v) {
      EXPECT_TRUE(store.value()->Put(MakeSnap(v)).ok());
    }
  }
  return ReadFile(path);
}

// Opens each damaged log: an open that succeeds holds only written records
// and stays appendable. Returns how many opens succeeded.
int OpenDamagedLogs(bool reframe, uint64_t seed) {
  const std::string path = "/tmp/qcore_decoder_fuzz.wal";
  const std::vector<uint8_t> log = WrittenLog(path);
  ByteMutator mutator(seed);
  Rng rng(seed + 1);
  int opened = 0;
  for (int i = 0; i < kMutations; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    WriteFile(path, reframe ? MutateOneRecord(log, kLogHeaderBytes,
                                              &mutator, &rng)
                            : mutator.Mutate(log));
    auto store = SnapshotStore::Open({path, false});
    if (!store.ok()) continue;
    ++opened;
    EXPECT_LE(store.value()->size(), kRecords);
    if (!reframe) {
      store.value()->ForEach(
          [](const std::shared_ptr<const ModelSnapshot>& snap) {
            EXPECT_TRUE(IsWritten(*snap)) << "v" << snap->version;
          });
    }
    if (!store.value()->Has(kRecords + 1)) {
      EXPECT_TRUE(store.value()->Put(MakeSnap(kRecords + 1)).ok());
    }
  }
  std::remove(path.c_str());
  return opened;
}

TEST(SnapshotLogFuzzTest, DamagedLogOpensToWrittenRecordsOrFails) {
  const int opened = OpenDamagedLogs(/*reframe=*/false, 101);
  // Torn tails recover, damaged headers fail: both outcomes occur.
  EXPECT_GT(opened, 0);
  EXPECT_LT(opened, kMutations);
}

TEST(SnapshotLogFuzzTest, ReframedRecordDecodesOrFailsTheOpen) {
  const int opened = OpenDamagedLogs(/*reframe=*/true, 202);
  EXPECT_LT(opened, kMutations);
}

// Imports each damaged delta into an empty registry: the registry ends up
// holding every record the import reports, or nothing. Returns how many
// imports succeeded.
int ImportDamagedDeltas(bool reframe, uint64_t seed) {
  // Filled through a store so the versions are the written ones.
  auto store = std::make_unique<SnapshotStore>();
  for (uint64_t v = 1; v <= kRecords; ++v) {
    EXPECT_TRUE(store->Put(MakeSnap(v)).ok());
  }
  SnapshotRegistry written(std::move(store));
  const std::vector<uint8_t> delta = written.ExportDelta(0);
  ByteMutator mutator(seed);
  Rng rng(seed + 1);
  int imported = 0;
  for (int i = 0; i < kMutations; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    SnapshotRegistry target;
    const auto result = target.ImportDelta(
        reframe ? MutateOneRecord(delta, kDeltaHeaderBytes, &mutator, &rng)
                : mutator.Mutate(delta));
    if (!result.ok()) {
      EXPECT_EQ(target.size(), 0u);
      continue;
    }
    ++imported;
    EXPECT_EQ(target.size(), result.value());
    EXPECT_LE(target.size(), kRecords);
    if (!reframe) {
      size_t found = 0;
      for (uint64_t v = 1; v <= kRecords; ++v) {
        if (const auto snap = target.Get(v)) {
          EXPECT_TRUE(IsWritten(*snap)) << "v" << v;
          ++found;
        }
      }
      EXPECT_EQ(found, target.size());
    }
  }
  return imported;
}

TEST(RegistryDeltaFuzzTest, DamagedDeltaImportsWholeOrNotAtAll) {
  const int imported = ImportDamagedDeltas(/*reframe=*/false, 303);
  EXPECT_LT(imported, kMutations);
}

TEST(RegistryDeltaFuzzTest, ReframedRecordImportsWholeOrNotAtAll) {
  const int imported = ImportDamagedDeltas(/*reframe=*/true, 404);
  EXPECT_LT(imported, kMutations);
}

}  // namespace
}  // namespace qcore
