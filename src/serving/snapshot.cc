#include "serving/snapshot.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "serving/hash_ring.h"
#include "serving/snapshot_store.h"
#include "testing/fault_injector.h"

namespace qcore {

namespace {
// Registry-delta header: magic + format version + record count. The records
// themselves are CRC-framed (common/serialize), so a delta is
// integrity-checked end to end without trusting its transport.
constexpr uint32_t kDeltaMagic = 0x544C4451;  // "QDLT"
constexpr uint32_t kDeltaVersion = 1;
}  // namespace

SnapshotRegistry::SnapshotRegistry()
    : store_(std::make_unique<SnapshotStore>()) {}

SnapshotRegistry::SnapshotRegistry(std::unique_ptr<SnapshotStore> store)
    : store_(std::move(store)) {
  QCORE_CHECK_MSG(store_ != nullptr, "SnapshotRegistry: null store");
  // Resume numbering after whatever the store recovered (1 when empty), so
  // versions stay monotonic across a process restart over the same log.
  next_version_ = store_->MaxVersion() + 1;
}

SnapshotRegistry::~SnapshotRegistry() = default;

uint64_t SnapshotRegistry::Publish(const QuantizedModel& qm,
                                   const std::string& device_id,
                                   uint64_t batches_seen) {
  // Serialize outside the lock: the expensive part (walking the model) must
  // not serialize all publishing sessions behind one mutex.
  BinaryWriter w;
  qm.SerializeTo(&w);
  auto snap = std::make_shared<ModelSnapshot>();
  snap->device_id = device_id;
  snap->batches_seen = batches_seen;
  snap->bytes = w.TakeBuffer();

  MutexLock lock(mu_);
  snap->version = next_version_++;
  std::shared_ptr<const ModelSnapshot> frozen = std::move(snap);
  const uint64_t version = frozen->version;
  const Status put = store_->Put(std::move(frozen));
  QCORE_CHECK_MSG(put.ok(), "SnapshotRegistry: store write failed");
  return version;
}

std::shared_ptr<const ModelSnapshot> SnapshotRegistry::Latest() const {
  MutexLock lock(mu_);
  return store_->Latest();
}

std::shared_ptr<const ModelSnapshot> SnapshotRegistry::LatestFor(
    const std::string& device_id) const {
  MutexLock lock(mu_);
  return store_->LatestFor(device_id);
}

std::shared_ptr<const ModelSnapshot> SnapshotRegistry::Get(
    uint64_t version) const {
  MutexLock lock(mu_);
  return store_->Get(version);
}

std::shared_ptr<const ModelSnapshot> SnapshotRegistry::NearestFor(
    const std::string& device_id) const {
  MutexLock lock(mu_);
  if (auto own = store_->LatestFor(device_id)) return own;
  // Cohort-nearest: clockwise successor on the 64-bit ring, i.e. the device
  // whose hash is the smallest distance (hash(dev) - hash(id)) mod 2^64
  // ahead of ours — the same geometry the router places sessions with, so
  // a warm start picks the neighbor whose shard (and typically cohort) the
  // device would share.
  const uint64_t origin = HashRing::HashKey(device_id);
  std::shared_ptr<const ModelSnapshot> best;
  uint64_t best_distance = 0;
  store_->ForEachDeviceLatest(
      [&](const std::shared_ptr<const ModelSnapshot>& snap) {
        const uint64_t distance =
            HashRing::HashKey(snap->device_id) - origin;  // mod-2^64 wrap
        if (best == nullptr || distance < best_distance) {
          best = snap;
          best_distance = distance;
        }
      });
  return best;
}

Status SnapshotRegistry::RestoreInto(const ModelSnapshot& snapshot,
                                     QuantizedModel* qm) {
  // BinaryReader owns its buffer, so restoring copies the blob once.
  // Acceptable: restores are rollback/warm-start events, not per-batch work
  // like Publish. A non-owning reader view would remove it if that changes.
  BinaryReader r(snapshot.bytes);
  return qm->DeserializeFrom(&r);
}

size_t SnapshotRegistry::size() const {
  MutexLock lock(mu_);
  return store_->size();
}

WalStats SnapshotRegistry::wal_stats() const {
  MutexLock lock(mu_);
  return store_->wal_stats();
}

size_t SnapshotRegistry::TrimBelow(uint64_t min_version) {
  MutexLock lock(mu_);
  auto dropped = store_->TrimBelow(min_version);
  QCORE_CHECK_MSG(dropped.ok(), "SnapshotRegistry: store trim failed");
  return dropped.value();
}

std::vector<uint8_t> SnapshotRegistry::ExportDelta(
    uint64_t since_version) const {
  MutexLock lock(mu_);
  std::vector<std::shared_ptr<const ModelSnapshot>> picked;
  store_->ForEach([&](const std::shared_ptr<const ModelSnapshot>& snap) {
    if (snap->version > since_version) picked.push_back(snap);
  });
  BinaryWriter header;
  header.WriteU32(kDeltaMagic);
  header.WriteU32(kDeltaVersion);
  header.WriteU64(picked.size());
  std::vector<uint8_t> out = header.TakeBuffer();
  const size_t header_bytes = out.size();
  for (const auto& snap : picked) {
    AppendFramedRecord(EncodeSnapshotRecord(*snap), &out);
  }
  uint64_t cut_bytes = 0;
  if (out.size() > header_bytes &&
      MaybeFault(FaultPoint::kSnapshotExportTruncate, &cut_bytes)) {
    // The delta is cut in transit (arg = bytes to drop, default: the last
    // third of the record bytes). The header still promises the full
    // record count, so ANY cut into the records makes ImportDelta reject
    // the blob whole — the documented degradation is "retry with a fresh
    // export", never a half-applied delta.
    const size_t record_bytes = out.size() - header_bytes;
    size_t cut = cut_bytes > 0 ? static_cast<size_t>(cut_bytes)
                               : record_bytes / 3 + 1;
    if (cut > record_bytes) cut = record_bytes;
    out.resize(out.size() - cut);
  }
  return out;
}

Result<size_t> SnapshotRegistry::ImportDelta(
    const std::vector<uint8_t>& delta) {
  if (MaybeFault(FaultPoint::kSnapshotImportDrop)) {
    // The payload never arrived. Nothing was touched, so the recovery path
    // is simply resending the same delta — imports are idempotent.
    return Status::IoError("registry delta: dropped in transit (injected)");
  }
  constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t) + sizeof(uint64_t);
  if (delta.size() < kHeaderBytes) {
    return Status::Corruption("registry delta: short header");
  }
  uint32_t magic = 0, format = 0;
  uint64_t count = 0;
  std::memcpy(&magic, delta.data(), sizeof(magic));
  std::memcpy(&format, delta.data() + sizeof(magic), sizeof(format));
  std::memcpy(&count, delta.data() + 2 * sizeof(uint32_t), sizeof(count));
  if (magic != kDeltaMagic) {
    return Status::Corruption("registry delta: bad magic");
  }
  if (format != kDeltaVersion) {
    return Status::Corruption("registry delta: unsupported version");
  }

  // Decode every record before mutating anything, so a corrupt delta is
  // rejected whole instead of half-applied. (A log WRITE can still fail
  // mid-import — disk full — leaving a prefix applied; that is
  // safe because imports are idempotent: retrying the same delta skips
  // what already landed and completes the rest.)
  std::vector<ModelSnapshot> records;
  size_t pos = kHeaderBytes;
  for (uint64_t i = 0; i < count; ++i) {
    auto frame = ReadFramedRecord(delta, &pos);
    if (!frame.ok()) return frame.status();
    auto snap = DecodeSnapshotRecord(frame.value());
    if (!snap.ok()) return snap.status();
    records.push_back(std::move(snap).value());
  }
  if (pos != delta.size()) {
    return Status::Corruption("registry delta: trailing bytes");
  }

  MutexLock lock(mu_);
  size_t imported = 0;
  for (ModelSnapshot& record : records) {
    if (store_->Has(record.version)) continue;  // idempotent re-import
    const uint64_t version = record.version;
    QCORE_RETURN_NOT_OK(store_->Put(
        std::make_shared<const ModelSnapshot>(std::move(record))));
    if (version >= next_version_) next_version_ = version + 1;
    ++imported;
  }
  return imported;
}

}  // namespace qcore
