#include "serving/snapshot_store.h"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "obs/trace.h"
#include "testing/fault_injector.h"

namespace qcore {

namespace {

// Log file header: magic + format version, mirroring BinaryWriter::ToFile's
// framing but with its own magic so a snapshot WAL is never mistaken for a
// model file (or vice versa).
constexpr uint32_t kWalMagic = 0x4C415751;  // "QWAL"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 2 * sizeof(uint32_t);

Status WriteWalHeader(std::FILE* f) {
  if (std::fwrite(&kWalMagic, sizeof(kWalMagic), 1, f) != 1 ||
      std::fwrite(&kWalVersion, sizeof(kWalVersion), 1, f) != 1) {
    return Status::IoError("snapshot log: header write failed");
  }
  return Status::OK();
}

Status FlushFile(std::FILE* f, bool sync) {
  if (std::fflush(f) != 0) {
    return Status::IoError("snapshot log: flush failed");
  }
  if (sync && fsync(fileno(f)) != 0) {
    return Status::IoError("snapshot log: fsync failed");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeSnapshotRecord(const ModelSnapshot& snap) {
  BinaryWriter w;
  w.WriteU64(snap.version);
  w.WriteString(snap.device_id);
  w.WriteU64(snap.batches_seen);
  w.WriteBytes(snap.bytes);
  return w.TakeBuffer();
}

Result<ModelSnapshot> DecodeSnapshotRecord(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  ModelSnapshot snap;
  auto version = r.ReadU64();
  if (!version.ok()) return version.status();
  snap.version = version.value();
  auto device = r.ReadString();
  if (!device.ok()) return device.status();
  snap.device_id = std::move(device).value();
  auto batches = r.ReadU64();
  if (!batches.ok()) return batches.status();
  snap.batches_seen = batches.value();
  auto bytes = r.ReadBytes();
  if (!bytes.ok()) return bytes.status();
  snap.bytes = std::move(bytes).value();
  if (!r.AtEnd()) {
    return Status::Corruption("snapshot record: trailing bytes");
  }
  if (snap.version == 0) {
    return Status::Corruption("snapshot record: version 0");
  }
  return snap;
}

// --------------------------------------------------------------- SnapshotStore

void SnapshotStore::Apply(std::shared_ptr<const ModelSnapshot> snap) {
  QCORE_CHECK_MSG(by_version_.count(snap->version) == 0,
                  "SnapshotStore::Put: duplicate version");
  auto& latest = by_device_[snap->device_id];
  // Keyed by version, not call order: an imported delta can land an older
  // version after a newer one is already the device's latest.
  if (latest == nullptr || snap->version >= latest->version) {
    latest = snap;
  }
  by_version_[snap->version] = std::move(snap);
}

Status SnapshotStore::Put(std::shared_ptr<const ModelSnapshot> snap) {
  // Log before apply: if the append fails the maps are untouched, so the
  // in-memory view never claims durability the file does not have.
  if (logged()) QCORE_RETURN_NOT_OK(AppendRecord(*snap));
  Apply(std::move(snap));
  return Status::OK();
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::Latest() const {
  if (by_version_.empty()) return nullptr;
  return by_version_.rbegin()->second;
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::LatestFor(
    const std::string& device_id) const {
  auto it = by_device_.find(device_id);
  return it == by_device_.end() ? nullptr : it->second;
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::Get(
    uint64_t version) const {
  auto it = by_version_.find(version);
  return it == by_version_.end() ? nullptr : it->second;
}

uint64_t SnapshotStore::MaxVersion() const {
  return by_version_.empty() ? 0 : by_version_.rbegin()->first;
}

void SnapshotStore::ForEach(
    const std::function<void(const std::shared_ptr<const ModelSnapshot>&)>&
        fn) const {
  for (const auto& [version, snap] : by_version_) fn(snap);
}

void SnapshotStore::ForEachDeviceLatest(
    const std::function<void(const std::shared_ptr<const ModelSnapshot>&)>&
        fn) const {
  for (const auto& [device, snap] : by_device_) fn(snap);
}

Result<size_t> SnapshotStore::TrimBelow(uint64_t min_version) {
  size_t dropped = 0;
  for (auto it = by_version_.begin();
       it != by_version_.end() && it->first < min_version;) {
    auto dev = by_device_.find(it->second->device_id);
    const bool is_device_latest =
        dev != by_device_.end() && dev->second->version == it->first;
    if (is_device_latest) {
      ++it;
    } else {
      it = by_version_.erase(it);
      ++dropped;
    }
  }
  if (logged() && dropped > 0) QCORE_RETURN_NOT_OK(RewriteSegment());
  return dropped;
}

// ------------------------------------------------------------------- the log

Result<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(
    SnapshotLogOptions options) {
  QCORE_CHECK_MSG(!options.path.empty(), "SnapshotStore::Open: empty path");
  auto store = std::make_unique<SnapshotStore>();
  store->options_ = std::move(options);
  const std::string& path = store->options_.path;

  // Replay the existing log, if any. Read the whole file: snapshot logs are
  // a handful of model blobs, not gigabytes, and a single buffer keeps the
  // torn-tail scan trivial.
  std::vector<uint8_t> content;
  bool exists = false;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    exists = true;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    content.resize(static_cast<size_t>(size));
    if (!content.empty() &&
        std::fread(content.data(), 1, content.size(), f) != content.size()) {
      std::fclose(f);
      return Status::IoError("snapshot log: read failed: " + path);
    }
    std::fclose(f);
  }

  size_t good = 0;  // file offset after the last valid record
  if (exists && !content.empty()) {
    if (content.size() < kWalHeaderBytes) {
      return Status::Corruption("snapshot log: short header: " + path);
    }
    uint32_t magic = 0, version = 0;
    std::memcpy(&magic, content.data(), sizeof(magic));
    std::memcpy(&version, content.data() + sizeof(magic), sizeof(version));
    if (magic != kWalMagic) {
      return Status::Corruption("snapshot log: bad magic: " + path);
    }
    if (version != kWalVersion) {
      return Status::Corruption("snapshot log: unsupported version: " + path);
    }
    size_t pos = kWalHeaderBytes;
    good = pos;
    while (pos < content.size()) {
      auto frame = ReadFramedRecord(content, &pos);
      if (!frame.ok()) {
        // An incomplete or checksum-failing frame is the torn tail of a
        // writer that died mid-append; everything before it replayed
        // cleanly, so cut the log there and carry on — and count the
        // recovery, so chaos runs can assert it happened instead of
        // trusting the silence.
        store->truncated_tail_bytes_ = content.size() - pos;
        ++store->wal_.torn_tails_recovered;
        break;
      }
      auto snap = DecodeSnapshotRecord(frame.value());
      if (!snap.ok()) {
        // The frame checksum held but the body does not parse — that is a
        // writer bug or foreign data, not a crash artifact.
        return snap.status();
      }
      if (store->Has(snap.value().version)) {
        return Status::Corruption("snapshot log: duplicate version in " +
                                  path);
      }
      auto frozen = std::make_shared<const ModelSnapshot>(
          std::move(snap).value());
      store->Apply(std::move(frozen));
      good = pos;
    }
    if (store->truncated_tail_bytes_ > 0 &&
        truncate(path.c_str(), static_cast<off_t>(good)) != 0) {
      return Status::IoError("snapshot log: truncate failed: " + path);
    }
  }

  if (!exists || content.empty()) {
    // Fresh log: write the header eagerly so an empty-but-opened store
    // leaves a well-formed file behind.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::IoError("snapshot log: cannot create: " + path);
    }
    const Status header = WriteWalHeader(f);
    const bool closed = std::fclose(f) == 0;  // always close, even on error
    if (!header.ok() || !closed) {
      return Status::IoError("snapshot log: header write failed: " + path);
    }
  }

  store->file_ = std::fopen(path.c_str(), "ab");
  if (store->file_ == nullptr) {
    return Status::IoError("snapshot log: cannot open for append: " + path);
  }
  return store;
}

SnapshotStore::~SnapshotStore() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SnapshotStore::AppendRecord(const ModelSnapshot& snap) {
  if (file_ == nullptr) {
    // A failed compaction rename/reopen can orphan the append handle; fail
    // cleanly instead of fwrite-ing into a null FILE.
    return Status::IoError("snapshot log: no append handle: " +
                           options_.path);
  }
  std::vector<uint8_t> frame;
  AppendFramedRecord(EncodeSnapshotRecord(snap), &frame);
  uint64_t delay_us = 0;
  if (MaybeFault(FaultPoint::kWalAppendDelay, &delay_us)) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  if (MaybeFault(FaultPoint::kWalFsyncFail)) {
    // Modeled as failing BEFORE any byte lands, so the outcome is
    // deterministic: nothing durable, nothing visible (log-then-apply).
    return Status::IoError("snapshot log: fsync failed (injected): " +
                           options_.path);
  }
  if (MaybeFault(FaultPoint::kWalAppendBitRot)) {
    // Silent media rot: flip one payload bit (past the size+crc frame
    // header, so the CRC catches it at replay). The append still
    // "succeeds" — this process keeps serving from memory; the damage
    // surfaces only at the next Open.
    frame.back() ^= 0x01;
  }
  const bool torn = MaybeFault(FaultPoint::kWalTornAppend);
  const size_t write_len = torn ? frame.size() / 2 : frame.size();
  if (std::fwrite(frame.data(), 1, write_len, file_) != write_len) {
    return Status::IoError("snapshot log: append failed: " + options_.path);
  }
  if (torn) {
    // Half the frame is on disk and the writer "died": fail the Put so the
    // in-memory maps never claim what the log does not hold. The next Open
    // truncates this tail and counts the recovery.
    (void)FlushFile(file_, /*sync=*/false);
    return Status::IoError("snapshot log: torn append (injected): " +
                           options_.path);
  }
  QCORE_RETURN_NOT_OK(FlushFile(file_, options_.fsync_on_publish));
  ++wal_.appends;
  wal_.appended_bytes += frame.size();
  if (options_.fsync_on_publish) ++wal_.fsyncs;
  // The publish that drove this append set the thread's trace span
  // (ScopedTraceSpan in the session task), linking the snapshotPublish
  // event to its durable landing without plumbing the span down here.
  TraceRing::Global().Record(TraceKind::kWalAppend, TraceRing::CurrentSpan(),
                             TraceRing::Global().Intern(snap.device_id),
                             frame.size());
  return Status::OK();
}

Status SnapshotStore::RewriteSegment() {
  // Compaction: write the surviving snapshots into a fresh segment, fsync
  // it, and atomically rename it over the log — a crash at any point leaves
  // either the old complete log or the new complete one.
  const std::string tmp = options_.path + ".compact";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("snapshot log: cannot create segment: " + tmp);
  }
  Status status = WriteWalHeader(f);
  if (status.ok()) {
    for (const auto& [version, snap] : by_version_) {
      if (MaybeFault(FaultPoint::kWalCompactionCrash)) {
        // Writer death mid-segment: the partial .compact tmp stays on disk
        // (unlike the normal error path below, which cleans it up) — the
        // old log is untouched and still the append target, so recovery is
        // "reopen the same path"; the next compaction's fopen("wb")
        // truncates the leftover tmp.
        std::fclose(f);
        return Status::IoError(
            "snapshot log: compaction crashed (injected): " + tmp);
      }
      std::vector<uint8_t> frame;
      AppendFramedRecord(EncodeSnapshotRecord(*snap), &frame);
      if (std::fwrite(frame.data(), 1, frame.size(), f) != frame.size()) {
        status = Status::IoError("snapshot log: segment write failed: " + tmp);
        break;
      }
    }
  }
  if (status.ok()) status = FlushFile(f, /*sync=*/true);
  if (std::fclose(f) != 0 && status.ok()) {
    status = Status::IoError("snapshot log: segment close failed: " + tmp);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  std::fclose(file_);
  file_ = nullptr;
  if (std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
    std::remove(tmp.c_str());
    // Best effort: get an append handle back on the (still complete) old
    // log so later Puts degrade to IoError-or-success, not a null handle.
    file_ = std::fopen(options_.path.c_str(), "ab");
    return Status::IoError("snapshot log: segment rename failed: " +
                           options_.path);
  }
  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("snapshot log: reopen after compaction failed: " +
                           options_.path);
  }
  ++wal_.compactions;
  ++wal_.fsyncs;  // the segment's FlushFile(sync=true) above
  return Status::OK();
}

}  // namespace qcore
