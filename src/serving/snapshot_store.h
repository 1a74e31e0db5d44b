// Storage plane of the snapshot registry (serving/snapshot.h). The registry
// is the versioning facade — it assigns globally monotonic versions, owns
// the lock, and decides retention policy; the SnapshotStore holds the
// published snapshots and decides what survives the process.
//
// A store always keeps the published snapshots in in-memory maps. A
// default-constructed store stops there: nothing outlives the process. A
// store opened on a path (Open) adds an append-only, CRC32-framed
// write-ahead log (common/serialize framed records over a small file
// header): every Put lands in the log before it becomes visible in the maps
// (optionally fsynced per publish); Open replays the log, truncating a torn
// tail left by a crashed writer at the exact failure offset; TrimBelow
// compacts the log into a rewritten segment holding only the surviving
// snapshots (atomic rename).
//
// The store is NOT internally synchronized: the owning SnapshotRegistry
// serializes every call under its own mutex. Reads hand out shared_ptrs to
// immutable snapshots, so the copy-on-write contract of the registry is
// unchanged.
#ifndef QCORE_SERVING_SNAPSHOT_STORE_H_
#define QCORE_SERVING_SNAPSHOT_STORE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/snapshot.h"

namespace qcore {

// One snapshot as a self-contained byte record — the payload framed into
// WAL entries and registry deltas. Decode rejects truncated or overlong
// payloads with Corruption (the frame CRC catches bit rot; this catches
// logical mismatches).
std::vector<uint8_t> EncodeSnapshotRecord(const ModelSnapshot& snap);
Result<ModelSnapshot> DecodeSnapshotRecord(const std::vector<uint8_t>& payload);

struct SnapshotLogOptions {
  // The log file. Created (with its header) if missing.
  std::string path;
  // fsync after every Put, so a published snapshot survives power loss, not
  // just process death. Off by default: the file write alone already
  // survives a crash of this process, and the durable-publish bench section
  // shows the fsync price.
  bool fsync_on_publish = false;
};

class SnapshotStore {
 public:
  // An in-memory store with no log.
  SnapshotStore() = default;

  // Opens (or creates) the log at `options.path` and replays it: every
  // complete, checksummed record becomes a live snapshot; a torn tail —
  // an incomplete or checksum-failing record with nothing valid after it,
  // the signature of a writer that died mid-append — is truncated off the
  // file. A bad file header or an undecodable record body is real
  // corruption and fails the open instead.
  static Result<std::unique_ptr<SnapshotStore>> Open(
      SnapshotLogOptions options);

  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Records a snapshot. The registry calls this in version order for fresh
  // publishes; imported deltas may arrive out of order, so the
  // device-latest index is keyed by version, not call order.
  // `snap->version` must not already be present. With a log, the record is
  // appended (and optionally fsynced) before it becomes visible in the
  // maps, and a write that cannot be made durable returns non-OK with the
  // maps untouched.
  Status Put(std::shared_ptr<const ModelSnapshot> snap);

  std::shared_ptr<const ModelSnapshot> Latest() const;
  std::shared_ptr<const ModelSnapshot> LatestFor(
      const std::string& device_id) const;
  std::shared_ptr<const ModelSnapshot> Get(uint64_t version) const;
  bool Has(uint64_t version) const { return by_version_.count(version) > 0; }
  size_t size() const { return by_version_.size(); }
  // Highest version ever stored (0 when empty) — what the registry resumes
  // numbering from after a reopen.
  uint64_t MaxVersion() const;

  // Applies `fn` to every snapshot in ascending version order (delta
  // export) / to every device's latest snapshot in device order (cohort
  // warm starts).
  void ForEach(
      const std::function<void(const std::shared_ptr<const ModelSnapshot>&)>&
          fn) const;
  void ForEachDeviceLatest(
      const std::function<void(const std::shared_ptr<const ModelSnapshot>&)>&
          fn) const;

  // Drops all versions below `min_version` that are not a device's latest;
  // returns the number dropped. With a log, a trim that dropped anything
  // then compacts: it rewrites a fresh segment holding exactly the
  // surviving snapshots and atomically renames it over the log.
  Result<size_t> TrimBelow(uint64_t min_version);

  // Bytes cut off the tail during Open (0 for a clean log) — recovery
  // diagnostics for operators and tests.
  uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }

  // WAL health counters; all zero without a log. Plain counters: the
  // owning registry serializes every store call under its mutex.
  const WalStats& wal_stats() const { return wal_; }

 private:
  bool logged() const { return !options_.path.empty(); }
  // Makes `snap` visible in the maps (no log write).
  void Apply(std::shared_ptr<const ModelSnapshot> snap);
  Status AppendRecord(const ModelSnapshot& snap);
  Status RewriteSegment();

  std::map<uint64_t, std::shared_ptr<const ModelSnapshot>> by_version_;
  std::map<std::string, std::shared_ptr<const ModelSnapshot>> by_device_;

  SnapshotLogOptions options_;  // empty path: no log
  std::FILE* file_ = nullptr;   // append handle, positioned at the tail
  uint64_t truncated_tail_bytes_ = 0;
  WalStats wal_;
};

}  // namespace qcore

#endif  // QCORE_SERVING_SNAPSHOT_STORE_H_
