// Versioned model-snapshot registry. Publishing serializes a session's
// QuantizedModel (codes + scales + fp leftovers, via common/serialize) into
// an immutable byte blob held by shared_ptr — copy-on-write semantics:
// readers holding an old version keep it alive while new versions land, and
// no reader ever observes a half-written model. This is the hand-off point
// between the serving plane (sessions mutating codes) and everything that
// wants a consistent model: checkpointing, rollback, cross-device warm
// starts, replication.
//
// The registry is a thin versioning facade: it assigns monotonic versions
// and owns the lock, while the snapshots themselves live in a SnapshotStore
// (serving/snapshot_store.h) — in-memory only by default, or with a
// write-ahead log when the store is opened on a path, so a fleet's
// calibrated models survive the process that produced them. Two
// distribution primitives ship registry contents across process
// boundaries: ExportDelta serializes every version after a watermark into
// CRC-framed records, and ImportDelta merges such records into another
// registry (idempotently), after which RegisterDevice can warm-start new
// sessions from the cohort-nearest imported snapshot.
#ifndef QCORE_SERVING_SNAPSHOT_H_
#define QCORE_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/whiteboard.h"
#include "quant/quantized_model.h"

namespace qcore {

class SnapshotStore;

// One immutable published model version.
struct ModelSnapshot {
  uint64_t version = 0;
  std::string device_id;       // session that published it
  uint64_t batches_seen = 0;   // calibration batches absorbed at publish time
  std::vector<uint8_t> bytes;  // QuantizedModel::SerializeTo output
};

class SnapshotRegistry {
 public:
  // Over a fresh in-memory store with no log.
  SnapshotRegistry();
  // Over an explicit store. A store that recovered published versions from
  // its log resumes numbering at max recovered version + 1, so versions
  // stay monotonic across a process restart.
  explicit SnapshotRegistry(std::unique_ptr<SnapshotStore> store);
  ~SnapshotRegistry();

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  // Serializes `qm` and registers it as the next version. Thread-safe;
  // returns the assigned version number (monotonic from 1). A log write
  // failure is fatal (checked): a registry that claimed durability it does
  // not have would corrupt recovery.
  uint64_t Publish(const QuantizedModel& qm, const std::string& device_id,
                   uint64_t batches_seen);

  // Latest version overall / latest published by one device; nullptr if
  // none. The returned snapshot is immutable and safe to hold indefinitely.
  std::shared_ptr<const ModelSnapshot> Latest() const;
  std::shared_ptr<const ModelSnapshot> LatestFor(
      const std::string& device_id) const;
  std::shared_ptr<const ModelSnapshot> Get(uint64_t version) const;

  // Warm-start lookup: the device's own latest snapshot if it has one
  // (restart recovery), else the latest snapshot of the cohort-nearest
  // device — clockwise successor on the same 64-bit ring the sharded
  // router hashes with (serving/hash_ring.h), so "nearest" is
  // deterministic and placement-consistent. nullptr when empty.
  std::shared_ptr<const ModelSnapshot> NearestFor(
      const std::string& device_id) const;

  // Restores a snapshot into a model of the same architecture/bit-width.
  static Status RestoreInto(const ModelSnapshot& snapshot, QuantizedModel* qm);

  size_t size() const;

  // The store's WAL counters (zeros without a log) — whiteboard feed.
  WalStats wal_stats() const;

  // Drops all versions below `min_version` that are not a device's latest
  // (simple retention; holders keep their shared_ptrs alive regardless).
  // A logged store compacts its log here. Returns the number of versions
  // dropped.
  size_t TrimBelow(uint64_t min_version);

  // --- Distribution: ship registry contents across a process boundary ----

  // Serializes every snapshot with version > `since_version`, ascending,
  // as CRC-framed records under a small delta header. ExportDelta(0) is a
  // full registry image.
  std::vector<uint8_t> ExportDelta(uint64_t since_version) const;

  // Merges a blob produced by ExportDelta (possibly from another process).
  // Versions already present are skipped, so re-importing is idempotent;
  // the next published version advances past every imported one, keeping
  // monotonicity fleet-wide. Returns the number of snapshots imported. A
  // malformed delta is rejected whole (validated before any mutation); a
  // log write failure mid-import can leave a prefix applied — recover by
  // retrying the same delta, which skips what landed.
  Result<size_t> ImportDelta(const std::vector<uint8_t>& delta);

 private:
  mutable Mutex mu_;
  uint64_t next_version_ QCORE_GUARDED_BY(mu_) = 1;
  // Stores are NOT internally synchronized; the registry serializes every
  // access under mu_ (the pointer itself is set once in the constructor).
  std::unique_ptr<SnapshotStore> store_ QCORE_PT_GUARDED_BY(mu_);
};

}  // namespace qcore

#endif  // QCORE_SERVING_SNAPSHOT_H_
