// Fleet whiteboard: one plain-struct row per shard and per device, kept
// write-through by the serving layers (the node-whiteboard idiom from YDB's
// node_whiteboard.cpp — state is PUSHED by the component that owns it the
// moment it changes, never scraped). Every serving counter lives on the
// device row alone; shard and fleet totals are derived from device rows
// when an image is read. Hot-path writers update a row through a stable
// handle they capture once at registration; readers take the registry lock
// and copy every row, so a Read() is a snapshot-consistent image of the
// fleet without stalling admission.
//
// The image renders two ways: ToTable() for humans (common/table_printer)
// and Serialize()/Deserialize() for machines (common/serialize framed
// records), so a whiteboard dump can cross a process boundary exactly like
// a model snapshot does.
#ifndef QCORE_OBS_WHITEBOARD_H_
#define QCORE_OBS_WHITEBOARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace qcore {

// How a device's session got its initial model when it registered.
enum class WarmStartOrigin : uint8_t {
  kCold = 0,       // fresh calibrator state, no snapshot found
  kOwnSnapshot,    // restored from this device's own latest snapshot
  kCohortSnapshot  // warm-started from a cohort neighbour's snapshot
};

const char* WarmStartOriginName(WarmStartOrigin origin);

// Derived, not stored: what the device's session is doing right now.
enum class SessionActivity : uint8_t { kIdle = 0, kActive, kMigrating };

const char* SessionActivityName(SessionActivity activity);

// Every serving counter, counted once: a device row is the only store.
// Shard and fleet totals are sums of device rows, derived when an image is
// read (WhiteboardImage::ShardTotals / FleetTotals) and never stored, so
// nothing has to be kept in sync.
//
// Ledger invariants (exact once the fleet is drained):
//   accepted_X + shed_X == submitted_X, per class
//   shed_inference + shed_calibration == shed_queue_full + shed_limiter
//   accepted_inference == inference_requests + shed_deadline
// Deadline sheds happen after admission, so they are disjoint from the
// admission sheds and never appear in the per-class shed counters.
struct ServingCounters {
  uint64_t accepted_inference = 0;
  uint64_t accepted_calibration = 0;
  uint64_t shed_inference = 0;
  uint64_t shed_calibration = 0;
  // Every shed by reason: queue_full (a session cap) and limiter (a shard
  // or fleet cap) split the admission sheds; deadline counts admitted
  // requests abandoned at flush/exec time.
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_limiter = 0;
  uint64_t inference_requests = 0;  // executed requests
  uint64_t inference_examples = 0;
  uint64_t calibration_batches = 0;  // executed calibration steps
  uint64_t calibration_examples = 0;
  uint64_t snapshots_published = 0;
  // Pending batched groups a model-mutating submission forced out before
  // their size or deadline trigger. High rates mean the mutation cadence
  // is defeating batching.
  uint64_t barrier_flushes = 0;
  // Kernel panel parallelism in this device's forwards: GEMMs that fanned
  // out across panel workers, GEMMs that stayed single-threaded, and the
  // output chunks the wide ones submitted.
  uint64_t panel_wide_dispatches = 0;
  uint64_t panel_narrow_dispatches = 0;
  uint64_t panel_tasks = 0;
  // Measured calibration accuracy as fixed-point micro-units plus a
  // sample count, so the mean is exact regardless of interleaving.
  uint64_t accuracy_micro_sum = 0;
  uint64_t accuracy_samples = 0;

  void AddAccuracySample(float accuracy);
  // Mean of the recorded accuracy samples; 0 if none.
  float mean_accuracy() const;
  // Admitted work not yet executed or deadline-shed, per class (clamped
  // at 0).
  uint64_t queued_inference() const;
  uint64_t queued_calibration() const;

  ServingCounters& operator+=(const ServingCounters& other);
  bool operator==(const ServingCounters& other) const;
};

// Copied-out view of one device row (what Read() returns).
struct DeviceRow {
  std::string device_id;
  int shard = 0;
  SessionActivity activity = SessionActivity::kIdle;
  WarmStartOrigin warm_start = WarmStartOrigin::kCold;
  ServingCounters counters;
  uint64_t last_batch_occupancy = 0;  // size of the last inference group
  uint64_t snapshot_version = 0;      // latest version this device published
  Status last_error;                  // most recent non-OK status, or OK
  uint64_t last_error_ns = 0;         // steady-clock ns of that status
};

// Copied-out view of one shard row. Its counter totals are derived from
// the device rows (WhiteboardImage::ShardTotals).
struct ShardRow {
  int shard = 0;
  bool retired = false;  // the shard's server has been torn down
  uint64_t sessions = 0;
  Status last_error;
  uint64_t last_error_ns = 0;
};

// Snapshot write-ahead-log health counters: kept by a logged SnapshotStore
// (serving/snapshot_store.h; all zero without a log) and shown as the
// whiteboard's WAL row. Defined here because obs sits below serving.
struct WalStats {
  uint64_t appends = 0;         // records appended since open
  uint64_t appended_bytes = 0;  // framed bytes those appends wrote
  uint64_t fsyncs = 0;          // explicit fsyncs (publishes + compactions)
  uint64_t compactions = 0;     // segment rewrites (TrimBelow)
  // Torn tails truncated off the log by Open (1 per recovering open) —
  // the counter that turns silent crash recovery into an assertable,
  // operator-visible event (whiteboard WAL row, chaos tests).
  uint64_t torn_tails_recovered = 0;
};

// The snapshot-consistent image Read() produces.
struct WhiteboardImage {
  std::vector<ShardRow> shards;    // shard-index order
  std::vector<DeviceRow> devices;  // device-id order
  WalStats wal;

  // Derived on every call from the device rows: the sum over the devices
  // now placed on `shard`, and over every device. A device's history
  // follows it across migrations, so a retired shard totals zero while the
  // fleet total is unchanged.
  ServingCounters ShardTotals(int shard) const;
  ServingCounters FleetTotals() const;

  // Human rendering: a shard table, a device table (truncated to
  // `max_devices` rows when non-zero), and a one-line WAL summary.
  std::string ToTable(size_t max_devices = 0) const;

  // Binary dump via common/serialize framing (magic + one framed record per
  // row), round-trippable with Deserialize.
  std::vector<uint8_t> Serialize() const;
  static Result<WhiteboardImage> Deserialize(const std::vector<uint8_t>& raw);
};

class Whiteboard {
 public:
  // Live, internally-synchronized handle to one device's row. Writers are
  // the owning shard's serving threads. Counters change under the row's
  // own lock, so one event's counters (a shed's class and reason) land
  // together; the placement and gauge fields are relaxed atomics.
  class Device {
   public:
    // Applies `fn` to the row's counters under the row lock.
    template <typename Fn>
    void Count(const Fn& fn) {
      MutexLock lock(row_mu_);
      fn(counters_);
    }
    void set_shard(int shard) { shard_.store(shard, kRelaxed); }
    void set_warm_start(WarmStartOrigin origin) {
      warm_start_.store(static_cast<uint8_t>(origin), kRelaxed);
    }
    void set_migrating(bool migrating) { migrating_.store(migrating, kRelaxed); }
    void set_last_batch_occupancy(uint64_t n) {
      last_batch_occupancy_.store(n, kRelaxed);
    }
    void set_snapshot_version(uint64_t version) {
      snapshot_version_.store(version, kRelaxed);
    }
    // Records a non-OK status with a steady-clock timestamp. OK statuses
    // are ignored so a success never erases the last failure.
    void RecordError(const Status& status);

   private:
    friend class Whiteboard;
    static constexpr auto kRelaxed = std::memory_order_relaxed;

    explicit Device(std::string device_id) : device_id_(std::move(device_id)) {}
    DeviceRow Snapshot() const;

    const std::string device_id_;
    std::atomic<int> shard_{0};
    std::atomic<uint8_t> warm_start_{0};
    std::atomic<bool> migrating_{false};
    std::atomic<uint64_t> last_batch_occupancy_{0};
    std::atomic<uint64_t> snapshot_version_{0};
    mutable Mutex row_mu_;
    ServingCounters counters_ QCORE_GUARDED_BY(row_mu_);
    Status last_error_ QCORE_GUARDED_BY(row_mu_);
    uint64_t last_error_ns_ QCORE_GUARDED_BY(row_mu_) = 0;
  };

  // Live handle to one shard's row: sessions, the retired flag and the
  // last error. Its counter totals are derived from its devices' rows
  // when an image is read.
  class Shard {
   public:
    void set_sessions(uint64_t n) { sessions_.store(n, kRelaxed); }
    void set_retired() { retired_.store(true, kRelaxed); }
    void RecordError(const Status& status);

   private:
    friend class Whiteboard;
    static constexpr auto kRelaxed = std::memory_order_relaxed;

    explicit Shard(int index) : index_(index) {}
    ShardRow Snapshot() const;

    const int index_;
    std::atomic<bool> retired_{false};
    std::atomic<uint64_t> sessions_{0};
    mutable Mutex error_mu_;
    Status last_error_ QCORE_GUARDED_BY(error_mu_);
    uint64_t last_error_ns_ QCORE_GUARDED_BY(error_mu_) = 0;
  };

  // Returns the row handle for `device_id`, creating it on first sight.
  // Re-upserting (a session re-attaching after migration or restart) keeps
  // the existing counters and warm-start origin — history survives moves —
  // but adopts the new shard. Handles stay valid for the whiteboard's
  // lifetime; rows are never removed, matching the "retired, not erased"
  // shard discipline.
  Device* UpsertDevice(const std::string& device_id, int shard,
                       WarmStartOrigin origin);
  // Row handle for shard `index`, creating it on first sight (idempotent).
  Shard* RegisterShard(int index);

  // Supplies the WAL row for Read() images; the ShardedFleetServer owning
  // the board installs a provider over its registry's wal_stats().
  void SetWalStatsProvider(std::function<WalStats()> provider);

  // Snapshot-consistent copy of every row.
  WhiteboardImage Read() const;

 private:
  // Lock order: mu_ before a row's own lock (Read snapshots rows under
  // mu_; Snapshot() takes the row's row_mu_ / error_mu_). The wal provider runs
  // OUTSIDE mu_ — it reaches back into the snapshot registry's lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Device>> devices_
      QCORE_GUARDED_BY(mu_);
  std::map<int, std::unique_ptr<Shard>> shards_ QCORE_GUARDED_BY(mu_);
  std::function<WalStats()> wal_provider_ QCORE_GUARDED_BY(mu_);
};

}  // namespace qcore

#endif  // QCORE_OBS_WHITEBOARD_H_
