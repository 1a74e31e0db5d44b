#include "obs/whiteboard.h"

#include <chrono>
#include <cmath>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/serialize.h"
#include "common/table_printer.h"

namespace qcore {

namespace {

constexpr uint32_t kWhiteboardMagic = 0x44425751;  // "QWBD"
// v2: WAL row gained torn_tails. v3: per-reason shed breakdown
// (queue-full / deadline / limiter) on shard and device rows. v4: shard
// rows gained the kernel panel-parallelism pair (panel_wide_dispatches,
// panel_tasks). v5: every counter moved onto the device row; shard rows
// carry no counters (their totals are derived when read).
constexpr uint32_t kWhiteboardVersion = 5;

// Every ServingCounters field, in serialization order. +=, == and the
// codec all walk this one list; the static_assert catches a field added
// to the struct but not here.
constexpr uint64_t ServingCounters::*kCounterFields[] = {
    &ServingCounters::accepted_inference,
    &ServingCounters::accepted_calibration,
    &ServingCounters::shed_inference,
    &ServingCounters::shed_calibration,
    &ServingCounters::shed_queue_full,
    &ServingCounters::shed_deadline,
    &ServingCounters::shed_limiter,
    &ServingCounters::inference_requests,
    &ServingCounters::inference_examples,
    &ServingCounters::calibration_batches,
    &ServingCounters::calibration_examples,
    &ServingCounters::snapshots_published,
    &ServingCounters::barrier_flushes,
    &ServingCounters::panel_wide_dispatches,
    &ServingCounters::panel_narrow_dispatches,
    &ServingCounters::panel_tasks,
    &ServingCounters::accuracy_micro_sum,
    &ServingCounters::accuracy_samples,
};
static_assert(sizeof(ServingCounters) ==
                  std::size(kCounterFields) * sizeof(uint64_t),
              "every ServingCounters field must be listed in kCounterFields");

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Decodes a u32 enum field, rejecting values past `last` as corruption
// rather than casting them into an out-of-range enum.
template <typename Enum>
Status ReadEnum(BinaryReader* r, Enum last, Enum* out) {
  auto v = r->ReadU32();
  if (!v.ok()) return v.status();
  if (v.value() > static_cast<uint32_t>(last)) {
    return Status::Corruption("whiteboard dump: enum value out of range");
  }
  *out = static_cast<Enum>(v.value());
  return Status::OK();
}

void WriteStatus(BinaryWriter* w, const Status& status) {
  w->WriteU32(static_cast<uint32_t>(status.code()));
  w->WriteString(status.message());
}

// Result<Status> cannot instantiate (ambiguous constructors), so the
// decoded status comes back through `out`.
Status ReadStatus(BinaryReader* r, Status* out) {
  StatusCode code = StatusCode::kOk;
  QCORE_RETURN_NOT_OK(ReadEnum(r, kMaxStatusCode, &code));
  auto message = r->ReadString();
  if (!message.ok()) return message.status();
  *out = Status(code, std::move(message).value());
  return Status::OK();
}

Status ReadU64(BinaryReader* r, uint64_t* out) {
  auto v = r->ReadU64();
  if (!v.ok()) return v.status();
  *out = v.value();
  return Status::OK();
}

std::vector<uint8_t> EncodeShardRow(const ShardRow& row) {
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(row.shard));
  w.WriteU32(row.retired ? 1 : 0);
  w.WriteU64(row.sessions);
  WriteStatus(&w, row.last_error);
  w.WriteU64(row.last_error_ns);
  return w.TakeBuffer();
}

Result<ShardRow> DecodeShardRow(std::vector<uint8_t> payload) {
  BinaryReader r(std::move(payload));
  ShardRow row;
  auto shard = r.ReadU32();
  if (!shard.ok()) return shard.status();
  row.shard = static_cast<int>(shard.value());
  auto retired = r.ReadU32();
  if (!retired.ok()) return retired.status();
  row.retired = retired.value() != 0;
  QCORE_RETURN_NOT_OK(ReadU64(&r, &row.sessions));
  QCORE_RETURN_NOT_OK(ReadStatus(&r, &row.last_error));
  QCORE_RETURN_NOT_OK(ReadU64(&r, &row.last_error_ns));
  if (!r.AtEnd()) return Status::Corruption("shard row: trailing bytes");
  return row;
}

std::vector<uint8_t> EncodeDeviceRow(const DeviceRow& row) {
  BinaryWriter w;
  w.WriteString(row.device_id);
  w.WriteU32(static_cast<uint32_t>(row.shard));
  w.WriteU32(static_cast<uint32_t>(row.activity));
  w.WriteU32(static_cast<uint32_t>(row.warm_start));
  for (auto field : kCounterFields) w.WriteU64(row.counters.*field);
  w.WriteU64(row.last_batch_occupancy);
  w.WriteU64(row.snapshot_version);
  WriteStatus(&w, row.last_error);
  w.WriteU64(row.last_error_ns);
  return w.TakeBuffer();
}

Result<DeviceRow> DecodeDeviceRow(std::vector<uint8_t> payload) {
  BinaryReader r(std::move(payload));
  DeviceRow row;
  auto device = r.ReadString();
  if (!device.ok()) return device.status();
  row.device_id = std::move(device).value();
  auto shard = r.ReadU32();
  if (!shard.ok()) return shard.status();
  row.shard = static_cast<int>(shard.value());
  QCORE_RETURN_NOT_OK(
      ReadEnum(&r, SessionActivity::kMigrating, &row.activity));
  QCORE_RETURN_NOT_OK(
      ReadEnum(&r, WarmStartOrigin::kCohortSnapshot, &row.warm_start));
  for (auto field : kCounterFields) {
    QCORE_RETURN_NOT_OK(ReadU64(&r, &(row.counters.*field)));
  }
  QCORE_RETURN_NOT_OK(ReadU64(&r, &row.last_batch_occupancy));
  QCORE_RETURN_NOT_OK(ReadU64(&r, &row.snapshot_version));
  QCORE_RETURN_NOT_OK(ReadStatus(&r, &row.last_error));
  QCORE_RETURN_NOT_OK(ReadU64(&r, &row.last_error_ns));
  if (!r.AtEnd()) return Status::Corruption("device row: trailing bytes");
  return row;
}

std::string ErrorCell(const Status& status) {
  if (status.ok()) return "-";
  // Code name only: messages carry device ids and queue depths that would
  // blow up the column width; the full text is in the binary dump.
  return StatusCodeName(status.code());
}

}  // namespace

const char* WarmStartOriginName(WarmStartOrigin origin) {
  switch (origin) {
    case WarmStartOrigin::kCold: return "cold";
    case WarmStartOrigin::kOwnSnapshot: return "own";
    case WarmStartOrigin::kCohortSnapshot: return "cohort";
  }
  return "unknown";
}

const char* SessionActivityName(SessionActivity activity) {
  switch (activity) {
    case SessionActivity::kIdle: return "idle";
    case SessionActivity::kActive: return "active";
    case SessionActivity::kMigrating: return "migrating";
  }
  return "unknown";
}

// ------------------------------------------------------------ ServingCounters

void ServingCounters::AddAccuracySample(float accuracy) {
  // Rounded, not truncated, so the stored sum is exact to the half-unit.
  accuracy_micro_sum += static_cast<uint64_t>(std::llround(accuracy * 1e6f));
  ++accuracy_samples;
}

float ServingCounters::mean_accuracy() const {
  if (accuracy_samples == 0) return 0.0f;
  return static_cast<float>(static_cast<double>(accuracy_micro_sum) / 1e6 /
                            static_cast<double>(accuracy_samples));
}

uint64_t ServingCounters::queued_inference() const {
  const uint64_t done = inference_requests + shed_deadline;
  return accepted_inference > done ? accepted_inference - done : 0;
}

uint64_t ServingCounters::queued_calibration() const {
  return accepted_calibration > calibration_batches
             ? accepted_calibration - calibration_batches
             : 0;
}

ServingCounters& ServingCounters::operator+=(const ServingCounters& other) {
  for (auto field : kCounterFields) this->*field += other.*field;
  return *this;
}

bool ServingCounters::operator==(const ServingCounters& other) const {
  for (auto field : kCounterFields) {
    if (this->*field != other.*field) return false;
  }
  return true;
}

// ------------------------------------------------------------ Device / Shard

void Whiteboard::Device::RecordError(const Status& status) {
  if (status.ok()) return;
  MutexLock lock(row_mu_);
  last_error_ = status;
  last_error_ns_ = NowNs();
}

DeviceRow Whiteboard::Device::Snapshot() const {
  DeviceRow row;
  row.device_id = device_id_;
  row.shard = shard_.load(kRelaxed);
  row.warm_start = static_cast<WarmStartOrigin>(warm_start_.load(kRelaxed));
  row.last_batch_occupancy = last_batch_occupancy_.load(kRelaxed);
  row.snapshot_version = snapshot_version_.load(kRelaxed);
  {
    MutexLock lock(row_mu_);
    row.counters = counters_;
    row.last_error = last_error_;
    row.last_error_ns = last_error_ns_;
  }
  // Activity is derived from the counters just copied, so an idle row
  // reads idle no matter which thread recorded its last completion.
  if (migrating_.load(kRelaxed)) {
    row.activity = SessionActivity::kMigrating;
  } else if (row.counters.queued_inference() +
                 row.counters.queued_calibration() >
             0) {
    row.activity = SessionActivity::kActive;
  } else {
    row.activity = SessionActivity::kIdle;
  }
  return row;
}

void Whiteboard::Shard::RecordError(const Status& status) {
  if (status.ok()) return;
  MutexLock lock(error_mu_);
  last_error_ = status;
  last_error_ns_ = NowNs();
}

ShardRow Whiteboard::Shard::Snapshot() const {
  ShardRow row;
  row.shard = index_;
  row.retired = retired_.load(kRelaxed);
  row.sessions = sessions_.load(kRelaxed);
  {
    MutexLock lock(error_mu_);
    row.last_error = last_error_;
    row.last_error_ns = last_error_ns_;
  }
  return row;
}

// ---------------------------------------------------------------- Whiteboard

Whiteboard::Device* Whiteboard::UpsertDevice(const std::string& device_id,
                                             int shard,
                                             WarmStartOrigin origin) {
  MutexLock lock(mu_);
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    auto device = std::unique_ptr<Device>(new Device(device_id));
    device->set_shard(shard);
    device->set_warm_start(origin);
    it = devices_.emplace(device_id, std::move(device)).first;
  } else {
    // Re-attach after a migration or restart: the row (and its history)
    // persists; only the placement changes.
    it->second->set_shard(shard);
    it->second->set_migrating(false);
  }
  return it->second.get();
}

Whiteboard::Shard* Whiteboard::RegisterShard(int index) {
  MutexLock lock(mu_);
  auto it = shards_.find(index);
  if (it == shards_.end()) {
    it = shards_.emplace(index, std::unique_ptr<Shard>(new Shard(index))).first;
  } else {
    // A shrink-then-grow rebalance can bring a retired index back to life;
    // the revived shard keeps the old row (and its history) but is live.
    it->second->retired_.store(false, Shard::kRelaxed);
  }
  return it->second.get();
}

void Whiteboard::SetWalStatsProvider(std::function<WalStats()> provider) {
  MutexLock lock(mu_);
  wal_provider_ = std::move(provider);
}

WhiteboardImage Whiteboard::Read() const {
  WhiteboardImage image;
  std::function<WalStats()> wal_provider;
  {
    MutexLock lock(mu_);
    image.shards.reserve(shards_.size());
    for (const auto& [index, shard] : shards_) {
      image.shards.push_back(shard->Snapshot());
    }
    image.devices.reserve(devices_.size());
    for (const auto& [id, device] : devices_) {
      image.devices.push_back(device->Snapshot());
    }
    wal_provider = wal_provider_;
  }
  // The provider reaches into the snapshot registry, which takes its own
  // lock — call it outside mu_ to keep lock ordering trivially acyclic.
  if (wal_provider) image.wal = wal_provider();
  return image;
}

// ----------------------------------------------------------- WhiteboardImage

ServingCounters WhiteboardImage::ShardTotals(int shard) const {
  ServingCounters total;
  for (const DeviceRow& row : devices) {
    if (row.shard == shard) total += row.counters;
  }
  return total;
}

ServingCounters WhiteboardImage::FleetTotals() const {
  ServingCounters total;
  for (const DeviceRow& row : devices) total += row.counters;
  return total;
}

std::string WhiteboardImage::ToTable(size_t max_devices) const {
  std::ostringstream out;
  TablePrinter shard_table({"shard", "state", "sessions", "inf_req",
                            "cal_batches", "snapshots", "shed_q", "shed_dl",
                            "shed_lim", "barrier", "panels", "last_error"});
  for (const ShardRow& row : shards) {
    const ServingCounters c = ShardTotals(row.shard);
    // panels column: wide dispatches / chunk tasks they fanned out.
    shard_table.AddRow({std::to_string(row.shard),
                        row.retired ? "retired" : "live",
                        std::to_string(row.sessions),
                        std::to_string(c.inference_requests),
                        std::to_string(c.calibration_batches),
                        std::to_string(c.snapshots_published),
                        std::to_string(c.shed_queue_full),
                        std::to_string(c.shed_deadline),
                        std::to_string(c.shed_limiter),
                        std::to_string(c.barrier_flushes),
                        std::to_string(c.panel_wide_dispatches) + "/" +
                            std::to_string(c.panel_tasks),
                        ErrorCell(row.last_error)});
  }
  out << shard_table.ToString();

  TablePrinter device_table({"device", "shard", "state", "warm", "q_inf",
                             "q_cal", "acc_inf", "acc_cal", "shed_q",
                             "shed_dl", "shed_lim", "occ", "batches",
                             "snap_ver", "last_error"});
  size_t shown = 0;
  for (const DeviceRow& row : devices) {
    if (max_devices > 0 && shown == max_devices) break;
    ++shown;
    const ServingCounters& c = row.counters;
    device_table.AddRow(
        {row.device_id, std::to_string(row.shard),
         SessionActivityName(row.activity),
         WarmStartOriginName(row.warm_start),
         std::to_string(c.queued_inference()),
         std::to_string(c.queued_calibration()),
         std::to_string(c.accepted_inference),
         std::to_string(c.accepted_calibration),
         std::to_string(c.shed_queue_full),
         std::to_string(c.shed_deadline),
         std::to_string(c.shed_limiter),
         std::to_string(row.last_batch_occupancy),
         std::to_string(c.calibration_batches),
         std::to_string(row.snapshot_version), ErrorCell(row.last_error)});
  }
  out << device_table.ToString();
  if (max_devices > 0 && devices.size() > shown) {
    out << "  ... " << (devices.size() - shown) << " more devices\n";
  }
  out << "wal: appends=" << wal.appends << " bytes=" << wal.appended_bytes
      << " fsyncs=" << wal.fsyncs << " compactions=" << wal.compactions
      << " torn_tails=" << wal.torn_tails_recovered << "\n";
  return out.str();
}

std::vector<uint8_t> WhiteboardImage::Serialize() const {
  std::vector<uint8_t> out;
  BinaryWriter header;
  header.WriteU32(kWhiteboardMagic);
  header.WriteU32(kWhiteboardVersion);
  header.WriteU32(static_cast<uint32_t>(shards.size()));
  header.WriteU32(static_cast<uint32_t>(devices.size()));
  header.WriteU64(wal.appends);
  header.WriteU64(wal.appended_bytes);
  header.WriteU64(wal.fsyncs);
  header.WriteU64(wal.compactions);
  header.WriteU64(wal.torn_tails_recovered);
  AppendFramedRecord(header.TakeBuffer(), &out);
  for (const ShardRow& row : shards) {
    AppendFramedRecord(EncodeShardRow(row), &out);
  }
  for (const DeviceRow& row : devices) {
    AppendFramedRecord(EncodeDeviceRow(row), &out);
  }
  return out;
}

Result<WhiteboardImage> WhiteboardImage::Deserialize(
    const std::vector<uint8_t>& raw) {
  size_t pos = 0;
  auto header_frame = ReadFramedRecord(raw, &pos);
  if (!header_frame.ok()) return header_frame.status();
  BinaryReader header(std::move(header_frame).value());
  auto magic = header.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kWhiteboardMagic) {
    return Status::Corruption("whiteboard dump: bad magic");
  }
  auto version = header.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kWhiteboardVersion) {
    return Status::Corruption("whiteboard dump: unsupported version");
  }
  auto num_shards = header.ReadU32();
  if (!num_shards.ok()) return num_shards.status();
  auto num_devices = header.ReadU32();
  if (!num_devices.ok()) return num_devices.status();

  WhiteboardImage image;
  QCORE_RETURN_NOT_OK(ReadU64(&header, &image.wal.appends));
  QCORE_RETURN_NOT_OK(ReadU64(&header, &image.wal.appended_bytes));
  QCORE_RETURN_NOT_OK(ReadU64(&header, &image.wal.fsyncs));
  QCORE_RETURN_NOT_OK(ReadU64(&header, &image.wal.compactions));
  QCORE_RETURN_NOT_OK(ReadU64(&header, &image.wal.torn_tails_recovered));

  for (uint32_t i = 0; i < num_shards.value(); ++i) {
    auto frame = ReadFramedRecord(raw, &pos);
    if (!frame.ok()) return frame.status();
    auto row = DecodeShardRow(std::move(frame).value());
    if (!row.ok()) return row.status();
    image.shards.push_back(std::move(row).value());
  }
  for (uint32_t i = 0; i < num_devices.value(); ++i) {
    auto frame = ReadFramedRecord(raw, &pos);
    if (!frame.ok()) return frame.status();
    auto row = DecodeDeviceRow(std::move(frame).value());
    if (!row.ok()) return row.status();
    image.devices.push_back(std::move(row).value());
  }
  if (pos != raw.size()) {
    return Status::Corruption("whiteboard dump: trailing bytes");
  }
  return image;
}

}  // namespace qcore
