// FleetBackend: the serving API v2 surface. Everything that fronts a fleet
// of calibration sessions — the single-pool FleetServer and the
// consistent-hash ShardedFleetServer (serving/router.h) — implements this
// interface, so callers (examples, benches, the serving test suites) are
// written once and run against any backend.
//
// Contract, shared by every implementation:
//   * Per-device submission order is execution order, and results are
//     bit-identical to the single-threaded pipeline for any thread count,
//     shard count, or batching configuration.
//   * TrySubmit* never blocks on model work and sheds with
//     kResourceExhausted under a configured queue bound; the Submit*
//     helpers are the unconditional forms for unbounded servers.
//   * PublishSnapshot is control-plane (never shed) and captures the model
//     in the device's submission order.
//   * Drain() returns only when every previously submitted task (including
//     work pending inside a batcher) has finished.
#ifndef QCORE_SERVING_BACKEND_H_
#define QCORE_SERVING_BACKEND_H_

#include <functional>
#include <future>
#include <string>

#include "common/status.h"
#include "core/continual.h"
#include "data/dataset.h"
#include "obs/whiteboard.h"
#include "serving/batcher.h"
#include "serving/metrics.h"
#include "serving/session.h"
#include "serving/snapshot.h"
#include "tensor/tensor.h"

namespace qcore {

// Per-submission overload-control knobs (serving/overload.h has the plane's
// full semantics).
struct InferenceSubmitOptions {
  // Latency budget in microseconds, measured from submission. 0 (default)
  // = no deadline. A request whose budget expires while parked in the
  // batcher or the session FIFO is shed with kDeadlineExceeded — its
  // future resolves to an InferenceResult whose `status` carries the code
  // and whose predictions are empty; it never reaches a forward pass.
  double latency_budget_us = 0.0;
};

class FleetBackend {
 public:
  virtual ~FleetBackend() = default;

  // Creates the device's session (clone of the backend's base model + net,
  // QCore copy, deterministic per-device seed). Must not already exist.
  virtual void RegisterDevice(const std::string& device_id, Dataset qcore) = 0;

  virtual bool HasDevice(const std::string& device_id) const = 0;
  virtual int num_sessions() const = 0;

  // Admission-controlled async quantized inference on the device's current
  // model. Sheds with kResourceExhausted when an admission bound is hit at
  // any level of the session/shard/fleet tree (never blocks, never
  // deadlocks — the overload fast-fail). `opts` carries the per-request
  // latency budget; a budget that expires post-admission resolves the
  // future with a kDeadlineExceeded result instead.
  virtual Result<std::future<InferenceResult>> TrySubmitInference(
      const std::string& device_id, Tensor x,
      const InferenceSubmitOptions& opts) = 0;

  // Budget-less convenience form (the historical two-argument API).
  Result<std::future<InferenceResult>> TrySubmitInference(
      const std::string& device_id, Tensor x) {
    return TrySubmitInference(device_id, std::move(x),
                              InferenceSubmitOptions{});
  }

  // Admission-controlled async continual-calibration step on one stream
  // batch; the test slice is evaluated after calibration. Sheds like
  // TrySubmitInference under overload.
  virtual Result<std::future<BatchStats>> TrySubmitCalibration(
      const std::string& device_id, Dataset batch, Dataset test_slice) = 0;

  // Unconditional submission forms, for backends without queue bounds. With
  // bounds configured, a shed submission is a programming error here
  // (checked) — overload-aware callers use TrySubmit*.
  std::future<InferenceResult> SubmitInference(const std::string& device_id,
                                               Tensor x);
  std::future<BatchStats> SubmitCalibration(const std::string& device_id,
                                            Dataset batch, Dataset test_slice);

  // Async snapshot publish of the device's current model into snapshots();
  // resolves to the assigned version. Runs in the session's task order (a
  // pending batched inference group is flushed first). Never shed.
  virtual std::future<uint64_t> PublishSnapshot(
      const std::string& device_id) = 0;

  // Blocks until every queued task (including pending batched inference and
  // tasks queued while draining) has finished, across all shards.
  virtual void Drain() = 0;

  // Read-side session access with a safe contract (replaces the v1
  // FleetServer::session() accessor, which handed out a raw pointer that
  // was only valid "after Drain" — unverifiable once a router can move the
  // session between shards). The backend quiesces the owning session:
  // pending batched work for the device is flushed, every queued task runs
  // to completion, and `fn` executes with exclusive access — concurrent
  // submissions for the device simply wait. `fn` must not submit work or
  // call Drain on this backend (it runs under the session's lock).
  virtual void WithSessionQuiesced(
      const std::string& device_id,
      const std::function<void(CalibrationSession&)>& fn) = 0;

  // Fleet-wide observability. metrics() holds the latency and occupancy
  // histograms (one instance shared by every shard of a sharded backend);
  // snapshots() is the federated (shared) registry.
  virtual ServingMetrics& metrics() = 0;
  virtual const ServingMetrics& metrics() const = 0;
  virtual SnapshotRegistry& snapshots() = 0;

  // Per-shard/per-device introspection rows, maintained write-through by
  // the serving layers (obs/whiteboard.h). Device rows are the only store
  // of the serving counters (accepted, shed, executed, ...); shard and
  // fleet totals are derived from them when an image is read. For sharded
  // backends this is the one fleet-wide board every shard writes into;
  // whiteboard().Read() is a snapshot-consistent image at any moment,
  // including mid-rebalance.
  virtual Whiteboard& whiteboard() = 0;
  virtual const Whiteboard& whiteboard() const = 0;
};

}  // namespace qcore

#endif  // QCORE_SERVING_BACKEND_H_
