// FleetServer: the single-shard FleetBackend — multiplexes many per-device
// CalibrationSessions over one shared ThreadPool, interleaving
// quantized-inference requests with background continual-calibration work
// (the serving-runtime analogue of the paper's single-device loop, scaled
// out). The sharded backend (serving/router.h) composes N of these behind a
// consistent-hash router.
//
// Scheduling model: each session is an actor. Work for a device goes into
// that device's FIFO; a session is "pumped" by at most one pool worker at a
// time, so session state needs no locks and per-session execution order
// equals submission order. Consequences:
//   * sessions never contend — fleet throughput scales with worker count;
//   * a session's results are bit-identical regardless of num_threads
//     (0 = inline, N = pool), because its Rng consumption depends only on
//     its own task order.
//
// On top of the actor layer sit three serving-plane mechanisms:
//   * Batching (opt-in): an InferenceBatcher coalesces inference
//     submissions into per-device grouped forward passes (size- or
//     deadline-triggered), executed as ONE session task per group — one
//     simulated device-link round trip and one forward pass instead of
//     per-request ones. Model-mutating submissions (calibration, snapshot)
//     act as per-device barriers that flush the pending group first, so
//     batched results and delivery order are bit-identical to the
//     unbatched path.
//   * Priorities: session pumps triggered by inference or snapshot work are
//     scheduled at TaskPriority::kHigh, calibration pumps at kLow — under
//     overload the pool serves inference first and calibration backlogs
//     instead (two-level queue in runtime/thread_pool). With
//     calibration_aging_us set, a calibration pump that has waited past
//     the threshold is promoted ahead of queued inference pumps, so
//     calibration makes progress even under a sustained flood. Priority
//     reorders work only ACROSS sessions, never within one, so
//     determinism holds.
//   * Backpressure (opt-in): with queue bounds set, TrySubmit* fast-fails
//     with kResourceExhausted once an admission cap is hit. Bounds compose
//     down an AdmissionLimiter tree (serving/overload.h): per-session caps
//     (the legacy shared bound plus per-class forms), a per-shard cap, and
//     — behind a router — a fleet-wide cap; shed/accepted counts and a
//     per-reason shed breakdown land on the device's whiteboard row,
//     queue-depth samples in ServingMetrics. Orthogonally, a submission
//     may carry a latency budget (InferenceSubmitOptions); once admitted,
//     its deadline is re-checked at batch flush and at exec start, and
//     expired requests resolve with kDeadlineExceeded instead of burning
//     a forward pass.
//
// Results come back through std::future; event counters land on each
// device's whiteboard row, the ServingMetrics histograms aggregate latency
// and occupancy across all sessions, and calibrated models can be
// published into the SnapshotRegistry (owned, or shared with sibling
// shards) as immutable copy-on-write versions.
//
// Session migration: DetachSession publishes a barrier snapshot (flushing
// any pending batched group first), waits for the session to quiesce,
// serializes its continuation state (Rng position, resampled QCore, batch
// counter), and removes it; AttachSession reconstructs the session from the
// registry version plus that continuation — bit-identical to never having
// moved. The sharded router drives these two to rebalance devices across
// shards live.
#ifndef QCORE_SERVING_SERVER_H_
#define QCORE_SERVING_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/continual.h"
#include "runtime/thread_pool.h"
#include "serving/backend.h"
#include "serving/batcher.h"
#include "serving/metrics.h"
#include "serving/overload.h"
#include "serving/session.h"
#include "serving/snapshot.h"

namespace qcore {

struct FleetServerOptions {
  // Pool workers. 0 = run every task inline on the submitting thread (the
  // reference mode the determinism tests compare against).
  int num_threads = 4;
  // Per-session continual-calibration configuration (Algorithms 3+4).
  ContinualOptions continual;
  // Fleet seed; each session's Rng seed is DeviceSeed(seed, device_id) —
  // independent of which shard hosts the session.
  uint64_t seed = 0x5EED;
  // Publish a session snapshot every k calibration batches (0 = never;
  // PublishSnapshot remains available on demand).
  int snapshot_every = 0;
  // Fleet-simulation knob: every inference/calibration task first waits this
  // long, emulating the device link (upload of the batch / request RTT).
  // Workers overlap these waits with other sessions' compute, exactly as a
  // real serving runtime overlaps network I/O — which is also what lets the
  // thread-scaling bench demonstrate overlap gains on any host. 0 = off.
  // A batched inference group pays the link ONCE — that amortization is the
  // batching win the throughput bench measures.
  double simulated_device_rtt_ms = 0.0;
  // Coalesce inference submissions through an InferenceBatcher. Off by
  // default: request-at-a-time serving, the reference the batching tests
  // compare against.
  bool enable_batching = false;
  InferenceBatcherOptions batching;
  // Legacy shared overload bound: maximum outstanding tasks per session of
  // EITHER class (queued, pending in the batcher, or running). 0 =
  // unbounded. Kept as the "both classes together" bound for compatibility;
  // the per-class bounds below compose with it (admission requires every
  // configured bound to hold).
  int max_queue_per_session = 0;
  // Per-class bounds (ROADMAP backpressure follow-up): cap outstanding
  // inference and calibration independently, so a calibration backlog can
  // never consume the admission budget of latency-sensitive inference (and
  // vice versa). 0 = that class unbounded by its own cap.
  int max_inference_queue_per_session = 0;
  int max_calibration_queue_per_session = 0;
  // Shard-level admission cap: outstanding tasks of BOTH classes summed
  // over every session this server hosts. 0 = unbounded. Composes with the
  // per-session bounds through the AdmissionLimiter tree (serving/
  // overload.h): admission must hold at session, shard, AND fleet level.
  int max_queue_per_shard = 0;
  // Priority aging for the two-level pool: a calibration (kLow) pump that
  // has waited this many microseconds runs ahead of queued inference
  // pumps, guaranteeing calibration progress under a sustained inference
  // flood. 0 = strict priority (calibration can starve).
  uint64_t calibration_aging_us = 0;
  // Snapshot-distribution warm starts: when set, RegisterDevice seeds the
  // new session's model from the registry instead of the factory base
  // model — the device's own latest snapshot when one exists (restart
  // recovery over a durable registry), else the cohort-nearest device's
  // latest (published by a sibling or merged in via
  // SnapshotRegistry::ImportDelta), else — including when the nearest
  // snapshot is from an incompatible architecture — the base model as
  // before. Only
  // the model codes warm-start; the session's Rng/QCore state is fresh —
  // continuation state travels via DetachSession/AttachSession, not
  // snapshots.
  bool warm_start_from_registry = false;
};

// Everything needed to re-create a session on another FleetServer,
// bit-identically: the registry version of the barrier snapshot that holds
// its model codes, plus the serialized continuation state (see
// CalibrationSession::SerializeContinuation). Producing one requires the
// source and target to share a SnapshotRegistry (the sharded router's
// federated registry).
struct SessionHandoff {
  std::string device_id;
  uint64_t barrier_version = 0;
  std::vector<uint8_t> continuation;
  // Trace span covering the whole migration (detach event on the source,
  // attach event on the target), so a rebalance window reconstructs as one
  // timeline per moved device.
  uint64_t trace_span = 0;
};

class FleetServer : public FleetBackend {
 public:
  // `base_model` is the server-prepared deployed model (quantize + initial
  // calibration done, shadows dropped) and `base_bf` its trained
  // bit-flipping net; every registered device starts from clones of these.
  // Both are held by reference and re-cloned on every RegisterDevice, so
  // they must outlive the server. `shared_registry` (optional) makes this
  // server publish into an external registry instead of its own — the
  // sharded router passes its federated registry so versions are globally
  // monotonic across shards. `shared_metrics` (optional) follows the
  // same pattern for the histograms: the router passes one instance into
  // every shard. `shared_whiteboard` (optional) does so for introspection
  // rows, the only store of the serving counters: the router passes its
  // fleet-wide board (and this server's `shard_index` on it) so every
  // shard writes into one place; standalone servers own their board as
  // shard 0. All of them must outlive the server.
  // `shared_limiter` (optional) plugs this server into an external
  // admission tree — the sharded router's, whose fleet-level caps then
  // bound all shards together. When null the server owns a private limiter
  // with an unbounded fleet root (single-shard deployments keep their
  // historical per-session semantics exactly).
  FleetServer(const QuantizedModel& base_model, const BitFlipNet& base_bf,
              FleetServerOptions options,
              SnapshotRegistry* shared_registry = nullptr,
              ServingMetrics* shared_metrics = nullptr,
              Whiteboard* shared_whiteboard = nullptr, int shard_index = 0,
              AdmissionLimiter* shared_limiter = nullptr);

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  // Drains all in-flight work, then stops the pool.
  ~FleetServer() override;

  void RegisterDevice(const std::string& device_id, Dataset qcore) override;

  bool HasDevice(const std::string& device_id) const override;
  int num_sessions() const override;

  // Re-expose the base's budget-less convenience overload next to the
  // override (an override otherwise hides every base overload of the name).
  using FleetBackend::TrySubmitInference;
  Result<std::future<InferenceResult>> TrySubmitInference(
      const std::string& device_id, Tensor x,
      const InferenceSubmitOptions& opts) override;

  Result<std::future<BatchStats>> TrySubmitCalibration(
      const std::string& device_id, Dataset batch,
      Dataset test_slice) override;

  std::future<uint64_t> PublishSnapshot(const std::string& device_id) override;

  // Blocks until every queued task (including pending batched inference and
  // tasks queued while draining) has finished.
  void Drain() override;

  void WithSessionQuiesced(
      const std::string& device_id,
      const std::function<void(CalibrationSession&)>& fn) override;

  // Session migration (the sharded router's rebalancing primitives; see the
  // file comment). The caller must guarantee no concurrent submissions for
  // the device — the router runs the handoff under its SHARED routing lock
  // while the device's migration pin parks its submissions (router.h).
  // DetachSession publishes the barrier snapshot, quiesces, serializes, and
  // removes the session; AttachSession re-creates it from the handoff
  // (whose barrier_version must resolve in this server's snapshots()).
  SessionHandoff DetachSession(const std::string& device_id);
  void AttachSession(const SessionHandoff& handoff);

  ServingMetrics& metrics() override { return *metrics_; }
  const ServingMetrics& metrics() const override { return *metrics_; }
  SnapshotRegistry& snapshots() override { return *registry_; }
  Whiteboard& whiteboard() override { return *whiteboard_; }
  const Whiteboard& whiteboard() const override { return *whiteboard_; }

 private:
  struct SessionState {
    template <typename... Args>
    explicit SessionState(Args&&... args)
        : session(std::forward<Args>(args)...) {}
    CalibrationSession session;
    Mutex mu;
    CondVar idle_cv;  // signaled when pumping stops
    std::deque<std::function<void()>> queue QCORE_GUARDED_BY(mu);
    // A pool worker currently owns this session.
    bool pumping QCORE_GUARDED_BY(mu) = false;
    // This session's leaf in the admission tree. Outstanding-task gauges
    // (queued here, pending in the batcher, or running) live on the node;
    // admission reserves leaf-to-root, so the legacy per-session bounds
    // and the shard/fleet caps all act through this one pointer. The node
    // outlives the session (limiter nodes are never removed).
    AdmissionNode* admission = nullptr;
    // Whiteboard row handle + interned trace name, captured once at
    // registration so hot-path writes are a pointer chase, not a map walk.
    Whiteboard::Device* wb = nullptr;
    uint32_t trace_name = 0;
  };

  // Enqueues a closure on the session's FIFO and schedules a pump if none
  // is active. `priority` is the pool-level class of the pump this task
  // triggers (inference/snapshot = kHigh, calibration = kLow).
  void EnqueueOnSession(SessionState* state, std::function<void()> task,
                        TaskPriority priority);
  // Runs tasks for `state` until its queue is empty.
  void PumpSession(SessionState* state);

  // InferenceBatcher sink: enqueues one session task that runs the whole
  // group as a single forward pass and scatters results to the promises.
  void FlushInferenceGroup(const std::string& device_id,
                           std::vector<PendingInference> group);

  // Admission control: reserves a slot on every level of the admission
  // tree (session -> shard -> fleet), or sheds — counting the shed's class
  // and reason on the device row, recording the whiteboard last-error and
  // a kShed trace event — and returns the concrete kResourceExhausted
  // status.
  Status AdmitTask(SessionState* state, const std::string& device_id,
                   bool is_inference, uint64_t span);
  // Releases `count` slots of the given class (task completion).
  void ReleaseTask(SessionState* state, bool is_inference, int count);

  // Deadline shedding: resolves an admitted-but-expired inference request
  // with a kDeadlineExceeded result (empty predictions), accounts the shed
  // (whiteboard row, kDeadlineShed trace), and releases its admission
  // slot. Called wherever expiry is detected — the flush sink or the exec
  // prologue — so an expired request never reaches a forward pass.
  void ShedDeadline(SessionState* state, uint64_t span,
                    const std::shared_ptr<std::promise<InferenceResult>>&
                        promise,
                    double elapsed_seconds);

  // Flushes the device's pending batched group ahead of model-mutating work
  // (calibration, snapshot, quiesce) and accounts the flush when one was
  // actually forced (device row, trace event). No-op without a batcher.
  void BarrierFlush(const std::string& device_id, SessionState* state,
                    uint64_t span);

  SessionState* FindSession(const std::string& device_id);

  // Flushes the device's pending batched group (if any), then blocks until
  // the session's FIFO is empty and no pump owns it; returns holding
  // `state->mu` so the caller has exclusive access (callers release it with
  // an explicit state->mu.Unlock() after their critical section). Must not
  // run on a pool worker (it would wait for itself).
  void QuiesceSession(const std::string& device_id, SessionState* state)
      QCORE_ACQUIRE(state->mu);

  // In-flight accounting: a task counts from EnqueueOnSession until its
  // closure has run. Drain() waits on this, not on the pool, because a task
  // can sit in a session FIFO during the window between enqueue and the
  // pump being handed to the pool.
  void TaskFinished();

  const QuantizedModel& base_model_;
  const BitFlipNet& base_bf_;
  FleetServerOptions options_;
  ServingMetrics owned_metrics_;  // used unless a shared one was passed
  ServingMetrics* metrics_;
  SnapshotRegistry owned_registry_;  // used unless a shared one was passed
  SnapshotRegistry* registry_;
  Whiteboard owned_whiteboard_;  // used unless a shared one was passed
  Whiteboard* whiteboard_;
  Whiteboard::Shard* wb_shard_;  // this server's row on whiteboard_
  const int shard_index_;
  // Admission tree (see ctor). Declared before pool_ so nodes outlive any
  // straggling pump's release. Session nodes hang off shard_node_.
  std::unique_ptr<AdmissionLimiter> owned_limiter_;
  AdmissionLimiter* limiter_;
  AdmissionNode* shard_node_;

  // Guards the map, not the sessions (each SessionState carries its own mu).
  mutable Mutex sessions_mu_;
  std::map<std::string, std::unique_ptr<SessionState>> sessions_
      QCORE_GUARDED_BY(sessions_mu_);

  Mutex drain_mu_;
  CondVar drain_cv_;
  int in_flight_ QCORE_GUARDED_BY(drain_mu_) = 0;

  // Destruction order (reverse of declaration) is load-bearing:
  //   1. batcher_ — joins the flusher and hands leftover groups to the
  //      pool, which must still be alive;
  //   2. pool_ — joins the workers, so every pump wrapper has finished
  //      before the sessions and drain primitives above are freed.
  ThreadPool pool_;
  std::unique_ptr<InferenceBatcher> batcher_;  // null unless enable_batching
};

}  // namespace qcore

#endif  // QCORE_SERVING_SERVER_H_
