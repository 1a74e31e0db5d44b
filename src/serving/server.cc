#include "serving/server.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "testing/fault_injector.h"

namespace qcore {

namespace {

// Kernel panel-parallelism attribution. The dispatch counters are
// thread-local and the whole forward pass runs on this exec thread, so the
// before/after delta is exactly this request's GEMMs even with concurrent
// sessions on other pool workers (a process-global counter would smear
// them together).
void AddPanels(const kernels::GemmDispatchCounters& panels,
               ServingCounters* c) {
  c->panel_wide_dispatches += panels.wide;
  c->panel_narrow_dispatches += panels.narrow;
  c->panel_tasks += panels.panel_tasks;
}

void SimulateDeviceLink(double rtt_ms) {
  // An injected RTT spike stretches one round trip even when simulation is
  // off (rtt_ms == 0) — a slow device is purely latency, so every result
  // stays bit-identical; only the timeline moves.
  uint64_t spike_us = 0;
  if (MaybeFault(FaultPoint::kDeviceRttSpike, &spike_us)) {
    std::this_thread::sleep_for(std::chrono::microseconds(spike_us));
  }
  if (rtt_ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      rtt_ms));
}

}  // namespace

FleetServer::FleetServer(const QuantizedModel& base_model,
                         const BitFlipNet& base_bf,
                         FleetServerOptions options,
                         SnapshotRegistry* shared_registry,
                         ServingMetrics* shared_metrics,
                         Whiteboard* shared_whiteboard, int shard_index,
                         AdmissionLimiter* shared_limiter)
    : base_model_(base_model),
      base_bf_(base_bf),
      options_(std::move(options)),
      metrics_(shared_metrics != nullptr ? shared_metrics : &owned_metrics_),
      registry_(shared_registry != nullptr ? shared_registry
                                           : &owned_registry_),
      whiteboard_(shared_whiteboard != nullptr ? shared_whiteboard
                                               : &owned_whiteboard_),
      wb_shard_(whiteboard_->RegisterShard(shard_index)),
      shard_index_(shard_index),
      // Standalone servers own a limiter with an unbounded fleet root, so
      // only the shard and session caps bite; behind a router the shared
      // tree adds the fleet-wide cap on top.
      owned_limiter_(shared_limiter == nullptr
                         ? std::make_unique<AdmissionLimiter>(AdmissionCaps{})
                         : nullptr),
      limiter_(shared_limiter != nullptr ? shared_limiter
                                         : owned_limiter_.get()),
      shard_node_(limiter_->AddShard(
          AdmissionCaps{options_.max_queue_per_shard, 0, 0})),
      pool_(ThreadPoolOptions{options_.num_threads,
                              options_.calibration_aging_us}) {
  // The WAL row reflects whatever store backs the registry (all zeros over
  // a memory store). With a shared whiteboard every shard installs an
  // equivalent provider over the same shared registry — last one wins,
  // harmlessly. The captured registry outlives the board by the owners'
  // declaration orders (server and router both).
  whiteboard_->SetWalStatsProvider([registry = registry_]() {
    const WalStats stats = registry->wal_stats();
    WalRow row;
    row.appends = stats.appends;
    row.appended_bytes = stats.appended_bytes;
    row.fsyncs = stats.fsyncs;
    row.compactions = stats.compactions;
    row.torn_tails = stats.torn_tails_recovered;
    return row;
  });
  if (options_.enable_batching) {
    batcher_ = std::make_unique<InferenceBatcher>(
        options_.batching,
        [this](const std::string& device_id,
               std::vector<PendingInference> group) {
          FlushInferenceGroup(device_id, std::move(group));
        });
  }
}

FleetServer::~FleetServer() {
  Drain();
  // On a shared (router) whiteboard the row outlives this server; flag it
  // so dumps distinguish a retired shard from a quiet one. Its devices'
  // counters moved with them, so fleet totals survive retirement.
  wb_shard_->set_retired();
}

void FleetServer::RegisterDevice(const std::string& device_id,
                                 Dataset qcore) {
  auto state = std::make_unique<SessionState>(
      device_id, base_model_, base_bf_, std::move(qcore), options_.continual,
      DeviceSeed(options_.seed, device_id));
  WarmStartOrigin origin = WarmStartOrigin::kCold;
  if (options_.warm_start_from_registry) {
    // Seed the session from calibrated state instead of the factory model:
    // its own latest version (restart recovery) or the cohort-nearest
    // device's (cross-process warm start via an imported delta). No
    // registry content — or a snapshot from an incompatible architecture
    // (a shared/imported registry can hold foreign fleets' models) — means
    // a plain cold start: RestoreInto fails atomically, leaving the
    // freshly cloned base model untouched.
    if (auto snap = registry_->NearestFor(device_id)) {
      if (SnapshotRegistry::RestoreInto(*snap, state->session.model())
              .ok()) {
        origin = snap->device_id == device_id
                     ? WarmStartOrigin::kOwnSnapshot
                     : WarmStartOrigin::kCohortSnapshot;
      }
    }
  }
  state->wb = whiteboard_->UpsertDevice(device_id, shard_index_, origin);
  state->wb->set_warm_start(origin);  // re-registration re-derives origin
  state->trace_name = TraceRing::Global().Intern(device_id);
  state->admission = limiter_->AddSession(
      shard_node_,
      AdmissionCaps{options_.max_queue_per_session,
                    options_.max_inference_queue_per_session,
                    options_.max_calibration_queue_per_session});
  MutexLock lock(sessions_mu_);
  const bool inserted =
      sessions_.emplace(device_id, std::move(state)).second;
  QCORE_CHECK_MSG(inserted, ("device registered twice: " + device_id).c_str());
  wb_shard_->set_sessions(sessions_.size());
}

bool FleetServer::HasDevice(const std::string& device_id) const {
  MutexLock lock(sessions_mu_);
  return sessions_.count(device_id) > 0;
}

int FleetServer::num_sessions() const {
  MutexLock lock(sessions_mu_);
  return static_cast<int>(sessions_.size());
}

FleetServer::SessionState* FleetServer::FindSession(
    const std::string& device_id) {
  MutexLock lock(sessions_mu_);
  auto it = sessions_.find(device_id);
  QCORE_CHECK_MSG(it != sessions_.end(),
                  ("unknown device: " + device_id).c_str());
  return it->second.get();
}

void FleetServer::BarrierFlush(const std::string& device_id,
                               SessionState* state, uint64_t span) {
  if (!batcher_) return;
  uint64_t delay_us = 0;
  if (MaybeFault(FaultPoint::kBarrierDelay, &delay_us)) {
    // Stretch the window between admission and the forced flush. Ordering
    // is untouched — the flush still runs before the mutating task is
    // enqueued — so this perturbs timing, never results.
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  if (batcher_->FlushDevice(device_id)) {
    // A group actually left early because of this barrier — the signal
    // that mutation cadence is cutting batches short.
    state->wb->Count([](ServingCounters& c) { ++c.barrier_flushes; });
    TraceRing::Global().Record(TraceKind::kBarrierFlush, span,
                               state->trace_name);
  }
}

void FleetServer::QuiesceSession(const std::string& device_id,
                                 SessionState* state) {
  // Pending batched requests live outside the session FIFO; hand them to
  // the sink first so the idle wait below covers them. Quiesce is a
  // barrier like any other model-mutating entry point; its span is the
  // caller's current one (0 when quiescing outside any request).
  BarrierFlush(device_id, state, TraceRing::CurrentSpan());
  state->mu.Lock();
  state->idle_cv.Wait(state->mu, [state]() {
    state->mu.AssertHeld();
    return state->queue.empty() && !state->pumping;
  });
}

void FleetServer::WithSessionQuiesced(
    const std::string& device_id,
    const std::function<void(CalibrationSession&)>& fn) {
  SessionState* state = FindSession(device_id);
  // Holding the session lock across `fn` gives exclusive access: a pump
  // cannot pop (or start) a task, and concurrent submissions for the device
  // block in EnqueueOnSession until `fn` returns.
  QuiesceSession(device_id, state);
  fn(state->session);
  state->mu.Unlock();
}

Status FleetServer::AdmitTask(SessionState* state,
                              const std::string& device_id, bool is_inference,
                              uint64_t span) {
  const AdmissionLevel refused =
      limiter_->TryAcquire(state->admission, is_inference);
  if (refused != AdmissionLevel::kNone) {
    const bool session_level = refused == AdmissionLevel::kSession;
    // One shed, two counters: its class and its reason. A session refusal
    // is the historical queue-full shed; shard/fleet refusals are limiter
    // sheds.
    state->wb->Count([is_inference, session_level](ServingCounters& c) {
      ++(is_inference ? c.shed_inference : c.shed_calibration);
      ++(session_level ? c.shed_queue_full : c.shed_limiter);
    });
    // The concrete status lands on both whiteboard rows (the last-error
    // plumbing the counters used to swallow) before the caller sees it.
    // The session-level message keeps its historical wording.
    Status status =
        session_level
            ? Status::ResourceExhausted(
                  std::string(is_inference ? "inference" : "calibration") +
                  " queue full for device " + device_id)
            : Status::ResourceExhausted(
                  std::string("admission refused at ") +
                  AdmissionLevelName(refused) + " level for device " +
                  device_id);
    state->wb->RecordError(status);
    wb_shard_->RecordError(status);
    TraceRing::Global().Record(TraceKind::kShed, span, state->trace_name);
    return status;
  }
  state->wb->Count([is_inference](ServingCounters& c) {
    ++(is_inference ? c.accepted_inference : c.accepted_calibration);
  });
  metrics_->queue_depth().Record(state->admission->total_depth());
  return Status::OK();
}

void FleetServer::ReleaseTask(SessionState* state, bool is_inference,
                              int count) {
  for (int i = 0; i < count; ++i) {
    limiter_->Release(state->admission, is_inference);
  }
}

void FleetServer::ShedDeadline(
    SessionState* state, uint64_t span,
    const std::shared_ptr<std::promise<InferenceResult>>& promise,
    double elapsed_seconds) {
  InferenceResult r;
  r.latency_seconds = elapsed_seconds;
  r.trace_span = span;
  r.status = Status::DeadlineExceeded(
      "latency budget expired before execution");
  state->wb->Count([](ServingCounters& c) { ++c.shed_deadline; });
  state->wb->RecordError(r.status);
  wb_shard_->RecordError(r.status);
  TraceRing::Global().Record(TraceKind::kDeadlineShed, span,
                             state->trace_name);
  promise->set_value(std::move(r));
  ReleaseTask(state, /*is_inference=*/true, 1);
}

Result<std::future<InferenceResult>> FleetServer::TrySubmitInference(
    const std::string& device_id, Tensor x,
    const InferenceSubmitOptions& opts) {
  SessionState* state = FindSession(device_id);
  const uint64_t span = TraceRing::NextSpan();
  TraceRing::Global().Record(TraceKind::kSubmitInference, span,
                             state->trace_name);
  QCORE_RETURN_NOT_OK(AdmitTask(state, device_id, /*is_inference=*/true,
                                span));
  // The deadline is fixed at submission; everything downstream (batcher
  // flush, exec start) compares against it through OverloadClock.
  const auto deadline = OverloadClock::DeadlineFor(opts.latency_budget_us);
  auto promise = std::make_shared<std::promise<InferenceResult>>();
  std::future<InferenceResult> result = promise->get_future();
  // Latency clocks start at submission so the histograms include batching
  // delay and queue wait — the signal that actually shows overload.
  Stopwatch timer;
  if (batcher_) {
    TraceRing::Global().Record(TraceKind::kBatchEnqueue, span,
                               state->trace_name);
    PendingInference pending;
    pending.input = std::move(x);
    pending.promise = std::move(promise);
    pending.timer = timer;
    pending.span = span;
    pending.deadline = deadline;
    batcher_->Add(device_id, std::move(pending));
    return result;
  }
  EnqueueOnSession(
      state,
      [this, state, promise, timer, span, deadline, x = std::move(x)]() {
        // Exec-start deadline check: an expired request is shed before the
        // device link or forward pass is touched.
        if (OverloadClock::Expired(deadline)) {
          ShedDeadline(state, span, promise, timer.ElapsedSeconds());
          return;
        }
        ScopedTraceSpan scope(span);
        TraceRing::Global().Record(TraceKind::kExecStart, span,
                                   state->trace_name, 1);
        SimulateDeviceLink(options_.simulated_device_rtt_ms);
        const kernels::GemmDispatchCounters kd_before =
            kernels::ThreadGemmDispatchCounters();
        InferenceResult r;
        r.predictions = state->session.Predict(x);
        const kernels::GemmDispatchCounters panels =
            kernels::ThreadGemmDispatchCounters() - kd_before;
        r.latency_seconds = timer.ElapsedSeconds();
        r.trace_span = span;
        metrics_->inference_latency().Record(r.latency_seconds);
        metrics_->batch_occupancy().Record(1);
        state->wb->Count([&x, &panels](ServingCounters& c) {
          ++c.inference_requests;
          c.inference_examples += static_cast<uint64_t>(x.dim(0));
          AddPanels(panels, &c);
        });
        state->wb->set_last_batch_occupancy(1);
        TraceRing::Global().Record(TraceKind::kExecEnd, span,
                                   state->trace_name);
        TraceRing::Global().Record(TraceKind::kComplete, span,
                                   state->trace_name);
        promise->set_value(std::move(r));
        ReleaseTask(state, /*is_inference=*/true, 1);
      },
      TaskPriority::kHigh);
  return result;
}

void FleetServer::FlushInferenceGroup(const std::string& device_id,
                                      std::vector<PendingInference> group) {
  QCORE_CHECK(!group.empty());
  SessionState* state = FindSession(device_id);
  // Flush-time deadline check: members whose budget expired while parked in
  // the batcher are shed here and never join the exec group. Shedding is
  // safe for bit-identity because inference never consumes the session's
  // Rng — survivors see the exact model state they would have anyway.
  std::vector<PendingInference> live;
  live.reserve(group.size());
  for (PendingInference& p : group) {
    if (OverloadClock::Expired(p.deadline)) {
      ShedDeadline(state, p.span, p.promise, p.timer.ElapsedSeconds());
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;
  // The group gets its own span for the shared forward pass; each member's
  // batchFlush event carries it (arg1), linking request spans to the group
  // exec they rode in.
  const uint64_t group_span = TraceRing::NextSpan();
  for (const PendingInference& p : live) {
    TraceRing::Global().Record(TraceKind::kBatchFlush, p.span,
                               state->trace_name, group_span);
  }
  EnqueueOnSession(
      state,
      [this, state, group_span, group = std::move(live)]() mutable {
        // Exec-start re-check: budgets that expired during the queue wait
        // between flush and execution are shed before the forward pass.
        std::vector<PendingInference> run;
        run.reserve(group.size());
        for (PendingInference& p : group) {
          if (OverloadClock::Expired(p.deadline)) {
            ShedDeadline(state, p.span, p.promise, p.timer.ElapsedSeconds());
          } else {
            run.push_back(std::move(p));
          }
        }
        if (run.empty()) return;
        ScopedTraceSpan scope(group_span);
        TraceRing::Global().Record(TraceKind::kExecStart, group_span,
                                   state->trace_name, run.size());
        // One device-link round trip and one forward pass for the whole
        // group — the amortization that makes batching pay.
        SimulateDeviceLink(options_.simulated_device_rtt_ms);
        std::vector<const Tensor*> inputs;
        inputs.reserve(run.size());
        for (const PendingInference& p : run) inputs.push_back(&p.input);
        const kernels::GemmDispatchCounters kd_before =
            kernels::ThreadGemmDispatchCounters();
        std::vector<std::vector<int>> labels =
            state->session.PredictBatch(inputs);
        // Attributed to the group, not split per member: the batched
        // forward is one set of GEMMs, and whether they went wide is a
        // property of the coalesced shape.
        const kernels::GemmDispatchCounters panels =
            kernels::ThreadGemmDispatchCounters() - kd_before;
        metrics_->batch_occupancy().Record(static_cast<int64_t>(run.size()));
        // Counted before any member's future resolves, so a caller holding
        // a result always finds its request on the row.
        state->wb->Count([&run, &panels](ServingCounters& c) {
          c.inference_requests += run.size();
          for (const PendingInference& p : run) {
            c.inference_examples += static_cast<uint64_t>(p.input.dim(0));
          }
          AddPanels(panels, &c);
        });
        state->wb->set_last_batch_occupancy(run.size());
        for (size_t i = 0; i < run.size(); ++i) {
          InferenceResult r;
          r.predictions = std::move(labels[i]);
          r.latency_seconds = run[i].timer.ElapsedSeconds();
          r.trace_span = run[i].span;
          metrics_->inference_latency().Record(r.latency_seconds);
          TraceRing::Global().Record(TraceKind::kComplete, run[i].span,
                                     state->trace_name, group_span);
          run[i].promise->set_value(std::move(r));
        }
        TraceRing::Global().Record(TraceKind::kExecEnd, group_span,
                                   state->trace_name);
        ReleaseTask(state, /*is_inference=*/true,
                    static_cast<int>(run.size()));
      },
      TaskPriority::kHigh);
}

Result<std::future<BatchStats>> FleetServer::TrySubmitCalibration(
    const std::string& device_id, Dataset batch, Dataset test_slice) {
  SessionState* state = FindSession(device_id);
  const uint64_t span = TraceRing::NextSpan();
  TraceRing::Global().Record(TraceKind::kSubmitCalibration, span,
                             state->trace_name);
  QCORE_RETURN_NOT_OK(AdmitTask(state, device_id, /*is_inference=*/false,
                                span));
  // Ordering barrier: calibration mutates the model, so every inference
  // submitted before it must run first — flush the device's pending group
  // ahead of enqueueing. This is what keeps batched results bit-identical
  // to the unbatched path for any interleaving.
  BarrierFlush(device_id, state, span);
  auto promise = std::make_shared<std::promise<BatchStats>>();
  std::future<BatchStats> result = promise->get_future();
  Stopwatch timer;  // includes queue wait, like the inference clock
  EnqueueOnSession(
      state,
      [this, device_id, state, promise, timer, span,
       batch = std::move(batch), test_slice = std::move(test_slice)]() {
        ScopedTraceSpan scope(span);
        TraceRing::Global().Record(TraceKind::kExecStart, span,
                                   state->trace_name);
        SimulateDeviceLink(options_.simulated_device_rtt_ms);
        BatchStats stats = state->session.Calibrate(batch, test_slice);
        metrics_->calibration_latency().Record(timer.ElapsedSeconds());
        state->wb->Count([&](ServingCounters& c) {
          ++c.calibration_batches;
          c.calibration_examples += static_cast<uint64_t>(batch.size());
          // An empty test slice is never evaluated (its accuracy stays at
          // the 0.0 default), so it must not drag the mean down.
          if (!test_slice.empty()) c.AddAccuracySample(stats.accuracy);
        });
        if (options_.snapshot_every > 0 &&
            state->session.batches_processed() %
                    static_cast<uint64_t>(options_.snapshot_every) ==
                0) {
          TraceRing::Global().Record(TraceKind::kSnapshotPublish, span,
                                     state->trace_name);
          const uint64_t version =
              registry_->Publish(*state->session.model(), device_id,
                                 state->session.batches_processed());
          state->wb->Count([](ServingCounters& c) { ++c.snapshots_published; });
          state->wb->set_snapshot_version(version);
        }
        TraceRing::Global().Record(TraceKind::kExecEnd, span,
                                   state->trace_name);
        TraceRing::Global().Record(TraceKind::kComplete, span,
                                   state->trace_name);
        promise->set_value(stats);
        ReleaseTask(state, /*is_inference=*/false, 1);
      },
      TaskPriority::kLow);
  return result;
}

std::future<uint64_t> FleetServer::PublishSnapshot(
    const std::string& device_id) {
  auto promise = std::make_shared<std::promise<uint64_t>>();
  std::future<uint64_t> result = promise->get_future();
  SessionState* state = FindSession(device_id);
  const uint64_t span = TraceRing::NextSpan();
  // Same barrier as calibration: the snapshot must capture the model in
  // the session's submission order.
  BarrierFlush(device_id, state, span);
  EnqueueOnSession(
      state,
      [this, device_id, state, promise, span]() {
        // The scope hands the span to the WAL append inside Publish, so the
        // snapshotPublish → walAppend chain reconstructs from the ring.
        ScopedTraceSpan scope(span);
        TraceRing::Global().Record(TraceKind::kSnapshotPublish, span,
                                   state->trace_name);
        const uint64_t version =
            registry_->Publish(*state->session.model(), device_id,
                               state->session.batches_processed());
        state->wb->Count([](ServingCounters& c) { ++c.snapshots_published; });
        state->wb->set_snapshot_version(version);
        TraceRing::Global().Record(TraceKind::kComplete, span,
                                   state->trace_name, version);
        promise->set_value(version);
      },
      TaskPriority::kHigh);
  return result;
}

SessionHandoff FleetServer::DetachSession(const std::string& device_id) {
  SessionHandoff handoff;
  handoff.device_id = device_id;
  handoff.trace_span = TraceRing::NextSpan();
  {
    SessionState* pre = FindSession(device_id);
    TraceRing::Global().Record(TraceKind::kDetach, handoff.trace_span,
                               pre->trace_name, shard_index_);
    pre->wb->set_migrating(true);
  }
  // Barrier snapshot: flushes the device's pending batched group (the PR 2
  // follow-up — a group left pending would otherwise resolve against a
  // session that moved shards) and, by session FIFO order, captures the
  // model only after every previously submitted task has run.
  handoff.barrier_version = PublishSnapshot(device_id).get();
  SessionState* state = FindSession(device_id);
  // The publish future resolves inside the task; wait for the pump to
  // fully release the session before serializing and freeing it.
  QuiesceSession(device_id, state);
  BinaryWriter w;
  state->session.SerializeContinuation(&w);
  handoff.continuation = w.TakeBuffer();
  state->mu.Unlock();
  MutexLock lock(sessions_mu_);
  sessions_.erase(device_id);
  wb_shard_->set_sessions(sessions_.size());
  return handoff;
}

void FleetServer::AttachSession(const SessionHandoff& handoff) {
  std::shared_ptr<const ModelSnapshot> snap =
      registry_->Get(handoff.barrier_version);
  QCORE_CHECK_MSG(snap != nullptr,
                  "AttachSession: barrier snapshot not in this server's "
                  "registry (shards must share one)");
  BinaryReader r(handoff.continuation);
  auto state = std::make_unique<SessionState>(
      handoff.device_id, base_model_, base_bf_, options_.continual, *snap,
      &r);
  // The row already exists on a shared (router) whiteboard — UpsertDevice
  // rehomes it to this shard and clears the migrating flag, keeping the
  // device's counters and warm-start origin across the move.
  state->wb = whiteboard_->UpsertDevice(handoff.device_id, shard_index_,
                                        WarmStartOrigin::kCold);
  state->wb->set_snapshot_version(handoff.barrier_version);
  state->trace_name = TraceRing::Global().Intern(handoff.device_id);
  // A migrated session gets a fresh admission node under THIS shard; the
  // node it held on the source shard stays allocated at zero (nodes are
  // never removed — see overload.h).
  state->admission = limiter_->AddSession(
      shard_node_,
      AdmissionCaps{options_.max_queue_per_session,
                    options_.max_inference_queue_per_session,
                    options_.max_calibration_queue_per_session});
  TraceRing::Global().Record(TraceKind::kAttach, handoff.trace_span,
                             state->trace_name, shard_index_);
  MutexLock lock(sessions_mu_);
  const bool inserted =
      sessions_.emplace(handoff.device_id, std::move(state)).second;
  QCORE_CHECK_MSG(inserted,
                  ("AttachSession: device already present: " +
                   handoff.device_id)
                      .c_str());
  wb_shard_->set_sessions(sessions_.size());
}

void FleetServer::EnqueueOnSession(SessionState* state,
                                   std::function<void()> task,
                                   TaskPriority priority) {
  {
    MutexLock lock(drain_mu_);
    ++in_flight_;
  }
  bool start_pump = false;
  {
    MutexLock lock(state->mu);
    state->queue.push_back(std::move(task));
    if (!state->pumping) {
      state->pumping = true;
      start_pump = true;
    }
  }
  if (start_pump) {
    // Priority classifies the pump, not individual tasks: once a worker
    // owns the session it drains the FIFO regardless of what joins it
    // (priority must never reorder work WITHIN a session — that would
    // break determinism). Best effort across sessions is exactly what
    // overload control needs.
    pool_.Schedule([this, state]() { PumpSession(state); }, priority);
  }
}

void FleetServer::PumpSession(SessionState* state) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(state->mu);
      if (state->queue.empty()) {
        state->pumping = false;
        // Wake quiesce waiters (WithSessionQuiesced, DetachSession) only
        // once the session is fully released; after the unlock below the
        // pump never touches `state` again.
        state->idle_cv.NotifyAll();
        return;
      }
      task = std::move(state->queue.front());
      state->queue.pop_front();
    }
    task();
    TaskFinished();
  }
}

void FleetServer::TaskFinished() {
  MutexLock lock(drain_mu_);
  if (--in_flight_ == 0) drain_cv_.NotifyAll();
}

void FleetServer::Drain() {
  // Hand every pending batched request to the pool first; when FlushAll
  // returns, each previously submitted request is represented in
  // in_flight_ (the batcher only decrements its pending count after the
  // sink has enqueued, so there is no window where both counts are zero
  // with work in limbo).
  if (batcher_) batcher_->FlushAll();
  // Wait on the server's own in-flight count, not the pool: a task counts
  // from submission, so Drain cannot slip through the window where a task
  // is queued on a session but its pump has not reached the pool yet.
  MutexLock lock(drain_mu_);
  drain_cv_.Wait(drain_mu_, [this]() {
    drain_mu_.AssertHeld();
    return in_flight_ == 0;
  });
}

}  // namespace qcore
