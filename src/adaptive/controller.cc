#include "adaptive/controller.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/status.h"
#include "common/timer.h"
#include "exec/morsel.h"
#include "obs/profiler.h"
#include "runtime/agg_hash_table.h"
#include "sched/task.h"

namespace aqe {

/// Compile-handshake phases (PipelineExecState::compile_state):
/// kIdle -> kQueued (evaluator decides) -> kRunning (a thread claims the
/// job) -> kIdle (installed + rates reset). The controller aborts a still-
/// kQueued job at drain time and waits out a kRunning one.
enum CompilePhase : int { kCompIdle = 0, kCompQueued = 1, kCompRunning = 2 };

/// Shared state of one pipeline execution on the task scheduler. Held via
/// shared_ptr by the controller (PipelineRun) and every helper/compile
/// task, so a task that runs after the pipeline finished touches only this
/// struct: the raw pipeline pointers (handle, state, compile) are
/// dereferenced only after a successful morsel claim or compile-job claim,
/// both of which the controller's drain phase (or the PipelineRun
/// destructor) waits out before the owner frees them.
struct PipelineExecState {
  /// Per-participant tuple-rate sample slot (§III-C), cache-line isolated.
  struct alignas(64) SlotRate {
    std::atomic<uint64_t> tuples{0};
    std::atomic<uint64_t> nanos{0};
    std::atomic<uint64_t> epoch{0};
  };

  PipelineExecState(uint64_t total_tuples, int participants)
      : shards(total_tuples, participants), rates(participants) {}

  /// Pruned-scan variant: shards the domain's selected rows instead of a
  /// dense [0, total) — pruned morsels are never scheduled on any shard.
  PipelineExecState(std::shared_ptr<const ScanDomain> domain, int participants)
      : shards(std::move(domain), participants), rates(participants) {}

  ShardedMorselQueue shards;
  std::vector<SlotRate> rates;
  std::atomic<uint64_t> epoch{0};
  std::atomic<int> active_helpers{0};

  FunctionHandle* handle = nullptr;
  void* state = nullptr;
  int pipeline_id = 0;
  uint64_t function_instructions = 0;
  PipelineObs obs;
  const std::function<WorkerFn(ExecMode)>* compile = nullptr;

  std::atomic<int> compile_state{kCompIdle};
  ExecMode compile_target = ExecMode::kUnoptimized;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<ExecMode, double>> compiles;  ///< guarded by mu
};

namespace {

/// After this many controller morsels with a compile job still kQueued,
/// the controller claims it inline — occupying one thread exactly like the
/// paper's dedicated path — so a saturated scheduler cannot delay a mode
/// switch indefinitely.
constexpr int kInlineCompileAfterMorsels = 2;

/// Longest a draining controller waits in place for helpers mid-morsel
/// while no other task is queued, before it yields its slice.
constexpr int64_t kDrainWaitNanos = 200000;

void RecordRate(PipelineExecState& st, int slot, uint64_t tuples,
                uint64_t nanos) {
  auto& rate = st.rates[static_cast<size_t>(slot)];
  uint64_t current_epoch = st.epoch.load(std::memory_order_relaxed);
  if (rate.epoch.load(std::memory_order_relaxed) != current_epoch) {
    rate.tuples.store(0, std::memory_order_relaxed);
    rate.nanos.store(0, std::memory_order_relaxed);
    rate.epoch.store(current_epoch, std::memory_order_relaxed);
  }
  rate.tuples.fetch_add(tuples, std::memory_order_relaxed);
  rate.nanos.fetch_add(nanos, std::memory_order_relaxed);
}

/// Runs one claimed batch through the current variant, with rate and
/// trace bookkeeping. `slot` is the rate slot, `thread` the trace lane.
/// The batch (one range on dense scans, up to kMaxRanges fragments of a
/// pruned domain) shares a single rate sample and trace event, so the
/// bookkeeping cost stays per-claim, not per-fragment; the recorded rate
/// honestly includes the inter-fragment dispatch overhead.
void ExecuteMorsel(PipelineExecState& st, const MorselBatch& batch, int slot,
                   int thread) {
  ExecMode mode = st.handle->mode();
  // Beacon for the sampling profiler: publish the morsel (query, pipeline,
  // mode), restore whatever the enclosing slice published afterwards — a
  // helper task's slice beacon must survive its morsels.
  WorkerBeacon* beacon =
      st.obs.beacons != nullptr ? st.obs.beacons->lane(thread) : nullptr;
  uint64_t prior_word0 = 0;
  if (beacon != nullptr) {
    prior_word0 = beacon->word0.load(std::memory_order_relaxed);
    PublishBeacon(beacon, st.obs.query_id,
                  static_cast<uint16_t>(st.pipeline_id),
                  static_cast<uint8_t>(mode), BeaconActivity::kMorsel,
                  batch.rows);
  }
  int64_t t0 = MonotonicNanos();
  for (int i = 0; i < batch.count; ++i) {
    st.handle->Call(st.state, batch.ranges[i].begin, batch.ranges[i].end);
  }
  int64_t t1 = MonotonicNanos();
  if (beacon != nullptr) {
    beacon->word0.store(prior_word0, std::memory_order_relaxed);
  }
  RecordRate(st, slot, batch.rows, static_cast<uint64_t>(t1 - t0));
  if (st.obs.enabled()) {
    TraceEvent e;
    e.kind = TraceEventKind::kMorsel;
    e.start_nanos = t0;
    e.end_nanos = t1;
    e.payload = batch.rows;
    e.query_id = st.obs.query_id;
    e.pipeline_id = static_cast<uint16_t>(st.pipeline_id);
    e.detail = static_cast<uint8_t>(mode);
    st.obs.tracer->Record(thread, e);
  }
  if (st.obs.morsels != nullptr) st.obs.morsels->Add();
}

/// Claims and performs a pending compile job: compile -> install into the
/// handle -> record -> bump the epoch (rate reset, §III-C) -> notify the
/// controller. Returns false when no job is pending or another thread owns
/// it. Callable from any scheduler worker or the controller; controller
/// call sites pass `blocking_seconds` to attribute the compile to blocked
/// execution time (see PipelineRunStats).
bool TryRunCompileJob(PipelineExecState& st,
                      double* blocking_seconds = nullptr) {
  int expected = kCompQueued;
  if (!st.compile_state.compare_exchange_strong(expected, kCompRunning,
                                                std::memory_order_acq_rel)) {
    return false;
  }
  AQE_CHECK_MSG(*st.compile != nullptr, "pipeline has no compile hook");
  const ExecMode target = st.compile_target;
  // Compiles are ms-scale, the one activity long enough for the sampler to
  // attribute reliably; publish it on this thread's beacon lane.
  WorkerBeacon* beacon =
      st.obs.beacons != nullptr
          ? st.obs.beacons->lane(runtime_internal::GetThreadIndex())
          : nullptr;
  uint64_t prior_word0 = 0;
  if (beacon != nullptr) {
    prior_word0 = beacon->word0.load(std::memory_order_relaxed);
    PublishBeacon(beacon, st.obs.query_id,
                  static_cast<uint16_t>(st.pipeline_id),
                  static_cast<uint8_t>(target), BeaconActivity::kCompile,
                  st.function_instructions);
  }
  Timer compile_timer;
  int64_t t0 = MonotonicNanos();
  WorkerFn fn = (*st.compile)(target);
  double seconds = compile_timer.ElapsedSeconds();
  st.handle->SetCompiled(fn, target);
  const int64_t t1 = MonotonicNanos();
  if (beacon != nullptr) {
    beacon->word0.store(prior_word0, std::memory_order_relaxed);
  }
  if (st.obs.enabled()) {
    TraceEvent e;
    e.kind = TraceEventKind::kCompile;
    e.start_nanos = t0;
    e.end_nanos = t1;
    e.payload = st.function_instructions;
    e.query_id = st.obs.query_id;
    e.pipeline_id = static_cast<uint16_t>(st.pipeline_id);
    e.detail = static_cast<uint8_t>(target);
    st.obs.tracer->Record(runtime_internal::GetThreadIndex(), e);
  }
  if (st.obs.compiles != nullptr) st.obs.compiles->Add();
  if (st.obs.compile_us != nullptr) {
    st.obs.compile_us->Record(static_cast<uint64_t>(seconds * 1e6));
  }
  st.epoch.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.compiles.emplace_back(target, seconds);
  }
  st.compile_state.store(kCompIdle, std::memory_order_release);
  st.cv.notify_all();
  if (blocking_seconds != nullptr) *blocking_seconds += seconds;
  return true;
}

/// Processes one morsel per slice from its preferred shard (stealing when
/// dry), yielding between morsels so concurrent queries on the same worker
/// interleave at morsel granularity.
class MorselHelperTask : public Task {
 public:
  MorselHelperTask(std::shared_ptr<PipelineExecState> st, int slot)
      : st_(std::move(st)), slot_(slot) {}

  Status Run(int worker) override {
    PipelineExecState& st = *st_;
    // active_helpers is raised *before* the claim: the controller treats
    // "domain drained && active_helpers == 0" as completion, so a helper
    // between claim and call can never be missed.
    st.active_helpers.fetch_add(1, std::memory_order_seq_cst);
    MorselBatch morsel;
    if (!st.shards.Next(slot_, &morsel)) {
      FinishSlice(st);
      return Status::kDone;
    }
    ExecuteMorsel(st, morsel, slot_, worker);
    FinishSlice(st);
    return Status::kYield;
  }

 private:
  static void FinishSlice(PipelineExecState& st) {
    if (st.active_helpers.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        st.shards.remaining() == 0) {
      std::lock_guard<std::mutex> lock(st.mu);
      st.cv.notify_all();
    }
  }

  std::shared_ptr<PipelineExecState> st_;
  const int slot_;
};

/// Low-priority carrier for an adaptive compile decision.
class CompileJobTask : public Task {
 public:
  explicit CompileJobTask(std::shared_ptr<PipelineExecState> st)
      : st_(std::move(st)) {}

  Status Run(int) override {
    TryRunCompileJob(*st_);
    return Status::kDone;
  }

 private:
  std::shared_ptr<PipelineExecState> st_;
};

}  // namespace

const char* ExecutionStrategyName(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kBytecode: return "bytecode";
    case ExecutionStrategy::kUnoptimized: return "unoptimized";
    case ExecutionStrategy::kOptimized: return "optimized";
    case ExecutionStrategy::kAdaptive: return "adaptive";
  }
  AQE_UNREACHABLE("bad ExecutionStrategy");
}

// --- PipelineRun: the resumable controller --------------------------------

PipelineRun::PipelineRun(TaskScheduler* scheduler, ExecutionStrategy strategy,
                         CostModelParams params, const PipelineTask& task,
                         bool single_threaded, double first_eval_delay_seconds)
    : sched_(scheduler),
      strategy_(strategy),
      params_(params),
      task_(task),
      single_threaded_(single_threaded),
      first_eval_delay_seconds_(first_eval_delay_seconds),
      adaptive_(strategy == ExecutionStrategy::kAdaptive) {
  AQE_CHECK(sched_ != nullptr);
  AQE_CHECK(task_.handle != nullptr);
}

PipelineRun::~PipelineRun() {
  if (st_ == nullptr || phase_ == Phase::kDone) return;
  // Abandoned mid-run (the scheduler's destructor destroying a suspended
  // query task): close the morsel domain, abort an unclaimed compile job,
  // and wait out in-flight claims so the owner may free handle/state/
  // bindings right after us (invariant 3). With the workers joined nothing
  // claims anew, so this returns immediately.
  MorselBatch discard;
  while (st_->shards.Next(controller_slot_, &discard)) {
  }
  int expected = kCompQueued;
  st_->compile_state.compare_exchange_strong(expected, kCompIdle,
                                             std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lock(st_->mu);
  while (st_->active_helpers.load(std::memory_order_seq_cst) != 0 ||
         st_->compile_state.load(std::memory_order_seq_cst) != kCompIdle) {
    st_->cv.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void PipelineRun::Start() {
  start_nanos_ = MonotonicNanos();
  // The controller's identity — fixed now, at the first step (invariant 2):
  // the worker of our own scheduler that runs the embedding task.
  AQE_CHECK_MSG(TaskScheduler::CurrentScheduler() == sched_,
                "a PipelineRun is stepped only by its scheduler's workers");
  const int self = TaskScheduler::CurrentWorker();
  const int workers = sched_->num_workers();
  participants_ = single_threaded_ ? 1 : workers;
  controller_slot_ = single_threaded_ ? 0 : self;

  st_ = task_.domain != nullptr
            ? std::make_shared<PipelineExecState>(task_.domain, participants_)
            : std::make_shared<PipelineExecState>(task_.total_tuples,
                                                  participants_);
  st_->handle = task_.handle;
  st_->state = task_.state;
  st_->pipeline_id = task_.pipeline_id;
  st_->function_instructions = task_.function_instructions;
  st_->obs = task_.obs;
  st_->compile = &task_.compile;  // task_ is our member copy: stable address

  if (st_->obs.enabled()) {
    TraceEvent e;
    e.kind = TraceEventKind::kPipelineStart;
    e.start_nanos = start_nanos_;
    e.end_nanos = start_nanos_;
    e.payload = task_.total_tuples;
    e.query_id = st_->obs.query_id;
    e.pipeline_id = static_cast<uint16_t>(task_.pipeline_id);
    st_->obs.tracer->Record(self, e);
  }

  // Static compile-up-front strategies (single-threaded compilation before
  // any morsel runs — exactly the §III critique). Skipped when the handle
  // was seeded with cached machine code already in the requested mode.
  auto compile_inline = [&](ExecMode mode) {
    st_->compile_target = mode;
    st_->compile_state.store(kCompQueued, std::memory_order_release);
    AQE_CHECK(TryRunCompileJob(*st_, &stats_.blocking_compile_seconds));
  };
  if (strategy_ == ExecutionStrategy::kUnoptimized) {
    if (task_.handle->mode() != ExecMode::kUnoptimized) {
      compile_inline(ExecMode::kUnoptimized);
    }
  } else if (strategy_ == ExecutionStrategy::kOptimized) {
    if (task_.handle->mode() != ExecMode::kOptimized) {
      compile_inline(ExecMode::kOptimized);
    }
  }

  if (!single_threaded_) {
    for (int v = 0; v < workers; ++v) {
      if (v == self) continue;  // the controller drains its own shard
      auto helper = std::make_unique<MorselHelperTask>(st_, v);
      helper->set_scheduling_class(task_.scheduling_class);
      sched_->SubmitTo(v, std::move(helper));
    }
  }
  phase_ = Phase::kMorsels;
}

Task::Status PipelineRun::Step() {
  switch (phase_) {
    case Phase::kStart:
      if (single_threaded_) return RunSingleThreaded();
      Start();
      return Task::Status::kYield;
    case Phase::kMorsels:
      return StepMorsel();
    case Phase::kDrain:
      return StepDrain();
    case Phase::kDone:
      return Task::Status::kDone;
  }
  AQE_UNREACHABLE("bad PipelineRun phase");
}

Task::Status PipelineRun::RunSingleThreaded() {
  // Invariant 4: strictly one thread touches the pipeline, in one slice —
  // no helpers, no yields, compiles inline.
  Start();
  const int thread = TaskScheduler::CurrentWorker();
  MorselBatch morsel;
  while (st_->shards.Next(controller_slot_, &morsel)) {
    ExecuteMorsel(*st_, morsel, controller_slot_, thread);
    if (adaptive_) Evaluate();
  }
  phase_ = Phase::kDrain;
  return StepDrain();
}

Task::Status PipelineRun::StepMorsel() {
  MorselBatch morsel;
  if (!st_->shards.Next(controller_slot_, &morsel)) {
    // Domain drained. Abort a compile job nobody started (it would be
    // wasted work); a running one must finish — the compile hook references
    // owner state — as must in-flight helper morsels.
    int expected = kCompQueued;
    st_->compile_state.compare_exchange_strong(expected, kCompIdle,
                                               std::memory_order_acq_rel);
    phase_ = Phase::kDrain;
    return StepDrain();
  }
  // The checkpoint: exactly one controller morsel (plus the §III-C
  // re-evaluation) per slice, then hand the worker back to the scheduler.
  ExecuteMorsel(*st_, morsel, controller_slot_,
                TaskScheduler::CurrentWorker());
  if (adaptive_) Evaluate();
  return Task::Status::kYield;
}

Task::Status PipelineRun::StepDrain() {
  if (st_->active_helpers.load(std::memory_order_seq_cst) != 0 ||
      st_->compile_state.load(std::memory_order_seq_cst) != kCompIdle) {
    if (st_->compile_state.load(std::memory_order_seq_cst) == kCompRunning) {
      // A *running* JIT compile is ms-scale: park briefly on the state
      // condvar instead of spinning through the scheduler for its whole
      // duration (the wait is bounded, so other tasks queued on this
      // worker stall at most 200 µs — and thieves can take them).
      std::unique_lock<std::mutex> lock(st_->mu);
      if (st_->compile_state.load(std::memory_order_seq_cst) ==
          kCompRunning) {
        st_->cv.wait_for(lock, std::chrono::microseconds(200));
      }
      return Task::Status::kYield;  // check again next slice
    }
    // Helpers mid-morsel. While no other task is queued, wait them out in
    // place: each yield to an empty scheduler costs a deque round trip, a
    // wake-up of a parked worker and a trace event, and a long bytecode
    // morsel would be waited out by thousands of them. Bounded, and left
    // the moment other work is queued, so queued tasks run in between.
    const int64_t deadline = MonotonicNanos() + kDrainWaitNanos;
    while (st_->active_helpers.load(std::memory_order_seq_cst) != 0 &&
           !sched_->has_queued_work() && MonotonicNanos() < deadline) {
      std::this_thread::yield();
    }
    if (st_->active_helpers.load(std::memory_order_seq_cst) != 0) {
      return Task::Status::kYield;  // check again next slice
    }
  }
  {
    std::lock_guard<std::mutex> lock(st_->mu);
    stats_.compiles = std::move(st_->compiles);
  }
  const int64_t end_nanos = MonotonicNanos();
  stats_.total_seconds = static_cast<double>(end_nanos - start_nanos_) / 1e9;
  stats_.final_mode = task_.handle->mode();
  for (ModeSwitchRecord& rec : stats_.mode_switches) {
    rec.realized_seconds =
        static_cast<double>(end_nanos - rec.decision_nanos) / 1e9;
  }
  phase_ = Phase::kDone;
  return Task::Status::kDone;
}

/// §III-C: the extrapolation is performed by a single thread — the
/// controller — re-evaluated after every one of its morsels.
void PipelineRun::Evaluate() {
  ExecMode mode = task_.handle->mode();
  if (mode == ExecMode::kOptimized) return;
  int phase = st_->compile_state.load(std::memory_order_acquire);
  if (phase == kCompRunning) return;
  if (phase == kCompQueued) {
    if (++morsels_since_queued_ >= kInlineCompileAfterMorsels) {
      TryRunCompileJob(*st_, &stats_.blocking_compile_seconds);
    }
    return;
  }
  if (static_cast<double>(MonotonicNanos() - start_nanos_) <
      first_eval_delay_seconds_ * 1e9) {
    return;
  }
  // Average per-participant rate in the current epoch (Fig 7's r0).
  uint64_t current_epoch = st_->epoch.load(std::memory_order_relaxed);
  double rate_sum = 0;
  int rate_count = 0;
  for (const auto& rate : st_->rates) {
    if (rate.epoch.load(std::memory_order_relaxed) != current_epoch) {
      continue;
    }
    uint64_t nanos = rate.nanos.load(std::memory_order_relaxed);
    uint64_t tuples = rate.tuples.load(std::memory_order_relaxed);
    if (nanos == 0 || tuples == 0) continue;
    rate_sum +=
        static_cast<double>(tuples) / (static_cast<double>(nanos) / 1e9);
    ++rate_count;
  }
  if (rate_count == 0) return;
  double r0 = rate_sum / rate_count;
  const uint64_t remaining = st_->shards.remaining();
  ExtrapolationBreakdown breakdown;
  Decision decision = ExtrapolatePipelineDurations(
      r0, remaining, participants_, task_.function_instructions, mode,
      params_, task_.runtime_call_fraction, &breakdown);
  if (decision == Decision::kDoNothing) return;
  st_->compile_target = decision == Decision::kCompileUnoptimized
                            ? ExecMode::kUnoptimized
                            : ExecMode::kOptimized;
  const int64_t decision_nanos = MonotonicNanos();
  {
    // Prediction-vs-realized bookkeeping: keep the decision on the run
    // itself (stats_ is controller-thread-only), realized filled at drain.
    ModeSwitchRecord rec;
    rec.target = st_->compile_target;
    rec.decision_nanos = decision_nanos;
    rec.r0 = r0;
    rec.remaining_tuples = remaining;
    rec.t_current_seconds = breakdown.t_current;
    rec.t_chosen_seconds = breakdown.chosen_seconds(decision);
    stats_.mode_switches.push_back(rec);
  }
  if (st_->obs.enabled()) {
    // The §III-C decision with its cost-model inputs: what the controller
    // observed (r0) and what it extrapolated for staying vs. switching.
    TraceEvent e;
    e.kind = TraceEventKind::kModeSwitch;
    e.start_nanos = decision_nanos;
    e.end_nanos = e.start_nanos;
    e.payload = remaining;
    e.payload2 = TraceEventDoubleToBits(task_.runtime_call_fraction);
    e.d0 = r0;
    e.d1 = breakdown.t_current;
    e.d2 = breakdown.chosen_seconds(decision);
    e.query_id = st_->obs.query_id;
    e.pipeline_id = static_cast<uint16_t>(task_.pipeline_id);
    e.detail = static_cast<uint8_t>(st_->compile_target);
    st_->obs.tracer->Record(TaskScheduler::CurrentWorker(), e);
  }
  if (st_->obs.mode_switch_decisions != nullptr) {
    st_->obs.mode_switch_decisions->Add();
  }
  morsels_since_queued_ = 0;
  st_->compile_state.store(kCompQueued, std::memory_order_release);
  if (single_threaded_ || participants_ == 1) {
    // No other thread can ever pick the job up: compile inline now.
    TryRunCompileJob(*st_, &stats_.blocking_compile_seconds);
  } else {
    auto job = std::make_unique<CompileJobTask>(st_);
    job->set_scheduling_class(task_.scheduling_class);
    sched_->Submit(std::move(job), TaskPriority::kLow);
  }
}

}  // namespace aqe
