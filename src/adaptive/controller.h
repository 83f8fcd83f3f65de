#ifndef AQE_ADAPTIVE_CONTROLLER_H_
#define AQE_ADAPTIVE_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "adaptive/cost_model.h"
#include "exec/function_handle.h"
#include "exec/morsel.h"
#include "obs/observability.h"
#include "sched/scheduler.h"
#include "sched/task.h"

namespace aqe {

/// How a query/pipeline is executed (§V's four contenders).
enum class ExecutionStrategy {
  kBytecode,     ///< pure interpretation
  kUnoptimized,  ///< compile unoptimized up front, then run
  kOptimized,    ///< compile optimized up front, then run
  kAdaptive,     ///< start interpreting, switch on runtime feedback (§III)
};

const char* ExecutionStrategyName(ExecutionStrategy strategy);

/// One pipeline's execution request.
struct PipelineTask {
  FunctionHandle* handle = nullptr;  ///< starts in bytecode mode
  void* state = nullptr;
  uint64_t total_tuples = 0;          ///< known at pipeline start (§III-A)
  /// Index/zone-map pruned scan domain (src/index/): when set, only the
  /// domain's ranges are ever scheduled and `total_tuples` must equal
  /// domain->selected(), so the §III-C extrapolation reasons over the rows
  /// that will actually run. Null = dense scan over [0, total_tuples).
  std::shared_ptr<const ScanDomain> domain;
  uint64_t function_instructions = 0; ///< LLVM instruction count (cost model)
  /// Fraction of per-tuple time spent in opaque runtime calls
  /// (RuntimeCallFraction over the worker's loop-body IR): discounts the
  /// compiled speedups in every §III-C evaluation, so call-heavy pipelines
  /// (LIKE via aqe_like_match) stay interpreted longer.
  double runtime_call_fraction = 0;
  /// Compiles the pipeline's worker function in the given mode and returns
  /// the machine code (the callee keeps the compiled module alive). Invoked
  /// from a worker thread, at most once per mode.
  std::function<WorkerFn(ExecMode)> compile;
  int pipeline_id = 0;
  /// Weighted-fair scheduling class the pipeline's helper and compile tasks
  /// inherit (the submitting query's class; see sched/task.h).
  int scheduling_class = 0;
  /// Engine observability: ring-buffer trace events (morsels, mode-switch
  /// decisions with their cost-model inputs, compiles) and metric updates
  /// flow through these handles; default-empty pipelines record nothing.
  PipelineObs obs;
};

/// One §III-C decision that chose a compile, with the extrapolation's
/// inputs and — filled in when the pipeline drains — the realized time from
/// the decision to pipeline completion. The prediction-vs-realized audit
/// trail EXPLAIN ANALYZE renders; unlike the kModeSwitch ring event this is
/// carried on the run itself, so it survives ring overwrites.
struct ModeSwitchRecord {
  ExecMode target = ExecMode::kUnoptimized;
  int64_t decision_nanos = 0;    ///< MonotonicNanos at the decision
  double r0 = 0;                 ///< observed rate [tuples/s/thread]
  uint64_t remaining_tuples = 0;
  double t_current_seconds = 0;  ///< extrapolated: stay in current mode
  double t_chosen_seconds = 0;   ///< extrapolated: switch (T(chosen))
  double realized_seconds = 0;   ///< decision -> pipeline end (actual)
};

struct PipelineRunStats {
  double total_seconds = 0;
  ExecMode final_mode = ExecMode::kBytecode;
  /// Mode switches performed, with the compile time spent on each.
  std::vector<std::pair<ExecMode, double>> compiles;
  /// Compile time that occupied the controller thread (the up-front static
  /// compiles and adaptive compiles claimed inline). total_seconds minus
  /// this is pure execution: what the engine reports as exec time so cache
  /// hits (which compile nothing) are visible next to cold runs. Compiles
  /// picked up by other workers overlap execution and are not counted.
  double blocking_compile_seconds = 0;
  /// Every adaptive compile decision with its predicted durations and the
  /// realized remainder.
  std::vector<ModeSwitchRecord> mode_switches;
};

/// Shared state of one pipeline execution on the task scheduler (defined in
/// controller.cc; held via shared_ptr by the controller and every helper /
/// compile task).
struct PipelineExecState;

/// One pipeline execution as a *resumable state machine*: the adaptive
/// controller's run loop, checkpointed at morsel boundaries. Each Step()
/// call runs one bounded slice — one controller morsel (plus the §III-C
/// cost-model evaluation), one up-front compile, or one drain check — and
/// returns Task::Status::kYield until the pipeline completes, exactly like
/// the morsel helper tasks it spawns. A query task embedding a PipelineRun
/// therefore never blocks its worker for a whole pipeline: the scheduler
/// interleaves other queries' slices between the controller's morsels, and
/// the run may resume on a *different* worker after a steal.
///
/// ===================== Suspension invariants =====================
///
/// 1. All mode-switch state survives suspension. The tuple-rate samples,
///    the compile handshake word (kIdle/kQueued/kRunning + target mode),
///    the rate-reset epoch, the recorded compiles and the calibrated
///    cost-model parameters live in PipelineExecState / PipelineRun
///    members, never on a worker's stack — a resumed controller continues
///    the §III-C evaluation exactly where it left off, so the mode-switch
///    sequence does not depend on how often it was suspended (tested in
///    tests/exec_adaptive_test.cc).
///
/// 2. The controller's identity is fixed at the *first* Step. Only a worker
///    of the run's own scheduler may step it (checked). Its rate slot,
///    preferred shard and participant count are chosen once (the
///    first-step worker's index) and stored; migration to another worker
///    after a yield changes only which thread executes — the migrated
///    controller keeps draining its own shard and rate slot, which no
///    helper task ever uses, so slots never collide. Per-thread runtime
///    partitions (aggregation tables, output buffers) are always indexed
///    by the *executing* thread, which is correct under migration because
///    every merge step covers all partitions.
///
/// 3. Raw pipeline pointers outlive the run. `task.handle`, `task.state`
///    and the compile hook are dereferenced by helper/compile tasks only
///    after a successful morsel or compile-job claim. The drain phase
///    (and the destructor, for a run abandoned at scheduler shutdown)
///    closes the morsel domain and waits until no claim is in flight
///    (`active_helpers == 0 && compile_state == kIdle`), so the owner may
///    free the handle, binding array and captured state the moment the run
///    is done or destroyed. Straggler tasks scheduled after that touch
///    only the shared_ptr-owned PipelineExecState, fail their claim, and
///    die.
///
/// 4. `single_threaded` pins the pledge, not the wall clock: the whole
///    pipeline (morsels and compiles) executes inside one Step on the
///    calling thread, so baselines and the paper's latency figures see the
///    exact pre-refactor behavior.
class PipelineRun {
 public:
  /// `task`'s raw pointers (handle, state, compile captures) must stay
  /// valid until done() or destruction (invariant 3).
  PipelineRun(TaskScheduler* scheduler, ExecutionStrategy strategy,
              CostModelParams params, const PipelineTask& task,
              bool single_threaded, double first_eval_delay_seconds);
  ~PipelineRun();

  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  /// Runs one bounded slice on the calling thread, which must be a worker
  /// of `scheduler`. kYield: call again (on any of its workers); kDone: the
  /// pipeline finished and TakeStats() is valid.
  Task::Status Step();

  bool done() const { return phase_ == Phase::kDone; }

  /// The run's statistics; valid once done().
  PipelineRunStats TakeStats() { return std::move(stats_); }

 private:
  enum class Phase { kStart, kMorsels, kDrain, kDone };

  void Start();
  Task::Status StepMorsel();
  Task::Status StepDrain();
  Task::Status RunSingleThreaded();  // whole pipeline, one slice (inv. 4)
  void Evaluate();

  TaskScheduler* sched_;
  ExecutionStrategy strategy_;
  CostModelParams params_;
  PipelineTask task_;
  bool single_threaded_;
  double first_eval_delay_seconds_;

  Phase phase_ = Phase::kStart;
  std::shared_ptr<PipelineExecState> st_;
  PipelineRunStats stats_;
  int participants_ = 1;
  int controller_slot_ = 0;
  int morsels_since_queued_ = 0;
  int64_t start_nanos_ = 0;
  bool adaptive_ = false;
};

}  // namespace aqe

#endif  // AQE_ADAPTIVE_CONTROLLER_H_
