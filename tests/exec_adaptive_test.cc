#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/calibrate.h"
#include "adaptive/controller.h"
#include "adaptive/cost_model.h"
#include "exec/function_handle.h"
#include "exec/morsel.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "sched/scheduler.h"
#include "sched/task.h"

namespace aqe {
namespace {

// --- MorselQueue ----------------------------------------------------------

TEST(MorselQueueTest, CoversDomainExactlyOnce) {
  MorselQueue queue(100000, 1024);
  std::vector<bool> seen(100000, false);
  MorselRange m;
  while (queue.Next(&m)) {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (bool s : seen) ASSERT_TRUE(s);
  EXPECT_EQ(queue.remaining(), 0u);
}

TEST(MorselQueueTest, GrowingMorselSizes) {
  MorselQueue queue(1 << 20, 1024, 16384, 4);
  MorselRange m;
  ASSERT_TRUE(queue.Next(&m));
  EXPECT_EQ(m.end - m.begin, 1024u);
  uint64_t max_seen = 0;
  while (queue.Next(&m)) max_seen = std::max(max_seen, m.end - m.begin);
  EXPECT_EQ(max_seen, 16384u);
}

TEST(MorselQueueTest, ConcurrentWorkStealingNoOverlap) {
  MorselQueue queue(1 << 18, 512);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&queue, &total] {
      MorselRange m;
      while (queue.Next(&m)) total += m.end - m.begin;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), uint64_t{1} << 18);
}

TEST(MorselQueueTest, EmptyDomain) {
  MorselQueue queue(0);
  MorselRange m;
  EXPECT_FALSE(queue.Next(&m));
}

// Dynamic morsel-size growth boundaries: the size doubles after every
// `grow_every` morsels of each size, is a pure function of the cursor
// position, clamps at `max_size`, and the final morsel may be partial.

TEST(MorselQueueTest, GrowthBoundarySchedule) {
  // initial 4, grow_every 2, max 16: sizes 4,4,8,8,16,16,16,...
  MorselQueue queue(100, 4, 16, 2);
  EXPECT_EQ(queue.SizeAt(0), 4u);
  EXPECT_EQ(queue.SizeAt(7), 4u);   // still inside the first 2 morsels
  EXPECT_EQ(queue.SizeAt(8), 8u);   // first boundary: 2 * 4
  EXPECT_EQ(queue.SizeAt(23), 8u);  // 8 + 2*8 = 24 is the next boundary
  EXPECT_EQ(queue.SizeAt(24), 16u);
  EXPECT_EQ(queue.SizeAt(1000), 16u);  // clamped forever after

  std::vector<uint64_t> sizes;
  MorselRange m;
  while (queue.Next(&m)) sizes.push_back(m.end - m.begin);
  // Positions 0,4 | 8,16 | 24,40,56,72,88 — the tail morsel is partial.
  EXPECT_EQ(sizes, (std::vector<uint64_t>{4, 4, 8, 8, 16, 16, 16, 16, 12}));
}

TEST(MorselQueueTest, ClampsAtMaxSizeEvenWhenNotPowerOfTwoMultiple) {
  // max_size 24 is not initial * 2^k: growth must clamp to exactly 24.
  MorselQueue queue(1000, 10, 24, 1);
  std::vector<uint64_t> sizes;
  MorselRange m;
  while (queue.Next(&m)) sizes.push_back(m.end - m.begin);
  // 10, then 20, then clamp: min(40, 24) = 24 for the rest.
  EXPECT_EQ(sizes[0], 10u);
  EXPECT_EQ(sizes[1], 20u);
  for (size_t i = 2; i + 1 < sizes.size(); ++i) EXPECT_EQ(sizes[i], 24u);
  EXPECT_LE(sizes.back(), 24u);
}

TEST(MorselQueueTest, LastMorselIsPartial) {
  MorselQueue queue(2500, 1024);
  MorselRange m;
  uint64_t last = 0, covered = 0;
  while (queue.Next(&m)) {
    last = m.end - m.begin;
    covered += m.end - m.begin;
    EXPECT_LE(m.end, 2500u);
  }
  EXPECT_EQ(covered, 2500u);
  EXPECT_EQ(last, 2500u % 1024);  // 452-row partial tail
}

// --- FunctionHandle ----------------------------------------------------------

struct HandleProbe {
  std::atomic<int> interpreted{0};
  std::atomic<int> compiled{0};
};

void FakeInterpreter(void* state, uint64_t, uint64_t, const void* extra) {
  EXPECT_NE(extra, nullptr);
  static_cast<HandleProbe*>(state)->interpreted++;
}
void FakeCompiled(void* state, uint64_t, uint64_t, const void*) {
  static_cast<HandleProbe*>(state)->compiled++;
}

TEST(FunctionHandleTest, SwitchesVariantMidStream) {
  int program_marker = 0;
  FunctionHandle handle(&FakeInterpreter, &program_marker);
  EXPECT_FALSE(handle.is_compiled());
  HandleProbe probe;
  handle.Call(&probe, 0, 10);
  EXPECT_EQ(probe.interpreted.load(), 1);
  handle.SetCompiled(&FakeCompiled, ExecMode::kUnoptimized);
  EXPECT_TRUE(handle.is_compiled());
  EXPECT_EQ(handle.mode(), ExecMode::kUnoptimized);
  handle.Call(&probe, 10, 20);
  EXPECT_EQ(probe.compiled.load(), 1);
  EXPECT_EQ(probe.interpreted.load(), 1);
}

// --- Cost model (Fig 7) --------------------------------------------------------

TEST(CostModelTest, TinyPipelineStaysInterpreted) {
  CostModelParams params;
  // 1k tuples at 1M tuples/s/thread: 1 ms of work left — never compile.
  EXPECT_EQ(ExtrapolatePipelineDurations(1e6, 1000, 4, 5000,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, HugePipelineCompilesOptimized) {
  CostModelParams params;
  // 1B tuples remaining: optimized compilation must dominate.
  EXPECT_EQ(ExtrapolatePipelineDurations(1e6, 1000000000ull, 4, 5000,
                                         ExecMode::kBytecode, params),
            Decision::kCompileOptimized);
}

TEST(CostModelTest, MediumPipelineCompilesUnoptimized) {
  CostModelParams params;
  params.unopt_base_seconds = 5e-3;
  params.opt_base_seconds = 50e-3;
  // Work worth ~30ms of interpretation: unoptimized pays off, optimized
  // compilation alone costs more than the remaining work.
  Decision d = ExtrapolatePipelineDurations(1e6, 120000, 1, 1000,
                                            ExecMode::kBytecode, params);
  EXPECT_EQ(d, Decision::kCompileUnoptimized);
}

TEST(CostModelTest, UpgradesFromUnoptimizedOnlyToOptimized) {
  CostModelParams params;
  EXPECT_EQ(ExtrapolatePipelineDurations(3.6e6, 2000000000ull, 4, 5000,
                                         ExecMode::kUnoptimized, params),
            Decision::kCompileOptimized);
  EXPECT_EQ(ExtrapolatePipelineDurations(3.6e6, 1000, 4, 5000,
                                         ExecMode::kUnoptimized, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, OptimizedNeverSwitches) {
  CostModelParams params;
  EXPECT_EQ(ExtrapolatePipelineDurations(5e6, 1ull << 40, 4, 5000,
                                         ExecMode::kOptimized, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, ZeroRemainingOrZeroRate) {
  CostModelParams params;
  EXPECT_EQ(ExtrapolatePipelineDurations(1e6, 0, 4, 100,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
  EXPECT_EQ(ExtrapolatePipelineDurations(0, 100, 4, 100,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, WorkerCountChangesTheBreakEvenPoint) {
  // Fig 7 models that during compilation the other w-1 threads keep
  // draining the pipeline. Consequences, both checked here:
  //  (a) with one worker, a pipeline worth ~2x the compile time is still
  //      worth compiling (the compiled code recoups the stall);
  //  (b) with many workers, the same pipeline drains before compilation
  //      would finish, so the model correctly refuses to compile.
  CostModelParams params;
  uint64_t n = 400000;  // 0.4 s of single-threaded interpretation at 1M/s
  Decision single = ExtrapolatePipelineDurations(1e6, n, 1, 20000,
                                                 ExecMode::kBytecode, params);
  Decision many = ExtrapolatePipelineDurations(1e6, n, 8, 20000,
                                               ExecMode::kBytecode, params);
  EXPECT_NE(single, Decision::kDoNothing);
  EXPECT_EQ(many, Decision::kDoNothing);

  // And with enough remaining work, everyone compiles.
  EXPECT_NE(ExtrapolatePipelineDurations(1e6, 100 * n, 8, 20000,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, LargerFunctionsRaiseTheBar) {
  CostModelParams params;
  // Same remaining work; a huge function (expensive compile) should stay
  // interpreted while a small one compiles.
  uint64_t n = 300000;
  Decision small_fn = ExtrapolatePipelineDurations(
      1e6, n, 1, 500, ExecMode::kBytecode, params);
  Decision big_fn = ExtrapolatePipelineDurations(
      1e6, n, 1, 2000000, ExecMode::kBytecode, params);
  EXPECT_NE(small_fn, Decision::kDoNothing);
  EXPECT_EQ(big_fn, Decision::kDoNothing);
}

// --- PipelineRun -----------------------------------------------------------
//
// Every test below steps a PipelineRun the way the engine's QueryJob does:
// from a task on the run's own scheduler, yielding between slices. Cost-model
// parameters force deterministic decisions, so each test asserts the exact
// mode-switch sequence, the final mode and that every tuple ran exactly once.

/// A synthetic "worker function" whose interpreted variant is slow and
/// compiled variants are fast, with per-call counters.
struct SyntheticPipeline {
  std::atomic<uint64_t> interpreted_tuples{0};
  std::atomic<uint64_t> unopt_tuples{0};
  std::atomic<uint64_t> opt_tuples{0};

  uint64_t total() const {
    return interpreted_tuples.load() + unopt_tuples.load() + opt_tuples.load();
  }

  static void SlowInterp(void* state, uint64_t begin, uint64_t end,
                         const void*) {
    auto* self = static_cast<SyntheticPipeline*>(state);
    self->interpreted_tuples += end - begin;
    // ~10M tuples/s.
    std::this_thread::sleep_for(std::chrono::nanoseconds((end - begin) * 100));
  }
  static void FastUnopt(void* state, uint64_t begin, uint64_t end,
                        const void*) {
    auto* self = static_cast<SyntheticPipeline*>(state);
    self->unopt_tuples += end - begin;
    std::this_thread::sleep_for(std::chrono::nanoseconds((end - begin) * 25));
  }
  static void FastOpt(void* state, uint64_t begin, uint64_t end,
                      const void*) {
    auto* self = static_cast<SyntheticPipeline*>(state);
    self->opt_tuples += end - begin;
    std::this_thread::sleep_for(std::chrono::nanoseconds((end - begin) * 18));
  }

  static WorkerFn Compile(ExecMode mode) {
    return mode == ExecMode::kUnoptimized ? &FastUnopt : &FastOpt;
  }
};

PipelineTask SyntheticTask(SyntheticPipeline* pipe, FunctionHandle* handle,
                           uint64_t tuples) {
  PipelineTask task;
  task.handle = handle;
  task.state = pipe;
  task.total_tuples = tuples;
  task.function_instructions = 1000;
  task.compile = &SyntheticPipeline::Compile;
  return task;
}

struct RunOutcome {
  PipelineRunStats stats;
  uint64_t yields = 0;  ///< Step() calls that returned kYield

  std::vector<ExecMode> switches() const {
    std::vector<ExecMode> modes;
    for (const auto& [mode, seconds] : stats.compiles) modes.push_back(mode);
    return modes;
  }
};

/// The test-local stand-in for QueryJob: a task that steps the run once per
/// slice. From `pause_after_steps` on, the controller is suspended for
/// `pause` (the task keeps yielding without stepping, so it may also
/// migrate to another worker) before it resumes.
class StepTask : public Task {
 public:
  StepTask(PipelineRun* run, RunOutcome* out, std::promise<void>* done,
           int pause_after_steps, std::chrono::milliseconds pause)
      : run_(run),
        out_(out),
        done_(done),
        pause_after_steps_(pause_after_steps),
        pause_(pause) {}

  Status Run(int) override {
    if (steps_ == pause_after_steps_) {
      const auto now = std::chrono::steady_clock::now();
      if (resume_at_ == std::chrono::steady_clock::time_point{}) {
        resume_at_ = now + pause_;
      }
      if (now < resume_at_) return Status::kYield;
    }
    ++steps_;
    if (run_->Step() == Status::kYield) {
      ++out_->yields;
      return Status::kYield;
    }
    out_->stats = run_->TakeStats();
    done_->set_value();
    return Status::kDone;
  }

 private:
  PipelineRun* run_;
  RunOutcome* out_;
  std::promise<void>* done_;
  const int pause_after_steps_;
  const std::chrono::milliseconds pause_;
  int steps_ = 0;
  std::chrono::steady_clock::time_point resume_at_{};
};

struct RunConfig {
  ExecutionStrategy strategy = ExecutionStrategy::kAdaptive;
  CostModelParams params;
  bool single_threaded = false;
  double first_eval_delay_seconds = 0;
  int pause_after_steps = -1;
  std::chrono::milliseconds pause{0};
};

RunOutcome StepToCompletion(TaskScheduler* sched, const PipelineTask& task,
                            const RunConfig& config) {
  PipelineRun run(sched, config.strategy, config.params, task,
                  config.single_threaded, config.first_eval_delay_seconds);
  RunOutcome out;
  std::promise<void> done;
  sched->Submit(std::make_unique<StepTask>(&run, &out, &done,
                                           config.pause_after_steps,
                                           config.pause));
  done.get_future().wait();
  return out;
}

/// Cost-model parameters that force exactly one switch to unoptimized.
CostModelParams ForcedUnoptParams() {
  CostModelParams params;
  params.unopt_base_seconds = 0;
  params.unopt_per_instruction_seconds = 0;
  params.opt_base_seconds = 1e9;  // optimized can never win
  return params;
}

/// The (pipeline, mode) sequence of a tracer's compile events.
std::vector<std::pair<int, ExecMode>> CompileEvents(const TraceSnapshot& snap) {
  std::vector<std::pair<int, ExecMode>> switches;
  for (const auto& lane : snap.lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.kind == TraceEventKind::kCompile) {
        switches.emplace_back(e.pipeline_id, static_cast<ExecMode>(e.detail));
      }
    }
  }
  return switches;
}

constexpr uint64_t kLongTuples = 2000000;

TEST(PipelineRunTest, BytecodeStrategyNeverCompiles) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  PipelineTask task = SyntheticTask(&pipe, &handle, kLongTuples);
  task.compile = [](ExecMode) -> WorkerFn {
    ADD_FAILURE() << "bytecode strategy must not compile";
    return nullptr;
  };
  RunConfig config;
  config.strategy = ExecutionStrategy::kBytecode;
  RunOutcome out = StepToCompletion(&sched, task, config);
  EXPECT_EQ(out.switches(), std::vector<ExecMode>{});
  EXPECT_EQ(out.stats.final_mode, ExecMode::kBytecode);
  EXPECT_EQ(pipe.interpreted_tuples.load(), kLongTuples);
}

TEST(PipelineRunTest, StaticOptimizedCompilesUpFront) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  PipelineTask task = SyntheticTask(&pipe, &handle, 200000);
  int compile_calls = 0;
  task.compile = [&compile_calls](ExecMode mode) -> WorkerFn {
    ++compile_calls;
    EXPECT_EQ(mode, ExecMode::kOptimized);
    return &SyntheticPipeline::FastOpt;
  };
  RunConfig config;
  config.strategy = ExecutionStrategy::kOptimized;
  RunOutcome out = StepToCompletion(&sched, task, config);
  EXPECT_EQ(compile_calls, 1);
  EXPECT_EQ(out.switches(), std::vector<ExecMode>{ExecMode::kOptimized});
  EXPECT_EQ(out.stats.final_mode, ExecMode::kOptimized);
  EXPECT_EQ(pipe.interpreted_tuples.load(), 0u);
  EXPECT_EQ(pipe.opt_tuples.load(), 200000u);
  // The up-front compile occupied the controller before any morsel ran.
  EXPECT_GT(out.stats.blocking_compile_seconds, 0.0);
}

TEST(PipelineRunTest, ForcedUnoptimizedSwitch) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  RunConfig config;
  config.params = ForcedUnoptParams();
  RunOutcome out = StepToCompletion(
      &sched, SyntheticTask(&pipe, &handle, kLongTuples), config);
  EXPECT_EQ(out.switches(), std::vector<ExecMode>{ExecMode::kUnoptimized});
  EXPECT_EQ(out.stats.final_mode, ExecMode::kUnoptimized);
  EXPECT_GT(pipe.interpreted_tuples.load(), 0u);  // started in bytecode
  EXPECT_EQ(pipe.opt_tuples.load(), 0u);
  EXPECT_EQ(pipe.total(), kLongTuples);
  ASSERT_EQ(out.stats.mode_switches.size(), 1u);
  EXPECT_EQ(out.stats.mode_switches[0].target, ExecMode::kUnoptimized);
}

TEST(PipelineRunTest, ForcedStraightToOptimized) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  RunConfig config;
  config.params.unopt_base_seconds = 1e9;  // unoptimized can never win
  config.params.opt_base_seconds = 0;
  config.params.opt_per_instruction_seconds = 0;
  RunOutcome out = StepToCompletion(
      &sched, SyntheticTask(&pipe, &handle, kLongTuples), config);
  EXPECT_EQ(out.switches(), std::vector<ExecMode>{ExecMode::kOptimized});
  EXPECT_EQ(out.stats.final_mode, ExecMode::kOptimized);
  EXPECT_EQ(pipe.unopt_tuples.load(), 0u);
  EXPECT_EQ(pipe.total(), kLongTuples);
}

TEST(PipelineRunTest, AdaptiveSwitchesOnLongPipeline) {
  // Realistic (non-forced) compile costs: the run must still decide to
  // leave bytecode on a ~300 ms pipeline.
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  RunConfig config;
  config.params.unopt_base_seconds = 1e-3;
  config.params.unopt_per_instruction_seconds = 0;
  config.params.opt_base_seconds = 4e-3;
  config.params.opt_per_instruction_seconds = 0;
  config.first_eval_delay_seconds = 1e-3;
  RunOutcome out = StepToCompletion(
      &sched, SyntheticTask(&pipe, &handle, 3000000), config);
  EXPECT_EQ(pipe.total(), 3000000u);
  EXPECT_GT(pipe.interpreted_tuples.load(), 0u);
  EXPECT_FALSE(out.stats.compiles.empty());
  EXPECT_NE(out.stats.final_mode, ExecMode::kBytecode);
}

TEST(PipelineRunTest, AdaptiveLeavesShortPipelineInterpreted) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  PipelineTask task = SyntheticTask(&pipe, &handle, 4000);  // << 1 ms
  task.function_instructions = 5000;
  task.compile = [](ExecMode) -> WorkerFn {
    ADD_FAILURE() << "short pipeline must not compile";
    return nullptr;
  };
  RunConfig config;
  config.first_eval_delay_seconds = 1e-3;
  RunOutcome out = StepToCompletion(&sched, task, config);
  EXPECT_EQ(out.stats.final_mode, ExecMode::kBytecode);
  EXPECT_EQ(pipe.interpreted_tuples.load(), 4000u);
}

TEST(PipelineRunTest, SingleThreadedSwitchesInline) {
  TaskScheduler sched(2);
  EngineTracer tracer(1 << 16);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  PipelineTask task = SyntheticTask(&pipe, &handle, kLongTuples);
  task.obs.tracer = &tracer;
  RunConfig config;
  config.params = ForcedUnoptParams();
  config.single_threaded = true;
  RunOutcome out = StepToCompletion(&sched, task, config);
  EXPECT_EQ(out.switches(), std::vector<ExecMode>{ExecMode::kUnoptimized});
  EXPECT_EQ(out.stats.final_mode, ExecMode::kUnoptimized);
  EXPECT_EQ(pipe.opt_tuples.load(), 0u);
  EXPECT_EQ(pipe.total(), kLongTuples);
  // The whole pipeline ran inside one slice: no yields, and every morsel
  // and the compile landed on the one worker that stepped it.
  EXPECT_EQ(out.yields, 0u);
  const TraceSnapshot snap = tracer.Snapshot();
  int lanes_with_events = 0;
  for (const auto& lane : snap.lanes) {
    if (!lane.events.empty()) ++lanes_with_events;
  }
  EXPECT_EQ(lanes_with_events, 1);
  const std::vector<std::pair<int, ExecMode>> expected = {
      {0, ExecMode::kUnoptimized}};
  EXPECT_EQ(CompileEvents(snap), expected);
}

TEST(PipelineRunTest, StepYieldsBetweenMorselsAndTracesTheSwitch) {
  TaskScheduler sched(2);
  EngineTracer tracer(1 << 16);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  PipelineTask task = SyntheticTask(&pipe, &handle, kLongTuples);
  task.pipeline_id = 3;
  task.obs.tracer = &tracer;
  RunConfig config;
  config.params = ForcedUnoptParams();
  RunOutcome out = StepToCompletion(&sched, task, config);
  // The controller suspended at every morsel boundary (its shard is a
  // sizeable fraction of the domain at the smallest morsel size).
  EXPECT_GT(out.yields, 10u);
  EXPECT_EQ(pipe.total(), kLongTuples);

  // The engine tracer saw the morsels in both modes and exactly the one
  // compile the stats report; the Fig 14 renderer draws it.
  const TraceSnapshot snap = tracer.Snapshot();
  EXPECT_EQ(snap.total_dropped(), 0u);
  const std::vector<std::pair<int, ExecMode>> expected = {
      {3, ExecMode::kUnoptimized}};
  EXPECT_EQ(CompileEvents(snap), expected);
  bool interpreted_morsel = false, compiled_morsel = false;
  for (const auto& lane : snap.lanes) {
    for (const TraceEvent& e : lane.events) {
      EXPECT_GE(e.end_nanos, e.start_nanos);
      if (e.kind != TraceEventKind::kMorsel) continue;
      const auto mode = static_cast<ExecMode>(e.detail);
      interpreted_morsel |= mode == ExecMode::kBytecode;
      compiled_morsel |= mode == ExecMode::kUnoptimized;
    }
  }
  EXPECT_TRUE(interpreted_morsel);
  EXPECT_TRUE(compiled_morsel);
  const std::string chart = RenderTextTrace(snap, sched.num_workers(), 60);
  EXPECT_NE(chart.find("thread 0"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(PipelineRunTest, ModeSwitchStateSurvivesSuspension) {
  // Force the compile decision, then stop stepping the controller for a
  // while mid-run: the queued compile claim and the rate epoch must survive
  // the suspension (and a possible migration to the other worker), and the
  // switch must happen exactly once when stepping resumes.
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  int marker = 0;
  FunctionHandle handle(&SyntheticPipeline::SlowInterp, &marker);
  PipelineTask task = SyntheticTask(&pipe, &handle, 1500000);
  task.compile = [](ExecMode mode) -> WorkerFn {
    EXPECT_EQ(mode, ExecMode::kUnoptimized);
    return &SyntheticPipeline::FastUnopt;
  };
  RunConfig config;
  config.params = ForcedUnoptParams();
  config.pause_after_steps = 8;
  config.pause = std::chrono::milliseconds(20);
  RunOutcome out = StepToCompletion(&sched, task, config);
  EXPECT_EQ(out.switches(), std::vector<ExecMode>{ExecMode::kUnoptimized});
  EXPECT_EQ(out.stats.final_mode, ExecMode::kUnoptimized);
  EXPECT_EQ(pipe.total(), 1500000u);
}

// --- cost-model micro-calibration -----------------------------------------

TEST(CostModelCalibrationTest, MeasuredSpeedupsAreSaneAndOrdered) {
  const CostModelParams& params = CalibratedCostModelParams();
  // Compiled code must beat the interpreter, optimized at least matches
  // unoptimized, and the clamps bound a mismeasured run.
  EXPECT_GE(params.unopt_speedup, 1.2);
  EXPECT_LE(params.unopt_speedup, 30.0);
  EXPECT_GE(params.opt_speedup, params.unopt_speedup);
  EXPECT_LE(params.opt_speedup, 50.0);
  // Compile-time coefficients are not calibrated: defaults stay.
  CostModelParams defaults;
  EXPECT_EQ(params.unopt_base_seconds, defaults.unopt_base_seconds);
  EXPECT_EQ(params.opt_per_instruction_seconds,
            defaults.opt_per_instruction_seconds);
  // Memoized: a second call returns the identical measurement.
  EXPECT_TRUE(params == CalibratedCostModelParams());
}

}  // namespace
}  // namespace aqe
