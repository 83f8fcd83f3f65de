#ifndef AQE_OBS_PROFILER_H_
#define AQE_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace aqe {

class Counter;

/// What a worker is doing right now, published in its beacon. The values
/// are part of the collapsed-stack vocabulary (frame names below).
enum class BeaconActivity : uint8_t {
  kIdle = 0,     ///< no query work on this lane
  kSlice = 1,    ///< QueryJob engine-step bookkeeping inside a slice
  kMorsel = 2,   ///< executing a morsel (mode byte says which tier)
  kCompile = 3,  ///< running a JIT compile job
};

/// One worker's published execution state: two relaxed atomic words the
/// worker stores at boundaries it already crosses (slice start/end, morsel
/// start/end, compile start/end) and a sampler thread reads at its own
/// cadence. word0 packs query_id(32) | pipeline(16) | mode(8) | activity(8);
/// word1 carries free-form detail (currently the morsel's tuple count or
/// the compile's instruction count). Each word is a single atomic so it can
/// never tear; the *pair* is validated by the seqlock-lite read protocol in
/// SampleBeacon (read w0, read w1, re-read w0 — accept only if w0 held
/// still). Publishing is two relaxed stores: no fence, no RMW, nothing the
/// morsel loop can stall on.
struct alignas(64) WorkerBeacon {
  std::atomic<uint64_t> word0{0};
  std::atomic<uint64_t> word1{0};
};

inline uint64_t PackBeaconWord(uint32_t query_id, uint16_t pipeline,
                               uint8_t mode, BeaconActivity activity) {
  return (static_cast<uint64_t>(query_id) << 32) |
         (static_cast<uint64_t>(pipeline) << 16) |
         (static_cast<uint64_t>(mode) << 8) |
         static_cast<uint64_t>(activity);
}

inline void PublishBeacon(WorkerBeacon* b, uint32_t query_id,
                          uint16_t pipeline, uint8_t mode,
                          BeaconActivity activity, uint64_t detail) {
  if (b == nullptr) return;
  b->word1.store(detail, std::memory_order_relaxed);
  b->word0.store(PackBeaconWord(query_id, pipeline, mode, activity),
                 std::memory_order_relaxed);
}

inline void ClearBeacon(WorkerBeacon* b) {
  if (b == nullptr) return;
  b->word0.store(0, std::memory_order_relaxed);
}

/// Coherent read of one beacon: returns false (skip the sample) when the
/// worker republished mid-read, so a sample never pairs one publication's
/// word0 with another's word1. Relaxed loads are sufficient — a stale-but-
/// consistent pair is an acceptable sample; a mixed pair is not.
inline bool SampleBeacon(const WorkerBeacon& b, uint64_t* w0, uint64_t* w1) {
  const uint64_t first = b.word0.load(std::memory_order_relaxed);
  *w1 = b.word1.load(std::memory_order_relaxed);
  *w0 = b.word0.load(std::memory_order_relaxed);
  return *w0 == first;
}

/// The engine's beacon array: one lane per scheduler worker, mirroring
/// EngineTracer's lane map.
class BeaconBoard {
 public:
  static constexpr int kLanes = 64;

  WorkerBeacon* lane(int index) {
    if (index < 0 || index >= kLanes) index = 0;
    return &lanes_[index];
  }
  const WorkerBeacon& lane(int index) const {
    if (index < 0 || index >= kLanes) index = 0;
    return lanes_[index];
  }

 private:
  WorkerBeacon lanes_[kLanes];
};

/// Always-on VM-aware sampling profiler: a single thread reads every
/// beacon at `hz` and folds each coherent sample into a bounded
/// (query, pipeline, mode, activity) count map. Completed queries are
/// retired into per-plan collapsed-stack aggregates
/// (`engine;<plan>;pipelineN;<mode>;<activity> <count>`), the format
/// flamegraph.pl / speedscope load directly; lanes with no work fold into
/// `engine;idle`. Sampling-skew caveats are documented in
/// src/obs/DESIGN.md — headline: a sample attributes the whole sampling
/// interval to one instant, so counts converge on true time shares only over
/// many samples, and sub-interval activities are invisible.
class ContinuousProfiler {
 public:
  /// `samples_counter` (optional) is bumped once per accepted sample so
  /// the metrics snapshot can report profiler liveness; it lives in the
  /// engine's MetricsRegistry and must outlive the profiler.
  ContinuousProfiler(const BeaconBoard* board, int hz,
                     Counter* samples_counter);
  ~ContinuousProfiler();

  ContinuousProfiler(const ContinuousProfiler&) = delete;
  ContinuousProfiler& operator=(const ContinuousProfiler&) = delete;

  /// Folds the live samples of `query_id` into the per-plan aggregate
  /// under `plan_name` and returns how many samples the query got. Called
  /// by the engine at query completion (every query, profiled or not).
  uint64_t RetireQuery(uint32_t query_id, const std::string& plan_name);

  /// Collapsed-stack text: one `frame;frame;... count` line per distinct
  /// stack, retired aggregates plus idle. Live (unretired) queries appear
  /// once they complete.
  std::string CollapsedStacks() const;

  uint64_t total_samples() const {
    return total_samples_.load(std::memory_order_relaxed);
  }

  /// Drops all folded samples (phase-delta hygiene; the sampler keeps
  /// running).
  void Reset();

  int hz() const { return hz_; }

 private:
  void SamplerLoop();
  void FoldSample(uint64_t w0);

  const BeaconBoard* board_;
  const int hz_;
  Counter* samples_counter_;

  mutable std::mutex mu_;
  /// Live samples keyed by packed beacon word0 (query/pipeline/mode/
  /// activity); retired_ keyed by the rendered collapsed stack. Both
  /// bounded: kMaxStacks distinct keys, further samples fold into an
  /// overflow bucket so a pathological workload can't grow memory.
  static constexpr size_t kMaxStacks = 4096;
  std::map<uint64_t, uint64_t> live_;
  std::map<std::string, uint64_t> retired_;
  uint64_t idle_samples_ = 0;
  uint64_t overflow_samples_ = 0;

  std::atomic<uint64_t> total_samples_{0};
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

}  // namespace aqe

#endif  // AQE_OBS_PROFILER_H_
