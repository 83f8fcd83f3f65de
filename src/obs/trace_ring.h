#ifndef AQE_OBS_TRACE_RING_H_
#define AQE_OBS_TRACE_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace_event.h"

namespace aqe {

/// Fixed-capacity single-producer event ring: the recording substrate of
/// the always-on tracer. One thread pushes (lock-free, wait-free: two
/// relaxed atomic loads, eight relaxed stores, one release store); any
/// thread may snapshot concurrently. Full rings overwrite the oldest event
/// — recent history is what traces are for — and account every overwrite
/// in dropped().
///
/// Storage is an array of atomic words, eight per event: a producer writes
/// the event's words relaxed and publishes them with a release store of
/// head_; a reader acquires head_, copies, then re-reads head_ and
/// discards any slot the producer may have re-entered during the copy. No
/// word is ever accessed non-atomically, so concurrent record/snapshot is
/// exactly as clean under TSan as it is in the machine model.
class TraceRing {
 public:
  static constexpr size_t kWordsPerEvent = sizeof(TraceEvent) / 8;

  /// `capacity` (events) is rounded up to a power of two; minimum 8.
  explicit TraceRing(size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Single producer only.
  void Push(const TraceEvent& event);

  size_t capacity() const { return capacity_; }
  /// Events ever pushed.
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events overwritten before any snapshot could retain them.
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// Copies the retained events, oldest first. Safe concurrently with the
  /// producer; events the producer might have overwritten mid-copy are
  /// dropped from the result rather than returned torn.
  std::vector<TraceEvent> Snapshot() const;

  /// Resets head to zero. The caller must guarantee the producer is
  /// quiescent (EngineTracer::Reset between runs).
  void Clear() { head_.store(0, std::memory_order_release); }

 private:
  size_t capacity_;  ///< power of two
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
  std::atomic<uint64_t> head_{0};  ///< events published
};

}  // namespace aqe

#endif  // AQE_OBS_TRACE_RING_H_
