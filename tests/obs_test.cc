#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "obs/export.h"
#include "obs/memory_tracker.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/query_profile.h"
#include "obs/regression.h"
#include "obs/trace_ring.h"
#include "obs/tracer.h"
#include "queries/tpch_queries.h"
#include "tpch/tpch_gen.h"
#include "vm/interpreter.h"
#include "vm/translator.h"

namespace aqe {
namespace {

TraceEvent MakeEvent(uint64_t seq) {
  TraceEvent e;
  e.start_nanos = static_cast<int64_t>(seq * 100);
  e.end_nanos = static_cast<int64_t>(seq * 100 + 50);
  e.payload = seq;
  e.query_id = static_cast<uint32_t>(seq % 7 + 1);
  e.kind = TraceEventKind::kMorsel;
  return e;
}

// --- TraceRing -------------------------------------------------------------

TEST(TraceRingTest, RetainsEventsInOrder) {
  TraceRing ring(16);
  for (uint64_t i = 0; i < 10; ++i) ring.Push(MakeEvent(i));
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(events[i].payload, i);
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDrops) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 100; ++i) ring.Push(MakeEvent(i));
  EXPECT_EQ(ring.recorded(), 100u);
  EXPECT_EQ(ring.dropped(), 92u);
  std::vector<TraceEvent> events = ring.Snapshot();
  // Once wrapped, one slot is always reserved against a push the producer
  // might have in flight (it would alias the oldest retained seq), so a
  // snapshot returns the newest capacity-1 events, oldest first.
  ASSERT_EQ(events.size(), 7u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].payload, 93 + i);
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(9);
  EXPECT_EQ(ring.capacity(), 16u);
  TraceRing tiny(1);
  EXPECT_EQ(tiny.capacity(), 8u);  // minimum
}

TEST(TraceRingTest, ClearRestartsTheRing) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 20; ++i) ring.Push(MakeEvent(i));
  ring.Clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  ring.Push(MakeEvent(7));
  ASSERT_EQ(ring.Snapshot().size(), 1u);
  EXPECT_EQ(ring.Snapshot()[0].payload, 7u);
}

/// One producer hammers the ring while a reader snapshots concurrently —
/// the TSan matrix in CI runs this test; every snapshot must hold
/// internally consistent (non-torn) events.
TEST(TraceRingTest, ConcurrentSnapshotSeesNoTornEvents) {
  TraceRing ring(64);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      TraceEvent e;
      // Self-checking event: fields derive from one counter.
      e.start_nanos = static_cast<int64_t>(i);
      e.end_nanos = static_cast<int64_t>(i + 1);
      e.payload = i;
      e.payload2 = ~i;
      e.query_id = static_cast<uint32_t>(i & 0xFFFFFFFF);
      e.kind = TraceEventKind::kMorsel;
      ring.Push(e);
      ++i;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  uint64_t snapshots = 0, seen = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::vector<TraceEvent> events = ring.Snapshot();
    ++snapshots;
    seen += events.size();
    uint64_t prev = 0;
    bool first = true;
    for (const TraceEvent& e : events) {
      const uint64_t i = e.payload;
      ASSERT_EQ(e.payload2, ~i) << "torn event";
      ASSERT_EQ(e.start_nanos, static_cast<int64_t>(i));
      ASSERT_EQ(e.end_nanos, static_cast<int64_t>(i + 1));
      ASSERT_EQ(e.query_id, static_cast<uint32_t>(i & 0xFFFFFFFF));
      if (!first) ASSERT_EQ(i, prev + 1) << "events out of order";
      prev = i;
      first = false;
    }
  }
  stop.store(true);
  producer.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(seen, 0u);
}

// --- EngineTracer ----------------------------------------------------------

TEST(EngineTracerTest, LanesAllocateLazilyAndSnapshotSkipsEmpty) {
  EngineTracer tracer(/*ring_capacity=*/16);
  EXPECT_EQ(tracer.Snapshot().lanes.size(), 0u);
  tracer.Record(3, MakeEvent(1));
  tracer.Record(5, MakeEvent(2));
  tracer.Record(3, MakeEvent(3));
  TraceSnapshot snap = tracer.Snapshot();
  ASSERT_EQ(snap.lanes.size(), 2u);
  EXPECT_EQ(snap.lanes[0].lane, 3);
  EXPECT_EQ(snap.lanes[0].events.size(), 2u);
  EXPECT_EQ(snap.lanes[1].lane, 5);
  EXPECT_EQ(snap.lanes[1].events.size(), 1u);
  EXPECT_EQ(snap.total_recorded(), 3u);
  EXPECT_EQ(snap.total_dropped(), 0u);
  tracer.Reset();
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

TEST(EngineTracerTest, OutOfRangeLaneClampsInsteadOfCrashing) {
  EngineTracer tracer(16);
  tracer.Record(-1, MakeEvent(1));
  tracer.Record(EngineTracer::kMaxLanes + 10, MakeEvent(2));
  EXPECT_EQ(tracer.total_recorded(), 2u);
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, SmallValuesMapToExactBuckets) {
  // Below 2^kSubBucketBits every value gets its own bucket.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const int b = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(b), v);
    EXPECT_EQ(Histogram::BucketUpperBound(b), v + 1);
  }
}

TEST(HistogramTest, BucketBoundsBracketTheValue) {
  // Every probed value must land in [lower, upper) of its own bucket, and
  // bucket indices must be monotone in the value.
  int prev = -1;
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull,
                     1000ull, 4095ull, 4096ull, 1000000ull,
                     (1ull << 40) + 12345, ~0ull}) {
    const int b = Histogram::BucketIndex(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kBuckets);
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << "value " << v;
    if (v != ~0ull) {
      EXPECT_GT(Histogram::BucketUpperBound(b), v) << "value " << v;
    }
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(HistogramTest, BucketWidthIsBoundedRelativeError) {
  // Log-linear design point: width(bucket)/lower(bucket) <= 1/kSubBuckets
  // for all octave buckets, so percentiles interpolate within ~12.5%.
  for (uint64_t v = Histogram::kSubBuckets; v < (1ull << 30);
       v = v * 2 + v / 3 + 1) {
    const int b = Histogram::BucketIndex(v);
    const double lower = static_cast<double>(Histogram::BucketLowerBound(b));
    const double width =
        static_cast<double>(Histogram::BucketUpperBound(b)) - lower;
    EXPECT_LE(width / lower, 1.0 / Histogram::kSubBuckets + 1e-9)
        << "value " << v;
  }
}

TEST(HistogramTest, SnapshotPercentilesAndReset) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // Uniform 1..1000: percentiles land within one bucket width (12.5%).
  EXPECT_NEAR(s.p50, 500.0, 500.0 * 0.13);
  EXPECT_NEAR(s.p95, 950.0, 950.0 * 0.13);
  EXPECT_NEAR(s.p99, 990.0, 990.0 * 0.13);
  // Percentiles never exceed the observed max.
  EXPECT_LE(s.p99, static_cast<double>(s.max));
  h.Reset();
  s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0.0);
}

TEST(HistogramTest, SingleValuePercentilesClampToMax) {
  Histogram h;
  h.Record(1000000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_LE(s.p50, 1000000.0);
  EXPECT_LE(s.p99, 1000000.0);
  EXPECT_GE(s.p50, 1000000.0 * (1.0 - 1.0 / Histogram::kSubBuckets));
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotAndReset) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter");
  Gauge* g = reg.GetGauge("test.gauge");
  Histogram* h = reg.GetHistogram("test.histo");
  EXPECT_EQ(reg.GetCounter("test.counter"), c);  // stable pointers
  c->Add(41);
  c->Add();
  g->Set(-5);
  h->Record(100);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 42u);
  EXPECT_EQ(snap.counter("test.missing"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -5);
  const HistogramSnapshot* hs = snap.histogram("test.histo");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1u);
  EXPECT_EQ(snap.histogram("test.missing"), nullptr);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"test.histo\""), std::string::npos);

  // Reset zeroes counters and histograms but keeps gauges (current state).
  reg.Reset();
  snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 0u);
  EXPECT_EQ(snap.histogram("test.histo")->count, 0u);
  EXPECT_EQ(snap.gauges[0].second, -5);
}

// --- Engine integration ----------------------------------------------------

class ObsEngineTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* c = [] {
      auto* catalog = new Catalog();
      tpch::BuildTpchDatabase(catalog, /*sf=*/0.01);
      return catalog;
    }();
    return *c;
  }
};

TEST_F(ObsEngineTest, SnapshotReportsPerClassHistogramsAndCounters) {
  QueryEngine engine(&catalog(), /*num_threads=*/2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.query_class = 0;
  ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  options.query_class = 2;
  ASSERT_FALSE(engine.Run(q1, options).rows.empty());

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("engine.queries_submitted"), 2u);
  EXPECT_EQ(snap.counter("engine.queries_completed"), 2u);
  EXPECT_GT(snap.counter("exec.morsels"), 0u);
  EXPECT_GT(snap.counter("sched.executed_slices"), 0u);
  EXPECT_GT(snap.counter("sched.class_slices.class0"), 0u);
  EXPECT_GT(snap.counter("sched.class_slices.class2"), 0u);
  EXPECT_GT(snap.counter("translator.programs"), 0u);
  EXPECT_GT(snap.counter("trace.recorded"), 0u);

  // Queue-wait and exec-latency histograms per scheduling class: exactly
  // one query each in classes 0 and 2, none elsewhere.
  for (int cls : {0, 2}) {
    const auto* wait = snap.histogram("admission.queue_wait_us.class" +
                                      std::to_string(cls));
    const auto* lat = snap.histogram("engine.exec_latency_us.class" +
                                     std::to_string(cls));
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(wait->count, 1u) << "class " << cls;
    EXPECT_EQ(lat->count, 1u) << "class " << cls;
    EXPECT_GT(lat->max, 0u) << "class " << cls;
  }
  for (int cls : {1, 3}) {
    EXPECT_EQ(snap.histogram("engine.exec_latency_us.class" +
                             std::to_string(cls))
                  ->count,
              0u);
  }

  // Cache counters fold in (one miss per pipeline on this cold engine).
  EXPECT_GT(snap.counter("cache.bytecode_misses"), 0u);
  EXPECT_EQ(snap.counter("cache.bytecode_misses"),
            engine.artifact_cache_stats().bytecode_misses);
}

TEST_F(ObsEngineTest, ResetObservabilityStatsZeroesEverything) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  ASSERT_FALSE(engine.Run(q6).rows.empty());
  ASSERT_GT(engine.ObservabilitySnapshot().counter("exec.morsels"), 0u);

  engine.ResetObservabilityStats();
  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("exec.morsels"), 0u);
  EXPECT_EQ(snap.counter("engine.queries_completed"), 0u);
  EXPECT_EQ(snap.counter("cache.bytecode_misses"), 0u);
  EXPECT_EQ(snap.counter("translator.programs"), 0u);
  EXPECT_EQ(snap.counter("trace.recorded"), 0u);
  EXPECT_EQ(snap.histogram("engine.exec_latency_us.class0")->count, 0u);
  // Residency gauges survive: the cache still holds the artifacts.
  int64_t entries = -1;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "cache.entries") entries = value;
  }
  EXPECT_GT(entries, 0);

  // The warm rerun now shows hits against clean counters.
  ASSERT_FALSE(engine.Run(q6).rows.empty());
  snap = engine.ObservabilitySnapshot();
  EXPECT_GT(snap.counter("cache.bytecode_hits"), 0u);
  EXPECT_EQ(snap.counter("cache.bytecode_misses"), 0u);
}

TEST_F(ObsEngineTest, ArtifactCacheStatsDeltaAndReset) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  ASSERT_FALSE(engine.Run(q6).rows.empty());
  const ArtifactCacheStats cold = engine.artifact_cache_stats();
  EXPECT_GT(cold.bytecode_misses, 0u);

  ASSERT_FALSE(engine.Run(q6).rows.empty());
  const ArtifactCacheStats warm = engine.artifact_cache_stats() - cold;
  EXPECT_GT(warm.bytecode_hits, 0u);
  EXPECT_EQ(warm.bytecode_misses, 0u);
  EXPECT_EQ(warm.entry_misses, 0u);
  // bytes/entries keep the current residency, not a delta.
  EXPECT_GT(warm.entries, 0u);
}

TEST_F(ObsEngineTest, VmOpcodeCountersAppearWhileProfiling) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  engine.set_vm_opcode_profiling(true);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;  // stay interpreted
  ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  engine.set_vm_opcode_profiling(false);

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  uint64_t vm_ops = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("vm.op.", 0) == 0) vm_ops += value;
  }
  EXPECT_GT(vm_ops, 0u) << "no vm.op.* counters in the snapshot";

  VmResetProfileCounts();
  EXPECT_TRUE(VmProfileCounts().empty());
}

TEST_F(ObsEngineTest, ChromeTraceExportIsWellFormedForAdaptiveRun) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kAdaptive;
  options.adaptive_first_eval_seconds = 1e-6;  // force early mode decisions
  ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  ASSERT_FALSE(engine.Run(q1, options).rows.empty());

  const std::string json = engine.ExportChromeTrace();
  // Golden structure: the stable skeleton every viewer needs. Event
  // counts and timestamps vary run to run; the shape must not.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"slice\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"morsel\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"admission-wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pipeline\""), std::string::npos);
  // Per-query flows: both queries start and finish.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy without a JSON
  // parser; CI's check_trace.py does the full parse).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);

  // The Fig 14 swimlane chart (bench/fig14_trace) renders the same rings.
  const std::string text = engine.RenderTrace(/*width=*/80);
  EXPECT_NE(text.find("time ->"), std::string::npos);
  EXPECT_NE(text.find("thread 0 |"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
}

TEST(EngineTracerTest, LaneStatsReportPerLaneRecordedAndDropped) {
  EngineTracer tracer(/*ring_capacity=*/8);
  for (uint64_t i = 0; i < 3; ++i) tracer.Record(0, MakeEvent(i));
  for (uint64_t i = 0; i < 20; ++i) tracer.Record(2, MakeEvent(i));
  std::vector<EngineTracer::LaneStats> stats = tracer.lane_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].lane, 0);
  EXPECT_EQ(stats[0].recorded, 3u);
  EXPECT_EQ(stats[0].dropped, 0u);
  EXPECT_EQ(stats[1].lane, 2);
  EXPECT_EQ(stats[1].recorded, 20u);
  EXPECT_EQ(stats[1].dropped, 12u);
}

// --- MetricsSnapshot serialization -----------------------------------------

TEST(MetricsRegistryTest, ToJsonKeepsStableKeyOrderAndBuckets) {
  MetricsRegistry reg;
  // Registered out of order on purpose: snapshots iterate the registry's
  // ordered map, so serialization order is name order, not insert order.
  reg.GetCounter("zz.last")->Add(1);
  reg.GetCounter("aa.first")->Add(2);
  reg.GetCounter("mm.middle")->Add(3);
  Histogram* h = reg.GetHistogram("t.h");
  h->Record(1);
  h->Record(1);
  h->Record(2);
  h->Record(100);

  MetricsSnapshot snap = reg.Snapshot();
  const std::string json = snap.ToJson();
  const size_t a = json.find("\"aa.first\":2");
  const size_t m = json.find("\"mm.middle\":3");
  const size_t z = json.find("\"zz.last\":1");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  // Same input, same output: the loader in ci/check_perf_floors.py relies
  // on deterministic serialization.
  EXPECT_EQ(json, reg.Snapshot().ToJson());

  // Bucket serialization: (exclusive upper bound, count) pairs, ascending,
  // only non-empty buckets, counts summing to the histogram count.
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0].second;
  ASSERT_EQ(hs.buckets.size(), 3u);
  EXPECT_EQ(hs.buckets[0], (std::pair<uint64_t, uint64_t>{2, 2}));
  EXPECT_EQ(hs.buckets[1], (std::pair<uint64_t, uint64_t>{3, 1}));
  const uint64_t upper100 =
      Histogram::BucketUpperBound(Histogram::BucketIndex(100));
  EXPECT_EQ(hs.buckets[2],
            (std::pair<uint64_t, uint64_t>{upper100, 1}));
  uint64_t in_buckets = 0;
  for (const auto& [upper, n] : hs.buckets) in_buckets += n;
  EXPECT_EQ(in_buckets, hs.count);
  const std::string expect_buckets =
      "\"buckets\":[[2,2],[3,1],[" + std::to_string(upper100) + ",1]]";
  EXPECT_NE(json.find(expect_buckets), std::string::npos) << json;
}

TEST(PrometheusTextTest, RendersCountersGaugesAndCumulativeHistograms) {
  MetricsRegistry reg;
  reg.GetCounter("engine.queries_completed")->Add(7);
  reg.GetGauge("cache.bytes")->Set(-3);
  Histogram* h = reg.GetHistogram("exec_latency.us.class0");
  h->Record(1);
  h->Record(1);
  h->Record(5);

  const std::string text = PrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE aqe_engine_queries_completed counter\n"
                      "aqe_engine_queries_completed 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aqe_cache_bytes gauge\naqe_cache_bytes -3\n"),
            std::string::npos);
  // Dots sanitize to underscores; buckets are cumulative and close with
  // +Inf == count, then _sum and _count.
  EXPECT_NE(text.find("# TYPE aqe_exec_latency_us_class0 histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_bucket{le=\"6\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_sum 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_count 3\n"),
            std::string::npos);
}

// --- RegressionTracker -----------------------------------------------------

RegressionTracker::Observation MakeObs(uint64_t fp, double service_ms,
                                       double queue_ms = 0,
                                       ExecMode mode = ExecMode::kBytecode) {
  RegressionTracker::Observation o;
  o.fingerprint = fp;
  o.query_id = 1;
  o.service_ms = service_ms;
  o.queue_wait_ms = queue_ms;
  o.final_mode = mode;
  o.plan_name = "plan";
  return o;
}

TEST(RegressionTrackerTest, StaysSilentBeforeMinRunsAndOnStableLatency) {
  RegressionTracker tracker;
  // A huge second run must not alert: the baseline has no support yet.
  EXPECT_FALSE(tracker.Observe(MakeObs(1, 10.0), nullptr));
  EXPECT_FALSE(tracker.Observe(MakeObs(1, 1000.0), nullptr));
  // Stable latency never alerts regardless of run count.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(tracker.Observe(MakeObs(2, 10.0), nullptr)) << "run " << i;
  }
  EXPECT_EQ(tracker.anomaly_count(), 0u);
}

TEST(RegressionTrackerTest, FlagsDeviationAndNamesCauses) {
  RegressionTracker tracker;  // default factor 4.0
  // kUnknown: slow run with no probe evidence.
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(tracker.Observe(MakeObs(1, 10.0), nullptr));
  AnomalyRecord rec;
  ASSERT_TRUE(tracker.Observe(MakeObs(1, 100.0), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kUnknown);
  EXPECT_NEAR(rec.expected_ms, 10.0, 1e-9);
  EXPECT_NEAR(rec.observed_ms, 100.0, 1e-9);

  // kCacheEvicted wins over every other cause.
  tracker.MarkEvicted(1);
  ASSERT_TRUE(tracker.Observe(MakeObs(1, 1000.0, /*queue_ms=*/5000.0), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kCacheEvicted);

  // kModeRegressed: the fingerprint used to reach optimized code.
  for (int i = 0; i < 5; ++i) {
    ASSERT_FALSE(tracker.Observe(
        MakeObs(2, 10.0, 0, ExecMode::kOptimized), nullptr));
  }
  ASSERT_TRUE(tracker.Observe(
      MakeObs(2, 100.0, 0, ExecMode::kBytecode), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kModeRegressed);

  // kQueueWait: wait dominated the latency.
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(tracker.Observe(MakeObs(3, 10.0), nullptr));
  ASSERT_TRUE(tracker.Observe(MakeObs(3, 100.0, /*queue_ms=*/500.0), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kQueueWait);

  EXPECT_EQ(tracker.anomaly_count(), 4u);
  EXPECT_EQ(tracker.RecentAnomalies().size(), 4u);
  tracker.ResetAnomalies();
  EXPECT_EQ(tracker.anomaly_count(), 0u);
  EXPECT_TRUE(tracker.RecentAnomalies().empty());

  // Baselines survived the reset: the next slow run still alerts.
  ASSERT_TRUE(tracker.Observe(MakeObs(3, 10000.0), &rec));
}

TEST(RegressionTrackerTest, MadFloorSuppressesMicrosecondNoise) {
  // A plan whose EWMA sits at 50us: 4x the EWMA is only 0.2ms — below the
  // absolute guard, so scheduler noise on fast plans never alerts.
  RegressionTracker tracker;
  for (int i = 0; i < 10; ++i) ASSERT_FALSE(tracker.Observe(MakeObs(1, 0.05), nullptr));
  EXPECT_FALSE(tracker.Observe(MakeObs(1, 0.4), nullptr));
  // Beyond the floor's 4 x 0.25ms guard it does alert.
  EXPECT_TRUE(tracker.Observe(MakeObs(1, 5.0), nullptr));
}

TEST_F(ObsEngineTest, ConcurrentQueriesRecordSafely) {
  // Concurrent Submit stress under the obs layer: the TSan CI matrix runs
  // this test to prove slices/morsels/histograms record race-free.
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  constexpr int kClients = 4, kPerClient = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        QueryRunOptions options;
        options.query_class = c % kNumTaskClasses;
        if (engine.Run(q6, options).rows.empty()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("engine.queries_completed"),
            static_cast<uint64_t>(kClients * kPerClient));
  const std::string json = engine.ExportChromeTrace();
  EXPECT_NE(json.find("\"name\":\"slice\""), std::string::npos);
}

// --- Query profiles / EXPLAIN ANALYZE --------------------------------------

TEST_F(ObsEngineTest, ProfileIsAbsentUnlessRequested) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunResult result = engine.Run(q6);
  EXPECT_EQ(result.profile, nullptr);
  const std::string text = ExplainAnalyze(result);
  EXPECT_NE(text.find("unavailable"), std::string::npos);
}

TEST_F(ObsEngineTest, ExplainAnalyzeAccountsModeTimeAndSwitchVerdicts) {
  QueryEngine engine(&catalog(), 2);
  // Multi-pipeline adaptive query (Q3: two builds + probe) forced through
  // a mode switch: free modeled compilation, huge modeled speedup.
  QueryProgram q3 = BuildTpchQuery(3, catalog());
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kAdaptive;
  options.single_threaded = true;  // deterministic interval accounting
  options.collect_profile = true;
  options.adaptive_first_eval_seconds = 0;
  options.cost_model.unopt_base_seconds = 0;
  options.cost_model.unopt_per_instruction_seconds = 0;
  options.cost_model.opt_base_seconds = 0;
  options.cost_model.opt_per_instruction_seconds = 0;
  options.cost_model.unopt_speedup = 1.01;
  options.cost_model.opt_speedup = 100.0;
  QueryRunResult result = engine.Run(q3, options);
  ASSERT_FALSE(result.rows.empty());
  ASSERT_NE(result.profile, nullptr);
  const QueryProfile& prof = *result.profile;
  EXPECT_EQ(prof.plan_name, "q3");
  ASSERT_EQ(prof.pipelines.size(), result.pipelines.size());
  ASSERT_GE(prof.pipelines.size(), 2u);
  EXPECT_FALSE(prof.lossy);

  // Acceptance: per-pipeline per-mode wall time plus the profile's
  // engine-step remainder sums to the query's exec_seconds_total within
  // 5% — the only unattributed time is morsel-loop bookkeeping between
  // morsel spans.
  double mode_wall_sum = 0;
  uint64_t mode_tuples = 0;
  for (const PipelineProfile& pp : prof.pipelines) {
    EXPECT_FALSE(pp.modes.empty()) << pp.name;
    for (const ModeSliceProfile& m : pp.modes) {
      EXPECT_GT(m.morsels, 0u);
      EXPECT_GE(m.wall_seconds, 0.0);
      EXPECT_LE(m.wall_seconds, m.busy_seconds + 1e-9);  // union <= sum
      mode_wall_sum += m.wall_seconds;
      mode_tuples += m.tuples;
    }
  }
  EXPECT_GT(mode_wall_sum, 0.0);
  EXPECT_GE(prof.engine_step_seconds, 0.0);
  EXPECT_NEAR(mode_wall_sum + prof.engine_step_seconds,
              result.exec_seconds_total, 0.05 * result.exec_seconds_total)
      << ExplainAnalyze(result);
  // Every pipeline tuple went through exactly one mode's morsels.
  uint64_t pipeline_tuples = 0;
  for (const PipelineReport& r : result.pipelines) pipeline_tuples += r.tuples;
  EXPECT_EQ(mode_tuples, pipeline_tuples);

  // At least one mode switch with a predicted-vs-realized verdict.
  size_t switches = 0;
  for (const PipelineProfile& pp : prof.pipelines) {
    for (const ModeSwitchProfile& sw : pp.switches) {
      ++switches;
      EXPECT_EQ(sw.target, ExecMode::kOptimized);
      EXPECT_GT(sw.predicted_seconds, 0.0);
      EXPECT_GT(sw.t_current_seconds, 0.0);
      EXPECT_GT(sw.realized_seconds, 0.0);
      EXPECT_GT(sw.r0, 0.0);
      EXPECT_TRUE(std::isfinite(sw.error_pct()));
    }
  }
  EXPECT_GE(switches, 1u);

  const std::string text = ExplainAnalyze(result);
  EXPECT_NE(text.find("EXPLAIN ANALYZE  q3"), std::string::npos);
  EXPECT_NE(text.find("engine steps "), std::string::npos);
  EXPECT_NE(text.find("pipeline "), std::string::npos);
  EXPECT_NE(text.find("switch -> optimized: predicted"), std::string::npos);
  EXPECT_NE(text.find("realized"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);

  const std::string json = prof.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"plan\":\"q3\""), std::string::npos);
  EXPECT_NE(json.find("\"pipelines\":["), std::string::npos);
  EXPECT_NE(json.find("\"switches\":["), std::string::npos);
}

// --- Regression sentinel ---------------------------------------------------

TEST_F(ObsEngineTest, SentinelFlagsCacheEvictionSlowdownAndNamesCause) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q3 = BuildTpchQuery(3, catalog());
  QueryRunOptions options;
  // Adaptive with a modeled 100x speedup, single-threaded so compilation
  // blocks the query: the cold run pays the JIT wall time, warm runs reuse
  // cached machine code — a forced eviction later costs an order of
  // magnitude, far beyond any MAD guard.
  options.strategy = ExecutionStrategy::kAdaptive;
  options.single_threaded = true;
  options.adaptive_first_eval_seconds = 0;
  options.cost_model.unopt_base_seconds = 0;
  options.cost_model.unopt_per_instruction_seconds = 0;
  options.cost_model.opt_base_seconds = 0;
  options.cost_model.opt_per_instruction_seconds = 0;
  options.cost_model.unopt_speedup = 1.01;
  options.cost_model.opt_speedup = 100.0;
  // Enough warm runs for the MAD guard to decay past the cold first run's
  // compile spike (the sentinel deliberately arms slowly after a cold
  // start so one-off compiles never alert).
  for (int i = 0; i < 25; ++i) {
    ASSERT_FALSE(engine.Run(q3, options).rows.empty());
  }
  // Warm phase is quiet at the default deviation factor.
  EXPECT_EQ(engine.ObservabilitySnapshot().counter("engine.anomalies"), 0u);
  EXPECT_TRUE(engine.RecentAnomalies().empty());

  // Evict everything: the rerun pays codegen + translation again, which
  // dwarfs this plan's warm bytecode service time. A loaded CI machine
  // can jitter a warm run enough to widen the MAD guard past one rerun's
  // deviation, so probe with retries, re-quieting the baseline with warm
  // runs between attempts.
  const auto saw_eviction_anomaly = [&engine] {
    for (const AnomalyRecord& a : engine.RecentAnomalies()) {
      if (a.cause == AnomalyCause::kCacheEvicted) return true;
    }
    return false;
  };
  engine.set_anomaly_deviation_factor(1.3);
  for (int attempt = 0; attempt < 4 && !saw_eviction_anomaly(); ++attempt) {
    if (attempt > 0) {
      for (int i = 0; i < 15; ++i) {
        ASSERT_FALSE(engine.Run(q3, options).rows.empty());
      }
    }
    engine.ClearArtifactCache();
    ASSERT_FALSE(engine.Run(q3, options).rows.empty());
  }

  bool flagged = false;
  for (const AnomalyRecord& a : engine.RecentAnomalies()) {
    if (a.cause != AnomalyCause::kCacheEvicted) continue;
    flagged = true;
    EXPECT_GT(a.observed_ms, a.expected_ms);
    EXPECT_EQ(a.plan_name, "q3");
  }
  ASSERT_TRUE(flagged);

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_GE(snap.counter("engine.anomalies"), 1u);
  EXPECT_GE(snap.counter("engine.anomalies.cache_evicted"), 1u);
  EXPECT_EQ(snap.counter("engine.anomalies.mode_regressed"), 0u);

  // The kAnomaly instant landed in the trace for the exporters.
  bool traced = false;
  for (const auto& lane : engine.tracer().Snapshot().lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.kind == TraceEventKind::kAnomaly &&
          static_cast<AnomalyCause>(e.detail) ==
              AnomalyCause::kCacheEvicted) {
        traced = true;
        EXPECT_GT(e.d1, e.d0);  // observed > expected
      }
    }
  }
  EXPECT_TRUE(traced);
  EXPECT_NE(engine.ExportChromeTrace().find("\"name\":\"anomaly\""),
            std::string::npos);
}

// --- Snapshot / reset coherence --------------------------------------------

TEST_F(ObsEngineTest, SnapshotNeverObservesHalfAReset) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  constexpr uint64_t kQueries = 3;
  for (uint64_t i = 0; i < kQueries; ++i) {
    ASSERT_FALSE(engine.Run(q6).rows.empty());
  }
  // With the engine quiesced, queries_completed and cost_feedback_updates
  // are frozen and equal. A reset zeroes both under the stats epoch lock,
  // so every concurrent snapshot sees them equal — all-old or all-new,
  // never a mix. The TSan CI leg runs this test.
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    for (int i = 0; i < 100; ++i) engine.ResetObservabilityStats();
    stop.store(true);
  });
  uint64_t snapshots = 0;
  int64_t last_epoch = -1;
  while (!stop.load()) {
    MetricsSnapshot snap = engine.ObservabilitySnapshot();
    ++snapshots;
    const uint64_t completed = snap.counter("engine.queries_completed");
    ASSERT_TRUE(completed == 0 || completed == kQueries) << completed;
    ASSERT_EQ(completed, snap.counter("cache.cost_feedback_updates"));
    ASSERT_EQ(completed, snap.counter("engine.queries_submitted"));
    for (const auto& [name, value] : snap.gauges) {
      if (name == "obs.epoch") {
        ASSERT_GE(value, last_epoch);  // epochs only move forward
        last_epoch = value;
      }
    }
  }
  resetter.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(engine.ObservabilitySnapshot().gauges.back().second, 100);
}

// --- QueryMemoryTracker ----------------------------------------------------

TEST(MemoryTrackerTest, LargeChargesAreExactAndPeakIsHighWater) {
  QueryMemoryTracker t;
  // Charges >= kFlushBytes bypass the thread slots and fold immediately,
  // so both current and peak are exact.
  t.Charge(1u << 20);
  t.Charge(2u << 20);
  EXPECT_EQ(t.current_bytes(), 3u << 20);
  EXPECT_EQ(t.peak_bytes(), 3u << 20);
  t.Release(2u << 20);
  EXPECT_EQ(t.current_bytes(), 1u << 20);
  EXPECT_EQ(t.peak_bytes(), 3u << 20);  // high-water never recedes
  t.Release(1u << 20);
  EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(MemoryTrackerTest, SmallChargesStayExactInCurrent) {
  QueryMemoryTracker t;
  // Below-threshold charges park in a thread slot; current_bytes folds the
  // residues in, so it is exact at any quiesce point regardless.
  for (int i = 0; i < 1000; ++i) t.Charge(100);
  EXPECT_EQ(t.current_bytes(), 100000u);
  // 100 KB crossed kFlushBytes at least once, so the shared counter (and
  // with it the peak) saw a fold.
  EXPECT_GT(t.peak_bytes(), 0u);
  for (int i = 0; i < 1000; ++i) t.Release(100);
  EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(MemoryTrackerTest, SoftLimitLatchesAndNeverUnlatches) {
  QueryMemoryTracker t;
  t.set_soft_limit(1u << 20);
  EXPECT_FALSE(t.over_budget());
  t.Charge(512u << 10);
  EXPECT_FALSE(t.over_budget());
  t.Charge(1u << 20);  // crosses the limit
  EXPECT_TRUE(t.over_budget());
  // Releasing below the limit does not unlatch: a query that ever exceeded
  // its budget is failed, not forgiven.
  t.Release(1u << 20);
  t.Release(512u << 10);
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_TRUE(t.over_budget());
}

TEST(MemoryTrackerTest, ConcurrentChargeReleaseBalancesToZero) {
  // TSan matrix target: threads hammer matched charge/release pairs through
  // the thread-cached slots; the books must balance exactly afterwards.
  QueryMemoryTracker t;
  constexpr int kThreads = 4, kIters = 20000;
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&t] {
      for (int i = 0; i < kIters; ++i) {
        t.Charge(4096);
        t.Charge(96 << 10);  // above kFlushBytes: folds directly
        t.Release(96 << 10);
        t.Release(4096);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.current_bytes(), 0u);
  // Each thread held at most ~100 KB plus one unflushed slot residue.
  EXPECT_GT(t.peak_bytes(), 0u);
  EXPECT_LE(t.peak_bytes(),
            static_cast<uint64_t>(kThreads) *
                ((100u << 10) +
                 static_cast<uint64_t>(QueryMemoryTracker::kFlushBytes)));
}

// --- Worker beacons / continuous profiler ----------------------------------

TEST(BeaconTest, PackedWordRoundTripsAllFields) {
  const uint64_t w = PackBeaconWord(/*query_id=*/0xDEADBEEF,
                                    /*pipeline=*/0x1234, /*mode=*/2,
                                    BeaconActivity::kMorsel);
  EXPECT_EQ(static_cast<uint32_t>(w >> 32), 0xDEADBEEFu);
  EXPECT_EQ(static_cast<uint16_t>(w >> 16), 0x1234u);
  EXPECT_EQ(static_cast<uint8_t>(w >> 8), 2u);
  EXPECT_EQ(static_cast<uint8_t>(w),
            static_cast<uint8_t>(BeaconActivity::kMorsel));
}

TEST(BeaconTest, SamplerNeverObservesTornAttribution) {
  // The profiler folds attribution from word0 alone — a single atomic word,
  // so a sample can never mix one publication's query id with another's
  // pipeline/mode/activity. Publish packed words whose fields all derive
  // from one counter and assert every accepted sample is self-consistent;
  // SampleBeacon's re-read additionally discards samples taken while word0
  // moved. The TSan CI leg runs this test.
  WorkerBeacon beacon;
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    uint32_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      PublishBeacon(&beacon, /*query_id=*/i,
                    /*pipeline=*/static_cast<uint16_t>(i),
                    /*mode=*/static_cast<uint8_t>(i % 3),
                    BeaconActivity::kMorsel, /*detail=*/i * 31ull);
      ++i;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  uint64_t accepted = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    uint64_t w0 = 0, w1 = 0;
    if (!SampleBeacon(beacon, &w0, &w1) || w0 == 0) continue;
    const uint32_t qid = static_cast<uint32_t>(w0 >> 32);
    ASSERT_EQ(static_cast<uint16_t>(w0 >> 16),
              static_cast<uint16_t>(qid));
    ASSERT_EQ(static_cast<uint8_t>(w0 >> 8),
              static_cast<uint8_t>(qid % 3));
    ASSERT_EQ(static_cast<uint8_t>(w0),
              static_cast<uint8_t>(BeaconActivity::kMorsel));
    ++accepted;
  }
  stop.store(true);
  publisher.join();
  EXPECT_GT(accepted, 0u);
  ClearBeacon(&beacon);
  uint64_t w0 = 1, w1 = 1;
  ASSERT_TRUE(SampleBeacon(beacon, &w0, &w1));
  EXPECT_EQ(w0, 0u);  // cleared lane samples as idle
}

TEST(ContinuousProfilerTest, SamplesBeaconsAndRendersCollapsedStacks) {
  MetricsRegistry reg;
  BeaconBoard board;
  // Publish a steady state on two lanes, then sample fast enough that a
  // short sleep collects plenty.
  PublishBeacon(board.lane(0), /*query_id=*/7, /*pipeline=*/1, /*mode=*/0,
                BeaconActivity::kMorsel, 1024);
  PublishBeacon(board.lane(1), /*query_id=*/7, /*pipeline=*/2, /*mode=*/2,
                BeaconActivity::kCompile, 99);
  Counter* samples = reg.GetCounter("profiler.samples");
  ContinuousProfiler profiler(&board, /*hz=*/2000, samples);
  EXPECT_EQ(profiler.hz(), 2000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (profiler.total_samples() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(profiler.total_samples(), 20u);

  const uint64_t retired = profiler.RetireQuery(7, "q_test");
  EXPECT_GT(retired, 0u);
  const std::string stacks = profiler.CollapsedStacks();
  EXPECT_NE(stacks.find("engine;q_test;pipeline1;bytecode;morsel"),
            std::string::npos)
      << stacks;
  EXPECT_NE(stacks.find("engine;q_test;pipeline2;optimized;compile"),
            std::string::npos)
      << stacks;
  // Well-formed collapsed-stack text: "frame;frame;... count" per line.
  size_t lines = 0;
  size_t pos = 0;
  while (pos < stacks.size()) {
    size_t eol = stacks.find('\n', pos);
    if (eol == std::string::npos) eol = stacks.size();
    const std::string line = stacks.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++lines;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    EXPECT_EQ(line.find(' '), space) << "one space, before the count: "
                                     << line;
    for (size_t i = space + 1; i < line.size(); ++i) {
      ASSERT_TRUE(line[i] >= '0' && line[i] <= '9') << line;
    }
  }
  EXPECT_GT(lines, 0u);
  EXPECT_GT(reg.Snapshot().counter("profiler.samples"), 0u);

  profiler.Reset();
  EXPECT_EQ(profiler.RetireQuery(7, "q_test"), 0u);
}

// --- Trace-ring saturation: bulk sampling vs lossless criticals ------------

TEST(EngineTracerTest, BulkSamplingUnderPressureKeepsCriticalsLossless) {
  EngineTracer tracer(/*ring_capacity=*/8);
  // 40 bulk morsel events into a capacity-8 ring: once wrapped, further
  // bulk events are decimated 1-in-kBulkSampleEvery and the skips are
  // accounted as dropped_sampled — deliberate sampling, not loss.
  for (uint64_t i = 0; i < 40; ++i) tracer.Record(1, MakeEvent(i));
  // Critical events land in their own ring and must all survive.
  for (uint64_t i = 0; i < 5; ++i) {
    TraceEvent e = MakeEvent(100 + i);
    e.kind = TraceEventKind::kModeSwitch;
    tracer.Record(1, e);
  }
  EXPECT_EQ(tracer.total_recorded(), 45u);
  EXPECT_GT(tracer.total_dropped_sampled(), 0u);
  EXPECT_EQ(tracer.total_dropped_lost(), 0u);
  EXPECT_EQ(tracer.total_dropped(),
            tracer.total_dropped_sampled() + tracer.total_dropped_lost());

  TraceSnapshot snap = tracer.Snapshot();
  size_t switches = 0, morsels = 0;
  for (const auto& lane : snap.lanes) {
    EXPECT_EQ(lane.dropped, lane.dropped_sampled + lane.dropped_lost);
    for (const TraceEvent& e : lane.events) {
      switches += e.kind == TraceEventKind::kModeSwitch;
      morsels += e.kind == TraceEventKind::kMorsel;
    }
  }
  EXPECT_EQ(switches, 5u);  // every critical event retained
  EXPECT_GT(morsels, 0u);   // a sampled residue of the bulk stream remains
}

// --- Zero-count histogram suppression in exports ---------------------------

TEST(MetricsRegistryTest, ZeroCountHistogramsOmittedFromExportsOnly) {
  MetricsRegistry reg;
  reg.GetHistogram("empty.h");  // registered, never recorded
  reg.GetHistogram("used.h")->Record(5);
  MetricsSnapshot snap = reg.Snapshot();
  // The in-memory snapshot keeps both (programmatic consumers see the
  // registry as-is) ...
  ASSERT_EQ(snap.histograms.size(), 2u);
  ASSERT_NE(snap.histogram("empty.h"), nullptr);
  // ... but the serialized exports skip count == 0 series so per-class
  // histogram families don't bloat /metrics with empty classes.
  const std::string json = snap.ToJson();
  EXPECT_EQ(json.find("empty.h"), std::string::npos);
  EXPECT_NE(json.find("used.h"), std::string::npos);
  const std::string prom = PrometheusText(snap);
  EXPECT_EQ(prom.find("aqe_empty_h"), std::string::npos);
  EXPECT_NE(prom.find("aqe_used_h"), std::string::npos);
}

// --- Per-class memory budgets (engine) -------------------------------------

TEST_F(ObsEngineTest, QueryResultsReportPeakMemory) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.collect_profile = true;
  QueryRunResult r = engine.Run(q1, options);
  ASSERT_FALSE(r.rows.empty());
  // Q1 builds an aggregation table and output chunks — all tracked.
  EXPECT_GT(r.peak_memory_bytes, 0u);
  ASSERT_NE(r.profile, nullptr);
  EXPECT_EQ(r.profile->peak_memory_bytes, r.peak_memory_bytes);
  const std::string text = ExplainAnalyze(r);
  EXPECT_NE(text.find("peak memory"), std::string::npos);
  EXPECT_NE(text.find("cpu-samples"), std::string::npos);

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  const auto* h = snap.histogram("mem.query_peak_bytes.class0");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->max, r.peak_memory_bytes);
  int64_t peak_gauge = -1, current_gauge = -1;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "mem.peak_bytes") peak_gauge = value;
    if (name == "mem.current_bytes") current_gauge = value;
  }
  EXPECT_EQ(peak_gauge, static_cast<int64_t>(r.peak_memory_bytes));
  EXPECT_GE(current_gauge, 0);
}

TEST_F(ObsEngineTest, AdmissionRejectsOverBudgetClassAndSparesOthers) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunOptions options;
  options.query_class = 3;
  // Learn the footprint: warm runs seed the fingerprint's peak EWMA that
  // admission consults.
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  }

  engine.set_class_memory_budget(3, 1024);  // far below any real footprint
  bool threw = false;
  try {
    engine.Run(q6, options);
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    EXPECT_TRUE(e.at_admission());
    EXPECT_EQ(e.query_class(), 3);
    EXPECT_EQ(e.budget_bytes(), 1024u);
    EXPECT_GT(e.attempted_bytes(), 1024u);
    EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos);
  }
  ASSERT_TRUE(threw);
  // The uncapped class is untouched by class 3's budget.
  QueryRunOptions class0;
  class0.query_class = 0;
  EXPECT_FALSE(engine.Run(q6, class0).rows.empty());

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("mem.budget_rejections.admission"), 1u);
  EXPECT_EQ(snap.counter("mem.budget_rejections.runtime"), 0u);
  // A rejected query never ran: submitted 5, completed 4.
  EXPECT_EQ(snap.counter("engine.queries_submitted"), 5u);
  EXPECT_EQ(snap.counter("engine.queries_completed"), 4u);

  // Lifting the budget readmits the class.
  engine.set_class_memory_budget(3, 0);
  EXPECT_FALSE(engine.Run(q6, options).rows.empty());
}

TEST_F(ObsEngineTest, RuntimeBudgetCrossingFailsTypedMidQuery) {
  // Fresh engine: no learned footprint, so a tiny budget passes admission
  // (estimate 0) and the tracker crosses it at the first allocation; the
  // engine fails the query at a slice boundary with at_admission()==false.
  QueryEngine engine(&catalog(), 2);
  engine.set_class_memory_budget(2, 1);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.query_class = 2;
  bool threw = false;
  try {
    engine.Run(q1, options);
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    EXPECT_FALSE(e.at_admission());
    EXPECT_EQ(e.query_class(), 2);
    EXPECT_EQ(e.budget_bytes(), 1u);
    EXPECT_GT(e.attempted_bytes(), 1u);
  }
  ASSERT_TRUE(threw);
  EXPECT_GE(engine.ObservabilitySnapshot().counter(
                "mem.budget_rejections.runtime"),
            1u);
  // The runtime failure fed the observed peak back into the fingerprint's
  // admission estimate: resubmitting the same plan under the same budget
  // is rejected at admission, without executing to the failure point.
  threw = false;
  try {
    engine.Run(q1, options);
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    EXPECT_TRUE(e.at_admission());
    EXPECT_EQ(e.query_class(), 2);
  }
  ASSERT_TRUE(threw);
  EXPECT_GE(engine.ObservabilitySnapshot().counter(
                "mem.budget_rejections.admission"),
            1u);
  // The engine stays healthy: the same query completes once uncapped.
  engine.set_class_memory_budget(2, 0);
  EXPECT_FALSE(engine.Run(q1, options).rows.empty());
}

TEST_F(ObsEngineTest, EngineFlamegraphCoversCompletedQueries) {
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.profile_hz = 4000;  // aggressive cadence: fast test
  QueryEngine engine(&catalog(), engine_options);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  // Run until the sampler has demonstrably caught query work (the beacons
  // are only interesting while morsels run, so keep feeding it).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string stacks;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_FALSE(engine.Run(q1).rows.empty());
    stacks = engine.CollapsedStacks();
    if (stacks.find(";q1;") != std::string::npos) break;
  }
  EXPECT_NE(stacks.find(";q1;"), std::string::npos) << stacks;
  EXPECT_GT(engine.ObservabilitySnapshot().counter("profiler.samples"), 0u);
  int64_t hz = -1;
  for (const auto& [name, value] :
       engine.ObservabilitySnapshot().gauges) {
    if (name == "profiler.hz") hz = value;
  }
  EXPECT_EQ(hz, 4000);
  // ResetObservabilityStats drops the folded samples too.
  engine.ResetObservabilityStats();
  EXPECT_EQ(engine.CollapsedStacks().find(";q1;"), std::string::npos);
}

// --- Stats server ----------------------------------------------------------

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ObsEngineTest, StatsServerServesMetricsTraceAndProfiles) {
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.stats_port = 0;  // ephemeral
  QueryEngine engine(&catalog(), engine_options);
  ASSERT_GT(engine.stats_port(), 0);

  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunOptions options;
  options.collect_profile = true;
  ASSERT_FALSE(engine.Run(q6, options).rows.empty());

  const std::string metrics = HttpGet(engine.stats_port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE aqe_engine_queries_completed counter\n"
                         "aqe_engine_queries_completed 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("aqe_engine_exec_latency_us_class0_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("aqe_cache_bytes "), std::string::npos);
  // Well over the 30-series bar even on one query.
  size_t series = 0;
  for (size_t pos = metrics.find("# TYPE"); pos != std::string::npos;
       pos = metrics.find("# TYPE", pos + 1)) {
    ++series;
  }
  EXPECT_GE(series, 30u);

  const std::string trace = HttpGet(engine.stats_port(), "/trace.json");
  EXPECT_NE(trace.find("application/json"), std::string::npos);
  EXPECT_NE(trace.find("{\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"morsel\""), std::string::npos);

  const std::string profiles = HttpGet(engine.stats_port(), "/profiles");
  EXPECT_NE(profiles.find("application/json"), std::string::npos);
  EXPECT_NE(profiles.find("\"profiles\":[{"), std::string::npos);
  EXPECT_NE(profiles.find("\"plan\":\"q6\""), std::string::npos);
  EXPECT_NE(profiles.find("\"anomalies\":[]"), std::string::npos);

  const std::string missing = HttpGet(engine.stats_port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
}

TEST_F(ObsEngineTest, StatsServerOffByDefault) {
  QueryEngine engine(&catalog(), 2);
  EXPECT_EQ(engine.stats_port(), -1);
}

}  // namespace
}  // namespace aqe
