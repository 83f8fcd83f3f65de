// Fairness tests for the multi-tenant engine (PipelineRun's own
// suspension and mode-switch tests live in exec_adaptive_test.cc):
//  - starvation stress: a saturated engine running long scans must still
//    admit and complete later-submitted short high-class queries with
//    bounded latency, before the long work finishes;
//  - queue_wait_seconds observability and cache-aware admission
//    overtaking.
// Runs under the ThreadSanitizer CI job (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <vector>

#include "engine/query_engine.h"
#include "plan/expr.h"
#include "plan/plan.h"
#include "runtime/agg_hash_table.h"
#include "storage/table.h"

namespace aqe {
namespace {

// --- engine-level fairness --------------------------------------------------

/// SELECT key, sum(value) FROM <table> WHERE value <> -1 GROUP BY key:
/// one scan pipeline whose cost scales with the table, tiny result.
QueryProgram BuildScanAggQuery(const char* table, const char* name) {
  QueryProgram q(name);
  int t = q.DeclareBaseTable(table);
  int agg = q.DeclareAggSet(1, {0});
  (void)q.DeclareOutput(2);

  PipelineSpec scan;
  scan.name = "scan";
  scan.source_table = t;
  scan.scan_columns = {0, 1};  // key, value
  scan.ops.push_back(OpFilter{Ne(Slot(1), I64(-1))});
  SinkAgg sink;
  sink.agg = agg;
  sink.key = Slot(0);
  sink.items.push_back({AggKind::kSum, Slot(1), /*checked=*/true});
  scan.sink = std::move(sink);
  q.AddPipeline(std::move(scan));

  q.AddStep([agg](QueryContext* ctx) {
    AggHashTable merged(1, {0});
    ctx->agg_sets[static_cast<size_t>(agg)]->MergeInto(
        &merged, [](uint32_t slot, int64_t* acc, int64_t v) {
          (void)slot;
          *acc += v;
        });
    merged.ForEach([ctx](int64_t key, void* payload) {
      const auto* p = static_cast<const int64_t*>(payload);
      ctx->result.push_back({key, p[0]});
    });
    SortRows(&ctx->result, {{0, false, false}});
  });
  return q;
}

class FairnessTest : public ::testing::Test {
 protected:
  static constexpr int64_t kBigRows = 1200000;
  static constexpr int64_t kTinyRows = 2000;
  static constexpr int kKeys = 7;

  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    for (const auto& [name, rows] :
         {std::pair<const char*, int64_t>{"big", kBigRows},
          std::pair<const char*, int64_t>{"tiny", kTinyRows}}) {
      Table* t = catalog_->CreateTable(name);
      t->AddColumn("key", DataType::kI64);
      t->AddColumn("value", DataType::kI64);
      for (int64_t i = 0; i < rows; ++i) {
        t->column(0).AppendI64(i % kKeys);
        t->column(1).AppendI64(i % 1000);
      }
    }
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static std::vector<std::vector<int64_t>> Reference(const char* table) {
    const Table* t = catalog_->GetTable(table);
    std::vector<int64_t> sums(kKeys, 0);
    for (uint64_t r = 0; r < t->num_rows(); ++r) {
      sums[static_cast<size_t>(t->column(0).GetI64(r))] +=
          t->column(1).GetI64(r);
    }
    std::vector<std::vector<int64_t>> rows;
    for (int k = 0; k < kKeys; ++k) rows.push_back({k, sums[k]});
    return rows;
  }

  static Catalog* catalog_;
};

Catalog* FairnessTest::catalog_ = nullptr;

TEST_F(FairnessTest, ShortHighClassQueriesOvertakeSaturatingScans) {
  // kBytecode keeps the long scans slow and compile-free: pure
  // interpretation, so the only way a short query gets through is genuine
  // slice-level preemption of the long pipelines.
  QueryEngine engine(catalog_, /*num_threads=*/2);
  engine.set_class_weight(3, 8);

  QueryRunOptions long_options;
  long_options.strategy = ExecutionStrategy::kBytecode;
  QueryRunOptions short_options;
  short_options.strategy = ExecutionStrategy::kBytecode;
  short_options.query_class = 3;

  QueryProgram long_query = BuildScanAggQuery("big", "long_scan");
  QueryProgram short_query = BuildScanAggQuery("tiny", "short_scan");
  const auto expect_big = Reference("big");
  const auto expect_tiny = Reference("tiny");

  // Isolated short-query latency (warm: second run is cache-hot).
  double isolated_ms = 0;
  for (int i = 0; i < 3; ++i) {
    QueryRunResult r = engine.Run(short_query, short_options);
    EXPECT_EQ(r.rows, expect_tiny);
    isolated_ms = r.total_seconds * 1e3;  // last (warmest) run
  }

  // Saturate: three long scans, ~600x the total short workload below.
  std::vector<std::future<QueryRunResult>> longs;
  for (int i = 0; i < 3; ++i) {
    longs.push_back(engine.Submit(long_query, long_options));
  }

  // A closed-loop stream of short queries through the saturated engine.
  constexpr int kShorts = 12;
  std::vector<double> short_ms;
  int completed_while_longs_running = 0;
  for (int i = 0; i < kShorts; ++i) {
    QueryRunResult r = engine.Run(short_query, short_options);
    EXPECT_EQ(r.rows, expect_tiny);
    EXPECT_GE(r.queue_wait_seconds, 0.0);
    EXPECT_LE(r.queue_wait_seconds, r.total_seconds + 1e-9);
    short_ms.push_back(r.total_seconds * 1e3);
    bool all_longs_done = true;
    for (auto& f : longs) {
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        all_longs_done = false;
        break;
      }
    }
    if (!all_longs_done) ++completed_while_longs_running;
  }

  // The acceptance criterion: later-submitted short queries complete while
  // the earlier long pipelines are still running, on the same workers.
  EXPECT_GE(completed_while_longs_running, kShorts - 2)
      << "short queries did not overtake the long scans";

  // Bounded short-query p99: within a generous multiple of its isolated
  // latency (sanitizers and CI noise included), far below the long scans.
  std::sort(short_ms.begin(), short_ms.end());
  const double p99 = short_ms[short_ms.size() - 1];
  const double bound = std::max(250.0, 40.0 * std::max(isolated_ms, 1.0));
  EXPECT_LT(p99, bound) << "short-class p99 " << p99 << " ms vs isolated "
                        << isolated_ms << " ms";

  for (auto& f : longs) {
    QueryRunResult r = f.get();
    EXPECT_EQ(r.rows, expect_big);
  }
}

TEST_F(FairnessTest, QueueWaitIsObservableUnderAdmissionBacklog) {
  QueryEngine engine(catalog_, /*num_threads=*/1);
  engine.set_max_concurrent_queries(1);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  QueryProgram query = BuildScanAggQuery("big", "long_scan");

  std::vector<std::future<QueryRunResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(engine.Submit(query, options));
  double previous_wait = -1;
  for (auto& f : futures) {
    QueryRunResult r = f.get();
    EXPECT_LE(r.queue_wait_seconds, r.total_seconds + 1e-9);
    // Later-admitted queries waited at least as long (FIFO within class).
    EXPECT_GE(r.queue_wait_seconds, previous_wait);
    previous_wait = r.queue_wait_seconds;
  }
  // The last query sat behind two full scans: its wait must be visible.
  EXPECT_GT(previous_wait, 0.0);
}

TEST_F(FairnessTest, FullyCachedQueryOvertakesColdInAdmission) {
  QueryEngine engine(catalog_, /*num_threads=*/1);
  engine.set_max_concurrent_queries(1);
  QueryRunOptions options;  // adaptive, artifact cache on

  QueryProgram warm_query = BuildScanAggQuery("tiny", "warm_scan");
  QueryProgram cold_query = BuildScanAggQuery("big", "cold_scan");

  // Warm the tiny plan's artifacts, then occupy the only admission slot.
  engine.Run(warm_query, options);
  QueryRunOptions blocker_options;
  blocker_options.strategy = ExecutionStrategy::kBytecode;
  QueryProgram blocker = BuildScanAggQuery("big", "blocker_scan");
  std::future<QueryRunResult> blocker_future =
      engine.Submit(blocker, blocker_options);

  // Submit cold first, warm second — same class. Cache-aware admission
  // must release the fully-cached warm query first when the slot frees.
  std::future<QueryRunResult> cold_future = engine.Submit(cold_query, options);
  std::future<QueryRunResult> warm_future = engine.Submit(warm_query, options);

  QueryRunResult warm = warm_future.get();
  // The warm query finished; the cold one (admitted after despite its
  // earlier submission) still has a full big-table scan ahead of it.
  EXPECT_NE(cold_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "cold query was admitted ahead of the fully-cached one";
  EXPECT_EQ(warm.rows, Reference("tiny"));
  EXPECT_EQ(cold_future.get().rows, Reference("big"));
  blocker_future.get();
}

}  // namespace
}  // namespace aqe
