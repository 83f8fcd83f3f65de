#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "queries/generated_queries.h"
#include "queries/handwritten_q1.h"
#include "queries/tpch_queries.h"
#include "tpch/tpch_gen.h"

namespace aqe {
namespace {

/// All TPC-H query tests share one SF-0.01 database and engine.
class TpchQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::BuildTpchDatabase(catalog_, /*sf=*/0.01);
    engine_ = new QueryEngine(catalog_, /*num_threads=*/2);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete catalog_;
    // Proves the mid-stream switch path ran (skipped for filtered runs).
    if (forced_switch_queries ==
        static_cast<int>(ImplementedTpchQueries().size())) {
      EXPECT_GT(forced_switch_compiles, 0)
          << "the forced-switch configurations never compiled a pipeline";
    }
  }
  static Catalog* catalog_;
  static QueryEngine* engine_;
  /// Pipelines the forced-switch configurations compiled mid-stream, summed
  /// over the queries that ran (checked in TearDownTestSuite).
  static int forced_switch_compiles;
  static int forced_switch_queries;
};

Catalog* TpchQueryTest::catalog_ = nullptr;
QueryEngine* TpchQueryTest::engine_ = nullptr;
int TpchQueryTest::forced_switch_compiles = 0;
int TpchQueryTest::forced_switch_queries = 0;

/// Every engine and execution mode must produce identical rows for every
/// query — this is the end-to-end guarantee behind "no work is lost when
/// switching between execution modes".
TEST_P(TpchQueryTest, AllEnginesAgree) {
  const int number = GetParam();
  QueryRunOptions volcano;
  volcano.engine = EngineKind::kVolcano;
  QueryProgram ref_program = BuildTpchQuery(number, *catalog_);
  auto reference = engine_->Run(ref_program, volcano).rows;
  ASSERT_FALSE(reference.empty()) << "q" << number << " has empty result";

  struct Config {
    EngineKind engine;
    ExecutionStrategy strategy;
    VmDispatch vm_dispatch;
    const char* label;
    bool single_threaded = false;
    /// Cost model that makes every §III-C evaluation switch to unoptimized
    /// at the first morsel boundary, with cold (uncached) artifacts.
    bool forced_switch = false;
  };
  // Both interpreter dispatch engines must be bit-identical on every query,
  // not just the compile-time default.
  const Config configs[] = {
      {EngineKind::kVectorized, ExecutionStrategy::kBytecode,
       VmDispatch::kDefault, "vectorized"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode,
       VmDispatch::kSwitch, "vm-switch"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode,
       VmDispatch::kThreaded, "vm-threaded"},
      {EngineKind::kCompiled, ExecutionStrategy::kUnoptimized,
       VmDispatch::kDefault, "jit-unopt"},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive,
       VmDispatch::kDefault, "adaptive"},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive,
       VmDispatch::kDefault, "adaptive-single-threaded", true},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive,
       VmDispatch::kDefault, "adaptive-forced-switch", false, true},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive,
       VmDispatch::kDefault, "adaptive-forced-switch-single-threaded", true,
       true},
  };
  for (const Config& config : configs) {
    QueryProgram program = BuildTpchQuery(number, *catalog_);
    QueryRunOptions options;
    options.engine = config.engine;
    options.strategy = config.strategy;
    options.vm_dispatch = config.vm_dispatch;
    options.single_threaded = config.single_threaded;
    if (config.forced_switch) {
      options.cost_model.unopt_base_seconds = 0;
      options.cost_model.unopt_per_instruction_seconds = 0;
      options.cost_model.opt_base_seconds = 1e9;
      options.adaptive_first_eval_seconds = 0;
      options.use_artifact_cache = false;
    }
    QueryRunResult result = engine_->Run(program, options);
    EXPECT_EQ(result.rows, reference) << "q" << number << " " << config.label;
    if (config.forced_switch) {
      for (const PipelineReport& p : result.pipelines) {
        if (!p.compiles.empty()) ++forced_switch_compiles;
      }
    }
  }
  ++forced_switch_queries;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::ValuesIn(ImplementedTpchQueries()),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

class TpchFixtureTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      tpch::BuildTpchDatabase(c, 0.01);
      return c;
    }();
    return *catalog;
  }
};

TEST_F(TpchFixtureTest, HandwrittenQ1MatchesCompiled) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  auto compiled = engine.Run(q1, options).rows;
  auto handwritten = HandwrittenQ1(catalog());
  EXPECT_EQ(compiled, handwritten);
}

TEST_F(TpchFixtureTest, Q1HasExpectedGroups) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  auto rows = engine.Run(q1, {}).rows;
  // TPC-H Q1 always produces the 4 (returnflag, linestatus) groups.
  EXPECT_EQ(rows.size(), 4u);
  // count column is last; all counts positive, sum roughly the filtered rows.
  int64_t total = 0;
  for (const auto& row : rows) {
    EXPECT_GT(row.back(), 0);
    total += row.back();
  }
  uint64_t lineitems = catalog().GetTable("lineitem")->num_rows();
  EXPECT_GT(static_cast<uint64_t>(total), lineitems * 95 / 100);
}

TEST_F(TpchFixtureTest, Q6SelectivityIsLow) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  auto rows = engine.Run(q6, {}).rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0][0], 0);  // some revenue found
}

TEST_F(TpchFixtureTest, GeneratedQueryScalesInstructions) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram small = BuildGeneratedAggregateQuery(10, catalog());
  QueryProgram large = BuildGeneratedAggregateQuery(100, catalog());
  auto small_costs = engine.MeasureCompileCosts(small, false, false);
  auto large_costs = engine.MeasureCompileCosts(large, false, false);
  ASSERT_EQ(small_costs.size(), 1u);
  ASSERT_EQ(large_costs.size(), 1u);
  // ~10x the aggregates -> ~10x the instructions.
  EXPECT_GT(large_costs[0].instructions, 8 * small_costs[0].instructions);
}

TEST_F(TpchFixtureTest, GeneratedQueryAllEnginesAgree) {
  QueryEngine engine(&catalog(), 2);
  QueryRunOptions volcano;
  volcano.engine = EngineKind::kVolcano;
  QueryProgram ref_q = BuildGeneratedAggregateQuery(25, catalog());
  auto reference = engine.Run(ref_q, volcano).rows;

  QueryProgram vm_q = BuildGeneratedAggregateQuery(25, catalog());
  QueryRunOptions vm;
  vm.strategy = ExecutionStrategy::kBytecode;
  EXPECT_EQ(engine.Run(vm_q, vm).rows, reference);

  QueryProgram jit_q = BuildGeneratedAggregateQuery(25, catalog());
  QueryRunOptions jit;
  jit.strategy = ExecutionStrategy::kUnoptimized;
  EXPECT_EQ(engine.Run(jit_q, jit).rows, reference);
}

TEST_F(TpchFixtureTest, RegisterAllocationAblationOnRealQuery) {
  // §IV-C: loop-aware must produce a (much) smaller register file than
  // no-reuse on a real large worker function.
  QueryEngine engine(&catalog(), 1);
  QueryProgram big = BuildGeneratedAggregateQuery(200, catalog());
  TranslatorOptions loop_aware;
  auto aware = engine.MeasureCompileCosts(big, false, false, loop_aware);
  QueryProgram big2 = BuildGeneratedAggregateQuery(200, catalog());
  TranslatorOptions no_reuse;
  no_reuse.strategy = RegAllocStrategy::kNoReuse;
  auto noreuse = engine.MeasureCompileCosts(big2, false, false, no_reuse);
  EXPECT_LT(aware[0].register_file_bytes * 3, noreuse[0].register_file_bytes);
}

}  // namespace
}  // namespace aqe
