// Unit tests of the benchmark's own code: the p90 sample rule, geomean, the
// per-layer derivations and spans on synthetic QueryRunResults, and the
// per-seed determinism of the query sequence and plan literals.
#include "perfbench/perfbench_lib.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;

namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(10), 0.5), 5);
  EXPECT_EQ(Percentile(OneTo(100), 0.9), 90);
  EXPECT_EQ(Percentile({7}, 0.9), 7);
  EXPECT_THROW(Percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(TailPercentile(OneTo(100), 0.9), 90);  // 91..100 lie beyond
  EXPECT_EQ(TailPercentile(OneTo(250), 0.9), 225);
  EXPECT_THROW(TailPercentile(OneTo(99), 0.9), std::runtime_error);
  EXPECT_THROW(TailPercentile(OneTo(26), 0.9), std::runtime_error);
  EXPECT_THROW(TailPercentile({}, 0.9), std::runtime_error);
}

TEST(GeoMean, OfPositiveValues) {
  EXPECT_DOUBLE_EQ(GeoMean({1, 100}), 10);
  EXPECT_DOUBLE_EQ(GeoMean({4}), 4);
  EXPECT_NEAR(GeoMean({2, 8, 4}), 4, 1e-12);
  EXPECT_THROW(GeoMean({}), std::invalid_argument);
  EXPECT_THROW(GeoMean({1, 0}), std::invalid_argument);
}

TEST(WindowRates, MediansOverWindows) {
  // Three one-second windows in two rounds; the second window holds a slow
  // outlier query. No window spans the gap between the rounds.
  const std::vector<std::vector<Mark>> rounds = {
      {{0, 0, 0}, {1, 2, 10}, {2, 4.5, 11}}, {{50, 9, 0}, {51, 11, 10}}};
  const Rates r = MedianWindowRates(rounds);
  EXPECT_DOUBLE_EQ(r.qps, 10);
  EXPECT_DOUBLE_EQ(r.cpu_ms_per_query, 200);
  EXPECT_THROW(MedianWindowRates({{{0, 0, 0}}}), std::runtime_error);
}

TEST(PassRates, PassOfMedianQueries) {
  // Plan 0's median query takes 10 ms (one 900 ms outlier), plan 1's 40 ms;
  // a plan without samples is skipped.
  const std::vector<std::vector<QueryCost>> by_plan = {
      {{0.010, 0.020}, {0.900, 1.000}, {0.008, 0.016}},
      {{0.040, 0.100}},
      {}};
  const Rates r = MedianPassRates(by_plan);
  EXPECT_DOUBLE_EQ(r.qps, 2 / 0.050);
  EXPECT_DOUBLE_EQ(r.cpu_ms_per_query, (20 + 100) / 2.0);
  EXPECT_THROW(MedianPassRates({{}}), std::runtime_error);
}

aqe::QueryRunResult SyntheticResult() {
  aqe::QueryRunResult r;
  r.total_seconds = 0.010;
  r.queue_wait_seconds = 0.001;
  r.codegen_millis_total = 0.5;
  r.translate_millis_total = 0.25;
  r.compile_millis_total = 2;
  r.exec_seconds_total = 0.006;
  aqe::PipelineReport a, b;
  a.name = "scan";
  a.exec_only_seconds = 0.003;
  a.initial_mode = aqe::ExecMode::kBytecode;
  a.final_mode = aqe::ExecMode::kOptimized;
  aqe::ModeSwitchRecord paid, lost;
  paid.t_current_seconds = 0.004;
  paid.realized_seconds = 0.002;
  lost.t_current_seconds = 0.001;
  lost.realized_seconds = 0.003;
  a.mode_switches = {paid, lost};
  b.name = "probe";
  b.exec_only_seconds = 0.002;
  r.pipelines = {a, b};
  return r;
}

TEST(Derivations, FromQueryRunResult) {
  const aqe::QueryRunResult r = SyntheticResult();
  const double latency_s = 0.012;
  EXPECT_DOUBLE_EQ(NonExecFrac(r, latency_s), 0.5);  // 1 - 6/12
  EXPECT_NEAR(HandoffMs(r, latency_s), 2.0, 1e-9);   // 12 - 10
  EXPECT_NEAR(PipelineExecOnlySeconds(r), 0.005, 1e-12);
  EXPECT_NEAR(EngineStepsMs(r), 1.0, 1e-9);          // 6 - (3 + 2)
  const SwitchCounts c = CountSwitches(r);
  EXPECT_EQ(c.switches, 2u);
  EXPECT_EQ(c.paid_off, 1u);

  aqe::QueryRunResult no_steps = r;
  no_steps.exec_seconds_total = 0.004;  // less than the pipelines' sum
  EXPECT_EQ(EngineStepsMs(no_steps), 0);
}

TEST(Spans, EngineChildrenAndSelfTimes) {
  const aqe::QueryRunResult r = SyntheticResult();
  Span wait;
  wait.request = 7;
  wait.id = 1;
  wait.start_ns = 1000;
  wait.end_ns = 1000 + 12'000'000;  // 12 ms Submit-to-result
  std::vector<Span> spans = {wait};
  uint32_t next_id = 2;
  AppendEngineSpans(r, wait, &next_id, &spans);
  // admission, codegen, translate, compile, two pipelines, engine steps.
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(spans[1].name, "admission.wait");
  EXPECT_EQ(spans[1].end_ns - spans[1].start_ns, 1'000'000);
  EXPECT_EQ(spans[5].name, "exec.pipeline");
  EXPECT_EQ(spans[5].detail, "scan bytecode->optimized");
  EXPECT_EQ(spans[7].name, "runtime.engine_steps");
  EXPECT_EQ(spans[1].start_ns, wait.start_ns);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].request, 7u);
    EXPECT_EQ(spans[i].parent, 1u);
    if (i > 1) EXPECT_EQ(spans[i].start_ns, spans[i - 1].end_ns);
  }
  // Children cover 1 + 0.5 + 0.25 + 2 + 3 + 2 + 1 = 9.75 of 12 ms.
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 2'250'000);
  EXPECT_EQ(self[1], 1'000'000);

  // Children that overrun the parent are clipped to it.
  wait.end_ns = wait.start_ns + 2'000'000;
  std::vector<Span> clipped = {wait};
  next_id = 2;
  AppendEngineSpans(r, wait, &next_id, &clipped);
  for (const Span& s : clipped) EXPECT_LE(s.end_ns, wait.end_ns);
  EXPECT_EQ(SelfTimesNs(clipped)[0], 0);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  std::vector<Span> spans(3);
  spans[0].id = 1;
  spans[0].start_ns = 0;
  spans[0].end_ns = 100;
  spans[1].id = 2;
  spans[1].parent = 1;
  spans[1].start_ns = 10;
  spans[1].end_ns = 50;
  spans[2].id = 3;
  spans[2].parent = 1;
  spans[2].start_ns = 30;
  spans[2].end_ns = 70;
  EXPECT_EQ(SelfTimesNs(spans), (std::vector<int64_t>{40, 40, 40}));
}

std::vector<size_t> Draw(size_t plans, bool zipf, uint64_t seed, int n) {
  QuerySequence seq(plans, zipf, seed);
  std::vector<size_t> out;
  for (int i = 0; i < n; ++i) out.push_back(seq.Next());
  return out;
}

TEST(QuerySequence, ZipfIsDeterministicPerSeed) {
  EXPECT_EQ(Draw(19, true, 5, 500), Draw(19, true, 5, 500));
  EXPECT_NE(Draw(19, true, 5, 500), Draw(19, true, 6, 500));
  std::vector<int> counts(19);
  for (size_t r : Draw(19, true, 5, 20000)) ++counts[r];
  // Weight 1/(r+1)^1.2: rank 0 is drawn about 2^1.2 = 2.3x as often as 1.
  EXPECT_GT(counts[0], 2 * counts[1]);
  EXPECT_GT(counts[1], counts[18]);
  EXPECT_GT(counts[18], 0);
  QuerySequence seq(19, true, 5);
  EXPECT_TRUE(seq.at_boundary());
}

TEST(QuerySequence, PassesAreSeededPermutations) {
  const std::vector<size_t> a = Draw(13, false, 9, 39);
  EXPECT_EQ(a, Draw(13, false, 9, 39));
  EXPECT_NE(a, Draw(13, false, 10, 39));
  for (size_t pass = 0; pass < 3; ++pass) {
    std::set<size_t> seen(a.begin() + 13 * pass, a.begin() + 13 * (pass + 1));
    EXPECT_EQ(seen.size(), 13u);  // every plan once per pass
  }
  QuerySequence seq(13, false, 9);
  EXPECT_TRUE(seq.at_boundary());
  seq.Next();
  EXPECT_FALSE(seq.at_boundary());
  for (int i = 0; i < 12; ++i) seq.Next();
  EXPECT_TRUE(seq.at_boundary());
}

TEST(MakePlans, VariantLiteralsAreDeterministicPerSeed) {
  const Workload& repeat = kWorkloads[1];
  ASSERT_STREQ(repeat.name, "repeat-sf0.01");
  auto key = [](const std::vector<PlanSpec>& plans) {
    std::vector<std::string> k;
    for (const PlanSpec& p : plans) {
      k.push_back(p.label + "/" + std::to_string(p.literals.ship_date_lo) +
                  "/" + std::to_string(p.literals.quantity_limit) + "/" +
                  p.like_pattern);
    }
    return k;
  };
  const std::vector<PlanSpec> plans = MakePlans(repeat, 1);
  EXPECT_EQ(plans.size(), 19u);
  EXPECT_EQ(key(plans), key(MakePlans(repeat, 1)));
  bool differs = false;
  for (uint64_t seed = 2; seed < 6; ++seed) {
    differs |= key(MakePlans(repeat, seed)) != key(plans);
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(MakePlans(kWorkloads[0], 1).size(), 13u);
}

TEST(MixSeed, StreamsDiffer) {
  EXPECT_NE(MixSeed(1, 0), MixSeed(1, 1));
  EXPECT_NE(MixSeed(1, 0), MixSeed(2, 0));
  EXPECT_EQ(MixSeed(3, 4), MixSeed(3, 4));
}

}  // namespace
