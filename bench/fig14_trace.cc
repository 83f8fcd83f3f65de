// Regenerates Fig 14: the execution trace of TPC-H Q11 under bytecode,
// unoptimized and adaptive execution — morsel timelines per worker thread
// with compilation events. Adaptive should interpret the small pipelines
// and compile only the two big partsupp scans.
//
// The charts come from the engine's own trace rings. Exits non-zero when a
// ring dropped events or a chart is empty, so a decimated timeline never
// prints silently (raise AQE_TRACE_RING_EVENTS if it does).
#include "bench/bench_util.h"

using namespace aqe;

int main() {
  double sf = bench::EnvDouble("AQE_SF", 1.0);
  int threads = bench::EnvInt("AQE_THREADS", 4);
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngine engine(catalog, threads);

  struct ModeRow {
    const char* label;
    ExecutionStrategy strategy;
  };
  const ModeRow modes[] = {
      {"bytecode", ExecutionStrategy::kBytecode},
      {"unoptimized", ExecutionStrategy::kUnoptimized},
      {"adaptive", ExecutionStrategy::kAdaptive},
  };
  std::printf("Fig 14 — execution trace of TPC-H Q11 (SF %g, %d threads)\n\n",
              sf, threads);
  int failures = 0;
  for (const ModeRow& mode : modes) {
    engine.ResetObservabilityStats();
    QueryProgram q = BuildTpchQuery(11, *catalog);
    QueryRunOptions options;
    options.strategy = mode.strategy;
    // The trace shows cold compiles; cached artifacts would blank them.
    options.use_artifact_cache = false;
    QueryRunResult r = engine.Run(q, options);
    std::printf("--- %s (total %.2f ms, final modes:", mode.label,
                r.total_seconds * 1e3);
    for (const auto& p : r.pipelines) {
      std::printf(" %s=%s", p.name.c_str(), ExecModeName(p.final_mode));
    }
    const std::string chart = engine.RenderTrace(100);
    std::printf(")\n%s\n", chart.c_str());
    const uint64_t dropped = engine.tracer().Snapshot().total_dropped();
    if (dropped != 0) {
      std::fprintf(stderr, "FAIL: %s trace dropped %llu events\n", mode.label,
                   static_cast<unsigned long long>(dropped));
      ++failures;
    }
    if (chart == "(empty trace)\n") {
      std::fprintf(stderr, "FAIL: %s trace is empty\n", mode.label);
      ++failures;
    }
  }
  std::printf("expected shape: adaptive compiles ('#') only the two partsupp "
              "pipelines and beats both static modes\n");
  return failures == 0 ? 0 : 1;
}
