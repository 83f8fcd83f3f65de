// The engine benchmark. Closed-loop clients in one process submit seeded
// TPC-H query sequences to one QueryEngine(catalog, nproc) and wait for each
// result; every layer is measured from outside, through the engine's public
// API (query builders, FingerprintProgram, Submit, QueryRunResult,
// ObservabilitySnapshot, artifact_cache_stats, MeasureCompileCosts).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Workloads (why each was chosen):
//   adhoc-sf0.1    1 client, seeded shuffles of the 13 TPC-H queries, the
//                  artifact cache cleared before every submission. The
//                  paper's regime: compiling costs about as much as
//                  interpreting, so codegen, translation, JIT and the
//                  §III-C decision do most of the work.
//   repeat-sf0.01  nproc clients, Zipf(1.2) over the 13 queries plus three
//                  Q6 literal and three Q14 LIKE variants, warm cache.
//                  Millisecond queries: per-query overhead (admission,
//                  cache lookup and patching, scheduling, hand-off, the warm
//                  mode choice) dominates; the only workload with
//                  inter-query contention.
//   scan-sf1       1 client, seeded shuffles of the 13 queries at SF 1, warm
//                  cache. Execution dominates (hash tables, VM/JIT code,
//                  SIMD, index pruning, morsel parallelism) over data far
//                  larger than the CPU caches.
//
// --trace 0 measures the end-to-end metrics over kRounds rounds, each with
// its own set-up (data, indexes, engine, warm-up) and --seconds / kRounds of
// closed-loop queries:
//   latency_p50_ms / latency_p90_ms  Submit() until the future resolves, all
//                        rounds pooled (p90 needs 10 samples beyond it)
//   latency_geomean_ms   geomean over plans of each plan's median latency
//   throughput_qps, cpu_ms_per_query  with one client, those of a pass made
//                        of each plan's median query; with several, medians
//                        over one-second windows
//   peak_rss_mb          process peak RSS through the first round (later
//                        rounds reuse a heap the earlier rounds fragmented)
//   setup_s              median set-up time (reference results excluded)
//   success_rate         1 - error_rate: a query fails when its future
//                        throws or its rows differ from the reference
// --trace 1 sets up once, traces every second query of each client with
// spans kept in memory, and prints the per-layer metrics; it also runs the
// MeasureCompileCosts and forced-static passes behind compile_cost.* and
// adaptive.regret. The last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}; the line before it is the host
// fingerprint. Every measured query's rows are compared with the
// kVectorized baseline engine's rows for the same plan, computed once at
// set-up.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "engine/query_engine.h"
#include "index/table_index.h"
#include "perfbench/perfbench_lib.h"
#include "queries/tpch_queries.h"
#include "simd/simd.h"
#include "tpch/tpch_gen.h"

using namespace aqe;
using namespace perfbench;

namespace {

constexpr const char* kEngineEnvOverrides[] = {
    "AQE_CALIBRATE", "AQE_SIMD", "AQE_PROFILE_HZ", "AQE_TRACE_RING_EVENTS",
    "AQE_VM_PROFILE"};
/// An untraced run sets up this many times (setup_s is the median) and
/// measures --seconds / kRounds after each set-up. Each round has its own
/// engine and warm-up, so a run averages over the warm state a warm-up
/// happens to leave (path-dependent today) instead of measuring one.
constexpr int kRounds = 6;
constexpr int kRegretRepetitions = 3;
/// A run goes on past --seconds (to the end of a pass) until it holds this
/// many samples, so that a tenth of them lies beyond p90.
constexpr uint64_t kMinSamples = 100;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- set-up ------------------------------------------------------------------

/// Catalog, engine and warm-up. Members are declared so the engine is
/// destroyed before the catalog it reads.
struct Setup {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryEngine> engine;
  double seconds = 0;
  double datagen_seconds = 0;
  double index_seconds = 0;
};

/// `passes` seeded passes over every plan, run serially.
void RunPasses(QueryEngine* engine, const Catalog& catalog,
               const std::vector<PlanSpec>& plans, const Workload& w,
               const QueryRunOptions& options, int passes, uint64_t seed) {
  QuerySequence seq(plans.size(), /*zipf=*/false, seed);
  for (size_t n = 0; n < passes * plans.size(); ++n) {
    QueryProgram program = Build(plans[seq.Next()], catalog);
    if (w.cold) engine->ClearArtifactCache();
    engine->Run(program, options);
  }
}

/// Data generation, index build, engine construction and warm-up. The
/// warm-up runs every plan with the measured phase's options: once for the
/// cold workload (process-level lazy set-up), twice for the warm ones (the
/// cache holds every plan's artifacts).
std::unique_ptr<Setup> DoSetup(const Workload& w,
                               const std::vector<PlanSpec>& plans,
                               uint64_t seed, int round, int threads) {
  auto s = std::make_unique<Setup>();
  const double t0 = Now();
  s->catalog = std::make_unique<Catalog>();
  tpch::BuildTpchDatabase(s->catalog.get(), w.sf, MixSeed(seed, 2));
  const double t1 = Now();
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    const TableIndexes* idx = s->catalog->GetTable(name)->indexes();
    if (idx != nullptr) s->index_seconds += idx->build_seconds;
  }
  s->datagen_seconds = (t1 - t0) - s->index_seconds;
  s->engine = std::make_unique<QueryEngine>(s->catalog.get(), threads);
  RunPasses(s->engine.get(), *s->catalog, plans, w, QueryRunOptions{},
            w.cold ? 1 : 2, MixSeed(seed, 10 + static_cast<uint64_t>(round)));
  s->seconds = Now() - t0;
  return s;
}

using Rows = std::vector<std::vector<int64_t>>;

/// Each plan's rows from the kVectorized baseline, which shares no code
/// with codegen, the VM or the JIT.
std::vector<Rows> ComputeReferences(QueryEngine* engine, const Catalog& catalog,
                                    const std::vector<PlanSpec>& plans) {
  QueryRunOptions options;
  options.engine = EngineKind::kVectorized;
  std::vector<Rows> refs;
  for (const PlanSpec& plan : plans) {
    QueryProgram program = Build(plan, catalog);
    refs.push_back(engine->Run(program, options).rows);
  }
  return refs;
}

// --- measured phase ----------------------------------------------------------

struct Sample {
  uint32_t plan = 0;
  bool traced = false;
  bool failed = false;
  double latency_s = 0;
  QueryCost cost;         ///< meaningful with a single client
  QueryRunResult result;  ///< rows dropped after the check
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<Span> spans;  ///< traced queries only, grouped per request
  /// Window boundaries, every second (concurrent workloads only).
  std::vector<Mark> marks;
  double wall_s = 0;
  MetricsSnapshot before, after;
  ArtifactCacheStats cache;  ///< the phase's delta; residency at its end
};

struct PhaseConfig {
  double seconds = 0;
  uint64_t min_samples = 0;  ///< per client
  int round = 0;             ///< selects the clients' seed streams
  bool alternate_tracing = false;  ///< every second query of a client traced
};

uint64_t Delta(const Phase& p, const char* counter) {
  return p.after.counter(counter) - p.before.counter(counter);
}

/// Closed loop: each client builds its next query, submits it and waits for
/// the result before drawing again, until the time is up (at a pass
/// boundary, with at least config.min_samples queries).
Phase RunPhase(Setup* setup, const Workload& w,
               const std::vector<PlanSpec>& plans,
               const std::vector<Rows>& refs, uint64_t seed, int clients,
               const PhaseConfig& config) {
  Phase phase;
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::vector<Span>> spans(clients);
  std::mutex err_mu;
  std::atomic<uint64_t> completed{0};
  std::atomic<int> running{clients};
  auto mark = [&] {
    phase.marks.push_back({Now(), ProcessCpuSeconds(), completed.load()});
  };
  phase.before = setup->engine->ObservabilitySnapshot();
  const ArtifactCacheStats cache_before = setup->engine->artifact_cache_stats();
  const double t0 = Now();
  if (clients > 1) mark();
  auto client = [&](int c) {
    QuerySequence seq(plans.size(), w.zipf,
                      MixSeed(seed, 100 + 100 * static_cast<uint64_t>(
                                                   config.round) +
                                        static_cast<uint64_t>(c)));
    for (uint64_t k = 0;; ++k) {
      if (seq.at_boundary() && k >= config.min_samples &&
          Now() - t0 >= config.seconds) {
        break;
      }
      const size_t plan = seq.Next();
      Sample sample;
      sample.plan = static_cast<uint32_t>(plan);
      sample.traced = config.alternate_tracing && k % 2 == 1;
      const uint64_t request = (static_cast<uint64_t>(c) << 40) | (k + 1);
      std::vector<Span> qs;
      uint32_t next_id = 2;
      auto span = [&](const char* name, int64_t b, int64_t e,
                      std::string detail = {}) {
        Span s;
        s.request = request;
        s.id = next_id++;
        s.parent = 1;
        s.name = name;
        s.start_ns = b;
        s.end_ns = e;
        s.detail = std::move(detail);
        qs.push_back(s);
        return s;
      };
      const double cpu0 = ProcessCpuSeconds();
      const int64_t q0 = NowNs();
      QueryProgram program = Build(plans[plan], *setup->catalog);
      const int64_t q1 = NowNs();
      if (sample.traced) {
        span("plan.build", q0, q1);
        const int64_t f0 = NowNs();
        const PlanFingerprint fp = FingerprintProgram(program);
        span("cache.fingerprint", f0, NowNs(),
             std::to_string(fp.structural_hash));
      }
      if (w.cold) {
        const int64_t c0 = NowNs();
        setup->engine->ClearArtifactCache();
        if (sample.traced) span("cache.clear", c0, NowNs());
      }
      std::string error;
      const int64_t s0 = NowNs();
      try {
        sample.result = setup->engine->Submit(program).get();
      } catch (const std::exception& e) {
        error = std::string("exception: ") + e.what();
      } catch (...) {
        error = "unknown exception";
      }
      const int64_t s1 = NowNs();
      sample.latency_s = static_cast<double>(s1 - s0) * 1e-9;
      if (error.empty() && sample.result.rows != refs[plan]) {
        error = "rows differ from the kVectorized reference (" +
                std::to_string(sample.result.rows.size()) + " vs " +
                std::to_string(refs[plan].size()) + " rows)";
      }
      if (!error.empty()) {
        sample.failed = true;
        std::lock_guard<std::mutex> lock(err_mu);
        std::fprintf(stderr, "perfbench: FAILED %s plan=%s seed=%llu: %s\n",
                     w.name, plans[plan].label.c_str(),
                     static_cast<unsigned long long>(seed), error.c_str());
      }
      sample.result.rows.clear();
      sample.result.rows.shrink_to_fit();
      sample.cost = {static_cast<double>(NowNs() - q0) * 1e-9,
                     ProcessCpuSeconds() - cpu0};
      if (sample.traced) {
        const Span wait = span("engine.submit_wait", s0, s1);
        AppendEngineSpans(sample.result, wait, &next_id, &qs);
        Span root;
        root.request = request;
        root.id = 1;
        root.name = "query";
        root.start_ns = q0;
        root.end_ns = s1;
        root.detail = plans[plan].label;
        qs.insert(qs.begin(), root);
        spans[c].insert(spans[c].end(), qs.begin(), qs.end());
      }
      if (!sample.failed) ++completed;
      per_client[c].push_back(std::move(sample));
    }
    --running;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  if (clients > 1) {
    // Whole one-second windows; the partial window at the end is dropped.
    for (double next = t0 + 1; running.load() > 0; next += 1) {
      while (running.load() > 0 && Now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (running.load() > 0) mark();
    }
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = Now() - t0;
  phase.after = setup->engine->ObservabilitySnapshot();
  phase.cache = setup->engine->artifact_cache_stats() - cache_before;
  for (int c = 0; c < clients; ++c) {
    for (Sample& s : per_client[c]) phase.samples.push_back(std::move(s));
    phase.spans.insert(phase.spans.end(), spans[c].begin(), spans[c].end());
  }
  return phase;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Latencies (ms) of the successful queries.
std::vector<double> Latencies(const Phase& p) {
  std::vector<double> out;
  for (const Sample& s : p.samples) {
    if (!s.failed) out.push_back(s.latency_s * 1e3);
  }
  return out;
}

/// Per plan: the sorted latencies (ms) of its successful queries, of all of
/// them (traced = -1), the untraced (0) or the traced ones (1).
std::vector<std::vector<double>> PlanLatencies(const Phase& p, size_t plans,
                                               int traced = -1) {
  std::vector<std::vector<double>> by_plan(plans);
  for (const Sample& s : p.samples) {
    if (s.failed || (traced >= 0 && s.traced != (traced == 1))) continue;
    by_plan[s.plan].push_back(s.latency_s * 1e3);
  }
  for (auto& v : by_plan) std::sort(v.begin(), v.end());
  return by_plan;
}

/// Geomean over plans of traced / untraced median latency, minus 1. Paired
/// per plan because the pooled p50 of a 13-plan mix jumps between plans'
/// latencies, which hides an overhead of a few percent.
double TracingOverhead(const Phase& p, size_t plans) {
  const auto traced = PlanLatencies(p, plans, 1);
  const auto untraced = PlanLatencies(p, plans, 0);
  std::vector<double> ratios;
  for (size_t i = 0; i < plans; ++i) {
    if (!traced[i].empty() && !untraced[i].empty()) {
      ratios.push_back(Median(traced[i]) / Median(untraced[i]));
    }
  }
  return GeoMean(ratios) - 1.0;
}

double PlanGeoMean(const std::vector<std::vector<double>>& by_plan) {
  std::vector<double> medians;
  for (const auto& v : by_plan) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  return GeoMean(medians);
}

/// Median latency per plan of each forced strategy against adaptive, in
/// fresh engines so one strategy's cached artifacts never seed another's.
/// Plans run serially, warmed like the workload, with the cache cleared
/// before every run on the cold workload.
double AdaptiveRegret(const Catalog& catalog, const Workload& w,
                      const std::vector<PlanSpec>& plans, uint64_t seed,
                      int threads) {
  const ExecutionStrategy strategies[] = {
      ExecutionStrategy::kAdaptive, ExecutionStrategy::kBytecode,
      ExecutionStrategy::kUnoptimized, ExecutionStrategy::kOptimized};
  std::vector<std::vector<double>> medians;  // [strategy][plan]
  for (ExecutionStrategy strategy : strategies) {
    QueryEngine engine(&catalog, threads);
    QueryRunOptions options;
    options.strategy = strategy;
    if (!w.cold) {
      RunPasses(&engine, catalog, plans, w, options, 1, MixSeed(seed, 4));
    }
    std::vector<std::vector<double>> ms(plans.size());
    for (int rep = 0; rep < kRegretRepetitions; ++rep) {
      for (size_t i = 0; i < plans.size(); ++i) {
        QueryProgram program = Build(plans[i], catalog);
        if (w.cold) engine.ClearArtifactCache();
        const double t0 = Now();
        engine.Submit(program, options).get();
        ms[i].push_back((Now() - t0) * 1e3);
      }
    }
    std::vector<double> m;
    for (const auto& v : ms) m.push_back(Median(v));
    medians.push_back(std::move(m));
  }
  std::vector<double> regret;
  for (size_t i = 0; i < plans.size(); ++i) {
    const double best =
        std::min({medians[1][i], medians[2][i], medians[3][i]});
    regret.push_back(medians[0][i] / best);
  }
  return GeoMean(regret);
}

/// Geomean over plans of each layer's summed per-pipeline compile cost.
std::vector<Metric> CompileCosts(QueryEngine* engine, const Catalog& catalog,
                                 const std::vector<PlanSpec>& plans) {
  std::vector<double> codegen, translate, unopt, opt;
  for (const PlanSpec& plan : plans) {
    QueryProgram program = Build(plan, catalog);
    double c = 0, t = 0, u = 0, o = 0;
    for (const PipelineCompileCosts& p : engine->MeasureCompileCosts(program)) {
      c += p.codegen_millis;
      t += p.bytecode_millis;
      u += p.unopt_millis;
      o += p.opt_millis;
    }
    codegen.push_back(c);
    translate.push_back(t);
    unopt.push_back(u);
    opt.push_back(o);
  }
  return {{"compile_cost.codegen_ms", GeoMean(codegen), "ms"},
          {"compile_cost.translate_ms", GeoMean(translate), "ms"},
          {"compile_cost.unopt_ms", GeoMean(unopt), "ms"},
          {"compile_cost.opt_ms", GeoMean(opt), "ms"}};
}

/// Per-layer metrics of the traced queries, plus the phase's counter deltas
/// normalized per query of the whole phase (the engine's counters do not
/// distinguish traced from untraced queries).
std::vector<Metric> LayerMetrics(const Phase& p, const Setup& setup,
                                 size_t plans) {
  std::vector<double> build_ms, fp_us, wait_ms, nonexec, handoff, peak_mb;
  double codegen = 0, translate = 0, compile = 0, exec_ms = 0, steps_ms = 0;
  double exec_only_s = 0, analysis_ms = 0;
  uint64_t tuples = 0, pipelines = 0, selected = 0, table_rows = 0;
  uint64_t modes[3] = {0, 0, 0};
  SwitchCounts sw;
  size_t traced = 0;
  for (const Span& s : p.spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    if (s.name == "plan.build") build_ms.push_back(ms);
    if (s.name == "cache.fingerprint") fp_us.push_back(ms * 1e3);
  }
  for (const Sample& s : p.samples) {
    if (!s.traced || s.failed) continue;
    const QueryRunResult& r = s.result;
    ++traced;
    wait_ms.push_back(r.queue_wait_seconds * 1e3);
    nonexec.push_back(NonExecFrac(r, s.latency_s));
    handoff.push_back(HandoffMs(r, s.latency_s));
    peak_mb.push_back(static_cast<double>(r.peak_memory_bytes) / (1 << 20));
    codegen += r.codegen_millis_total;
    translate += r.translate_millis_total;
    compile += r.compile_millis_total;
    exec_ms += r.exec_seconds_total * 1e3;
    steps_ms += EngineStepsMs(r);
    exec_only_s += PipelineExecOnlySeconds(r);
    const SwitchCounts c = CountSwitches(r);
    sw.switches += c.switches;
    sw.paid_off += c.paid_off;
    for (const PipelineReport& pr : r.pipelines) {
      ++pipelines;
      tuples += pr.tuples;
      ++modes[static_cast<int>(pr.final_mode)];
      if (pr.pruning.analyzed) {
        selected += pr.pruning.selected_rows;
        table_rows += pr.pruning.table_rows;
      }
      analysis_ms += pr.pruning.analysis_seconds * 1e3;
    }
  }
  if (traced == 0) throw std::runtime_error("no traced query completed");
  const double nq = static_cast<double>(traced);
  const double all_q = static_cast<double>(p.samples.size());
  const double np = static_cast<double>(std::max<uint64_t>(pipelines, 1));
  const ArtifactCacheStats& cs = p.cache;
  const uint64_t bc_lookups =
      cs.bytecode_hits + cs.patched_hits + cs.bytecode_misses;
  double all_pipelines = 0;
  for (const Sample& s : p.samples) all_pipelines += s.result.pipelines.size();
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {
      {"plan.build_ms", Median(build_ms), "ms"},
      {"cache.fingerprint_us", Median(fp_us), "us"},
      {"cache.entry_hit_rate",
       frac(static_cast<double>(cs.entry_hits),
            static_cast<double>(cs.entry_hits + cs.entry_misses)),
       "ratio"},
      {"cache.code_seeded_frac",
       frac(static_cast<double>(cs.code_hits), all_pipelines), "ratio"},
      {"cache.patched_hit_rate",
       frac(static_cast<double>(cs.patched_hits),
            static_cast<double>(bc_lookups)),
       "ratio"},
      {"cache.publishes_per_query",
       static_cast<double>(cs.publishes) / all_q, "count"},
      {"cache.resident_kb", static_cast<double>(cs.bytes) / 1024.0, "KB"},
      {"admission.queue_wait_ms.p50", Percentile(wait_ms, 0.5), "ms"},
      {"admission.queue_wait_ms.p90", Percentile(wait_ms, 0.9), "ms"},
      {"engine.nonexec_frac", Median(nonexec), "ratio"},
      {"engine.handoff_ms", Median(handoff), "ms"},
      {"codegen.ms_per_query", codegen / nq, "ms"},
      {"vm.translate_ms_per_query", translate / nq, "ms"},
      {"jit.compile_ms_per_query", compile / nq, "ms"},
      {"jit.compiles_per_query",
       static_cast<double>(Delta(p, "jit.compiles")) / all_q, "count"},
      {"adaptive.final_mode.bytecode_frac", modes[0] / np, "ratio"},
      {"adaptive.final_mode.unopt_frac", modes[1] / np, "ratio"},
      {"adaptive.final_mode.opt_frac", modes[2] / np, "ratio"},
      {"adaptive.switches_per_query", static_cast<double>(sw.switches) / nq,
       "count"},
      {"adaptive.switch_payoff_frac",
       frac(static_cast<double>(sw.paid_off), static_cast<double>(sw.switches)),
       "ratio"},
      {"exec.ms_per_query", exec_ms / nq, "ms"},
      {"exec.rows_per_ms", frac(static_cast<double>(tuples), exec_only_s * 1e3),
       "rows/ms"},
      {"exec.morsels_per_query",
       static_cast<double>(Delta(p, "exec.morsels")) / all_q, "count"},
      {"sched.slices_per_query",
       static_cast<double>(Delta(p, "sched.executed_slices")) / all_q,
       "count"},
      {"runtime.engine_steps_ms_per_query", steps_ms / nq, "ms"},
      {"runtime.query_peak_mb.p50", Median(peak_mb), "MB"},
      {"index.selected_row_frac",
       table_rows > 0 ? static_cast<double>(selected) / table_rows : 1.0,
       "ratio"},
      {"index.analysis_ms_per_query", analysis_ms / nq, "ms"},
      {"index.build_s", setup.index_seconds, "s"},
      {"storage.datagen_s", setup.datagen_seconds, "s"},
      {"obs.tracing_overhead_frac", TracingOverhead(p, plans), "ratio"},
      {"obs.trace_dropped_lost",
       static_cast<double>(Delta(p, "trace.dropped.lost")), "count"},
  };
}

/// Per-plan median/min/max (the instabilities stay visible) and the mean
/// duration and self time of every span name, then the spans themselves.
void WriteTrace(const Phase& p, const std::vector<PlanSpec>& plans,
                const std::string& host, const std::vector<Metric>& metrics,
                const std::string& path) {
  const auto by_plan = PlanLatencies(p, plans.size());
  std::printf("per-plan latency (ms), all queries of the traced run:\n");
  std::printf("  %-20s %6s %10s %10s %10s\n", "plan", "n", "median", "min",
              "max");
  for (size_t i = 0; i < plans.size(); ++i) {
    if (by_plan[i].empty()) continue;
    std::printf("  %-20s %6zu %10.3f %10.3f %10.3f\n", plans[i].label.c_str(),
                by_plan[i].size(), Median(by_plan[i]), by_plan[i].front(),
                by_plan[i].back());
  }
  // Self times, one request at a time (spans are grouped per request).
  std::vector<int64_t> self(p.spans.size());
  for (size_t b = 0; b < p.spans.size();) {
    size_t e = b;
    while (e < p.spans.size() && p.spans[e].request == p.spans[b].request) ++e;
    std::vector<Span> group(p.spans.begin() + b, p.spans.begin() + e);
    const std::vector<int64_t> g = SelfTimesNs(group);
    std::copy(g.begin(), g.end(), self.begin() + b);
    b = e;
  }
  std::map<std::string, std::pair<double, double>> sum;  // duration, self
  std::map<std::string, size_t> count;
  size_t requests = 0;
  for (size_t i = 0; i < p.spans.size(); ++i) {
    const Span& s = p.spans[i];
    if (s.parent == 0) ++requests;
    sum[s.name].first += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    sum[s.name].second += static_cast<double>(self[i]) * 1e-6;
    ++count[s.name];
  }
  std::printf("spans of %zu traced queries (ms per query):\n", requests);
  std::printf("  %-22s %8s %10s %10s\n", "span", "count", "duration", "self");
  for (const auto& [name, ds] : sum) {
    std::printf("  %-22s %8zu %10.4f %10.4f\n", name.c_str(), count[name],
                ds.first / requests, ds.second / requests);
  }
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"host\":" << host << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << JsonString(metrics[i].name) << ":"
        << Num(metrics[i].value);
  }
  out << "},\"plans\":[";
  bool first = true;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (by_plan[i].empty()) continue;
    out << (first ? "" : ",") << "{\"plan\":" << JsonString(plans[i].label)
        << ",\"n\":" << by_plan[i].size()
        << ",\"median_ms\":" << Num(Median(by_plan[i]))
        << ",\"min_ms\":" << Num(by_plan[i].front())
        << ",\"max_ms\":" << Num(by_plan[i].back()) << "}";
    first = false;
  }
  out << "],\"spans\":[";
  for (size_t i = 0; i < p.spans.size(); ++i) {
    const Span& s = p.spans[i];
    out << (i ? ",\n" : "\n") << "{\"request\":" << s.request
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":" << JsonString(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << (s.end_ns - s.start_ns)
        << ",\"self_ns\":" << self[i]
        << ",\"detail\":" << JsonString(s.detail) << "}";
  }
  out << "]}\n";
  std::printf("trace written to %s\n", path.c_str());
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, trace_out;
  long long seed = -1, trace = -1;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    char* end = nullptr;
    if (key == "--workload") {
      workload_name = argv[i + 1];
    } else if (key == "--seed") {
      seed = std::strtoll(argv[i + 1], &end, 10);
      if (*end != '\0' || seed < 0) return Usage("bad --seed");
    } else if (key == "--seconds") {
      seconds = std::strtod(argv[i + 1], &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 600)) {
        return Usage("bad --seconds");
      }
    } else if (key == "--trace") {
      trace = std::strtoll(argv[i + 1], &end, 10);
      if (*end != '\0' || (trace != 0 && trace != 1)) {
        return Usage("bad --trace");
      }
    } else if (key == "--trace-out") {
      trace_out = argv[i + 1];
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (workload_name.empty() || seed < 0 || seconds <= 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload_name == cand.name) w = &cand;
  }
  if (w == nullptr) return Usage(("unknown workload " + workload_name).c_str());

  // Pinned environment: Release build, no engine env overrides.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on\n");
  return 2;
#endif
  for (const char* var : kEngineEnvOverrides) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: unset %s; the benchmark runs the "
                   "engine's defaults\n", var);
      return 2;
    }
  }
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int clients = w->concurrent ? threads : 1;
#if defined(AQE_VM_DISPATCH_SWITCH)
  const char* dispatch = "switch";
#else
  const char* dispatch = "threaded";
#endif
  const std::string host =
      "{\"cpu\": " + JsonString(CpuModel()) +
      ", \"nproc\": " + std::to_string(threads) +
      ", \"simd\": " + JsonString(SimdLevelName(ActiveSimdLevel())) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"vm_dispatch\": " + JsonString(dispatch) +
      ", \"workload\": " + JsonString(w->name) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"clients\": " + std::to_string(clients) + "}";

  const uint64_t useed = static_cast<uint64_t>(seed);
  const std::vector<PlanSpec> plans = MakePlans(*w, useed);
  try {
    const int rounds = trace == 1 ? 1 : kRounds;
    std::vector<double> setup_s;
    std::vector<Rows> refs;
    std::vector<Phase> phases;
    double first_round_rss_mb = 0;
    std::unique_ptr<Setup> setup;
    for (int r = 0; r < rounds; ++r) {
      setup.reset();  // free the previous round's data first
      setup = DoSetup(*w, plans, useed, r, threads);
      setup_s.push_back(setup->seconds);
      std::printf("set-up %d/%d: %.3f s (datagen %.3f s, index build %.3f s)\n",
                  r + 1, rounds, setup->seconds, setup->datagen_seconds,
                  setup->index_seconds);
      if (r == 0) {  // every round generates the same data from the seed
        const double ref0 = Now();
        refs = ComputeReferences(setup->engine.get(), *setup->catalog, plans);
        std::printf("reference results (kVectorized): %.3f s\n",
                    Now() - ref0);
      }
      std::fflush(stdout);
      PhaseConfig config;
      config.seconds = seconds / rounds;
      config.min_samples =
          (kMinSamples + clients * rounds - 1) / (clients * rounds);
      config.round = r;
      config.alternate_tracing = trace == 1;
      phases.push_back(
          RunPhase(setup.get(), *w, plans, refs, useed, clients, config));
      if (r == 0) first_round_rss_mb = PeakRssMb();
    }
    // The rounds' queries pooled; window marks stay per round.
    Phase phase;
    std::vector<std::vector<Mark>> marks;
    if (trace == 1) {
      phase = std::move(phases[0]);
    } else {
      for (Phase& p : phases) {
        for (Sample& s : p.samples) phase.samples.push_back(std::move(s));
        marks.push_back(std::move(p.marks));
        phase.wall_s += p.wall_s;
      }
    }
    size_t failed = 0;
    for (const Sample& s : phase.samples) failed += s.failed ? 1 : 0;
    const size_t attempted = phase.samples.size();
    const size_t completed = attempted - failed;

    std::vector<Metric> metrics;
    if (trace == 0) {
      const std::vector<double> lat = Latencies(phase);
      Rates rates;
      if (clients > 1) {
        rates = MedianWindowRates(marks);
      } else {
        std::vector<std::vector<QueryCost>> costs(plans.size());
        for (const Sample& s : phase.samples) {
          if (!s.failed) costs[s.plan].push_back(s.cost);
        }
        rates = MedianPassRates(costs);
      }
      metrics = {
          {"latency_p50_ms", Median(lat), "ms"},
          {"latency_p90_ms", TailPercentile(lat, 0.9), "ms"},
          {"latency_geomean_ms",
           PlanGeoMean(PlanLatencies(phase, plans.size())), "ms"},
          {"throughput_qps", rates.qps, "1/s"},
          {"cpu_ms_per_query", rates.cpu_ms_per_query, "ms"},
          {"peak_rss_mb", first_round_rss_mb, "MB"},
          {"setup_s", Median(setup_s), "s"},
          {"success_rate",
           static_cast<double>(completed) / static_cast<double>(attempted),
           "ratio"},
      };
      std::printf("%s: %zu queries, %zu failed (error_rate %.6f), %.2f s "
                  "measured (%.4f qps over the whole phase), %d client(s), "
                  "%d workers, peak RSS %.1f MB over all rounds\n",
                  w->name, attempted, failed,
                  static_cast<double>(failed) / attempted, phase.wall_s,
                  completed / phase.wall_s, clients, threads, PeakRssMb());
      for (const Metric& m : metrics) {
        std::printf("  %-20s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    } else {
      metrics = LayerMetrics(phase, *setup, plans.size());
      for (const Metric& m :
           CompileCosts(setup->engine.get(), *setup->catalog, plans)) {
        metrics.push_back(m);
      }
      metrics.push_back({"adaptive.regret",
                         AdaptiveRegret(*setup->catalog, *w, plans, useed,
                                        threads),
                         "ratio"});
      for (const Metric& m : metrics) {
        std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
      WriteTrace(phase, plans, host, metrics, trace_out);
    }
    std::printf("{\"host\": %s}\n", host.c_str());
    PrintResult(failed == 0, attempted, failed, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
