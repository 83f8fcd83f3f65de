// Pure helpers of the engine benchmark: seeded draws, order statistics,
// in-memory spans and the per-layer derivations from QueryRunResult. Kept
// apart from perfbench.cc so perfbench_test.cc can check them without
// generating data or starting an engine.
#ifndef AQE_PERFBENCH_PERFBENCH_LIB_H_
#define AQE_PERFBENCH_PERFBENCH_LIB_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "queries/tpch_queries.h"

namespace perfbench {

// --- seeded draws ------------------------------------------------------------
// Written out rather than taken from <random>'s distributions, whose
// algorithms are implementation-defined: the same seed must give the same
// query sequence with any standard library.

/// SplitMix64: derives independent sub-seeds (data, order, per client) from
/// the one workload seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xorshift64* generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(MixSeed(seed, 0) | 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Fisher-Yates shuffle of `items`.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

/// Zipf(s) over ranks [0, n): rank r drawn with weight 1/(r+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Next(Rng* rng) const {
    const double u = rng->Uniform();
    const size_t r = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The plan indexes one client submits, in order: Zipf(1.2) draws over the
/// plan ranks, or seeded shuffles of all plans, one whole pass after
/// another, so every plan is measured equally often.
class QuerySequence {
 public:
  QuerySequence(size_t plans, bool zipf, uint64_t seed)
      : zipf_(zipf ? plans : 1, 1.2), rng_(seed), order_(plans),
        pos_(plans), use_zipf_(zipf) {
    for (size_t i = 0; i < plans; ++i) order_[i] = i;
  }
  size_t Next() {
    if (use_zipf_) return zipf_.Next(&rng_);
    if (pos_ == order_.size()) {
      Shuffle(&order_, &rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }
  /// True where a run may stop: between passes (always, for Zipf draws).
  bool at_boundary() const { return use_zipf_ || pos_ == order_.size(); }

 private:
  ZipfSampler zipf_;
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_;
  bool use_zipf_;
};

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  double sf;
  bool concurrent;  ///< nproc clients (else one)
  bool zipf;        ///< Zipf draws (else seeded shuffled passes)
  bool cold;        ///< ClearArtifactCache() before every submission
  bool variants;    ///< add the Q6 literal and Q14 pattern variants
};

/// Why each workload was chosen is recorded in perfbench.cc's header.
constexpr Workload kWorkloads[] = {
    {"adhoc-sf0.1", 0.1, false, false, true, false},
    {"repeat-sf0.01", 0.01, true, true, false, true},
    {"scan-sf1", 1.0, false, false, false, false},
};

struct PlanSpec {
  std::string label;
  int tpch_number = 0;         ///< 0 = a Q6 or Q14 variant
  aqe::TpchQ6Literals literals{};  ///< Q6 variant when like_pattern is empty
  std::string like_pattern;    ///< Q14 p_type pattern variant
};

inline aqe::QueryProgram Build(const PlanSpec& plan,
                               const aqe::Catalog& catalog) {
  if (plan.tpch_number > 0) {
    return aqe::BuildTpchQuery(plan.tpch_number, catalog);
  }
  if (!plan.like_pattern.empty()) {
    return aqe::BuildTpchQ14Variant(catalog, plan.like_pattern);
  }
  return aqe::BuildTpchQ6Variant(catalog, plan.literals);
}

/// The plan population in Zipf rank order: the TPC-H queries ascending,
/// then (for `w.variants`) three Q6 literal and three Q14 pattern variants,
/// whose literals the seed picks.
inline std::vector<PlanSpec> MakePlans(const Workload& w, uint64_t seed) {
  std::vector<PlanSpec> plans;
  for (int number : aqe::ImplementedTpchQueries()) {
    plans.push_back({"q" + std::to_string(number), number, {}, ""});
  }
  if (!w.variants) return plans;
  Rng rng(MixSeed(seed, 1));
  for (int v = 1; v <= 3; ++v) {
    aqe::TpchQ6Literals lit = aqe::DefaultQ6Literals();
    const int64_t shift = 31 * static_cast<int64_t>(1 + rng.Below(11));
    lit.ship_date_lo += shift;
    lit.ship_date_hi += shift;
    lit.quantity_limit += 100 * static_cast<int64_t>(rng.Below(4));
    plans.push_back({"q6var" + std::to_string(v), 0, lit, ""});
  }
  std::vector<std::string> patterns = {"STANDARD%", "SMALL%", "MEDIUM%",
                                       "LARGE%", "ECONOMY%"};
  Shuffle(&patterns, &rng);
  for (int v = 0; v < 3; ++v) {
    plans.push_back({"q14like_" + patterns[v], 0, {}, patterns[v]});
  }
  return plans;
}

// --- order statistics --------------------------------------------------------

/// Nearest-rank percentile (p in (0, 1]): the smallest sample with at least
/// p of the samples at or below it.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  rank = std::max<size_t>(rank, 1);
  return values[std::min(rank, values.size()) - 1];
}

/// A tail percentile is reported only when at least `min_beyond` samples
/// lie beyond it; otherwise it rests on a handful of outliers and the run
/// must be longer. Throws std::runtime_error in that case.
inline double TailPercentile(const std::vector<double>& values, double p,
                             size_t min_beyond = 10) {
  const size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  const size_t beyond = values.size() - std::min(rank, values.size());
  if (values.empty() || beyond < min_beyond) {
    throw std::runtime_error(
        "p" + std::to_string(static_cast<int>(p * 100)) + " of " +
        std::to_string(values.size()) + " samples leaves " +
        std::to_string(beyond) + " beyond it; at least " +
        std::to_string(min_beyond) + " are required");
  }
  return Percentile(values, p);
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Geometric mean of positive values.
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no values");
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) {
      throw std::invalid_argument("geomean of a non-positive value");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Completed queries and process CPU time at one instant of a run.
struct Mark {
  double t = 0;
  double cpu_s = 0;
  uint64_t completed = 0;
};

struct Rates {
  double qps = 0;
  double cpu_ms_per_query = 0;
};

/// Medians, over the windows between consecutive marks of each sequence, of
/// the completion rate and of the CPU time per completed query. A median of
/// windows keeps one slow outlier query from setting a run's throughput.
inline Rates MedianWindowRates(
    const std::vector<std::vector<Mark>>& sequences) {
  std::vector<double> qps, cpu_ms;
  for (const std::vector<Mark>& marks : sequences) {
    for (size_t i = 1; i < marks.size(); ++i) {
      const double dt = marks[i].t - marks[i - 1].t;
      const uint64_t dq = marks[i].completed - marks[i - 1].completed;
      if (dt <= 0) continue;
      qps.push_back(static_cast<double>(dq) / dt);
      if (dq > 0) {
        cpu_ms.push_back((marks[i].cpu_s - marks[i - 1].cpu_s) * 1e3 /
                         static_cast<double>(dq));
      }
    }
  }
  if (cpu_ms.empty()) throw std::runtime_error("no window completed a query");
  return {Median(qps), Median(cpu_ms)};
}

/// One single-client query's client-side cost: the time from building its
/// program to having checked its result, and the process CPU time meanwhile.
struct QueryCost {
  double cycle_s = 0;
  double cpu_s = 0;
};

/// Throughput and CPU per query of one pass made of each plan's median
/// query: plans / the sum of the plans' median cycle times, and the mean of
/// their median CPU times. One plan's outliers then cannot set a run's rate
/// (they show in p90 and the traced per-plan max instead).
inline Rates MedianPassRates(
    const std::vector<std::vector<QueryCost>>& by_plan) {
  double cycle_s = 0, cpu_s = 0;
  size_t plans = 0;
  for (const std::vector<QueryCost>& costs : by_plan) {
    if (costs.empty()) continue;
    std::vector<double> cycle, cpu;
    for (const QueryCost& c : costs) {
      cycle.push_back(c.cycle_s);
      cpu.push_back(c.cpu_s);
    }
    cycle_s += Median(cycle);
    cpu_s += Median(cpu);
    ++plans;
  }
  if (plans == 0 || !(cycle_s > 0)) {
    throw std::runtime_error("no plan completed a query");
  }
  return {static_cast<double>(plans) / cycle_s,
          cpu_s * 1e3 / static_cast<double>(plans)};
}

// --- per-layer derivations from one QueryRunResult ---------------------------

/// Share of the client-observed latency the engine did not spend executing:
/// admission, codegen, translation, compilation, scheduling and hand-off.
inline double NonExecFrac(const aqe::QueryRunResult& r, double latency_s) {
  return latency_s > 0 ? 1.0 - r.exec_seconds_total / latency_s : 0.0;
}

/// Client-observed latency the engine's own wall time does not cover:
/// submission, future hand-off and client wake-up.
inline double HandoffMs(const aqe::QueryRunResult& r, double latency_s) {
  return (latency_s - r.total_seconds) * 1e3;
}

inline double PipelineExecOnlySeconds(const aqe::QueryRunResult& r) {
  double s = 0;
  for (const aqe::PipelineReport& p : r.pipelines) s += p.exec_only_seconds;
  return s;
}

/// Engine steps between pipelines (join finalize, aggregate merge, top-k):
/// the part of exec_seconds_total no pipeline accounts for.
inline double EngineStepsMs(const aqe::QueryRunResult& r) {
  return std::max(0.0, r.exec_seconds_total - PipelineExecOnlySeconds(r)) *
         1e3;
}

/// Adaptive compile decisions taken, and how many of them paid off: the
/// realized remainder after the switch beat the extrapolated remainder of
/// staying in the old mode.
struct SwitchCounts {
  uint64_t switches = 0;
  uint64_t paid_off = 0;
};

inline SwitchCounts CountSwitches(const aqe::QueryRunResult& r) {
  SwitchCounts c;
  for (const aqe::PipelineReport& p : r.pipelines) {
    for (const aqe::ModeSwitchRecord& s : p.mode_switches) {
      ++c.switches;
      if (s.realized_seconds < s.t_current_seconds) ++c.paid_off;
    }
  }
  return c;
}

// --- spans -------------------------------------------------------------------

/// One timed interval of a traced query. Spans of one query share
/// `request`; `parent` is the id of the enclosing span (0 = root).
struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string detail;  ///< free-form attributes (pipeline, modes)
};

/// Appends the engine-reported phases of `r` as children of the span
/// `parent` (the Submit-to-result interval [start_ns, end_ns]). The engine
/// reports durations, not timestamps, so the children are laid out one
/// after another in engine phase order: admission wait, codegen,
/// translation, compilation, each pipeline's pure execution, engine steps.
/// Children are clipped to the parent; what remains uncovered is the
/// parent's self time (hand-off and untracked engine work).
inline void AppendEngineSpans(const aqe::QueryRunResult& r,
                              const Span& parent, uint32_t* next_id,
                              std::vector<Span>* out) {
  int64_t cursor = parent.start_ns;
  auto add = [&](const std::string& name, double seconds,
                 std::string detail = {}) {
    if (seconds <= 0) return;
    Span s;
    s.request = parent.request;
    s.id = (*next_id)++;
    s.parent = parent.id;
    s.name = name;
    s.start_ns = std::min(cursor, parent.end_ns);
    s.end_ns = std::min(cursor + static_cast<int64_t>(seconds * 1e9),
                        parent.end_ns);
    s.detail = std::move(detail);
    cursor = s.end_ns;
    out->push_back(std::move(s));
  };
  add("admission.wait", r.queue_wait_seconds);
  add("codegen", r.codegen_millis_total * 1e-3);
  add("vm.translate", r.translate_millis_total * 1e-3);
  add("jit.compile", r.compile_millis_total * 1e-3);
  for (const aqe::PipelineReport& p : r.pipelines) {
    add("exec.pipeline", p.exec_only_seconds,
        p.name + " " + aqe::ExecModeName(p.initial_mode) + "->" +
            aqe::ExecModeName(p.final_mode));
  }
  add("runtime.engine_steps", EngineStepsMs(r) * 1e-3);
}

/// Self time of every span of one request, in the order of `spans`: its
/// duration minus the part of it that its direct children cover
/// (overlapping children count once).
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const Span& c : spans) {
      if (c.request != spans[i].request || c.parent != spans[i].id) continue;
      const int64_t b = std::max(c.start_ns, spans[i].start_ns);
      const int64_t e = std::min(c.end_ns, spans[i].end_ns);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, reach = spans[i].start_ns;
    for (const auto& [b, e] : cover) {
      if (e <= reach) continue;
      covered += e - std::max(b, reach);
      reach = e;
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // AQE_PERFBENCH_PERFBENCH_LIB_H_
