#include "obs/export.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "exec/function_handle.h"
#include "index/access_path.h"

namespace aqe {

namespace {

void Append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

double Micros(int64_t nanos, int64_t origin) {
  return static_cast<double>(nanos - origin) / 1e3;
}

const char* ModeName(uint8_t detail) {
  return ExecModeName(static_cast<ExecMode>(detail));
}

/// Event-specific "args" object, matching the schema in trace_event.h.
std::string EventArgs(const TraceEvent& e) {
  std::string args;
  switch (e.kind) {
    case TraceEventKind::kAdmissionWait:
      Append(args, "{\"class\":%d,\"est_cost_ms\":%.3f,\"query\":%u}",
             static_cast<int>(e.detail), e.d0, e.query_id);
      break;
    case TraceEventKind::kTaskSlice:
      Append(args, "{\"class\":%d,\"stage\":%llu,\"query\":%u}",
             static_cast<int>(e.detail),
             static_cast<unsigned long long>(e.payload), e.query_id);
      break;
    case TraceEventKind::kMorsel:
      Append(args, "{\"mode\":\"%s\",\"tuples\":%llu,\"pipeline\":%u}",
             ModeName(e.detail), static_cast<unsigned long long>(e.payload),
             static_cast<unsigned>(e.pipeline_id));
      break;
    case TraceEventKind::kPipelineStart:
      Append(args, "{\"tuples\":%llu,\"pipeline\":%u}",
             static_cast<unsigned long long>(e.payload),
             static_cast<unsigned>(e.pipeline_id));
      break;
    case TraceEventKind::kModeSwitch:
      Append(args,
             "{\"target\":\"%s\",\"remaining_tuples\":%llu,"
             "\"r0_tuples_per_s\":%.1f,\"t_current_s\":%.6f,"
             "\"t_chosen_s\":%.6f,\"runtime_call_fraction\":%.4f}",
             ModeName(e.detail), static_cast<unsigned long long>(e.payload),
             e.d0, e.d1, e.d2, TraceEventBitsToDouble(e.payload2));
      break;
    case TraceEventKind::kCompile:
      Append(args, "{\"target\":\"%s\",\"instructions\":%llu}",
             ModeName(e.detail), static_cast<unsigned long long>(e.payload));
      break;
    case TraceEventKind::kCacheHit:
      Append(args, "{\"artifact\":\"%s\"}",
             e.payload == 0 ? "bytecode" : "code");
      break;
    case TraceEventKind::kCachePublish:
      Append(args, "{\"mode\":\"%s\"}", ModeName(e.detail));
      break;
    case TraceEventKind::kQueryDone:
      Append(args,
             "{\"rows\":%llu,\"queue_wait_s\":%.6f,\"total_s\":%.6f,"
             "\"query\":%u}",
             static_cast<unsigned long long>(e.payload), e.d0, e.d1,
             e.query_id);
      break;
    case TraceEventKind::kAnomaly:
      Append(args,
             "{\"fingerprint\":\"%016llx\",\"cause\":%d,"
             "\"expected_ms\":%.3f,\"observed_ms\":%.3f,"
             "\"queue_wait_ms\":%.3f,\"query\":%u}",
             static_cast<unsigned long long>(e.payload),
             static_cast<int>(e.detail), e.d0, e.d1, e.d2, e.query_id);
      break;
    case TraceEventKind::kScanPrune:
      Append(args,
             "{\"path\":\"%s\",\"selected_rows\":%llu,\"table_rows\":%llu,"
             "\"selectivity\":%.6f,\"analysis_s\":%.6f,"
             "\"posting_entries\":%.0f}",
             AccessPathKindName(static_cast<AccessPathKind>(e.detail)),
             static_cast<unsigned long long>(e.payload),
             static_cast<unsigned long long>(e.payload2), e.d0, e.d1, e.d2);
      break;
    default:
      args = "{}";
      break;
  }
  return args;
}

}  // namespace

std::string ChromeTraceJson(const TraceSnapshot& snapshot) {
  const int64_t origin = snapshot.origin_nanos;
  std::string out;
  out.reserve(snapshot.total_recorded() * 160 + 1024);
  Append(out,
         "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":%llu,"
         "\"dropped\":%llu,\"dropped_sampled\":%llu,\"dropped_lost\":%llu},"
         "\"traceEvents\":[",
         static_cast<unsigned long long>(snapshot.total_recorded()),
         static_cast<unsigned long long>(snapshot.total_dropped()),
         static_cast<unsigned long long>(snapshot.total_dropped_sampled()),
         static_cast<unsigned long long>(snapshot.total_dropped_lost()));
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };

  // One named, ordered track per lane.
  for (const auto& lane : snapshot.lanes) {
    comma();
    Append(out,
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"worker %d\"}}",
           lane.lane, lane.lane);
    comma();
    Append(out,
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
           "\"thread_sort_index\",\"args\":{\"sort_index\":%d}}",
           lane.lane, lane.lane);
  }

  // Spans and instants, per lane.
  for (const auto& lane : snapshot.lanes) {
    for (const TraceEvent& e : lane.events) {
      const bool instant = e.end_nanos <= e.start_nanos;
      comma();
      if (instant) {
        Append(out,
               "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
               "\"cat\":\"engine\",\"s\":\"t\",\"ts\":%.3f,\"args\":%s}",
               lane.lane, TraceEventKindName(e.kind),
               Micros(e.start_nanos, origin), EventArgs(e).c_str());
      } else {
        Append(out,
               "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
               "\"cat\":\"engine\",\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
               lane.lane, TraceEventKindName(e.kind),
               Micros(e.start_nanos, origin),
               static_cast<double>(e.end_nanos - e.start_nanos) / 1e3,
               EventArgs(e).c_str());
      }
    }
  }

  // One flow per query: start at the admission wait, step through every
  // task slice (they may run on different workers), finish at completion.
  struct FlowPoint {
    int64_t nanos;
    int lane;
    char ph;  ///< 's' start, 't' step, 'f' finish
    uint32_t query_id;
  };
  std::vector<FlowPoint> flows;
  for (const auto& lane : snapshot.lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.query_id == 0) continue;
      if (e.kind == TraceEventKind::kAdmissionWait) {
        flows.push_back({e.start_nanos, lane.lane, 's', e.query_id});
      } else if (e.kind == TraceEventKind::kTaskSlice) {
        flows.push_back({e.start_nanos, lane.lane, 't', e.query_id});
      } else if (e.kind == TraceEventKind::kQueryDone) {
        flows.push_back({e.end_nanos, lane.lane, 'f', e.query_id});
      }
    }
  }
  std::sort(flows.begin(), flows.end(),
            [](const FlowPoint& a, const FlowPoint& b) {
              if (a.query_id != b.query_id) return a.query_id < b.query_id;
              return a.nanos < b.nanos;
            });
  for (size_t i = 0; i < flows.size(); ++i) {
    const FlowPoint& f = flows[i];
    // The ring may have dropped the admission event; promote the first
    // surviving point of each query to the flow start.
    const bool first_of_query =
        i == 0 || flows[i - 1].query_id != f.query_id;
    const char ph = first_of_query ? 's' : f.ph == 's' ? 't' : f.ph;
    comma();
    Append(out,
           "{\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"name\":\"query\","
           "\"cat\":\"flow\",\"id\":%u,\"ts\":%.3f%s}",
           ph, f.lane, f.query_id, Micros(f.nanos, origin),
           ph == 'f' ? ",\"bp\":\"e\"" : "");
  }

  out += "\n]}\n";
  return out;
}

namespace {

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names use
/// '.'-separated segments and '-' inside words; both map to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "aqe_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.counters.size() * 64 +
              snapshot.histograms.size() * 512 + 1024);
  for (const auto& [name, v] : snapshot.counters) {
    const std::string n = PrometheusName(name);
    Append(out, "# TYPE %s counter\n%s %llu\n", n.c_str(), n.c_str(),
           static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : snapshot.gauges) {
    const std::string n = PrometheusName(name);
    Append(out, "# TYPE %s gauge\n%s %lld\n", n.c_str(), n.c_str(),
           static_cast<long long>(v));
  }
  for (const auto& [name, h] : snapshot.histograms) {
    if (h.count == 0) continue;  // never-recorded series stay out of exports
    const std::string n = PrometheusName(name);
    Append(out, "# TYPE %s histogram\n", n.c_str());
    uint64_t cum = 0;
    for (const auto& [upper, count] : h.buckets) {
      cum += count;
      Append(out, "%s_bucket{le=\"%llu\"} %llu\n", n.c_str(),
             static_cast<unsigned long long>(upper),
             static_cast<unsigned long long>(cum));
    }
    Append(out, "%s_bucket{le=\"+Inf\"} %llu\n", n.c_str(),
           static_cast<unsigned long long>(h.count));
    Append(out, "%s_sum %llu\n", n.c_str(),
           static_cast<unsigned long long>(h.sum));
    Append(out, "%s_count %llu\n", n.c_str(),
           static_cast<unsigned long long>(h.count));
  }
  return out;
}

std::string RenderTextTrace(const TraceSnapshot& snapshot, int num_lanes,
                            int width) {
  const int64_t origin = snapshot.origin_nanos;
  int64_t horizon = 0;
  size_t drawable = 0;
  for (const auto& lane : snapshot.lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.kind != TraceEventKind::kMorsel &&
          e.kind != TraceEventKind::kCompile) {
        continue;
      }
      horizon = std::max(horizon, e.end_nanos - origin);
      ++drawable;
    }
  }
  if (drawable == 0) return "(empty trace)\n";
  if (horizon == 0) horizon = 1;

  std::vector<std::string> lanes(static_cast<size_t>(num_lanes),
                                 std::string(static_cast<size_t>(width), '.'));
  for (const auto& lane : snapshot.lanes) {
    if (lane.lane < 0 || lane.lane >= num_lanes) continue;
    std::string& row = lanes[static_cast<size_t>(lane.lane)];
    for (const TraceEvent& e : lane.events) {
      char symbol;
      if (e.kind == TraceEventKind::kCompile) {
        symbol = '#';
      } else if (e.kind == TraceEventKind::kMorsel) {
        const char digit = static_cast<char>('0' + e.pipeline_id % 10);
        symbol = static_cast<ExecMode>(e.detail) == ExecMode::kBytecode
                     ? digit
                     : static_cast<char>('A' + e.pipeline_id % 10);
      } else {
        continue;
      }
      int from =
          static_cast<int>((e.start_nanos - origin) * width / horizon);
      int to = static_cast<int>((e.end_nanos - origin) * width / horizon);
      from = std::clamp(from, 0, width - 1);
      to = std::clamp(to, from, width - 1);
      for (int c = from; c <= to; ++c) {
        row[static_cast<size_t>(c)] = symbol;
      }
    }
  }
  std::string out;
  out += "time ->  (digits: interpreted morsels by pipeline; letters: "
         "compiled morsels; '#': compilation)\n";
  char label[32];
  for (int t = 0; t < num_lanes; ++t) {
    std::snprintf(label, sizeof(label), "thread %d |", t);
    out += label;
    out += lanes[static_cast<size_t>(t)];
    out += "|\n";
  }
  Append(out, "total: %.2f ms\n", static_cast<double>(horizon) / 1e6);
  return out;
}

}  // namespace aqe
