// legobench: the LegoDB benchmark driver.
//
//   legobench --workload design|serve|ingest --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--revision TEXT]
//
// Runs one workload in this process and prints, as its last stdout line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Untraced
// runs (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics. Lines before it give the run's provenance
// and the workload's own named figures. Unknown flags and malformed values
// exit 2; a failed correctness gate or a wrong answer exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.h"

namespace legodb::perfbench {

namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"op_a_p50_ms", "ms"},    {"op_b_p50_ms", "ms"},
    {"op_c_p50_ms", "ms"},    {"peak_rss_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"core.enumerate_ms", "ms"},
    {"core.apply_ms", "ms"},
    {"core.fingerprint_ms", "ms"},
    {"core.cache_key_ms", "ms"},
    {"core.schemas_costed", "count"},
    {"core.dedup_hits", "count"},
    {"core.cost_cache_hit_ratio", "ratio"},
    {"mapping.map_ms", "ms"},
    {"mapping.calls", "count"},
    {"translate.ms", "ms"},
    {"translate.calls", "count"},
    {"translate.calls_per_plan", "ratio"},
    {"optimizer.plan_ms", "ms"},
    {"optimizer.calls", "count"},
    {"serving.canonicalize_us", "us"},
    {"serving.front_end_us", "us"},
    {"serving.plan_cache_hit_rate", "ratio"},
    {"serving.prepare_ms", "ms"},
    {"engine.exec_ms.point", "ms"},
    {"engine.exec_ms.join", "ms"},
    {"engine.exec_ms.publish", "ms"},
    {"engine.tuples_per_row", "ratio"},
    {"engine.seeks", "count"},
    {"engine.bytes_read", "B"},
    {"xml.parse_ms", "ms"},
    {"xml.serialize_ms", "ms"},
    {"xschema.validate_ms", "ms"},
    {"storage.shred_ms", "ms"},
    {"storage.flush_ms", "ms"},
    {"storage.bytes_written", "B"},
    {"storage.reconstruct_ms", "ms"},
    {"storage.pool_faults", "count"},
    {"storage.pool_hits", "count"},
    {"storage.pool_hit_rate", "ratio"},
    {"storage.pool_evictions", "count"},
    {"storage.bytes_read", "B"},
    {"storage.space_amp", "ratio"},
    {"trace.attributed_share", "ratio"},
    {"trace.overhead", "ratio"},
};

// Traced runs record every span in memory; the spans file holds at most
// this many of them (the serve loop records hundreds of thousands).
constexpr size_t kMaxWrittenSpans = 100000;

const char kUsage[] =
    "usage: legobench --workload design|serve|ingest --seed N --seconds S "
    "--trace 0|1 [--out-dir DIR] [--revision TEXT]\n";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "legobench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

// Whole-string unsigned parse; rejects signs, blanks, trailing junk and
// overflow.
bool ParseUint(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (max - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    std::string value;
    size_t eq = flag.find('=');
    if (flag.rfind("--", 0) != 0) {
      UsageError("unexpected argument '" + flag + "'");
    }
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      UsageError("flag " + flag + " needs a value");
    }
    uint64_t n = 0;
    if (flag == "--workload") {
      if (value != "design" && value != "serve" && value != "ingest") {
        UsageError("unknown workload '" + value + "'");
      }
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, UINT64_MAX, &n)) {
        UsageError("--seed wants a non-negative integer, got '" + value + "'");
      }
      args.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, 3600, &n) || n < 1) {
        UsageError("--seconds wants an integer in [1, 3600], got '" + value +
                   "'");
      }
      args.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        UsageError("--trace wants 0 or 1, got '" + value + "'");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      UsageError("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    UsageError("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Result::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Keeps exactly the declared metrics of the run kind, in declared order;
// a missing or non-finite one fails the run (a driver bug, not a slow
// system).
void FinalizeMetrics(const Args& args, Result* result) {
  std::vector<Result::Metric> ordered;
  auto add = [&](const MetricDecl& d) {
    auto it = std::find_if(
        result->metrics.begin(), result->metrics.end(),
        [&](const Result::Metric& m) { return m.name == d.name; });
    if (it == result->metrics.end()) {
      result->Fail(std::string("metric ") + d.name + " was not measured");
      return;
    }
    if (!std::isfinite(it->value)) {
      result->Fail(std::string("metric ") + d.name + " is not finite");
    }
    it->unit = d.unit;
    ordered.push_back(*it);
  };
  if (args.trace) {
    for (const MetricDecl& d : kPerLayer) add(d);
  } else {
    for (const MetricDecl& d : kEndToEnd) add(d);
  }
  result->metrics = std::move(ordered);
}

void WriteReport(const Args& args, const Result& result) {
  if (args.out_dir.empty()) return;
  std::string stem = args.out_dir + "/" + args.workload +
                     (args.trace ? "-trace" : "");
  {
    std::ofstream out(stem + "-report.json");
    if (!out) {
      std::fprintf(stderr, "legobench: cannot write %s-report.json\n",
                   stem.c_str());
      return;
    }
    out << "{\"provenance\": {";
    for (size_t i = 0; i < result.provenance.size(); ++i) {
      if (i > 0) out << ", ";
      out << JsonString(result.provenance[i].first) << ": "
          << JsonString(result.provenance[i].second);
    }
    out << "},\n \"metrics\": " << MetricsJson(result.metrics)
        << ",\n \"details\": " << MetricsJson(result.details)
        << ",\n \"errors\": [";
    for (size_t i = 0; i < result.errors.size(); ++i) {
      out << (i > 0 ? ", " : "") << JsonString(result.errors[i]);
    }
    out << "]}\n";
  }
  if (!args.trace) return;
  // Spans, one array per line: [name, start_ns, end_ns, parent, thread],
  // times relative to the first span. A parent always precedes its
  // children, so writing a prefix keeps every parent index valid.
  std::ofstream out(stem + "-spans.json");
  if (!out) return;
  const auto& spans = result.trace.spans();
  const size_t written = std::min(spans.size(), kMaxWrittenSpans);
  int64_t t0 = 0;
  for (size_t i = 0; i < written; ++i) {
    t0 = i == 0 ? spans[i].start_ns : std::min(t0, spans[i].start_ns);
  }
  out << "{\"recorded\": " << spans.size() << ", \"written\": " << written
      << ",\n \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
         "\"thread\"],\n \"spans\": [";
  for (size_t i = 0; i < written; ++i) {
    const SpanRecord& s = spans[i];
    out << (i > 0 ? ",\n" : "\n") << "[\"" << s.name << "\", "
        << (s.start_ns - t0) << ", " << (s.end_ns - t0) << ", " << s.parent
        << ", " << s.thread << "]";
  }
  out << "\n]}\n";
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

int Tracer::Begin(const char* name) {
  int id = static_cast<int>(spans_.size());
  spans_.push_back(SpanRecord{name, NowNs(), 0,
                              open_.empty() ? -1 : open_.back(), thread_});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns) {
  spans_.push_back(SpanRecord{name, start_ns, end_ns,
                              open_.empty() ? -1 : open_.back(), thread_});
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (double ms : DurationsMs(name)) total += ms;
  return total;
}

int64_t Tracer::Count(const std::string& name) const {
  return static_cast<int64_t>(DurationsMs(name).size());
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double Tracer::TopLevelMs() const {
  int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].parent < 0) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

void Tracer::Merge(const Tracer& other) {
  int32_t offset = static_cast<int32_t>(spans_.size());
  for (SpanRecord s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

void Result::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 16) errors.push_back(what);
}

void Result::SetMetric(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back(Metric{name, value, ""});
}

void Result::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details.push_back(Metric{name, value, unit});
}

void Result::Stamp(const std::string& key, const std::string& value) {
  provenance.emplace_back(key, value);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "legobench: FATAL %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ZeroPerLayerMetrics(Result* result) {
  for (const MetricDecl& d : kPerLayer) result->SetMetric(d.name, 0);
}

}  // namespace legodb::perfbench

int main(int argc, char** argv) {
  using namespace legodb::perfbench;
  Args args = ParseArgs(argc, argv);
  Result result;
  result.Stamp("workload", args.workload);
  result.Stamp("seed", std::to_string(args.seed));
  result.Stamp("seconds", std::to_string(args.seconds));
  result.Stamp("trace", args.trace ? "1" : "0");
  result.Stamp("revision", args.revision.empty() ? "unknown" : args.revision);
  result.Stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
#ifdef NDEBUG
  result.Stamp("build", "release");
#else
  result.Stamp("build", "debug");
#endif

  if (args.workload == "design") {
    RunDesign(args, &result);
  } else if (args.workload == "serve") {
    RunServe(args, &result);
  } else {
    RunIngest(args, &result);
  }
  if (result.correct) FinalizeMetrics(args, &result);
  if (result.attempted < 1) result.Fail("no operation was attempted");

  for (const auto& [key, value] : result.provenance) {
    std::printf("provenance %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const Result::Metric& m : result.details) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : result.errors) {
    std::printf("ERROR %s\n", e.c_str());
  }
  WriteReport(args, result);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              MetricsJson(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
