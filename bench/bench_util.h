#ifndef LEGODB_BENCH_BENCH_UTIL_H_
#define LEGODB_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction benchmark harnesses: builders
// for the three storage configurations of Figure 4 and statistics variants
// for the parameter sweeps.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost.h"
#include "core/transforms.h"
#include "engine/executor.h"
#include "imdb/imdb.h"
#include "obs/obs.h"
#include "pschema/pschema.h"
#include "xschema/annotate.h"
#include "xschema/schema_parser.h"

namespace legodb::bench {

inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, v.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(v).value();
}

// Strict command-line parsing shared by the harnesses that take flags.
// Each harness registers its `--name=VALUE` flags and `--name` switches,
// plus at most one positional argument (the JSON output path). Parse()
// rejects anything else — an unknown flag (including `--help`), a flag
// missing its value, a malformed or out-of-range number, a second
// positional argument — by printing the problem and the usage line to
// stderr and exiting 2, before the harness has written anything.
class Flags {
 public:
  explicit Flags(std::string program) : program_(std::move(program)) {}

  Flags& Int(const char* name, int* out) {
    return Add(name, "N", [out](const char* v) {
      long long x = 0;
      if (!ParseInt(v, &x) || x < INT32_MIN || x > INT32_MAX) return false;
      *out = static_cast<int>(x);
      return true;
    });
  }
  Flags& Size(const char* name, size_t* out) {
    return Add(name, "N", [out](const char* v) {
      long long x = 0;
      if (!ParseInt(v, &x) || x < 0) return false;
      *out = static_cast<size_t>(x);
      return true;
    });
  }
  // Comma-separated integers, e.g. --threads=1,4,8.
  Flags& IntList(const char* name, std::vector<int>* out) {
    return Add(name, "N,N,...", [out](const char* v) {
      std::vector<int> list;
      std::string text = v;
      size_t start = 0;
      while (true) {
        size_t comma = text.find(',', start);
        long long x = 0;
        if (!ParseInt(text.substr(start, comma - start).c_str(), &x) ||
            x < INT32_MIN || x > INT32_MAX) {
          return false;
        }
        list.push_back(static_cast<int>(x));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      *out = std::move(list);
      return true;
    });
  }
  // One of `choices`, e.g. --backend=mem|disk.
  Flags& Choice(const char* name, std::vector<std::string> choices,
                std::string* out) {
    std::string metavar;
    for (const std::string& c : choices) {
      metavar += (metavar.empty() ? "" : "|") + c;
    }
    return Add(name, metavar, [choices, out](const char* v) {
      for (const std::string& c : choices) {
        if (c == v) {
          *out = c;
          return true;
        }
      }
      return false;
    });
  }
  Flags& Switch(const char* name, bool* out) {
    flags_.push_back({name, "", [out](const char*) {
                        *out = true;
                        return true;
                      }});
    return *this;
  }
  Flags& Positional(const char* metavar, std::string* out) {
    positional_metavar_ = metavar;
    positional_ = out;
    return *this;
  }

  void Parse(int argc, char** argv) const {
    bool have_positional = false;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("-", 0) != 0) {
        if (positional_ == nullptr || have_positional) {
          Fail("unexpected argument '" + arg + "'");
        }
        *positional_ = arg;
        have_positional = true;
        continue;
      }
      size_t eq = arg.find('=');
      std::string name = arg.substr(0, eq);
      const Flag* flag = nullptr;
      for (const Flag& f : flags_) {
        if (name == f.name) flag = &f;
      }
      if (flag == nullptr) Fail("unknown flag '" + name + "'");
      bool is_switch = flag->metavar.empty();
      if (is_switch != (eq == std::string::npos)) {
        Fail(is_switch ? "flag '" + name + "' takes no value"
                       : "flag '" + name + "' needs a value (" + name + "=" +
                             flag->metavar + ")");
      }
      const char* value = is_switch ? "" : argv[i] + eq + 1;
      if (!flag->set(value)) {
        Fail("bad value for " + name + ": '" + value + "' (expected " +
             flag->metavar + ")");
      }
    }
  }

 private:
  // Prints `problem` and the usage line, then exits 2.
  [[noreturn]] void Fail(const std::string& problem) const {
    std::string usage = "usage: " + program_;
    for (const Flag& f : flags_) {
      usage += " [" + f.name + (f.metavar.empty() ? "" : "=" + f.metavar) +
               "]";
    }
    if (positional_ != nullptr) usage += " [" + positional_metavar_ + "]";
    std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), problem.c_str(),
                 usage.c_str());
    std::exit(2);
  }

  struct Flag {
    std::string name;
    std::string metavar;  // empty for switches
    std::function<bool(const char*)> set;
  };

  Flags& Add(const char* name, std::string metavar,
             std::function<bool(const char*)> set) {
    flags_.push_back({name, std::move(metavar), std::move(set)});
    return *this;
  }

  // Whole-string base-10 integer; rejects empty, trailing junk, overflow.
  static bool ParseInt(const char* text, long long* out) {
    if (*text == '\0') return false;
    errno = 0;
    char* end = nullptr;
    long long x = std::strtoll(text, &end, 10);
    if (errno != 0 || *end != '\0') return false;
    *out = x;
    return true;
  }

  std::string program_;
  std::vector<Flag> flags_;
  std::string positional_metavar_;
  std::string* positional_ = nullptr;
};

// Best-effort git revision of the working tree ("describe --always
// --dirty"), or "unknown" outside a checkout / without git. Shelling out is
// fine here: this runs once per bench process, not per measurement.
inline std::string GitDescribe() {
  std::string out;
#if !defined(_WIN32)
  if (FILE* pipe =
          popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    pclose(pipe);
  }
#endif
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

inline const char* BuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

// Removes `--obs-out=FILE` from argv and returns FILE ("" when absent), so
// a Google Benchmark harness can take that flag and hand the rest to
// benchmark::Initialize, which rejects flags it does not know.
inline std::string TakeObsOutFlag(int* argc, char** argv) {
  std::string obs_out;
  int out_argc = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]).rfind("--obs-out=", 0) == 0) {
      obs_out = argv[i] + 10;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  *argc = out_argc;
  return obs_out;
}

// Installs an obs::Registry for the harness's lifetime, so spans / counters
// / histograms recorded anywhere in the pipeline (search iterations,
// optimizer planning time, translation time) accumulate here. WriteJson
// dumps the obs::Report in the same format `legodb --metrics-out` emits —
// BENCH_*.json trajectories get phase-level timings, not just totals.
//
// Every report is stamped with run provenance (workload name, git revision,
// build type, hardware threads) so `bench_report` can merge and compare
// trajectories across commits; SetMeta adds or overrides entries.
class ObsSession {
 public:
  explicit ObsSession(std::string workload = "") : scope_(&registry_) {
    SetMeta("workload", std::move(workload));
    SetMeta("git", GitDescribe());
    SetMeta("build", BuildType());
    SetMeta("hardware_threads",
            std::to_string(std::thread::hardware_concurrency()));
  }

  obs::Registry* registry() { return &registry_; }

  void SetMeta(const std::string& key, std::string value) {
    for (auto& kv : meta_) {
      if (kv.first == key) {
        kv.second = std::move(value);
        return;
      }
    }
    meta_.emplace_back(key, std::move(value));
  }

  obs::Report Snapshot() const {
    obs::Report report = registry_.Snapshot();
    for (const auto& kv : meta_) report.SetMeta(kv.first, kv.second);
    return report;
  }

  void WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    out << Snapshot().ToJson();
    std::printf("metrics report written to %s\n", path.c_str());
  }

 private:
  obs::Registry registry_;
  obs::ScopedRegistry scope_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

// Stamps the engine configuration an engine-driving bench ran with —
// batch_size (the lane count) and the client thread count(s) — so
// `bench_report` consumers can compare trajectories like-for-like. Every
// driver that executes queries should call this instead of hand-stamping a
// subset. `threads` is free-form so sweep drivers can record "1,4,8".
inline void StampEngineMeta(ObsSession* session,
                            const engine::ExecOptions& options,
                            const std::string& threads = "1") {
  session->SetMeta("batch_size", std::to_string(options.batch_size));
  session->SetMeta("threads", threads);
}

// Raw IMDB schema (un-annotated).
inline xs::Schema RawImdb() {
  return Unwrap(imdb::Schema(), "parse IMDB schema");
}

// Appendix-A statistics, optionally extended with extra entries in the same
// notation (later entries override earlier ones per path+kind).
inline xs::StatsSet ImdbStats(const std::string& extra = "") {
  return Unwrap(xs::ParseStats(std::string(imdb::StatsText()) + extra),
                "parse IMDB stats");
}

inline xs::Schema AnnotatedImdb(const std::string& extra_stats = "") {
  return xs::AnnotateSchema(RawImdb(), ImdbStats(extra_stats));
}

// Applies the first enumerated transformation of `kind` (optionally
// restricted to type `in_type`); aborts if none applies.
inline xs::Schema ApplyFirst(const xs::Schema& schema,
                             core::TransformDescriptor::Kind kind,
                             const std::string& in_type = "",
                             const std::string& tag = "") {
  using Kind = core::TransformDescriptor::Kind;
  core::TransformOptions options;
  options.inline_types = false;
  options.outline_elements = false;
  options.union_distribute = kind == Kind::kUnionDistribute;
  options.union_to_options = kind == Kind::kUnionToOptions;
  options.repetition_split = kind == Kind::kRepetitionSplit;
  options.repetition_merge = kind == Kind::kRepetitionMerge;
  options.wildcard_materialize = kind == Kind::kWildcardMaterialize;
  if (!tag.empty()) options.wildcard_tags.push_back(tag);
  for (const auto& t : core::EnumerateTransformations(schema, options)) {
    if (t.kind != kind) continue;
    if (!in_type.empty() && t.type_name != in_type) continue;
    return Unwrap(core::ApplyTransformation(schema, t), "apply transformation");
  }
  std::fprintf(stderr, "FATAL: no applicable transformation found\n");
  std::exit(1);
}

// --- The three storage maps of Figure 4 -----------------------------------
//
// Configurations are built structurally from the raw schema and annotated
// with statistics as the final step, so every occurrence count / branch
// presence is statistics-driven.

// Map 1 (Fig. 4(a)): everything inlined, unions flattened to nullable
// columns — the inline-as-much-as-possible heuristic of [19].
inline xs::Schema AllInlinedConfig(const xs::Schema& raw,
                                   const xs::StatsSet& stats) {
  return xs::AnnotateSchema(ps::AllInlined(raw), stats);
}

// Map 2 (Fig. 4(b)): all-inlined, with the review wildcard partitioned into
// an <nyt> reviews table and an others table. Built by materializing the
// tag inside the Reviews type and then distributing the resulting union
// across the reviews element, so each review lands in exactly one of two
// tables (the paper's NYT'Reviews / Reviews pair).
inline xs::Schema WildcardConfig(const xs::Schema& raw,
                                 const xs::StatsSet& stats,
                                 const std::string& tag = "nyt") {
  xs::Schema base = ps::AllInlined(raw);
  xs::Schema materialized = ApplyFirst(
      base, core::TransformDescriptor::Kind::kWildcardMaterialize, "", tag);
  xs::Schema distributed = ApplyFirst(
      materialized, core::TransformDescriptor::Kind::kUnionDistribute,
      "Reviews");
  return xs::AnnotateSchema(distributed, stats);
}

// Map 3 (Fig. 4(c)): all-inlined, with the (Movie | TV) union distributed —
// Show horizontally partitioned into Show_Part1 / Show_Part2.
inline xs::Schema UnionDistributedConfig(const xs::Schema& raw,
                                         const xs::StatsSet& stats) {
  xs::Schema normalized = ps::Normalize(raw);
  xs::Schema distributed = ApplyFirst(
      normalized, core::TransformDescriptor::Kind::kUnionDistribute, "Show");
  xs::Schema inlined = ps::AllInlined(distributed, /*flatten_unions=*/false);
  return xs::AnnotateSchema(inlined, stats);
}

// Cost of one named IMDB query under a configuration.
inline double QueryCost(const xs::Schema& config, const std::string& qname,
                        const opt::CostParams& params) {
  core::Workload w;
  Check(w.Add(qname, imdb::QueryText(qname), 1.0), "parse query");
  return Unwrap(core::CostSchema(config, w, params), "cost query").total;
}

}  // namespace legodb::bench

#endif  // LEGODB_BENCH_BENCH_UTIL_H_
