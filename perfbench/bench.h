#ifndef LEGODB_PERFBENCH_BENCH_H_
#define LEGODB_PERFBENCH_BENCH_H_

// Shared pieces of the LegoDB benchmark driver (legobench): run arguments,
// the result record every workload fills, sample statistics, and the
// in-memory span tracer used by traced runs.
//
// Timed runs never install an obs::Registry: a registry switches the
// executor onto its profiled operator path, so the engine would not run
// the code users run. Traced runs record their spans here instead, around
// the calls the driver makes into each layer's public functions.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace legodb::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;   // where the report and spans go; "" = nowhere
  std::string revision;  // source revision, stamped into the provenance
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for an
// empty one.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// One span: a call into a layer, named "<layer>.<call>". `parent` is the
// index of the enclosing span in the same tracer, or -1.
struct SpanRecord {
  const char* name;  // string literal
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int32_t thread;
};

// Span recorder for one thread. Spans nest by scope; the first level under
// a root span marks the calls the driver makes into the layers, so
// TopLevelMs() is the layer-attributed part of the root spans' time.
// Not thread-safe: each client thread owns one and they are merged after
// the threads are joined.
class Tracer {
 public:
  explicit Tracer(int thread = 0) : thread_(thread) {}

  int Begin(const char* name);
  void End(int id);
  // Records an already-timed child of the innermost open span.
  void Add(const char* name, int64_t start_ns, int64_t end_ns);

  // Summed duration of the spans named `name`, and their count.
  double TotalMs(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  // Durations (ms) of every span named `name`, in recording order.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Summed duration of the direct children of root spans.
  double TopLevelMs() const;

  void Merge(const Tracer& other);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null tracer records nothing, so untraced code paths take
// the same calls with one extra branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// What a workload hands back. `metrics` holds exactly the names the
// benchmark declares for the run kind (end-to-end for untraced runs,
// per-layer for traced ones); `details` holds the workload's own named
// figures, printed for people but not part of the machine-read result.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<std::pair<std::string, std::string>> provenance;
  Tracer trace;  // merged spans of a traced run

  void Fail(const std::string& what);  // marks the run incorrect
  // Units come from the benchmark's declarations (see legobench.cc).
  void SetMetric(const std::string& name, double value);
  void Detail(const std::string& name, double value, const std::string& unit);
  void Stamp(const std::string& key, const std::string& value);
};

// Unwraps a setup-time call; a failure there means the benchmark cannot
// run at all, so it aborts with the status.
void Check(const Status& status, const char* what);
template <typename T>
T Unwrap(StatusOr<T> value, const char* what) {
  Check(value.status(), what);
  return std::move(value).value();
}

// Process peak resident set size, MB.
double PeakRssMb();

// Fills every per-layer metric the benchmark declares, 0 for layers the
// workload leaves idle; workloads then overwrite what they measured.
void ZeroPerLayerMetrics(Result* result);

// The three workloads. Each sets itself up several times (reporting the
// median as setup_s), runs its correctness gates, then measures for
// args.seconds; a traced run splits that time between an untraced and a
// traced phase so it can report attribution and tracing overhead.
void RunDesign(const Args& args, Result* result);
void RunServe(const Args& args, Result* result);
void RunIngest(const Args& args, Result* result);

// Runs `setup` kSetupRuns times, freeing each result before the next, and
// returns the last one; *median_s gets the median wall time (setup_s).
inline constexpr int kSetupRuns = 5;
template <typename F>
auto RepeatSetup(F setup, double* median_s) -> decltype(setup()) {
  std::vector<double> seconds;
  std::optional<decltype(setup())> last;
  for (int i = 0; i < kSetupRuns; ++i) {
    last.reset();
    const int64_t t0 = NowNs();
    last.emplace(setup());
    seconds.push_back(MsSince(t0) / 1e3);
  }
  *median_s = Median(std::move(seconds));
  return std::move(*last);
}

}  // namespace legodb::perfbench

#endif  // LEGODB_PERFBENCH_BENCH_H_
