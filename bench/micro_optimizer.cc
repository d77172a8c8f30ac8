// Google-benchmark microbenchmarks of the mapping-engine components: schema
// mapping, query translation, optimizer planning, transformation
// enumeration, and one full GetPSchemaCost evaluation — the inner-loop
// operations whose latency bounds greedy-search time (the paper reports
// ~3 seconds per iteration on 2001 hardware).
//
// `--obs-out=FILE` writes an obs report with one gauge per benchmark,
// `<benchmark>.real_ns` (wall time per iteration), for bench_report. Any
// flag that is neither that nor a Google Benchmark flag exits 2 with a
// usage line.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/cost.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "translate/translate.h"
#include "xquery/parser.h"

namespace {

using namespace legodb;

void BM_MapSchema(benchmark::State& state) {
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  for (auto _ : state) {
    auto mapping = map::MapSchema(config);
    benchmark::DoNotOptimize(mapping);
  }
}
BENCHMARK(BM_MapSchema);

void BM_TranslateLookup(benchmark::State& state) {
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q13")), "parse");
  for (auto _ : state) {
    auto rq = xlat::TranslateQuery(query, mapping);
    benchmark::DoNotOptimize(rq);
  }
}
BENCHMARK(BM_TranslateLookup);

void BM_PlanJoinQuery(benchmark::State& state) {
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q13")), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  for (auto _ : state) {
    auto planned = optimizer.PlanQuery(rq);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_PlanJoinQuery);

void BM_PlanPublishQuery(benchmark::State& state) {
  xs::Schema config = ps::AllOutlined(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q16")), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  for (auto _ : state) {
    auto planned = optimizer.PlanQuery(rq);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_PlanPublishQuery);

// Q12 on the all-outlined configuration: two 12-relation blocks, the
// widest the paper's queries give dynamic programming.
void BM_PlanOutlinedJoinQuery(benchmark::State& state) {
  xs::Schema config = ps::AllOutlined(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q12")), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  for (auto _ : state) {
    auto planned = optimizer.PlanQuery(rq);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_PlanOutlinedJoinQuery);

// A synthetic star of 12 relations (one hub joined to 11 leaves): of all
// tree-shaped join graphs at the DP limit, the one with the most pairs of
// connected halves (11264).
void BM_PlanStar12(benchmark::State& state) {
  constexpr int kRels = 12;
  rel::Catalog catalog;
  opt::QueryBlock block;
  for (int i = 0; i < kRels; ++i) {
    rel::Table t;
    t.name = "T" + std::to_string(i);
    t.key_column = t.name + "_id";
    t.row_count = 1000.0 * (i + 1);
    rel::Column key;
    key.name = t.key_column;
    key.type = rel::SqlType::Int();
    key.distincts = t.row_count;
    t.columns.push_back(key);
    if (i > 0) {
      rel::Column fk = key;
      fk.name = "hub";
      fk.distincts = 1000;
      t.columns.push_back(fk);
      t.foreign_keys.push_back(rel::ForeignKey{"hub", "T0"});
      block.joins.push_back(opt::JoinEdge{0, "T0_id", i, "hub", false});
    }
    catalog.AddTable(t);
    block.rels.push_back(opt::BaseRel{t.name, t.name});
  }
  block.output.push_back(opt::ColumnRef{0, "T0_id", ""});
  opt::Optimizer optimizer(catalog);
  for (auto _ : state) {
    auto planned = optimizer.PlanBlock(block);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_PlanStar12);

void BM_EnumerateTransformations(benchmark::State& state) {
  xs::Schema config = ps::AllOutlined(bench::AnnotatedImdb());
  core::TransformOptions options;
  options.inline_types = true;
  options.outline_elements = true;
  for (auto _ : state) {
    auto t = core::EnumerateTransformations(config, options);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_EnumerateTransformations);

void BM_GetPSchemaCost(benchmark::State& state) {
  xs::Schema config = ps::AllInlined(bench::AnnotatedImdb());
  core::Workload workload =
      bench::Unwrap(imdb::MakeWorkload("lookup"), "workload");
  opt::CostParams params;
  for (auto _ : state) {
    auto cost = core::CostSchema(config, workload, params);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_GetPSchemaCost);

// Prints the usual console table and keeps each run's wall time per
// iteration for the obs report.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      real_ns_.emplace_back(run.benchmark_name(),
                            run.real_accumulated_time * 1e9 /
                                static_cast<double>(run.iterations));
    }
  }

  const std::vector<std::pair<std::string, double>>& real_ns() const {
    return real_ns_;
  }

 private:
  std::vector<std::pair<std::string, double>> real_ns_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string obs_out = bench::TakeObsOutFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    std::fprintf(stderr,
                 "usage: micro_optimizer [--obs-out=FILE] "
                 "[--benchmark_<flag>=VALUE...]\n");
    return 2;
  }

  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // The registry is installed only after timing, so the optimizer's own
  // counters cost the benchmarks nothing.
  if (!obs_out.empty()) {
    bench::ObsSession obs_session("micro_optimizer");
    for (const auto& [name, ns] : reporter.real_ns()) {
      obs::SetGauge(name + ".real_ns", ns);
    }
    obs_session.WriteJson(obs_out);
  }
  return 0;
}
