// `design` workload: the greedy configuration search (Algorithm 4.1), both
// variants, single-threaded, on two schemas whose costs split differently
// between translation and planning:
//  - IMDB with the paper's Appendix-A statistics and the fig10 workload;
//  - auction with statistics collected from a seeded document and the
//    `bidding` workload.
// All of its time goes to core, mapping, translate and optimizer.
//
// The traced phase replays each greedy iteration's neighbourhood through
// the same public calls the search makes, with a span around each, and
// checks that the replay lands on the search's configuration, cost and
// counters.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "bench.h"
#include "auction/auction.h"
#include "core/search.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "translate/translate.h"
#include "xml/writer.h"
#include "xschema/annotate.h"
#include "xschema/fingerprint.h"
#include "xschema/stats_collector.h"

namespace legodb::perfbench {

namespace {

struct DesignInput {
  const char* name;
  xs::Schema annotated;
  core::Workload workload;
};

struct DesignSetup {
  std::vector<DesignInput> inputs;  // imdb, auction
  size_t auction_xml_bytes = 0;
};

DesignSetup Setup(uint64_t seed) {
  DesignSetup setup;
  core::Workload fig10;
  for (const char* q : {"Q8", "Q9", "Q11", "Q12", "Q13", "Q15", "Q16", "Q17"}) {
    Check(fig10.Add(q, imdb::QueryText(q), 1), "fig10 workload");
  }
  setup.inputs.push_back(
      DesignInput{"imdb",
                  xs::AnnotateSchema(Unwrap(imdb::Schema(), "imdb schema"),
                                     Unwrap(imdb::Stats(), "imdb stats")),
                  std::move(fig10)});

  auction::AuctionScale scale;
  scale.seed = seed;
  xml::Document doc = auction::Generate(scale);
  setup.auction_xml_bytes = xml::Serialize(doc).size();
  xs::StatsCollector collector;
  collector.AddDocument(doc);
  setup.inputs.push_back(DesignInput{
      "auction",
      xs::AnnotateSchema(Unwrap(auction::Schema(), "auction schema"),
                         collector.Finish()),
      Unwrap(auction::MakeWorkload("bidding"), "bidding workload")});
  return setup;
}

core::SearchOptions Variant(bool so) {
  core::SearchOptions options =
      so ? core::GreedySoOptions() : core::GreedySiOptions();
  options.threads = 1;
  return options;
}

// What a search must reproduce, round after round and in the replay.
struct SearchOutcome {
  uint64_t fingerprint = 0;
  double cost = 0;
  int64_t schemas_costed = 0;
  int64_t dedup_hits = 0;
  int64_t cost_evaluations = 0;
  int64_t cache_hits = 0;
  int64_t descriptors = 0;

  bool operator==(const SearchOutcome&) const = default;
};

SearchOutcome OutcomeOf(const core::SearchResult& r) {
  return SearchOutcome{xs::FingerprintSchema(r.best_schema),
                       r.best_cost,
                       r.stats.schemas_costed,
                       r.stats.dedup_hits,
                       r.stats.cost_evaluations,
                       r.stats.cache_hits,
                       r.stats.descriptors_enumerated};
}

// Costs one configuration the way the search's cached coster does: map,
// translate every query, key it on the translated SQL plus the touched
// tables' statistics, and plan only on a key miss.
class ReplayCoster {
 public:
  ReplayCoster(const core::Workload& workload, Tracer* tracer,
               SearchOutcome* counts)
      : workload_(workload),
        tracer_(tracer),
        counts_(counts),
        caches_(workload.queries.size()) {}

  StatusOr<double> Cost(const xs::Schema& pschema) {
    ++counts_->schemas_costed;
    map::Mapping mapping;
    {
      ScopedSpan span(tracer_, "mapping.map");
      LEGODB_ASSIGN_OR_RETURN(mapping, map::MapSchema(pschema));
    }
    opt::Optimizer optimizer(mapping.catalog(), params_);
    double total = 0;
    for (size_t i = 0; i < workload_.queries.size(); ++i) {
      const core::WorkloadQuery& wq = workload_.queries[i];
      opt::RelQuery rq;
      {
        ScopedSpan span(tracer_, "translate.query");
        LEGODB_ASSIGN_OR_RETURN(rq, xlat::TranslateQuery(wq.query, mapping));
      }
      uint64_t key;
      {
        ScopedSpan span(tracer_, "core.cache_key");
        key = core::CostCacheFingerprint(rq, mapping.catalog());
      }
      auto it = caches_[i].find(key);
      if (it != caches_[i].end()) {
        ++counts_->cache_hits;
        total += wq.weight * it->second;
        continue;
      }
      double cost;
      {
        ScopedSpan span(tracer_, "optimizer.plan");
        LEGODB_ASSIGN_OR_RETURN(opt::PlannedQuery planned,
                                optimizer.PlanQuery(rq));
        cost = planned.total_cost;
      }
      ++counts_->cost_evaluations;
      caches_[i].emplace(key, cost);
      total += wq.weight * cost;
    }
    return total;
  }

 private:
  const core::Workload& workload_;
  opt::CostParams params_;
  Tracer* tracer_;
  SearchOutcome* counts_;
  std::vector<std::map<uint64_t, double>> caches_;
};

// Algorithm 4.1 with beam width 1, no budgets and no failpoints — the
// configuration Variant() runs — replayed through the public calls.
StatusOr<SearchOutcome> ReplaySearch(const DesignInput& input,
                                     const core::SearchOptions& options,
                                     Tracer* tracer) {
  SearchOutcome out;
  ReplayCoster coster(input.workload, tracer, &out);
  xs::Schema best;
  {
    ScopedSpan span(tracer, "pschema.start");
    best = options.start == core::SearchOptions::Start::kAllOutlined
               ? ps::AllOutlined(input.annotated)
               : ps::AllInlined(input.annotated);
  }
  LEGODB_ASSIGN_OR_RETURN(double best_cost, coster.Cost(best));
  std::set<uint64_t> seen;
  {
    ScopedSpan span(tracer, "core.fingerprint");
    seen.insert(xs::FingerprintSchema(best));
  }
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    std::vector<core::TransformDescriptor> descs;
    {
      ScopedSpan span(tracer, "core.enumerate");
      descs = core::EnumerateTransformations(best, options.transforms);
    }
    out.descriptors += static_cast<int64_t>(descs.size());
    std::vector<xs::Schema> candidates;
    for (const core::TransformDescriptor& desc : descs) {
      StatusOr<xs::Schema> next = [&] {
        ScopedSpan span(tracer, "core.apply");
        return core::ApplyTransformation(best, desc);
      }();
      LEGODB_RETURN_IF_ERROR(next.status());
      uint64_t fp;
      {
        ScopedSpan span(tracer, "core.fingerprint");
        fp = xs::FingerprintSchema(*next);
      }
      if (seen.insert(fp).second) {
        candidates.push_back(std::move(next).value());
      } else {
        ++out.dedup_hits;
      }
    }
    // The search keeps the cheapest neighbour by sorting (cost, candidate)
    // pairs with std::sort, which is not stable; sorting (cost, index)
    // pairs with the same comparator performs the same permutation, so
    // ties resolve to the same candidate.
    std::vector<std::pair<double, size_t>> costed;
    for (size_t k = 0; k < candidates.size(); ++k) {
      LEGODB_ASSIGN_OR_RETURN(double cost, coster.Cost(candidates[k]));
      costed.emplace_back(cost, k);
    }
    if (costed.empty()) break;
    double iter_best = costed[0].first;
    for (const auto& c : costed) iter_best = std::min(iter_best, c.first);
    if (!(iter_best < best_cost * (1.0 - options.min_relative_improvement))) {
      break;
    }
    std::sort(costed.begin(), costed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    best_cost = costed[0].first;
    best = std::move(candidates[costed[0].second]);
  }
  out.fingerprint = xs::FingerprintSchema(best);
  out.cost = best_cost;
  return out;
}

std::string Describe(const SearchOutcome& o) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "fingerprint=%016llx cost=%.17g costed=%lld dedup=%lld "
                "evals=%lld hits=%lld descriptors=%lld",
                static_cast<unsigned long long>(o.fingerprint), o.cost,
                static_cast<long long>(o.schemas_costed),
                static_cast<long long>(o.dedup_hits),
                static_cast<long long>(o.cost_evaluations),
                static_cast<long long>(o.cache_hits),
                static_cast<long long>(o.descriptors));
  return buf;
}

}  // namespace

void RunDesign(const Args& args, Result* result) {
  double setup_s = 0;
  const DesignSetup setup =
      RepeatSetup([&] { return Setup(args.seed); }, &setup_s);
  for (const DesignInput& in : setup.inputs) {
    if (!in.workload.updates.empty()) {
      result->Fail(std::string(in.name) + " workload has updates; the "
                   "replay does not cost them");
      return;
    }
  }
  result->Stamp("threads", "1");
  result->Stamp("clients", "1");
  result->Stamp("xml_bytes", std::to_string(setup.auction_xml_bytes));
  result->Stamp("rows", "0");
  result->Stamp("pages", "0");

  // Reference outcome per (schema, variant) from the first round; every
  // later round and the replay must reproduce it exactly.
  std::map<std::string, SearchOutcome> reference;
  auto key = [](const DesignInput& in, bool so) {
    return std::string(in.name) + (so ? ".greedy-so" : ".greedy-si");
  };

  // Untraced rounds: each runs greedy-so then greedy-si on each schema.
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<double> pair_ms[2];
  std::vector<double> round_ms;
  int64_t searches = 0;
  int64_t phase_start = NowNs();
  while (round_ms.empty() || MsSince(phase_start) < untraced_s * 1e3) {
    double round = 0;
    for (size_t s = 0; s < setup.inputs.size(); ++s) {
      const DesignInput& in = setup.inputs[s];
      int64_t t0 = NowNs();
      for (bool so : {true, false}) {
        ++result->attempted;
        auto r = core::GreedySearch(in.annotated, in.workload,
                                    opt::CostParams(), Variant(so));
        ++searches;
        if (!r.ok()) {
          ++result->failed;
          result->Fail(key(in, so) + ": " + r.status().ToString());
          continue;
        }
        SearchOutcome o = OutcomeOf(*r);
        auto [it, first] = reference.emplace(key(in, so), o);
        if (!first && !(it->second == o)) {
          result->Fail(key(in, so) + " is not repeatable: " +
                       Describe(it->second) + " then " + Describe(o));
        }
      }
      pair_ms[s].push_back(MsSince(t0));
      round += pair_ms[s].back();
    }
    round_ms.push_back(round);
  }
  double untraced_elapsed_s = MsSince(phase_start) / 1e3;

  result->Detail("design.imdb_ms", Median(pair_ms[0]), "ms");
  result->Detail("design.auction_ms", Median(pair_ms[1]), "ms");
  result->Detail("design.rounds", static_cast<double>(round_ms.size()),
                 "count");
  if (!args.trace) {
    result->SetMetric("setup_s", setup_s);
    result->SetMetric("ops_per_s",
                      static_cast<double>(searches) / untraced_elapsed_s);
    result->SetMetric("op_a_p50_ms", Median(pair_ms[0]));
    result->SetMetric("op_b_p50_ms", Median(pair_ms[1]));
    result->SetMetric("op_c_p50_ms", Median(round_ms));
    result->SetMetric("peak_rss_mb", PeakRssMb());
    return;
  }

  // Traced rounds: the same four searches, replayed call by call.
  ZeroPerLayerMetrics(result);
  Tracer& tracer = result->trace;
  std::vector<double> traced_round_ms;
  SearchOutcome round_counts;
  phase_start = NowNs();
  while (traced_round_ms.empty() ||
         MsSince(phase_start) < (args.seconds - untraced_s) * 1e3) {
    int64_t t0 = NowNs();
    SearchOutcome counts;
    for (const DesignInput& in : setup.inputs) {
      for (bool so : {true, false}) {
        ++result->attempted;
        StatusOr<SearchOutcome> replay = [&] {
          ScopedSpan root(&tracer, "design.search");
          return ReplaySearch(in, Variant(so), &tracer);
        }();
        if (!replay.ok()) {
          ++result->failed;
          result->Fail(key(in, so) + " replay: " +
                       replay.status().ToString());
          continue;
        }
        const SearchOutcome& want = reference[key(in, so)];
        if (!(*replay == want)) {
          result->Fail(key(in, so) + " replay diverges from the search: " +
                       Describe(want) + " vs " + Describe(*replay));
        }
        counts.schemas_costed += replay->schemas_costed;
        counts.dedup_hits += replay->dedup_hits;
        counts.cost_evaluations += replay->cost_evaluations;
        counts.cache_hits += replay->cache_hits;
      }
    }
    round_counts = counts;
    traced_round_ms.push_back(MsSince(t0));
  }
  const double rounds = static_cast<double>(traced_round_ms.size());
  auto per_round_ms = [&](const char* span) {
    return tracer.TotalMs(span) / rounds;
  };
  auto per_round_count = [&](const char* span) {
    return static_cast<double>(tracer.Count(span)) / rounds;
  };
  result->SetMetric("core.enumerate_ms", per_round_ms("core.enumerate"));
  result->SetMetric("core.apply_ms", per_round_ms("core.apply"));
  result->SetMetric("core.fingerprint_ms", per_round_ms("core.fingerprint"));
  result->SetMetric("core.cache_key_ms", per_round_ms("core.cache_key"));
  result->SetMetric("core.schemas_costed",
                    static_cast<double>(round_counts.schemas_costed));
  result->SetMetric("core.dedup_hits",
                    static_cast<double>(round_counts.dedup_hits));
  const double lookups = static_cast<double>(round_counts.cache_hits +
                                             round_counts.cost_evaluations);
  const double hits = static_cast<double>(round_counts.cache_hits);
  result->SetMetric("core.cost_cache_hit_ratio",
                    lookups == 0 ? 0 : hits / lookups);
  result->SetMetric("mapping.map_ms", per_round_ms("mapping.map"));
  result->SetMetric("mapping.calls", per_round_count("mapping.map"));
  result->SetMetric("translate.ms", per_round_ms("translate.query"));
  result->SetMetric("translate.calls", per_round_count("translate.query"));
  result->SetMetric("optimizer.plan_ms", per_round_ms("optimizer.plan"));
  result->SetMetric("optimizer.calls", per_round_count("optimizer.plan"));
  const double plans = per_round_count("optimizer.plan");
  result->SetMetric(
      "translate.calls_per_plan",
      plans == 0 ? 0 : per_round_count("translate.query") / plans);
  const double untraced_round = Median(round_ms);
  result->SetMetric("trace.attributed_share",
                    tracer.TopLevelMs() / rounds / untraced_round);
  result->SetMetric("trace.overhead",
                    Median(traced_round_ms) / untraced_round - 1);
}

}  // namespace legodb::perfbench
