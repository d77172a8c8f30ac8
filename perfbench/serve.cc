// `serve` workload: a prewarmed serving::QueryServer over all-inlined IMDB
// (300 shows, 120 directors, 400 actors) on the memory backend, driven by
// a closed loop of kClients threads — in-process callers that each wait
// for their reply before sending the next request.
//
// Request mix by count: 90% point lookups (Q1, Q8, Q9, Q11 with literals
// sampled from the generated document), 5% joins (Q12, Q13) and 5%
// publishing (Q15-Q17). Data and plan cache fit in memory, so nearly all
// time is in serving and engine; translate and optimizer run only on
// cache misses.
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "engine/prepared.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "serving/canonicalize.h"
#include "serving/server.h"
#include "storage/database.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/writer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"

namespace legodb::perfbench {

namespace {

constexpr int kClients = 3;
constexpr double kWarmupSeconds = 0.5;
constexpr int kBindingsPerTemplate = 64;
constexpr int kNumClasses = 3;
const char* const kClassNames[kNumClasses] = {"point", "join", "publish"};

// The request templates and the class each belongs to. Classes are timed
// per template: a class's p50 is the mean of its templates' medians, since
// the median of a mix of templates with different costs jumps between
// them as the mix shifts.
struct Template {
  const char* name;
  int cls;
};
constexpr Template kTemplates[] = {
    {"Q1", 0},  {"Q8", 0},  {"Q9", 0},  {"Q11", 0}, {"Q12", 1},
    {"Q13", 1}, {"Q15", 2}, {"Q16", 2}, {"Q17", 2},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

struct Request {
  std::string text;  // query text with its literal inlined
  int tmpl = 0;      // index into kTemplates
  size_t expected_rows = 0;

  const char* name() const { return kTemplates[tmpl].name; }
  int cls() const { return kTemplates[tmpl].cls; }
};

// Values of one element path across the document, e.g. every actor's
// biography/birthday — the population point-query literals come from.
std::vector<std::string> CollectValues(const xml::Document& doc,
                                       const char* entity,
                                       std::vector<const char*> path) {
  std::vector<std::string> out;
  for (const xml::Node* node : doc.root->ChildrenNamed(entity)) {
    std::vector<const xml::Node*> level = {node};
    for (const char* step : path) {
      std::vector<const xml::Node*> next;
      for (const xml::Node* n : level) {
        for (const xml::Node* c : n->ChildrenNamed(step)) next.push_back(c);
      }
      level = std::move(next);
    }
    for (const xml::Node* n : level) out.push_back(n->TextContent());
  }
  return out;
}

// The workload's request population: kBindingsPerTemplate seeded samples
// per point template (literal substituted for the template's c1), plus the
// join and publish queries.
std::vector<Request> BuildRequests(const xml::Document& doc, uint64_t seed) {
  std::vector<Request> requests;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x51);
  for (int t = 0; t < kNumTemplates; ++t) {
    const std::string name = kTemplates[t].name;
    std::string text = imdb::QueryText(name);
    if (kTemplates[t].cls != 0) {
      requests.push_back(Request{text, t, 0});
      continue;
    }
    std::vector<std::string> values;
    if (name == "Q1") {
      values = CollectValues(doc, "show", {"title"});
    } else if (name == "Q8") {
      values = CollectValues(doc, "actor", {"name"});
    } else if (name == "Q9") {
      values = CollectValues(doc, "actor", {"biography", "birthday"});
    } else {
      values = CollectValues(doc, "actor", {"played", "character"});
    }
    size_t pos = text.find("= c1");
    if (values.empty() || pos == std::string::npos) {
      Check(Status::Internal("cannot bind " + name), "bind");
    }
    for (int b = 0; b < kBindingsPerTemplate; ++b) {
      const std::string& v = values[rng.Uniform(values.size())];
      std::string bound = text;
      bound.replace(pos, 4, "= \"" + v + "\"");
      requests.push_back(Request{bound, t, 0});
    }
  }
  return requests;
}

imdb::ImdbScale Scale(int shows, int directors, int actors, uint64_t seed) {
  imdb::ImdbScale scale;
  scale.shows = shows;
  scale.directors = directors;
  scale.actors = actors;
  scale.seed = seed;
  return scale;
}

// One loaded configuration with its server.
struct ServeSetup {
  std::unique_ptr<map::Mapping> mapping;
  std::unique_ptr<store::Database> db;
  std::unique_ptr<serving::QueryServer> server;
  std::vector<Request> requests;
  std::vector<size_t> by_class[kNumClasses];  // request indices per class
  xml::Document doc;
};

ServeSetup Load(const imdb::ImdbScale& scale, uint64_t seed) {
  ServeSetup s;
  xs::Schema config = ps::AllInlined(
      xs::AnnotateSchema(Unwrap(imdb::Schema(), "imdb schema"),
                         Unwrap(imdb::Stats(), "imdb stats")));
  s.mapping = std::make_unique<map::Mapping>(
      Unwrap(map::MapSchema(config), "map all-inlined"));
  s.doc = imdb::Generate(scale);
  s.db = std::make_unique<store::Database>(s.mapping->catalog());
  Check(store::ShredDocument(s.doc, *s.mapping, s.db.get()), "shred");
  s.server =
      std::make_unique<serving::QueryServer>(s.db.get(), s.mapping.get());
  Check(s.server->Prewarm(), "prewarm");
  s.requests = BuildRequests(s.doc, seed);
  for (size_t i = 0; i < s.requests.size(); ++i) {
    s.by_class[s.requests[i].cls()].push_back(i);
  }
  for (const Request& r : s.requests) {
    Check(s.server->Serve(r.text).status(), "warm the plan cache");
  }
  return s;
}

// A served plan rebuilt outside the server, so the engine can be called
// directly: what QueryServer compiles on a miss, for one request.
struct DirectPlan {
  opt::RelQuery query;
  std::vector<opt::PhysicalPlanPtr> plans;
  engine::PreparedPrograms programs;
  std::map<std::string, Value> params;
};

StatusOr<DirectPlan> Prepare(const ServeSetup& s, const std::string& text,
                             bool canonical) {
  DirectPlan p;
  std::string source = text;
  if (canonical) {
    serving::CanonicalQuery cq = serving::Canonicalize(text);
    source = cq.text;
    p.params = cq.bindings;
  }
  LEGODB_ASSIGN_OR_RETURN(xq::Query query, xq::ParseQuery(source));
  LEGODB_ASSIGN_OR_RETURN(p.query, xlat::TranslateQuery(query, *s.mapping));
  opt::Optimizer optimizer(s.mapping->catalog());
  LEGODB_ASSIGN_OR_RETURN(opt::PlannedQuery planned,
                          optimizer.PlanQuery(p.query));
  for (const auto& b : planned.blocks) p.plans.push_back(b.plan);
  LEGODB_ASSIGN_OR_RETURN(
      p.programs,
      engine::PreparedPrograms::Compile(s.db.get(), p.query, p.plans));
  return p;
}

StatusOr<xq::ResultSet> ExecuteDirect(const ServeSetup& s, const DirectPlan& p,
                                      engine::ExecStats* stats) {
  engine::ExecOptions exec;
  exec.prepared = &p.programs;
  engine::Executor executor(s.db.get(), p.params, exec);
  auto rs = executor.ExecuteQuery(p.query, p.plans);
  if (stats != nullptr) stats->Add(executor.stats());
  return rs;
}

// Gate 1: every request's served rows equal the uncached
// parse -> translate -> plan -> execute rows; records the expected row
// count per request and fails a point template that returns no rows for
// any of its bindings.
void GateServedVsUncached(ServeSetup* s, Result* result) {
  size_t rows_per_template[kNumTemplates] = {};
  for (Request& r : s->requests) {
    auto direct = Prepare(*s, r.text, /*canonical=*/false);
    if (!direct.ok()) {
      result->Fail(std::string(r.name()) + " uncached: " +
                   direct.status().ToString());
      continue;
    }
    auto want = ExecuteDirect(*s, *direct, nullptr);
    auto got = s->server->Serve(r.text);
    if (!want.ok() || !got.ok()) {
      result->Fail(std::string(r.name()) + " failed to execute");
      continue;
    }
    if (!got->result.SameRows(*want)) {
      result->Fail(std::string(r.name()) + ": served rows differ from the "
                   "uncached path for: " + r.text);
    }
    r.expected_rows = want->rows.size();
    rows_per_template[r.tmpl] += r.expected_rows;
  }
  for (int t = 0; t < kNumTemplates; ++t) {
    if (kTemplates[t].cls != 0) continue;
    result->Detail(std::string("serve.rows.") + kTemplates[t].name,
                   static_cast<double>(rows_per_template[t]), "count");
    if (rows_per_template[t] == 0) {
      result->Fail(std::string(kTemplates[t].name) +
                   " returned no rows for any binding");
    }
  }
}

// Gate 2: on a small seeded document, every non-publish template served
// through the cache agrees with the DOM evaluator. (At bench scale the DOM
// evaluator takes minutes on Q13.)
void GateAgainstDom(uint64_t seed, Result* result) {
  ServeSetup small = Load(Scale(30, 12, 40, seed), seed);
  for (const Request& r : small.requests) {
    if (r.cls() == 2) continue;
    auto query = xq::ParseQuery(r.text);
    if (!query.ok()) {
      result->Fail(std::string(r.name()) + " does not parse");
      continue;
    }
    auto want = xq::EvaluateOnDocument(*query, small.doc);
    auto got = small.server->Serve(r.text);
    if (!want.ok() || !got.ok()) {
      result->Fail(std::string(r.name()) + " failed on the small document");
      continue;
    }
    if (!got->result.SameRows(*want)) {
      result->Fail(std::string(r.name()) + ": served rows differ from the DOM "
                   "evaluator for: " + r.text);
    }
  }
}

// Index of the request a client sends next: 90% point, 5% join, 5%
// publish, uniform within the class.
size_t NextRequest(const ServeSetup& s, Rng* rng) {
  uint64_t u = rng->Uniform(100);
  const std::vector<size_t>& pool = s.by_class[u < 90 ? 0 : (u < 95 ? 1 : 2)];
  return pool[rng->Uniform(pool.size())];
}

struct LoopStats {
  std::vector<double> latency_ms[kNumTemplates];
  std::vector<double> hit_front_end_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::string first_error;
};

// Runs the closed loop for `seconds`; with `tracers`, client t records its
// spans into (*tracers)[t]. Returns the loop's wall time in seconds.
double ClosedLoop(ServeSetup* s, uint64_t seed, double seconds,
                  std::vector<Tracer>* tracers,
                  std::vector<LoopStats>* stats) {
  stats->assign(kClients, LoopStats());
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      LoopStats& st = (*stats)[static_cast<size_t>(t)];
      Tracer* tracer =
          tracers ? &(*tracers)[static_cast<size_t>(t)] : nullptr;
      Rng rng(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(t) + 1);
      while (NowNs() < deadline) {
        const Request& r = s->requests[NextRequest(*s, &rng)];
        ScopedSpan root(tracer, "serve.request");
        ++st.attempted;
        const int64_t t0 = NowNs();
        int span = tracer ? tracer->Begin("serving.serve") : -1;
        auto response = s->server->Serve(r.text);
        const int64_t t1 = NowNs();
        if (tracer && response.ok()) {
          // The server reports how long its front end and the executor
          // took; place them at the two ends of the serve span.
          tracer->Add("serving.front_end", t0,
                      t0 + static_cast<int64_t>(response->front_end_ms * 1e6));
          tracer->Add("engine.execute",
                      t1 - static_cast<int64_t>(response->exec_ms * 1e6), t1);
        }
        if (tracer) tracer->End(span);
        if (!response.ok()) {
          ++st.failed;
          if (st.first_error.empty()) {
            st.first_error = response.status().ToString();
          }
          continue;
        }
        if (response->result.rows.size() != r.expected_rows) {
          ++st.wrong;
          if (st.first_error.empty()) {
            st.first_error = std::string(r.name()) + " returned " +
                             std::to_string(response->result.rows.size()) +
                             " rows, expected " +
                             std::to_string(r.expected_rows);
          }
        }
        st.latency_ms[r.tmpl].push_back(static_cast<double>(t1 - t0) / 1e6);
        if (response->cache_hit) {
          st.hit_front_end_us.push_back(response->front_end_ms * 1e3);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

struct LoopSummary {
  std::vector<double> latency_ms[kNumTemplates];
  std::vector<double> all_ms;
  std::vector<double> hit_front_end_us;
  int64_t completed = 0;

  // Mean of the class's per-template medians.
  double ClassP50(int cls) const {
    double total = 0;
    int n = 0;
    for (int t = 0; t < kNumTemplates; ++t) {
      if (kTemplates[t].cls != cls) continue;
      total += Median(latency_ms[t]);
      ++n;
    }
    return total / n;
  }
  std::vector<double> ClassSamples(int cls) const {
    std::vector<double> out;
    for (int t = 0; t < kNumTemplates; ++t) {
      if (kTemplates[t].cls != cls) continue;
      out.insert(out.end(), latency_ms[t].begin(), latency_ms[t].end());
    }
    return out;
  }
};

LoopSummary Summarize(const std::vector<LoopStats>& stats, Result* result) {
  LoopSummary sum;
  for (const LoopStats& st : stats) {
    result->attempted += st.attempted;
    result->failed += st.failed;
    if (st.wrong > 0) result->Fail("wrong answer: " + st.first_error);
    if (st.failed > 0) result->errors.push_back("failed: " + st.first_error);
    for (int t = 0; t < kNumTemplates; ++t) {
      sum.latency_ms[t].insert(sum.latency_ms[t].end(),
                               st.latency_ms[t].begin(),
                               st.latency_ms[t].end());
      sum.all_ms.insert(sum.all_ms.end(), st.latency_ms[t].begin(),
                        st.latency_ms[t].end());
    }
    sum.hit_front_end_us.insert(sum.hit_front_end_us.end(),
                                st.hit_front_end_us.begin(),
                                st.hit_front_end_us.end());
  }
  sum.completed = static_cast<int64_t>(sum.all_ms.size());
  return sum;
}

double Mean(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return v.empty() ? 0 : total / static_cast<double>(v.size());
}

// Per-layer probes of the traced run, outside the closed loop: the
// canonicalizer alone, cold-cache prepares, and the engine called directly
// on the served plans.
void ProbeLayers(ServeSetup* s, uint64_t seed, Tracer* tracer,
                 Result* result) {
  for (int rep = 0; rep < 20; ++rep) {
    for (const Request& r : s->requests) {
      ScopedSpan root(tracer, "serve.probe");
      ScopedSpan span(tracer, "serving.canonicalize");
      serving::Canonicalize(r.text);
    }
  }
  result->SetMetric("serving.canonicalize_us",
                    Median(tracer->DurationsMs("serving.canonicalize")) * 1e3);

  std::vector<double> prepare_ms;
  for (int rep = 0; rep < 5; ++rep) {
    serving::QueryServer cold(s->db.get(), s->mapping.get());
    for (const Request& r : s->requests) {
      auto response = cold.Serve(r.text);
      if (response.ok() && !response->cache_hit) {
        prepare_ms.push_back(response->front_end_ms);
      }
    }
  }
  result->SetMetric("serving.prepare_ms", Median(prepare_ms));

  std::vector<std::optional<DirectPlan>> plans(s->requests.size());
  LoopSummary direct;  // engine time per template, same mix as the loop
  engine::ExecStats stats;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x77);
  constexpr int kExecutions = 1000;
  for (int i = 0; i < kExecutions; ++i) {
    const size_t k = NextRequest(*s, &rng);
    const Request& r = s->requests[k];
    std::optional<DirectPlan>& plan = plans[k];
    if (!plan) {
      auto p = Prepare(*s, r.text, /*canonical=*/true);
      if (!p.ok()) {
        result->Fail("direct prepare: " + p.status().ToString());
        return;
      }
      plan.emplace(std::move(p).value());
    }
    const int64_t t0 = NowNs();
    StatusOr<xq::ResultSet> rs = [&] {
      ScopedSpan root(tracer, "serve.probe");
      ScopedSpan span(tracer, "engine.execute_direct");
      return ExecuteDirect(*s, *plan, &stats);
    }();
    direct.latency_ms[r.tmpl].push_back(MsSince(t0));
    if (!rs.ok() || rs->rows.size() != r.expected_rows) {
      result->Fail("direct execution of " + std::string(r.name()) +
                   " disagrees");
    }
  }
  for (int c = 0; c < kNumClasses; ++c) {
    result->SetMetric(std::string("engine.exec_ms.") + kClassNames[c],
                      direct.ClassP50(c));
  }
  result->SetMetric("engine.tuples_per_row",
                    stats.rows_out == 0
                        ? 0
                        : stats.tuples_processed / stats.rows_out);
  result->SetMetric("engine.seeks", stats.seeks / kExecutions);
  result->SetMetric("engine.bytes_read", stats.bytes_read / kExecutions);
}

}  // namespace

void RunServe(const Args& args, Result* result) {
  const imdb::ImdbScale scale = Scale(300, 120, 400, args.seed);
  double setup_s = 0;
  ServeSetup s = RepeatSetup([&] { return Load(scale, args.seed); }, &setup_s);
  result->Stamp("clients", std::to_string(kClients));
  result->Stamp("backend", "memory");
  result->Stamp("xml_bytes", std::to_string(xml::Serialize(s.doc).size()));
  result->Stamp("rows", std::to_string(s.db->TotalRows()));
  result->Stamp("pages", "0");
  result->Stamp("requests_in_pool", std::to_string(s.requests.size()));

  GateServedVsUncached(&s, result);
  GateAgainstDom(args.seed, result);
  if (!result->correct) return;  // no timing of wrong answers

  // Untimed warm-up: lets client threads, allocator arenas and caches
  // settle before the measured loop.
  std::vector<LoopStats> stats;
  ClosedLoop(&s, args.seed + 2, kWarmupSeconds, nullptr, &stats);
  Summarize(stats, result);  // counts warm-up requests and checks answers
  // The server's footprint: data, indexes, column shadows, plan cache and
  // what executing every template allocates, before the timed loop's
  // latency buffers grow with its request count.
  const double peak_rss_mb = PeakRssMb();
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  double elapsed = ClosedLoop(&s, args.seed, untraced_s, nullptr, &stats);
  LoopSummary loop = Summarize(stats, result);
  const double qps = static_cast<double>(loop.completed) / elapsed;
  result->Detail("serve.qps", qps, "1/s");
  for (int c = 0; c < kNumClasses; ++c) {
    std::string prefix = std::string("serve.") + kClassNames[c];
    std::vector<double> samples = loop.ClassSamples(c);
    result->Detail(prefix + "_p50_ms", loop.ClassP50(c), "ms");
    result->Detail(prefix + "_p99_ms", Quantile(samples, 0.99), "ms");
    result->Detail(prefix + "_requests", static_cast<double>(samples.size()),
                   "count");
  }
  if (!args.trace) {
    result->SetMetric("setup_s", setup_s);
    result->SetMetric("ops_per_s", qps);
    result->SetMetric("op_a_p50_ms", loop.ClassP50(0));
    result->SetMetric("op_b_p50_ms", loop.ClassP50(1));
    result->SetMetric("op_c_p50_ms", loop.ClassP50(2));
    result->SetMetric("peak_rss_mb", peak_rss_mb);
    return;
  }

  ZeroPerLayerMetrics(result);
  std::vector<Tracer> tracers;
  for (int t = 0; t < kClients; ++t) tracers.emplace_back(t);
  const double traced_elapsed = ClosedLoop(
      &s, args.seed + 1, args.seconds - untraced_s, &tracers, &stats);
  LoopSummary traced = Summarize(stats, result);
  Tracer& tracer = result->trace;
  for (const Tracer& t : tracers) tracer.Merge(t);
  result->SetMetric("serving.front_end_us", Median(traced.hit_front_end_us));
  result->SetMetric("serving.plan_cache_hit_rate",
                    s.server->CacheStats().HitRate());
  const double untraced_mean = Mean(loop.all_ms);
  result->SetMetric("trace.attributed_share",
                    Mean(tracer.DurationsMs("serving.serve")) / untraced_mean);
  // Tracing cost shows as lost throughput of the same closed loop.
  const double traced_qps = static_cast<double>(traced.completed) /
                            traced_elapsed;
  result->SetMetric("trace.overhead", qps / traced_qps - 1);
  ProbeLayers(&s, args.seed, &tracer, result);
}

}  // namespace legodb::perfbench
