// `ingest` workload: IMDB at ten times the serve scale (3000 shows, 1200
// directors, 4000 actors), serialized once during set-up. Each operation
// loads it into a fresh paged store::Database whose buffer pool holds
// kPoolPages pages — about a fifth of the data — and reads it back:
//   1. xml::ParseDocument      2. xs::ValidateDocument
//   3. store::ShredDocument    4. Database::Flush
//   5. the publish queries Q15-Q17
//   6. store::ReconstructDocument, serialized and compared byte for byte
//      with the input.
// Writes run beside reads on storage and the working set exceeds the
// pool; xml, xschema, storage and the engine's scans do the work while
// core and serving stay idle.
#include <memory>
#include <optional>

#include "bench.h"
#include "engine/executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/pager.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"
#include "xschema/validator.h"

namespace legodb::perfbench {

namespace {

constexpr size_t kPageSize = 8192;
constexpr size_t kPoolPages = 64;
const char* const kPublishQueries[] = {"Q15", "Q16", "Q17"};

struct PublishQuery {
  const char* name;
  opt::RelQuery query;
  std::vector<opt::PhysicalPlanPtr> plans;
  xq::ResultSet expected;  // rows on the memory backend (set by the gate)
};

struct IngestSetup {
  xs::Schema schema;  // the input schema documents are validated against
  std::unique_ptr<map::Mapping> mapping;
  std::string xml;
  std::vector<PublishQuery> publish;
};

IngestSetup Setup(uint64_t seed) {
  IngestSetup s;
  s.schema = Unwrap(imdb::Schema(), "imdb schema");
  s.mapping = std::make_unique<map::Mapping>(Unwrap(
      map::MapSchema(ps::AllInlined(xs::AnnotateSchema(
          s.schema, Unwrap(imdb::Stats(), "imdb stats")))),
      "map all-inlined"));
  imdb::ImdbScale scale;
  scale.shows = 3000;
  scale.directors = 1200;
  scale.actors = 4000;
  scale.seed = seed;
  s.xml = xml::Serialize(imdb::Generate(scale));
  opt::Optimizer optimizer(s.mapping->catalog());
  for (const char* name : kPublishQueries) {
    PublishQuery q{name, {}, {}, {}};
    q.query = Unwrap(
        xlat::TranslateQuery(
            Unwrap(xq::ParseQuery(imdb::QueryText(name)), "parse publish"),
            *s.mapping),
        "translate publish");
    for (const auto& b :
         Unwrap(optimizer.PlanQuery(q.query), "plan publish").blocks) {
      q.plans.push_back(b.plan);
    }
    s.publish.push_back(std::move(q));
  }
  return s;
}

struct OpResult {
  double load_ms = 0;         // steps 1-4
  double publish_ms = 0;      // step 5
  double reconstruct_ms = 0;  // step 6
  size_t rows = 0;
  uint32_t pages = 0;
  store::BufferPool::Stats pool;
  engine::ExecStats exec;
};

// One ingest operation; any failure or mismatch is reported on `result`.
// `storage` selects the backend, so the gate can run the same steps on
// the memory backend for reference rows.
std::optional<OpResult> RunOp(IngestSetup* s,
                              const store::StorageOptions& storage,
                              Tracer* tracer, Result* result) {
  auto fail = [&](const std::string& what) {
    ++result->failed;
    result->Fail(what);
    return std::nullopt;
  };
  OpResult op;
  ScopedSpan root(tracer, "ingest.document");
  const int64_t t0 = NowNs();
  StatusOr<xml::Document> doc = [&] {
    ScopedSpan span(tracer, "xml.parse");
    return xml::ParseDocument(s->xml);
  }();
  if (!doc.ok()) return fail("parse: " + doc.status().ToString());
  {
    ScopedSpan span(tracer, "xschema.validate");
    Status st = xs::ValidateDocument(*doc, s->schema);
    if (!st.ok()) return fail("validate: " + st.ToString());
  }
  std::optional<store::Database> db;
  {
    ScopedSpan span(tracer, "storage.open");
    db.emplace(s->mapping->catalog(), storage);
  }
  {
    ScopedSpan span(tracer, "storage.shred");
    Status st = store::ShredDocument(*doc, *s->mapping, &*db);
    if (!st.ok()) return fail("shred: " + st.ToString());
  }
  {
    ScopedSpan span(tracer, "storage.flush");
    Status st = db->Flush();
    if (!st.ok()) return fail("flush: " + st.ToString());
  }
  const int64_t t1 = NowNs();
  op.load_ms = static_cast<double>(t1 - t0) / 1e6;

  for (PublishQuery& q : s->publish) {
    engine::Executor executor(&*db);
    StatusOr<xq::ResultSet> rs = [&] {
      ScopedSpan span(tracer, "engine.execute");
      return executor.ExecuteQuery(q.query, q.plans);
    }();
    if (!rs.ok()) return fail(std::string(q.name) + ": " +
                              rs.status().ToString());
    op.exec.Add(executor.stats());
    if (!db->paged()) {
      q.expected = std::move(rs).value();
    } else if (rs->rows != q.expected.rows) {
      result->Fail(std::string(q.name) +
                   " rows on the paged backend differ from the memory "
                   "backend");
    }
  }
  const int64_t t2 = NowNs();
  op.publish_ms = static_cast<double>(t2 - t1) / 1e6;

  StatusOr<xml::Document> back = [&] {
    ScopedSpan span(tracer, "storage.reconstruct");
    return store::ReconstructDocument(&*db, *s->mapping);
  }();
  if (!back.ok()) return fail("reconstruct: " + back.status().ToString());
  std::string text;
  {
    ScopedSpan span(tracer, "xml.serialize");
    text = xml::Serialize(*back);
  }
  if (text != s->xml) {
    result->Fail("reconstructed document differs from the input (" +
                 std::to_string(text.size()) + " vs " +
                 std::to_string(s->xml.size()) + " bytes)");
  }
  op.rows = db->TotalRows();
  if (db->paged()) {
    op.pages = db->pager()->page_count();
    op.pool = db->buffer_pool()->stats();
  }
  // Tearing down two DOM trees and the database is part of every load;
  // release them here so the time lands in the reconstruct phase and in
  // named spans instead of in the destructors after the operation.
  {
    ScopedSpan span(tracer, "xml.release");
    doc->root.reset();
    back->root.reset();
  }
  {
    ScopedSpan span(tracer, "storage.close");
    db.reset();
  }
  op.reconstruct_ms = MsSince(t2);
  return op;
}

}  // namespace

void RunIngest(const Args& args, Result* result) {
  double setup_s = 0;
  IngestSetup s = RepeatSetup([&] { return Setup(args.seed); }, &setup_s);
  // Each database pages to an anonymous temporary file under $TMPDIR.
  const store::StorageOptions paged =
      store::StorageOptions::Paged(kPageSize, kPoolPages);

  // Gate: the memory backend gives the reference publish rows; the first
  // paged operation must reproduce them and the input document.
  if (!RunOp(&s, store::StorageOptions::Memory(), nullptr, result)) return;
  std::optional<OpResult> gate = RunOp(&s, paged, nullptr, result);
  if (!gate || !result->correct) return;
  const double xml_mb = static_cast<double>(s.xml.size()) / 1e6;
  result->Stamp("clients", "1");
  result->Stamp("backend", "paged");
  result->Stamp("page_size", std::to_string(kPageSize));
  result->Stamp("pool_pages", std::to_string(kPoolPages));
  result->Stamp("xml_bytes", std::to_string(s.xml.size()));
  result->Stamp("rows", std::to_string(gate->rows));
  result->Stamp("pages", std::to_string(gate->pages));

  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<double> load_ms, publish_ms, reconstruct_ms, op_ms;
  int64_t ops = 0;
  const int64_t phase_start = NowNs();
  while (ops == 0 || MsSince(phase_start) < untraced_s * 1e3) {
    ++result->attempted;
    ++ops;
    const int64_t t0 = NowNs();
    std::optional<OpResult> op = RunOp(&s, paged, nullptr, result);
    if (!op) continue;
    op_ms.push_back(MsSince(t0));
    load_ms.push_back(op->load_ms);
    publish_ms.push_back(op->publish_ms);
    reconstruct_ms.push_back(op->reconstruct_ms);
  }
  const double elapsed_s = MsSince(phase_start) / 1e3;
  const double space_amp = static_cast<double>(gate->pages) *
                           static_cast<double>(kPageSize) /
                           static_cast<double>(s.xml.size());
  result->Detail("ingest.load_mb_s", xml_mb / (Median(load_ms) / 1e3),
                 "MB/s");
  result->Detail("ingest.publish_ms", Median(publish_ms), "ms");
  result->Detail("ingest.reconstruct_ms", Median(reconstruct_ms), "ms");
  result->Detail("ingest.peak_rss_mb", PeakRssMb(), "MB");
  result->Detail("ingest.space_amp", space_amp, "ratio");
  result->Detail("ingest.operations", static_cast<double>(ops), "count");
  if (!args.trace) {
    result->SetMetric("setup_s", setup_s);
    result->SetMetric("ops_per_s", static_cast<double>(ops) / elapsed_s);
    result->SetMetric("op_a_p50_ms", Median(load_ms));
    result->SetMetric("op_b_p50_ms", Median(publish_ms));
    result->SetMetric("op_c_p50_ms", Median(reconstruct_ms));
    result->SetMetric("peak_rss_mb", PeakRssMb());
    return;
  }

  ZeroPerLayerMetrics(result);
  Tracer& tracer = result->trace;
  std::vector<double> traced_op_ms;
  std::optional<OpResult> last;
  const int64_t traced_start = NowNs();
  while (traced_op_ms.empty() ||
         MsSince(traced_start) < (args.seconds - untraced_s) * 1e3) {
    ++result->attempted;
    const int64_t t0 = NowNs();
    std::optional<OpResult> op = RunOp(&s, paged, &tracer, result);
    traced_op_ms.push_back(MsSince(t0));
    if (op) last = op;
  }
  if (!last) return;
  auto median_ms = [&](const char* span) {
    return Median(tracer.DurationsMs(span));
  };
  const double traced_ops = static_cast<double>(traced_op_ms.size());
  result->SetMetric("xml.parse_ms", median_ms("xml.parse"));
  result->SetMetric("xml.serialize_ms", median_ms("xml.serialize"));
  result->SetMetric("xschema.validate_ms", median_ms("xschema.validate"));
  result->SetMetric("storage.shred_ms", median_ms("storage.shred"));
  result->SetMetric("storage.flush_ms", median_ms("storage.flush"));
  result->SetMetric("storage.reconstruct_ms",
                    median_ms("storage.reconstruct"));
  result->SetMetric("engine.exec_ms.publish",
                    tracer.TotalMs("engine.execute") / traced_ops);
  const store::BufferPool::Stats& pool = last->pool;
  result->SetMetric("storage.pool_faults", static_cast<double>(pool.faults));
  result->SetMetric("storage.pool_hits", static_cast<double>(pool.hits));
  const double pins = static_cast<double>(pool.hits + pool.faults);
  result->SetMetric("storage.pool_hit_rate",
                    pins == 0 ? 0 : static_cast<double>(pool.hits) / pins);
  result->SetMetric("storage.pool_evictions",
                    static_cast<double>(pool.evictions));
  result->SetMetric("storage.bytes_read", static_cast<double>(pool.bytes_read));
  result->SetMetric("storage.bytes_written",
                    static_cast<double>(pool.bytes_written));
  result->SetMetric("storage.space_amp", space_amp);
  const engine::ExecStats& exec = last->exec;
  result->SetMetric("engine.tuples_per_row",
                    exec.rows_out == 0 ? 0
                                       : exec.tuples_processed / exec.rows_out);
  result->SetMetric("engine.seeks", exec.seeks);
  result->SetMetric("engine.bytes_read", exec.bytes_read);
  const double untraced_op = Median(op_ms);
  result->SetMetric("trace.attributed_share",
                    tracer.TopLevelMs() / traced_ops / untraced_op);
  result->SetMetric("trace.overhead",
                    Median(traced_op_ms) / untraced_op - 1);
}

}  // namespace legodb::perfbench
