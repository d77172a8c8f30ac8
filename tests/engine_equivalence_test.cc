// Pipelined-vs-reference executor equivalence: across the fig10 (lookup +
// publish), fig13 (union-distribution), and fig14 (repetition) workload
// queries, the batched pipelined Executor must return *bit-identical*
// ResultSets to the seed materializing ReferenceExecutor — same labels,
// same rows, same row order — at every batch size, and when many executors
// serve the same Database concurrently (run under --tsan to check the
// index registry's synchronization).
#include <gtest/gtest.h>

#include <thread>

#include "engine/executor.h"
#include "engine/reference_executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"

namespace legodb {
namespace {

// The union of the fig10 (Q8, Q9, Q11-Q13 lookup; Q15-Q17 publish), fig13
// (Q4-Q7, Q13, Q16, Q19), and fig14 (aka lookup, Q16) workload queries.
struct WorkloadQuery {
  const char* name;
  std::string text;
};

std::vector<WorkloadQuery> WorkloadQueries() {
  std::vector<WorkloadQuery> queries;
  for (const char* name : {"Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q11", "Q12",
                           "Q13", "Q15", "Q16", "Q17", "Q19"}) {
    queries.push_back({name, imdb::QueryText(name)});
  }
  queries.push_back({"aka_lookup",
                     R"(FOR $v IN document("imdbdata")/imdb/show
                        WHERE $v/title = c1
                        RETURN $v/aka)"});
  return queries;
}

// One prepared query: translated and planned against the shared mapping.
struct PreparedQuery {
  std::string name;
  opt::RelQuery rq;
  std::vector<opt::PhysicalPlanPtr> plans;
};

class ExecutorEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto schema = imdb::Schema();
    ASSERT_TRUE(schema.ok());
    auto stats = imdb::Stats();
    ASSERT_TRUE(stats.ok());
    xs::Schema config =
        ps::AllInlined(xs::AnnotateSchema(schema.value(), stats.value()));
    auto mapping = map::MapSchema(config);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    mapping_ = new map::Mapping(std::move(mapping).value());

    imdb::ImdbScale scale;
    scale.shows = 80;
    scale.directors = 30;
    scale.actors = 60;
    scale.seed = 99;
    doc_ = new xml::Document(imdb::Generate(scale));

    opt::Optimizer optimizer(mapping_->catalog());
    prepared_ = new std::vector<PreparedQuery>();
    for (const WorkloadQuery& wq : WorkloadQueries()) {
      auto query = xq::ParseQuery(wq.text);
      ASSERT_TRUE(query.ok()) << wq.name << ": "
                              << query.status().ToString();
      auto rq = xlat::TranslateQuery(query.value(), *mapping_);
      ASSERT_TRUE(rq.ok()) << wq.name << ": " << rq.status().ToString();
      auto planned = optimizer.PlanQuery(rq.value());
      ASSERT_TRUE(planned.ok()) << wq.name << ": "
                                << planned.status().ToString();
      PreparedQuery p;
      p.name = wq.name;
      p.rq = std::move(rq).value();
      for (const auto& b : planned->blocks) p.plans.push_back(b.plan);
      prepared_->push_back(std::move(p));
    }
  }

  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
    delete doc_;
    doc_ = nullptr;
    delete mapping_;
    mapping_ = nullptr;
  }

  // A freshly shredded database (per test, so index-registry state starts
  // empty and concurrent tests exercise lazy builds).
  std::unique_ptr<store::Database> FreshDatabase() {
    auto db = std::make_unique<store::Database>(mapping_->catalog());
    EXPECT_TRUE(store::ShredDocument(*doc_, *mapping_, db.get()).ok());
    return db;
  }

  // Same document on the paged backend, with a pool small enough that the
  // workload actually faults and evicts. Disk tests compare against the
  // reference executor on this same database and on a memory database
  // shredded from the same document.
  std::unique_ptr<store::Database> FreshDiskDatabase() {
    auto db = std::make_unique<store::Database>(
        mapping_->catalog(),
        store::StorageOptions::Paged(/*page_size=*/1024, /*pool_pages=*/4));
    EXPECT_TRUE(store::ShredDocument(*doc_, *mapping_, db.get()).ok());
    EXPECT_TRUE(db->paged());
    return db;
  }

  static std::map<std::string, Value> Params() {
    return {{"c1", Value::Str("title1")},
            {"c2", Value::Str("title2")},
            {"c4", Value::Str("person3")}};
  }

  // Executes every prepared query with the reference executor.
  static std::vector<xq::ResultSet> ReferenceResults(store::Database* db) {
    std::vector<xq::ResultSet> results;
    for (const PreparedQuery& p : *prepared_) {
      engine::ReferenceExecutor exec(db, Params());
      auto r = exec.ExecuteQuery(p.rq, p.plans);
      EXPECT_TRUE(r.ok()) << p.name << ": " << r.status().ToString();
      results.push_back(std::move(r).value());
    }
    return results;
  }

  static void ExpectIdentical(const xq::ResultSet& expected,
                              const xq::ResultSet& actual,
                              const std::string& context) {
    EXPECT_EQ(expected.labels, actual.labels) << context;
    ASSERT_EQ(expected.rows.size(), actual.rows.size()) << context;
    for (size_t i = 0; i < expected.rows.size(); ++i) {
      ASSERT_EQ(expected.rows[i].size(), actual.rows[i].size())
          << context << " row " << i;
      for (size_t j = 0; j < expected.rows[i].size(); ++j) {
        EXPECT_TRUE(expected.rows[i][j] == actual.rows[i][j])
            << context << " row " << i << " col " << j << ": "
            << expected.rows[i][j].ToString() << " vs "
            << actual.rows[i][j].ToString();
      }
    }
  }

  static map::Mapping* mapping_;
  static xml::Document* doc_;
  static std::vector<PreparedQuery>* prepared_;
};

map::Mapping* ExecutorEquivalenceTest::mapping_ = nullptr;
xml::Document* ExecutorEquivalenceTest::doc_ = nullptr;
std::vector<PreparedQuery>* ExecutorEquivalenceTest::prepared_ = nullptr;

TEST_F(ExecutorEquivalenceTest, BitIdenticalAcrossBatchSizes) {
  auto db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(db.get());
  // Powers of two plus a non-power-of-two vector size, so partial final
  // vectors and mid-stream all-filtered vectors are both exercised.
  for (size_t batch_size :
       {size_t{1}, size_t{64}, size_t{1000}, size_t{1024}, size_t{4096}}) {
    engine::ExecOptions options;
    options.batch_size = batch_size;
    for (size_t i = 0; i < prepared_->size(); ++i) {
      const PreparedQuery& p = (*prepared_)[i];
      engine::Executor exec(db.get(), Params(), options);
      auto actual = exec.ExecuteQuery(p.rq, p.plans);
      ASSERT_TRUE(actual.ok()) << p.name << ": "
                               << actual.status().ToString();
      ExpectIdentical(expected[i], actual.value(),
                      p.name + " at batch_size=" +
                          std::to_string(batch_size));
    }
  }
}

TEST_F(ExecutorEquivalenceTest, BitIdenticalWithProfilingEnabled) {
  // collect_profile forces the materializing hash-join path and per-op
  // timing; results must not change, and the profile must cover every
  // operator with sane actuals.
  auto db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(db.get());
  engine::ExecOptions options;
  options.collect_profile = true;
  for (size_t i = 0; i < prepared_->size(); ++i) {
    const PreparedQuery& p = (*prepared_)[i];
    engine::Executor exec(db.get(), Params(), options);
    auto actual = exec.ExecuteQuery(p.rq, p.plans);
    ASSERT_TRUE(actual.ok()) << p.name;
    ExpectIdentical(expected[i], actual.value(), p.name + " profiled");
    EXPECT_FALSE(exec.profile().ops.empty()) << p.name;
    int64_t projected = 0;
    for (const engine::OpActual& op : exec.profile().ops) {
      EXPECT_GE(op.actual_rows, 0) << p.name << " " << op.label;
      EXPECT_GE(op.QError(), 1.0) << p.name << " " << op.label;
      if (op.kind == opt::PhysicalPlan::Kind::kProject) {
        projected += op.actual_rows;
      }
    }
    EXPECT_EQ(projected, static_cast<int64_t>(actual->rows.size()))
        << p.name;
  }
}

// Eight executors serve one Database concurrently over a cold index
// registry: every thread must see bit-identical results while hash-index
// builds race. This is the test `tools/check.sh --tsan` leans on to verify
// the storage registry's locking.
TEST_F(ExecutorEquivalenceTest, ConcurrentServingIsBitIdentical) {
  // Reference results come from a separate (deterministically identical)
  // database so the served database's index registry stays cold until the
  // threads race to populate it.
  auto reference_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(reference_db.get());
  auto db = FreshDatabase();

  constexpr int kThreads = 8;
  // Vary batch size per thread so pipelines interleave differently.
  const size_t batch_sizes[kThreads] = {1, 64, 4096, 1024, 7, 256, 2, 512};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      engine::ExecOptions options;
      options.batch_size = batch_sizes[t];
      for (size_t i = 0; i < prepared_->size(); ++i) {
        const PreparedQuery& p = (*prepared_)[i];
        engine::Executor exec(db.get(), Params(), options);
        auto actual = exec.ExecuteQuery(p.rq, p.plans);
        if (!actual.ok()) {
          failures[t] = p.name + ": " + actual.status().ToString();
          return;
        }
        if (!(expected[i].rows == actual->rows) ||
            expected[i].labels != actual->labels) {
          failures[t] = p.name + ": result mismatch";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t];
  }
}

// Same concurrency shape against a prewarmed registry: PrewarmIndexes must
// cover every index the workload needs, so no thread triggers a build.
TEST_F(ExecutorEquivalenceTest, PrewarmedConcurrentServing) {
  auto db = FreshDatabase();
  ASSERT_TRUE(db->PrewarmIndexes().ok());
  std::vector<xq::ResultSet> expected = ReferenceResults(db.get());

  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < prepared_->size(); ++i) {
        const PreparedQuery& p = (*prepared_)[i];
        engine::Executor exec(db.get(), Params());
        auto actual = exec.ExecuteQuery(p.rq, p.plans);
        if (!actual.ok()) {
          failures[t] = p.name + ": " + actual.status().ToString();
          return;
        }
        if (!(expected[i].rows == actual->rows)) {
          failures[t] = p.name + ": result mismatch";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t];
  }
}

// The paged backend must return bit-identical results to the memory
// backend and to the reference executor on the same paged database, across
// batch sizes, with a pool far smaller than the data so faults and
// evictions are on the hot path.
TEST_F(ExecutorEquivalenceTest, DiskBackendBitIdenticalToMemory) {
  auto mem_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(mem_db.get());
  auto disk_db = FreshDiskDatabase();
  std::vector<xq::ResultSet> disk_expected = ReferenceResults(disk_db.get());
  for (size_t i = 0; i < prepared_->size(); ++i) {
    ExpectIdentical(expected[i], disk_expected[i],
                    (*prepared_)[i].name + " reference on disk");
  }
  for (size_t batch_size : {size_t{1}, size_t{64}, size_t{1024}}) {
    engine::ExecOptions options;
    options.batch_size = batch_size;
    for (size_t i = 0; i < prepared_->size(); ++i) {
      const PreparedQuery& p = (*prepared_)[i];
      engine::Executor exec(disk_db.get(), Params(), options);
      auto actual = exec.ExecuteQuery(p.rq, p.plans);
      ASSERT_TRUE(actual.ok()) << p.name << ": "
                               << actual.status().ToString();
      const std::string context =
          p.name + " on disk at batch_size=" + std::to_string(batch_size);
      ExpectIdentical(expected[i], actual.value(), context);
      ExpectIdentical(disk_expected[i], actual.value(),
                      context + " vs disk reference");
    }
  }
  // The workload drove real page traffic through the pool.
  store::BufferPool::Stats stats = disk_db->buffer_pool()->stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

// Measured IO on the paged backend is real: ExecStats seeks/bytes must come
// from buffer-pool faults, move when the pool is cold vs warm, and be zero
// only when everything is resident.
TEST_F(ExecutorEquivalenceTest, DiskExecStatsReflectPoolFaults) {
  auto disk_db = FreshDiskDatabase();
  // Prewarm indexes and column shadows: their lazy builds scan pages, and
  // that traffic belongs to warmup, not to the query being measured.
  ASSERT_TRUE(disk_db->PrewarmIndexes().ok());
  ASSERT_TRUE(disk_db->PrewarmColumns().ok());
  const PreparedQuery* scan = nullptr;
  for (const PreparedQuery& p : *prepared_) {
    if (p.name == "Q16") scan = &p;  // publish: scans every table
  }
  ASSERT_NE(scan, nullptr);
  uint64_t faults_before = disk_db->buffer_pool()->stats().faults;
  engine::Executor exec(disk_db.get(), Params());
  auto r = exec.ExecuteQuery(scan->rq, scan->plans);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t fault_delta =
      disk_db->buffer_pool()->stats().faults - faults_before;
  EXPECT_GT(exec.stats().seeks, 0.0);
  EXPECT_GT(fault_delta, 0u);
  // Every charged seek is a pool fault of one whole page.
  EXPECT_EQ(exec.stats().seeks, static_cast<double>(fault_delta));
  EXPECT_EQ(exec.stats().bytes_read, exec.stats().seeks * 1024);
}

// Forcing the hash-join build side to spill to temp pages must not change
// results.
TEST_F(ExecutorEquivalenceTest, DiskSpilledJoinsBitIdentical) {
  auto mem_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(mem_db.get());
  auto disk_db = FreshDiskDatabase();
  std::vector<xq::ResultSet> disk_expected = ReferenceResults(disk_db.get());
  engine::ExecOptions options;
  options.spill_build_bytes = 1;  // every build side spills
  bool spilled = false;
  for (size_t i = 0; i < prepared_->size(); ++i) {
    const PreparedQuery& p = (*prepared_)[i];
    engine::Executor exec(disk_db.get(), Params(), options);
    auto actual = exec.ExecuteQuery(p.rq, p.plans);
    ASSERT_TRUE(actual.ok()) << p.name << ": " << actual.status().ToString();
    ExpectIdentical(expected[i], actual.value(), p.name + " spilled");
    ExpectIdentical(disk_expected[i], actual.value(),
                    p.name + " spilled vs disk reference");
    spilled |= exec.stats().bytes_spilled > 0;
  }
  EXPECT_TRUE(spilled);  // at least one join actually took the spill path
}

// Concurrent serving over one paged database: pin/unpin and the shared
// pool must stay consistent while eight executors fault pages in and out.
TEST_F(ExecutorEquivalenceTest, ConcurrentDiskServingIsBitIdentical) {
  auto mem_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(mem_db.get());
  auto disk_db = std::make_unique<store::Database>(
      mapping_->catalog(),
      store::StorageOptions::Paged(/*page_size=*/1024, /*pool_pages=*/16));
  ASSERT_TRUE(store::ShredDocument(*doc_, *mapping_, disk_db.get()).ok());
  ASSERT_TRUE(disk_db->PrewarmIndexes().ok());
  std::vector<xq::ResultSet> disk_expected = ReferenceResults(disk_db.get());
  for (size_t i = 0; i < prepared_->size(); ++i) {
    ExpectIdentical(expected[i], disk_expected[i],
                    (*prepared_)[i].name + " reference on disk");
  }

  constexpr int kThreads = 8;
  const size_t batch_sizes[kThreads] = {1, 64, 4096, 1024, 7, 256, 2, 512};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      engine::ExecOptions options;
      options.batch_size = batch_sizes[t];
      for (size_t i = 0; i < prepared_->size(); ++i) {
        const PreparedQuery& p = (*prepared_)[i];
        engine::Executor exec(disk_db.get(), Params(), options);
        auto actual = exec.ExecuteQuery(p.rq, p.plans);
        if (!actual.ok()) {
          failures[t] = p.name + ": " + actual.status().ToString();
          return;
        }
        if (!(expected[i].rows == actual->rows) ||
            expected[i].labels != actual->labels) {
          failures[t] = p.name + ": result mismatch";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t];
  }
}

}  // namespace
}  // namespace legodb
