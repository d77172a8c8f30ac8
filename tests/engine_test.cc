// Unit tests for the execution engine: operator semantics (scans, index
// lookups, hash and index-nested-loop joins, outer joins, NOT NULL and
// equality filters), parameter binding, and work counters.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/explain_analyze.h"
#include "engine/prepared.h"
#include "engine/reference_executor.h"
#include "obs/obs.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/database.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xschema/schema_parser.h"

namespace legodb::engine {
namespace {

using opt::PhysicalPlan;

// Fixture: Parent(2 rows) / Child(3 rows) shredded from a tiny document.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = xs::ParseSchema(
        "type P = p[ C* ] "
        "type C = c[ name[ String ], size[ Integer ]? ]");
    ASSERT_TRUE(schema.ok());
    auto mapping = map::MapSchema(ps::Normalize(schema.value()));
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    mapping_ = std::make_unique<map::Mapping>(std::move(mapping).value());
    db_ = Shredded(store::StorageOptions::Memory());
  }

  // The fixture document shredded into a fresh database on `storage`.
  std::unique_ptr<store::Database> Shredded(store::StorageOptions storage) {
    auto db = std::make_unique<store::Database>(mapping_->catalog(), storage);
    auto doc = xml::ParseDocument(
        "<p>"
        "<c><name>alpha</name><size>10</size></c>"
        "<c><name>beta</name></c>"
        "<c><name>alpha</name><size>30</size></c>"
        "</p>");
    EXPECT_TRUE(doc.ok());
    EXPECT_TRUE(store::ShredDocument(doc.value(), *mapping_, db.get()).ok());
    return db;
  }

  // A one-table scan block over C outputting `name`.
  opt::QueryBlock ChildBlock() {
    opt::QueryBlock b;
    b.rels.push_back(opt::BaseRel{"C", "c"});
    b.output.push_back(opt::ColumnRef{0, "name", "name"});
    return b;
  }

  xq::ResultSet Execute(const opt::QueryBlock& block,
                        std::map<std::string, Value> params = {}) {
    opt::Optimizer optimizer(mapping_->catalog());
    auto planned = optimizer.PlanBlock(block);
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    Executor exec(db_.get(), std::move(params));
    auto result = exec.ExecuteBlock(block, planned->plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    last_stats_ = exec.stats();
    return std::move(result).value();
  }

  std::unique_ptr<map::Mapping> mapping_;
  std::unique_ptr<store::Database> db_;
  ExecStats last_stats_;
};

TEST_F(EngineTest, SeqScanReturnsAllRows) {
  xq::ResultSet r = Execute(ChildBlock());
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.labels, (std::vector<std::string>{"name"}));
  EXPECT_GT(last_stats_.tuples_processed, 2);
  EXPECT_GT(last_stats_.bytes_read, 0);
}

TEST_F(EngineTest, EqualityFilter) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, "name", xq::CompareOp::kEq, xq::Constant::Str("alpha")});
  xq::ResultSet r = Execute(b);
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, SymbolicParameterBinds) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(
      opt::FilterPred{0, "name", xq::CompareOp::kEq, xq::Constant::Symbol("c1")});
  xq::ResultSet r = Execute(b, {{"c1", Value::Str("beta")}});
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(EngineTest, UnboundParameterErrors) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, "name", xq::CompareOp::kEq, xq::Constant::Symbol("c9")});
  opt::Optimizer optimizer(mapping_->catalog());
  auto planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  Executor exec(db_.get());
  EXPECT_FALSE(exec.ExecuteBlock(b, planned->plan).ok());
}

TEST_F(EngineTest, NotNullFilter) {
  opt::QueryBlock b = ChildBlock();
  opt::FilterPred f;
  f.rel = 0;
  f.column = "size";
  f.not_null = true;
  b.filters.push_back(f);
  xq::ResultSet r = Execute(b);
  EXPECT_EQ(r.rows.size(), 2u);  // beta's size is NULL
}

TEST_F(EngineTest, IntegerFilterComparesNumerically) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, "size", xq::CompareOp::kEq, xq::Constant::Int(30)});
  xq::ResultSet r = Execute(b);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("alpha"));
}

opt::QueryBlock JoinBlock(bool outer) {
  opt::QueryBlock b;
  b.rels.push_back(opt::BaseRel{"P", "p"});
  b.rels.push_back(opt::BaseRel{"C", "c"});
  b.joins.push_back(opt::JoinEdge{0, "P_id", 1, "parent_P", outer});
  b.output.push_back(opt::ColumnRef{1, "name", "name"});
  return b;
}

TEST_F(EngineTest, InnerJoinMatchesFks) {
  xq::ResultSet r = Execute(JoinBlock(false));
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(EngineTest, JoinWithFilterOnChild) {
  opt::QueryBlock b = JoinBlock(false);
  b.filters.push_back(opt::FilterPred{1, "size", xq::CompareOp::kEq, xq::Constant::Int(10)});
  xq::ResultSet r = Execute(b);
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(EngineTest, LeftOuterJoinKeepsUnmatchedOuter) {
  // Filter children to none; the parent row must survive with NULL name.
  opt::QueryBlock b = JoinBlock(true);
  b.filters.push_back(
      opt::FilterPred{1, "name", xq::CompareOp::kEq, xq::Constant::Str("nonexistent")});
  xq::ResultSet r = Execute(b);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(EngineTest, ExplicitIndexNlJoinPlanExecutes) {
  // Hand-build an IndexNLJoin plan: scan P, probe C.parent_P.
  opt::QueryBlock b = JoinBlock(false);
  auto scan = std::make_shared<PhysicalPlan>();
  scan->kind = PhysicalPlan::Kind::kSeqScan;
  scan->rel = 0;
  auto join = std::make_shared<PhysicalPlan>();
  join->kind = PhysicalPlan::Kind::kIndexNLJoin;
  join->left = scan;
  join->rel = 1;
  join->index_column = "parent_P";
  join->left_join_rel = 0;
  join->left_join_column = "P_id";
  join->right_join_rel = 1;
  join->right_join_column = "parent_P";
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = join;
  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, project);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_GT(exec.stats().seeks, 0);
}

TEST_F(EngineTest, ExplicitIndexLookupPlanExecutes) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, "C_id", xq::CompareOp::kEq, xq::Constant::Int(3)});
  auto lookup = std::make_shared<PhysicalPlan>();
  lookup->kind = PhysicalPlan::Kind::kIndexLookup;
  lookup->rel = 0;
  lookup->index_column = "C_id";
  lookup->filters = b.filters;
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = lookup;
  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, project);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(EngineTest, NullLiteralOutputColumn) {
  opt::QueryBlock b = ChildBlock();
  opt::ColumnRef null_col;
  null_col.rel = -1;
  null_col.label = "missing";
  b.output.push_back(null_col);
  xq::ResultSet r = Execute(b);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(EngineTest, StatsAccumulateAcrossBlocks) {
  Executor exec(db_.get());
  opt::Optimizer optimizer(mapping_->catalog());
  opt::QueryBlock b = ChildBlock();
  auto planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(exec.ExecuteBlock(b, planned->plan).ok());
  double first = exec.stats().tuples_processed;
  ASSERT_TRUE(exec.ExecuteBlock(b, planned->plan).ok());
  EXPECT_NEAR(exec.stats().tuples_processed, 2 * first, 1e-9);
  exec.ResetStats();
  EXPECT_EQ(exec.stats().tuples_processed, 0);
}

TEST_F(EngineTest, WeightedCostCombinesCounters) {
  ExecStats s;
  s.seeks = 2;
  s.bytes_read = 100;
  s.bytes_out = 50;
  s.tuples_processed = 10;
  EXPECT_DOUBLE_EQ(s.WeightedCost(10, 0.5, 1, 0.1), 20 + 50 + 50 + 1);
}

TEST_F(EngineTest, RejectsPlanWithoutProjection) {
  auto scan = std::make_shared<PhysicalPlan>();
  scan->kind = PhysicalPlan::Kind::kSeqScan;
  scan->rel = 0;
  Executor exec(db_.get());
  EXPECT_FALSE(exec.ExecuteBlock(ChildBlock(), scan).ok());
}

// --- Unknown-column regression --------------------------------------------
// A filter or residual naming a column the catalog doesn't have means the
// translator and catalog drifted apart; the seed executor silently dropped
// every row. Both executors must fail loudly, naming the table and column.

opt::PhysicalPlanPtr ScanProjectPlan(
    int rel, const std::vector<opt::FilterPred>& filters) {
  auto scan = std::make_shared<PhysicalPlan>();
  scan->kind = PhysicalPlan::Kind::kSeqScan;
  scan->rel = rel;
  scan->filters = filters;
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = scan;
  return project;
}

TEST_F(EngineTest, UnknownFilterColumnIsAnErrorNotEmptyResult) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(
      opt::FilterPred{0, "bogus", xq::CompareOp::kEq, xq::Constant::Str("x")});
  opt::PhysicalPlanPtr plan = ScanProjectPlan(0, b.filters);

  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, plan);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("C.bogus"), std::string::npos)
      << r.status().ToString();

  ReferenceExecutor ref(db_.get());
  auto rr = ref.ExecuteBlock(b, plan);
  ASSERT_FALSE(rr.ok());
  EXPECT_NE(rr.status().ToString().find("C.bogus"), std::string::npos)
      << rr.status().ToString();
}

// Hand-built hash join P (probe) x C (build) on P_id = parent_P.
opt::PhysicalPlanPtr HashJoinPlan(bool left_outer,
                                  std::vector<opt::JoinEdge> residuals,
                                  std::vector<opt::FilterPred> build_filters =
                                      {}) {
  auto probe = std::make_shared<PhysicalPlan>();
  probe->kind = PhysicalPlan::Kind::kSeqScan;
  probe->rel = 0;
  auto build = std::make_shared<PhysicalPlan>();
  build->kind = PhysicalPlan::Kind::kSeqScan;
  build->rel = 1;
  build->filters = std::move(build_filters);
  auto join = std::make_shared<PhysicalPlan>();
  join->kind = PhysicalPlan::Kind::kHashJoin;
  join->left = probe;
  join->right = build;
  join->left_join_rel = 0;
  join->left_join_column = "P_id";
  join->right_join_rel = 1;
  join->right_join_column = "parent_P";
  join->left_outer = left_outer;
  join->residual_joins = std::move(residuals);
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = join;
  return project;
}

TEST_F(EngineTest, UnknownResidualColumnIsAnErrorNotEmptyResult) {
  opt::QueryBlock b = JoinBlock(false);
  opt::PhysicalPlanPtr plan =
      HashJoinPlan(false, {opt::JoinEdge{0, "bogus", 1, "parent_P", false}});

  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, plan);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("P.bogus"), std::string::npos)
      << r.status().ToString();

  ReferenceExecutor ref(db_.get());
  auto rr = ref.ExecuteBlock(b, plan);
  ASSERT_FALSE(rr.ok());
  EXPECT_NE(rr.status().ToString().find("P.bogus"), std::string::npos)
      << rr.status().ToString();
}

// --- Outer join vs. residual predicates -----------------------------------
// When every hash match fails the residual predicate, the probe row must
// be preserved exactly once (not once per failed match, not dropped).

TEST_F(EngineTest, OuterJoinPreservesRowOnceWhenAllResidualsFail) {
  opt::QueryBlock b = JoinBlock(true);
  // P_id (1) never equals C.size (10, NULL, 30): every one of the three
  // hash matches fails the residual.
  opt::PhysicalPlanPtr plan =
      HashJoinPlan(true, {opt::JoinEdge{0, "P_id", 1, "size", false}});

  for (size_t batch_size : {size_t{1}, size_t{4}, size_t{1024}}) {
    ExecOptions options;
    options.batch_size = batch_size;
    Executor exec(db_.get(), {}, options);
    auto r = exec.ExecuteBlock(b, plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << "batch_size=" << batch_size;
    EXPECT_TRUE(r->rows[0][0].is_null());
  }

  ReferenceExecutor ref(db_.get());
  auto rr = ref.ExecuteBlock(b, plan);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_EQ(rr->rows.size(), 1u);
  EXPECT_TRUE(rr->rows[0][0].is_null());
}

TEST_F(EngineTest, OuterJoinResidualFailureWithMaterializedBuildSide) {
  // A filter on the build side forces the materializing (non-shared-index)
  // hash-join path; the outer row must still survive exactly once.
  opt::QueryBlock b = JoinBlock(true);
  opt::FilterPred not_null;
  not_null.rel = 1;
  not_null.column = "size";
  not_null.not_null = true;
  opt::PhysicalPlanPtr plan =
      HashJoinPlan(true, {opt::JoinEdge{0, "P_id", 1, "size", false}},
                   {not_null});

  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][0].is_null());
}

TEST_F(EngineTest, OuterJoinStillEmitsMatchesThatPassResiduals) {
  // A residual that compares a column to itself passes on every match:
  // all three children join, no NULL-preserved row appears.
  opt::QueryBlock b = JoinBlock(true);
  opt::PhysicalPlanPtr plan =
      HashJoinPlan(true, {opt::JoinEdge{1, "name", 1, "name", false}});
  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
  for (const auto& row : r->rows) EXPECT_FALSE(row[0].is_null());
}

// A hash join whose build side is a bare scan of a memory table probes the
// table's shared index instead of running the scan. Profiling must observe
// that same path: identical rows and stats, no build-scan operator in the
// profile, and the join marked as probing the shared index.
TEST_F(EngineTest, ProfiledHashJoinRunsTheSharedIndexPath) {
  opt::QueryBlock b = JoinBlock(false);
  opt::PhysicalPlanPtr plan = HashJoinPlan(false, {});

  Executor plain(db_.get());
  auto unprofiled = plain.ExecuteBlock(b, plan);
  ASSERT_TRUE(unprofiled.ok()) << unprofiled.status().ToString();

  ExecOptions options;
  options.collect_profile = true;
  Executor timed(db_.get(), {}, options);
  auto profiled = timed.ExecuteBlock(b, plan);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();

  EXPECT_EQ(unprofiled->rows, profiled->rows);
  EXPECT_EQ(unprofiled->rows.size(), 3u);
  const ExecStats& a = plain.stats();
  const ExecStats& p = timed.stats();
  EXPECT_EQ(a.tuples_processed, p.tuples_processed);
  EXPECT_EQ(a.bytes_read, p.bytes_read);
  EXPECT_EQ(a.seeks, p.seeks);
  EXPECT_EQ(a.rows_out, p.rows_out);
  EXPECT_EQ(a.bytes_out, p.bytes_out);
  EXPECT_EQ(a.bytes_spilled, p.bytes_spilled);

  // Project, the join, and the probe scan: the build scan never ran.
  const ExecProfile& profile = timed.profile();
  ASSERT_EQ(profile.ops.size(), 3u);
  EXPECT_EQ(profile.ops[1].kind, PhysicalPlan::Kind::kHashJoin);
  EXPECT_NE(profile.ops[1].label.find("shared index"), std::string::npos)
      << profile.ops[1].label;
  for (const OpActual& op : profile.ops) {
    EXPECT_NE(op.label, "SeqScan(c)") << "build scan in the profile";
  }
  EXPECT_EQ(profile.ops[2].label, "SeqScan(p)");
  // The join's inclusive seeks still carry the build side's modeled charge.
  EXPECT_EQ(profile.ops[1].seeks, p.seeks);
}

// The bypass does not depend on the backend: over paged tables the join
// probes the shared index too, EXPLAIN ANALYZE says so, the rows are the
// reference executor's, and the skipped build scan is charged exactly the
// pool faults its range read caused.
TEST_F(EngineTest, PagedHashJoinProbesTheSharedIndex) {
  auto db = Shredded(store::StorageOptions::Paged(/*page_size=*/512,
                                                  /*pool_pages=*/1));
  // Column and index builds read pages too; that traffic is not the query's.
  ASSERT_TRUE(db->PrewarmIndexes().ok());
  ASSERT_TRUE(db->PrewarmColumns().ok());
  opt::QueryBlock b = JoinBlock(false);
  opt::PhysicalPlanPtr plan = HashJoinPlan(false, {});

  ReferenceExecutor ref(db.get());
  auto expected = ref.ExecuteBlock(b, plan);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ExecOptions options;
  options.collect_profile = true;
  Executor exec(db.get(), {}, options);
  const uint64_t faults_before = db->buffer_pool()->stats().faults;
  auto r = exec.ExecuteBlock(b, plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const uint64_t fault_delta =
      db->buffer_pool()->stats().faults - faults_before;

  EXPECT_EQ(r->rows, expected->rows);
  EXPECT_EQ(r->rows.size(), 3u);
  // The one-frame pool cannot hold both tables' pages.
  EXPECT_GT(fault_delta, 0u);
  EXPECT_EQ(exec.stats().seeks, static_cast<double>(fault_delta));
  EXPECT_EQ(exec.stats().bytes_read, exec.stats().seeks * 512);

  const ExecProfile& profile = exec.profile();
  std::string table = ExplainAnalyzeTable(profile);
  EXPECT_NE(table.find("shared index"), std::string::npos) << table;
  for (const OpActual& op : profile.ops) {
    EXPECT_NE(op.label, "SeqScan(c)") << "build scan in the profile";
  }
}

// A caller's prepared set is the only source of programs for the plans it
// was compiled from; a plan node it does not know is an internal error, not
// a reason to compile on the fly.
TEST_F(EngineTest, PreparedSetWithoutThePlanNodeIsInternal) {
  opt::QueryBlock b = ChildBlock();
  opt::PhysicalPlanPtr compiled = ScanProjectPlan(0, {});
  opt::PhysicalPlanPtr other = ScanProjectPlan(0, {});
  opt::RelQuery query;
  query.blocks.push_back(b);
  auto prepared = PreparedPrograms::Compile(db_.get(), query, {compiled});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExecOptions options;
  options.prepared = &*prepared;
  Executor exec(db_.get(), {}, options);
  EXPECT_TRUE(exec.ExecuteBlock(b, compiled).ok());
  auto r = exec.ExecuteBlock(b, other);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInternal);
  EXPECT_NE(r.status().message().find("no prepared programs"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(EngineTest, ExplainAnalyzeRendersProfiledExecution) {
  opt::QueryBlock block = JoinBlock(false);
  opt::Optimizer optimizer(mapping_->catalog());
  auto planned = optimizer.PlanBlock(block);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExecOptions options;
  options.collect_profile = true;
  Executor exec(db_.get(), {}, options);
  auto r = exec.ExecuteBlock(block, planned->plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const ExecProfile& profile = exec.profile();
  ASSERT_GE(profile.ops.size(), 2u);  // project + at least one input
  for (size_t i = 0; i < profile.ops.size(); ++i) {
    const OpActual& op = profile.ops[i];
    // Every operator answered at least its EOS batch, and exclusive time
    // never exceeds inclusive time.
    EXPECT_GE(op.batches, 1) << op.label;
    EXPECT_LE(SelfMillis(profile, i), op.ms + 1e-9) << op.label;
    EXPECT_GE(SelfMillis(profile, i), 0.0) << op.label;
  }
  // The root is the projection; its inclusive seeks cover the whole tree,
  // so no descendant can exceed it.
  EXPECT_EQ(profile.ops[0].depth, 0);
  for (const OpActual& op : profile.ops) {
    EXPECT_LE(op.seeks, profile.ops[0].seeks) << op.label;
  }

  std::string table = ExplainAnalyzeTable(profile);
  EXPECT_NE(table.find("operator"), std::string::npos);
  EXPECT_NE(table.find("q-err"), std::string::npos);
  EXPECT_NE(table.find("Project"), std::string::npos);

  std::string json = ExplainAnalyzeJson(profile);
  EXPECT_TRUE(obs::ValidateJsonText(json).ok()) << json;
}

TEST_F(EngineTest, ExplainAnalyzeOnEmptyProfileIsValid) {
  ExecProfile empty;
  EXPECT_NE(ExplainAnalyzeTable(empty).find("operator"), std::string::npos);
  EXPECT_EQ(ExplainAnalyzeJson(empty), "[]");
  EXPECT_TRUE(obs::ValidateJsonText(ExplainAnalyzeJson(empty)).ok());
}

}  // namespace
}  // namespace legodb::engine
