// Unit tests for the relational optimizer: cardinality estimation, access
// path selection, join ordering and method choice, and cost-model
// monotonicity properties — over hand-built synthetic catalogs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "auction/auction.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "obs/obs.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "relational/catalog.h"
#include "translate/translate.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"
#include "xschema/stats_collector.h"

namespace legodb::opt {
namespace {

rel::Column Col(const std::string& name, rel::SqlType type, double distincts,
                double null_frac = 0) {
  rel::Column c;
  c.name = name;
  c.type = type;
  c.distincts = distincts;
  c.null_fraction = null_frac;
  c.nullable = null_frac > 0;
  return c;
}

// A two-table parent/child catalog: Parent(10k rows), Child(100k rows) with
// an FK to Parent.
rel::Catalog MakeCatalog() {
  rel::Catalog catalog;
  rel::Table parent;
  parent.name = "Parent";
  parent.key_column = "Parent_id";
  parent.row_count = 10000;
  parent.columns = {Col("Parent_id", rel::SqlType::Int(), 10000),
                    Col("name", rel::SqlType::Char(40), 10000),
                    Col("kind", rel::SqlType::Char(8), 4)};
  catalog.AddTable(parent);

  rel::Table child;
  child.name = "Child";
  child.key_column = "Child_id";
  child.row_count = 100000;
  child.columns = {Col("Child_id", rel::SqlType::Int(), 100000),
                   Col("value", rel::SqlType::Char(100), 50000),
                   Col("parent_Parent", rel::SqlType::Int(), 10000)};
  child.foreign_keys = {rel::ForeignKey{"parent_Parent", "Parent"}};
  catalog.AddTable(child);
  return catalog;
}

QueryBlock ScanBlock(const std::string& table) {
  QueryBlock b;
  b.rels.push_back(BaseRel{table, table});
  b.output.push_back(ColumnRef{0, table + "_id", ""});
  return b;
}

TEST(Optimizer, SeqScanForUnfilteredTable) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(ScanBlock("Parent"));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kSeqScan);
  EXPECT_NEAR(planned->rows, 10000, 1);
}

TEST(Optimizer, KeyLookupUsesIndex) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock("Parent");
  b.filters.push_back(FilterPred{0, "Parent_id", xq::CompareOp::kEq, xq::Constant::Int(5)});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kIndexLookup);
  EXPECT_NEAR(planned->rows, 1, 0.01);
}

TEST(Optimizer, NonIndexedFilterScansByDefault) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock("Parent");
  b.filters.push_back(FilterPred{0, "name", xq::CompareOp::kEq, xq::Constant::Symbol("c1")});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kSeqScan);
}

TEST(Optimizer, PredicateIndexOptionEnablesLookup) {
  rel::Catalog catalog = MakeCatalog();
  CostParams params;
  params.index_on_predicates = true;
  Optimizer opt(catalog, params);
  QueryBlock b = ScanBlock("Parent");
  b.filters.push_back(FilterPred{0, "name", xq::CompareOp::kEq, xq::Constant::Symbol("c1")});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kIndexLookup);
}

TEST(Optimizer, SelectivityReducesCardinality) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock("Parent");
  b.filters.push_back(FilterPred{0, "kind", xq::CompareOp::kEq, xq::Constant::Symbol("c1")});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 10000.0 / 4, 1);  // 4 distinct kinds
}

TEST(Optimizer, NotNullSelectivityUsesNullFraction) {
  rel::Catalog catalog;
  rel::Table t;
  t.name = "T";
  t.key_column = "T_id";
  t.row_count = 1000;
  t.columns = {Col("T_id", rel::SqlType::Int(), 1000),
               Col("opt", rel::SqlType::Char(10), 100, /*null_frac=*/0.75)};
  catalog.AddTable(t);
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock("T");
  FilterPred f{0, "opt", xq::CompareOp::kEq, xq::Constant::Symbol("_"), /*not_null=*/true};
  b.filters.push_back(f);
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 250, 1);
}

QueryBlock JoinBlock() {
  QueryBlock b;
  b.rels.push_back(BaseRel{"Parent", "p"});
  b.rels.push_back(BaseRel{"Child", "c"});
  b.joins.push_back(JoinEdge{0, "Parent_id", 1, "parent_Parent", false});
  b.output.push_back(ColumnRef{1, "value", ""});
  return b;
}

TEST(Optimizer, FkJoinCardinalityIsChildCount) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(JoinBlock());
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 100000, 100);
}

TEST(Optimizer, SelectiveJoinPrefersIndexNestedLoops) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = JoinBlock();
  b.filters.push_back(FilterPred{0, "Parent_id", xq::CompareOp::kEq, xq::Constant::Int(7)});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  // One parent row drives probes into the child's FK index.
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kIndexNLJoin);
  EXPECT_NEAR(planned->rows, 10, 0.5);
}

TEST(Optimizer, UnselectiveJoinPrefersHashJoin) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(JoinBlock());
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kHashJoin);
}

TEST(Optimizer, LeftOuterJoinCardinalityAtLeastOuter) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b;
  b.rels.push_back(BaseRel{"Child", "c"});
  b.rels.push_back(BaseRel{"Parent", "p"});
  // Left-outer from Child to a filtered Parent: every child row survives...
  b.joins.push_back(JoinEdge{0, "parent_Parent", 1, "Parent_id", true});
  b.output.push_back(ColumnRef{0, "value", ""});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_GE(planned->rows, 100000 * 0.99);
}

TEST(Optimizer, CostGrowsWithTableSize) {
  double costs[2] = {0, 0};
  double scales[2] = {1.0, 10.0};
  for (int i = 0; i < 2; ++i) {
    rel::Catalog catalog;
    rel::Table t;
    t.name = "T";
    t.key_column = "T_id";
    t.row_count = 1000 * scales[i];
    t.columns = {Col("T_id", rel::SqlType::Int(), t.row_count),
                 Col("x", rel::SqlType::Char(50), t.row_count)};
    catalog.AddTable(t);
    Optimizer opt(catalog);
    auto planned = opt.PlanBlock(ScanBlock("T"));
    ASSERT_TRUE(planned.ok());
    costs[i] = planned->cost;
  }
  EXPECT_GT(costs[1], costs[0] * 5);
}

TEST(Optimizer, FiveWayChainJoinPlans) {
  // A -> B -> C -> D -> E chain; DP must find a connected order.
  rel::Catalog catalog;
  std::string prev;
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    rel::Table t;
    t.name = name;
    t.key_column = std::string(name) + "_id";
    t.row_count = 1000;
    t.columns = {Col(t.key_column, rel::SqlType::Int(), 1000)};
    if (!prev.empty()) {
      t.columns.push_back(
          Col("parent_" + prev, rel::SqlType::Int(), 1000));
      t.foreign_keys = {rel::ForeignKey{"parent_" + prev, prev}};
    }
    catalog.AddTable(t);
    prev = name;
  }
  QueryBlock b;
  for (int i = 0; i < 5; ++i) {
    std::string name(1, static_cast<char>('A' + i));
    b.rels.push_back(BaseRel{name, name});
    if (i > 0) {
      std::string parent(1, static_cast<char>('A' + i - 1));
      b.joins.push_back(
          JoinEdge{i - 1, parent + "_id", i, "parent_" + parent, false});
    }
  }
  b.output.push_back(ColumnRef{4, "E_id", ""});
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GT(planned->cost, 0);
  EXPECT_NEAR(planned->rows, 1000, 10);
}

TEST(Optimizer, GreedyKicksInAboveDpLimit) {
  // 14 tables in a chain with dp_rel_limit 4 exercises the greedy path.
  rel::Catalog catalog;
  QueryBlock b;
  std::string prev;
  for (int i = 0; i < 14; ++i) {
    std::string name = "T" + std::to_string(i);
    rel::Table t;
    t.name = name;
    t.key_column = name + "_id";
    t.row_count = 100;
    t.columns = {Col(t.key_column, rel::SqlType::Int(), 100)};
    if (!prev.empty()) {
      t.columns.push_back(Col("parent_" + prev, rel::SqlType::Int(), 100));
      t.foreign_keys = {rel::ForeignKey{"parent_" + prev, prev}};
    }
    catalog.AddTable(t);
    b.rels.push_back(BaseRel{name, name});
    if (i > 0) {
      b.joins.push_back(
          JoinEdge{i - 1, prev + "_id", i, "parent_" + prev, false});
    }
    prev = name;
  }
  b.output.push_back(ColumnRef{0, "T0_id", ""});
  CostParams params;
  params.dp_rel_limit = 4;
  Optimizer opt(catalog, params);
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GT(planned->cost, 0);
}

TEST(Optimizer, EmptyBlockRejected) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  EXPECT_FALSE(opt.PlanBlock(QueryBlock{}).ok());
}

TEST(Optimizer, UnknownTableRejected) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  EXPECT_FALSE(opt.PlanBlock(ScanBlock("Nope")).ok());
}

TEST(Optimizer, JoinEdgeOutsideBlockRejected) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = JoinBlock();
  b.joins.push_back(JoinEdge{0, "Parent_id", 2, "parent_Parent", false});
  auto planned = opt.PlanBlock(b);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), Status::Code::kInvalidArgument);
}

TEST(Optimizer, PlanQuerySumsBlockCosts) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  RelQuery q;
  q.blocks.push_back(ScanBlock("Parent"));
  q.blocks.push_back(ScanBlock("Child"));
  auto planned = opt.PlanQuery(q);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->blocks.size(), 2u);
  EXPECT_NEAR(planned->total_cost,
              planned->blocks[0].cost + planned->blocks[1].cost, 1e-6);
}

TEST(Optimizer, WiderOutputCostsMore) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock narrow = ScanBlock("Child");
  QueryBlock wide = ScanBlock("Child");
  wide.output.push_back(ColumnRef{0, "value", ""});
  auto p_narrow = opt.PlanBlock(narrow);
  auto p_wide = opt.PlanBlock(wide);
  ASSERT_TRUE(p_narrow.ok());
  ASSERT_TRUE(p_wide.ok());
  EXPECT_GT(p_wide->cost, p_narrow->cost);
}

TEST(Optimizer, PlanToStringRendersTree) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = JoinBlock();
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  std::string s = planned->plan->ToString(b);
  EXPECT_NE(s.find("Project"), std::string::npos);
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
}

TEST(QueryBlockSql, RendersSelectFromWhere) {
  QueryBlock b = JoinBlock();
  b.filters.push_back(FilterPred{0, "name", xq::CompareOp::kEq, xq::Constant::Symbol("c1")});
  std::string sql = b.ToSql();
  EXPECT_NE(sql.find("SELECT c.value"), std::string::npos);
  EXPECT_NE(sql.find("FROM Parent p, Child c"), std::string::npos);
  EXPECT_NE(sql.find("p.Parent_id = c.parent_Parent"), std::string::npos);
  EXPECT_NE(sql.find("p.name = c1"), std::string::npos);
}

// ---- join enumeration ----

// A block of `n` tables T0..T{n-1} of 100 + 10i rows; `edges` lists
// (parent, child) pairs joined parent key = child FK column.
struct SyntheticBlock {
  rel::Catalog catalog;
  QueryBlock block;
};

SyntheticBlock MakeSyntheticBlock(
    int n, const std::vector<std::pair<int, int>>& edges) {
  SyntheticBlock s;
  std::vector<rel::Table> tables(n);
  for (int i = 0; i < n; ++i) {
    rel::Table& t = tables[i];
    t.name = "T" + std::to_string(i);
    t.key_column = t.name + "_id";
    t.row_count = 100 + 10 * i;
    t.columns = {Col(t.key_column, rel::SqlType::Int(), t.row_count)};
    s.block.rels.push_back(BaseRel{t.name, t.name});
  }
  for (auto [parent, child] : edges) {
    std::string fk = "parent_" + std::to_string(parent);
    tables[child].columns.push_back(Col(fk, rel::SqlType::Int(), 50));
    tables[child].foreign_keys.push_back(
        rel::ForeignKey{fk, tables[parent].name});
    s.block.joins.push_back(
        JoinEdge{parent, tables[parent].key_column, child, fk, false});
  }
  for (auto& t : tables) s.catalog.AddTable(t);
  s.block.output.push_back(ColumnRef{0, "T0_id", ""});
  return s;
}

std::vector<std::pair<int, int>> ChainEdges(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i < n; ++i) edges.push_back({i - 1, i});
  return edges;
}

std::vector<std::pair<int, int>> StarEdges(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i < n; ++i) edges.push_back({0, i});
  return edges;
}

std::vector<std::pair<int, int>> CycleEdges(int n) {
  std::vector<std::pair<int, int>> edges = ChainEdges(n);
  edges.push_back({n - 1, 0});
  return edges;
}

// Plans `s` under a fresh registry and returns the optimizer.dp_pairs count.
int64_t DpPairs(const SyntheticBlock& s) {
  obs::Registry registry;
  obs::ScopedRegistry scoped(&registry);
  Optimizer opt(s.catalog);
  auto planned = opt.PlanBlock(s.block);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  return registry.Snapshot().CounterValue("optimizer.dp_pairs");
}

// The DP visits exactly the pairs of connected, adjacent, disjoint halves
// (the csg-cmp pairs of the join graph), each unordered pair once.
TEST(JoinEnumeration, ChainPairsAreCubic) {
  constexpr int n = 12;
  EXPECT_EQ(DpPairs(MakeSyntheticBlock(n, ChainEdges(n))),
            (n * n * n - n) / 6);  // 286
}

TEST(JoinEnumeration, StarPairsAreExponential) {
  constexpr int n = 12;
  EXPECT_EQ(DpPairs(MakeSyntheticBlock(n, StarEdges(n))),
            (n - 1) * (1 << (n - 2)));  // 11264
}

TEST(JoinEnumeration, CyclePairs) {
  constexpr int n = 12;
  EXPECT_EQ(DpPairs(MakeSyntheticBlock(n, CycleEdges(n))),
            (n * n * n - 2 * n * n + n) / 2);  // 726
}

TEST(JoinEnumeration, DisconnectedBlockHasNoPlan) {
  // Two chains T0-T1-T2 and T3-T4 with no edge between them: no
  // cartesian products are planned, under DP or greedy.
  SyntheticBlock s = MakeSyntheticBlock(5, {{0, 1}, {1, 2}, {3, 4}});
  for (int limit : {12, 2}) {
    CostParams params;
    params.dp_rel_limit = limit;
    Optimizer opt(s.catalog, params);
    auto planned = opt.PlanBlock(s.block);
    ASSERT_FALSE(planned.ok()) << "dp_rel_limit " << limit;
    EXPECT_NE(planned.status().ToString().find("no plan found"),
              std::string::npos)
        << planned.status().ToString();
  }
}

// ---- golden plans ----
//
// Pins the optimizer's choices on the paper's workloads: for every IMDB
// query Q1-Q19 and auction query A1-A8 on the all-inlined and all-outlined
// configurations (plus IMDB all-outlined under paged costs with predicate
// indexes), the rendered plan tree of each block plus every node's
// est_cost / est_rows / est_seeks / est_bytes as hex floats, so any change
// in plan choice or in a single bit of an estimate shows as a diff.
// optimizer_plans.golden was captured from the optimizer that enumerated
// every subset; on a mismatch the actual output is written to
// optimizer_plans.actual in the test's working directory.

void AppendHexEstimates(const PhysicalPlan& node, std::string* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %a %a %a %a\n", node.est_cost,
                node.est_rows, node.est_seeks, node.est_bytes);
  *out += buf;
  if (node.left) AppendHexEstimates(*node.left, out);
  if (node.right) AppendHexEstimates(*node.right, out);
  if (node.child) AppendHexEstimates(*node.child, out);
}

void AppendPlans(const std::string& domain, const std::string& config_name,
                 const xs::Schema& config, const CostParams& params,
                 const std::vector<std::string>& queries,
                 const char* (*query_text)(const std::string&),
                 std::string* out) {
  auto mapping = map::MapSchema(config);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  Optimizer optimizer(mapping->catalog(), params);
  for (const std::string& name : queries) {
    *out += "== " + domain + " " + config_name + " " + name + "\n";
    auto query = xq::ParseQuery(query_text(name));
    ASSERT_TRUE(query.ok()) << name << ": " << query.status().ToString();
    auto rq = xlat::TranslateQuery(query.value(), mapping.value());
    if (!rq.ok()) {
      *out += "translate: " + rq.status().ToString() + "\n";
      continue;
    }
    auto planned = optimizer.PlanQuery(rq.value());
    if (!planned.ok()) {
      *out += "plan: " + planned.status().ToString() + "\n";
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "total %a\n", planned->total_cost);
    *out += buf;
    for (size_t b = 0; b < planned->blocks.size(); ++b) {
      *out += "-- block " + std::to_string(b) + " (" +
              std::to_string(rq->blocks[b].rels.size()) + " rels)\n";
      *out += planned->blocks[b].plan->ToString(rq->blocks[b]);
      AppendHexEstimates(*planned->blocks[b].plan, out);
    }
  }
}

TEST(GoldenPlans, PaperWorkloadsMatchGolden) {
  std::string actual;

  auto imdb_schema = imdb::Schema();
  auto imdb_stats = imdb::Stats();
  ASSERT_TRUE(imdb_schema.ok() && imdb_stats.ok());
  xs::Schema imdb_annotated =
      xs::AnnotateSchema(imdb_schema.value(), imdb_stats.value());
  std::vector<std::string> imdb_queries;
  for (int i = 1; i <= 19; ++i) imdb_queries.push_back("Q" + std::to_string(i));

  auto auction_schema = auction::Schema();
  ASSERT_TRUE(auction_schema.ok());
  xs::StatsCollector collector;
  collector.AddDocument(auction::Generate(auction::AuctionScale{}));
  xs::Schema auction_annotated =
      xs::AnnotateSchema(auction_schema.value(), collector.Finish());
  std::vector<std::string> auction_queries;
  for (int i = 1; i <= 8; ++i) {
    auction_queries.push_back("A" + std::to_string(i));
  }

  for (bool inlined : {true, false}) {
    const char* config_name = inlined ? "all-inlined" : "all-outlined";
    AppendPlans("imdb", config_name,
                inlined ? ps::AllInlined(imdb_annotated)
                        : ps::AllOutlined(imdb_annotated),
                CostParams{}, imdb_queries, imdb::QueryText, &actual);
    AppendPlans("auction", config_name,
                inlined ? ps::AllInlined(auction_annotated)
                        : ps::AllOutlined(auction_annotated),
                CostParams{}, auction_queries, auction::QueryText, &actual);
  }
  // The paged cost terms and predicate indexes (more index lookups and
  // index nested-loops candidates) on the widest blocks.
  CostParams paged;
  paged.page_size = 4096;
  paged.index_on_predicates = true;
  AppendPlans("imdb", "all-outlined paged+predicate-indexes",
              ps::AllOutlined(imdb_annotated), paged, imdb_queries,
              imdb::QueryText, &actual);

  std::stringstream golden;
  golden << std::ifstream(LEGODB_OPTIMIZER_GOLDEN).rdbuf();
  if (golden.str() != actual) {
    std::ofstream("optimizer_plans.actual") << actual;
  }
  EXPECT_TRUE(golden.str() == actual)
      << "plans differ from " << LEGODB_OPTIMIZER_GOLDEN
      << "; actual output written to optimizer_plans.actual";
}

}  // namespace
}  // namespace legodb::opt
