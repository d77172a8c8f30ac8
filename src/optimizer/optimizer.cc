#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "obs/obs.h"

namespace legodb::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// How the best plan of one subset of a block's relations is produced.
enum class Method : uint8_t {
  kNone,
  kSeqScan,
  kIndexLookup,
  kHashJoin,
  kIndexNLJoin,
};

// The best plan found for one subset of a block's relations: its estimates
// plus the choice that produced it. Join ordering fills entries only; the
// PhysicalPlan tree is built once, from the full set's entry, at the end.
struct Entry {
  double cost = kInf;
  double rows = 0;
  double width = 0;  // bytes per intermediate tuple
  double seeks = 0;  // predicted seeks, inclusive of inputs
  double bytes = 0;  // predicted bytes read, inclusive of inputs
  Method method = Method::kNone;
  // kHashJoin: the probe side; kIndexNLJoin: the outer side. The other
  // input is the rest of the subset.
  uint64_t left = 0;
  // kIndexLookup: the probed filter; kIndexNLJoin: the driving join edge.
  int arg = -1;

  bool valid() const { return method != Method::kNone; }
};

// A join edge's statistics, fixed for the block. Index [s] describes the
// edge's left (s = 0) or right (s = 1) relation as the inner side of an
// index nested-loops join.
struct EdgeStats {
  uint64_t left_mask = 0;
  uint64_t right_mask = 0;
  double factor = 1;  // the edge's cardinality factor
  bool indexed[2] = {false, false};
  double matches_per_probe[2] = {0, 0};
};

// A relation of the block and its statistics, fixed for the block.
struct RelStats {
  const rel::Table* table = nullptr;
  double filtered_rows = 0;  // cardinality after the block's filters
  double row_width = 0;
  uint64_t neighbours = 0;        // relations joined to it
  uint64_t outer_neighbours = 0;  // ... by a left-outer edge
  std::vector<int> incident;      // its join edges, in block order
};

// Plans one SPJ block: access paths, join order, join methods.
class BlockPlanner {
 public:
  BlockPlanner(const rel::Catalog& catalog, const CostParams& p,
               const QueryBlock& block)
      : catalog_(catalog), p_(p), block_(block) {}

  StatusOr<PlannedBlock> Plan() {
    size_t n = block_.rels.size();
    if (n == 0) return Status::InvalidArgument("query block has no relations");
    if (n > 62) return Status::Unsupported("too many relations in block");
    obs::Count("optimizer.blocks_planned");
    obs::Observe("optimizer.block_rels", static_cast<double>(n));
    rels_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      rels_[i].table = catalog_.FindTable(block_.rels[i].table);
      if (!rels_[i].table) {
        return Status::NotFound("table '" + block_.rels[i].table +
                                "' not in catalog");
      }
    }
    auto in_block = [n](int rel) {
      return rel >= 0 && static_cast<size_t>(rel) < n;
    };
    for (const auto& e : block_.joins) {
      if (!in_block(e.left_rel) || !in_block(e.right_rel)) {
        return Status::InvalidArgument(
            "join edge names a relation outside the block");
      }
    }
    ComputeBlockStats();

    PhysicalPlanPtr best = n <= static_cast<size_t>(p_.dp_rel_limit)
                               ? PlanDp()
                               : PlanGreedy();
    if (!best) return Status::Internal("no plan found for block");

    // Root projection: producing the result counts as writing.
    auto root = std::make_shared<PhysicalPlan>();
    root->kind = PhysicalPlan::Kind::kProject;
    root->child = best;
    root->outputs = block_.output;
    double out_width = OutputWidth();
    root->est_rows = best->est_rows;
    root->est_cost = best->est_cost +
                     best->est_rows * out_width * p_.write_per_byte +
                     best->est_rows * p_.cpu_per_tuple;
    root->est_seeks = best->est_seeks;  // output writing adds no read IO
    root->est_bytes = best->est_bytes;
    root->vectorized = true;
    return PlannedBlock{root, root->est_cost, root->est_rows};
  }

 private:
  // ---- IO-term helpers ----
  //
  // At page_size == 0 (the historical default) these are identities that
  // reproduce the exact-byte cost formulas every golden was computed with.
  // At page_size > 0 they quantize the same terms to page granularity, the
  // unit the paged backend's buffer pool measures.

  // Bytes actually transferred to read `bytes` of payload.
  double PagedBytes(double bytes) const {
    if (p_.page_size <= 0) return bytes;
    return std::ceil(bytes / p_.page_size) * p_.page_size;
  }

  // Seeks for a sequential scan over `bytes` of payload: the classic single
  // positioning seek, or one pool fault per page on the paged backend.
  double ScanSeeks(double bytes) const {
    if (p_.page_size <= 0) return 1.0;
    return std::max(1.0, std::ceil(bytes / p_.page_size));
  }

  // Bytes read to fetch one matched row of `width` via an index probe: the
  // row itself, or the whole page holding it.
  double ProbeBytes(double width) const {
    return p_.page_size > 0 ? p_.page_size : width;
  }

  // ---- statistics helpers ----
  //
  // These look columns up by name; ComputeBlockStats calls them once per
  // block, and join ordering reads only the numbers it stored.

  const rel::Column* Col(int rel, const std::string& name) const {
    return rels_[rel].table->FindColumn(name);
  }

  double ColDistincts(int rel, const std::string& name) const {
    const rel::Column* c = Col(rel, name);
    return c ? std::max(1.0, c->distincts) : 1.0;
  }

  double ColNullFrac(int rel, const std::string& name) const {
    const rel::Column* c = Col(rel, name);
    return c ? std::clamp(c->null_fraction, 0.0, 1.0) : 0.0;
  }

  double BaseRows(int rel) const {
    return std::max(1.0, rels_[rel].table->row_count);
  }

  double FilterSelectivity(const FilterPred& f) const {
    double nn = 1.0 - ColNullFrac(f.rel, f.column);
    if (f.not_null) return std::clamp(nn, 1e-9, 1.0);
    double d = ColDistincts(f.rel, f.column);
    double sel;
    switch (f.op) {
      case xq::CompareOp::kEq:
        sel = 1.0 / d;
        break;
      case xq::CompareOp::kNe:
        sel = 1.0 - 1.0 / d;
        break;
      default:
        sel = RangeSelectivity(f);
        break;
    }
    return std::clamp(nn * sel, 1e-9, 1.0);
  }

  // Range selectivity from the column's min/max statistics when the bound
  // is a known integer literal; System-R's 1/3 otherwise.
  double RangeSelectivity(const FilterPred& f) const {
    const rel::Column* c = Col(f.rel, f.column);
    if (!c || c->type.kind != rel::SqlType::Kind::kInt ||
        f.value.kind != xq::Constant::Kind::kInt || c->max <= c->min) {
      return 1.0 / 3.0;
    }
    double lo = static_cast<double>(c->min);
    double hi = static_cast<double>(c->max);
    double bound = std::clamp(static_cast<double>(f.value.int_value), lo, hi);
    double below = (bound - lo) / (hi - lo);
    switch (f.op) {
      case xq::CompareOp::kLt:
      case xq::CompareOp::kLe:
        return below;
      case xq::CompareOp::kGt:
      case xq::CompareOp::kGe:
        return 1.0 - below;
      default:
        return 1.0 / 3.0;
    }
  }

  // Effective distinct count of a join column among the filtered rows.
  double EffDistincts(int rel, const std::string& column) const {
    return std::max(1.0, std::min(ColDistincts(rel, column),
                                  rels_[rel].filtered_rows));
  }

  // Distincts over the unfiltered base table (for index probe fan-out).
  double EffDistinctsBase(int rel, const std::string& column) const {
    return std::max(1.0, std::min(ColDistincts(rel, column), BaseRows(rel)));
  }

  bool Indexed(int rel, const std::string& column) const {
    const rel::Table* t = rels_[rel].table;
    if (column == t->key_column) return true;
    for (const auto& fk : t->foreign_keys) {
      if (fk.column == column) return true;
    }
    return p_.index_on_predicates && t->FindColumn(column) != nullptr;
  }

  double OutputWidth() const {
    double w = 0;
    for (const auto& out : block_.output) {
      if (out.rel < 0) {  // NULL-literal column
        w += 1.0;
        continue;
      }
      const rel::Column* c = Col(out.rel, out.column);
      w += c ? c->type.width : 8.0;
    }
    return std::max(w, 1.0);
  }

  // Everything join ordering needs, computed once per block: each
  // relation's RelStats, and each edge's cardinality factor and index
  // nested-loops fan-out.
  void ComputeBlockStats() {
    for (size_t i = 0; i < rels_.size(); ++i) {
      int rel = static_cast<int>(i);
      double rows = BaseRows(rel);
      for (const auto& f : block_.filters) {
        if (f.rel == rel) rows *= FilterSelectivity(f);
      }
      rels_[i].filtered_rows = std::max(rows, 1e-6);
      rels_[i].row_width = rels_[i].table->RowWidth();
    }
    edges_.clear();
    for (const auto& e : block_.joins) {
      EdgeStats s;
      s.left_mask = 1ull << e.left_rel;
      s.right_mask = 1ull << e.right_rel;
      if (e.left_rel != e.right_rel) {  // a self-edge joins no two subsets
        RelStats& left = rels_[e.left_rel];
        RelStats& right = rels_[e.right_rel];
        left.neighbours |= s.right_mask;
        right.neighbours |= s.left_mask;
        if (e.left_outer) {
          left.outer_neighbours |= s.right_mask;
          right.outer_neighbours |= s.left_mask;
        }
        int k = static_cast<int>(edges_.size());
        left.incident.push_back(k);
        right.incident.push_back(k);
      }
      double dl = EffDistincts(e.left_rel, e.left_column);
      double dr = EffDistincts(e.right_rel, e.right_column);
      double sel = 1.0 / std::max(dl, dr);
      sel *= (1.0 - ColNullFrac(e.left_rel, e.left_column)) *
             (1.0 - ColNullFrac(e.right_rel, e.right_column));
      if (e.left_outer) {
        // A preserved outer row always survives: at least one row per outer
        // row, i.e. the edge cannot reduce cardinality below 1 match.
        sel = std::max(sel, 1.0 / rels_[e.right_rel].filtered_rows);
      }
      s.factor = std::clamp(sel, 1e-12, 1.0);
      for (int side = 0; side < 2; ++side) {
        int rel = side ? e.right_rel : e.left_rel;
        const std::string& col = side ? e.right_column : e.left_column;
        s.indexed[side] = Indexed(rel, col);
        s.matches_per_probe[side] = BaseRows(rel) *
                                    (1.0 - ColNullFrac(rel, col)) /
                                    EffDistinctsBase(rel, col);
      }
      edges_.push_back(s);
    }
  }

  // Relations joined to some relation in `mask`.
  uint64_t Neighbours(uint64_t mask) const {
    uint64_t out = 0;
    for (; mask; mask &= mask - 1) {
      out |= rels_[std::countr_zero(mask)].neighbours;
    }
    return out;
  }

  // Whether a left-outer edge joins the disjoint subsets `a` and `b`.
  bool OuterBetween(uint64_t a, uint64_t b) const {
    for (; a; a &= a - 1) {
      if (rels_[std::countr_zero(a)].outer_neighbours & b) return true;
    }
    return false;
  }

  // Estimated cardinality of joining the relations in `mask`: product of
  // filtered cardinalities discounted by each internal join edge.
  double Card(uint64_t mask) const {
    double rows = 1;
    for (size_t i = 0; i < rels_.size(); ++i) {
      if (mask & (1ull << i)) rows *= rels_[i].filtered_rows;
    }
    for (const EdgeStats& e : edges_) {
      if ((mask & e.left_mask) && (mask & e.right_mask)) rows *= e.factor;
    }
    return std::max(rows, 1e-6);
  }

  // ---- leaf access paths ----

  Entry AccessPath(int rel) const {
    double base = BaseRows(rel);
    double width = rels_[rel].row_width;
    double out_rows = rels_[rel].filtered_rows;

    // Sequential scan.
    double scan_seeks = ScanSeeks(base * width);
    double scan_bytes = PagedBytes(base * width);
    Entry best{scan_seeks * p_.seek_cost + scan_bytes * p_.read_per_byte +
                   base * p_.cpu_per_tuple,
               out_rows,
               width,
               scan_seeks,
               scan_bytes,
               Method::kSeqScan};
    // Index lookup on the most selective indexed filter column (hash
    // indexes serve equality probes only).
    for (size_t k = 0; k < block_.filters.size(); ++k) {
      const FilterPred& f = block_.filters[k];
      if (f.rel != rel || f.not_null || f.op != xq::CompareOp::kEq ||
          !Indexed(rel, f.column)) {
        continue;
      }
      double matches = base * FilterSelectivity(f);
      double seeks = p_.index_probe_seeks + matches;
      double bytes = matches * ProbeBytes(width);
      double cost = seeks * p_.seek_cost + bytes * p_.read_per_byte +
                    matches * p_.cpu_per_tuple;
      if (cost < best.cost) {
        best = Entry{cost,  out_rows, width, seeks, bytes,
                     Method::kIndexLookup, 0, static_cast<int>(k)};
      }
    }
    return best;
  }

  // ---- join combination ----

  // Offers every way of joining `a` (relations `mask_a`) with `b` to
  // `best`, which keeps the first strictly cheapest. The two are joined by
  // at least one edge; `outer` tells whether one of them is left-outer.
  void Combine(const Entry& a, uint64_t mask_a, const Entry& b,
               uint64_t mask_b, bool outer, double out_rows,
               Entry* best) const {
    // Hash join in both orientations. Left-outer joins preserve the probe
    // side `a`, so only the orientation building `b` is valid for them.
    double width = a.width + b.width;
    for (int build_right = outer ? 1 : 0; build_right < 2; ++build_right) {
      const Entry& probe = build_right ? a : b;
      const Entry& build = build_right ? b : a;
      double cost = probe.cost + build.cost +
                    build.rows * p_.cpu_per_probe +  // build
                    probe.rows * p_.cpu_per_probe +  // probe
                    out_rows * p_.cpu_per_tuple;
      if (cost < best->cost) {
        // Joins add CPU, not IO.
        *best = Entry{cost,
                      out_rows,
                      width,
                      probe.seeks + build.seeks,
                      probe.bytes + build.bytes,
                      Method::kHashJoin,
                      build_right ? mask_a : mask_b};
      }
    }
    // Index nested loops: the inner side must be a single base relation
    // with an index on its join column.
    if (!std::has_single_bit(mask_b)) return;
    int inner = std::countr_zero(mask_b);
    for (int k : rels_[inner].incident) {
      // Only the edges joining it to `a` drive a probe; block order.
      if (((edges_[k].left_mask | edges_[k].right_mask) & mask_a) == 0) {
        continue;
      }
      const JoinEdge& e = block_.joins[k];
      int side = e.right_rel == inner ? 1 : 0;
      if (e.left_outer && side == 0) continue;  // must preserve left
      if (!edges_[k].indexed[side]) continue;
      double matches_per_probe = edges_[k].matches_per_probe[side];
      double seeks_added = a.rows * (p_.index_probe_seeks + matches_per_probe);
      double bytes_added =
          a.rows * matches_per_probe * ProbeBytes(rels_[inner].row_width);
      double cost = a.cost + seeks_added * p_.seek_cost +
                    bytes_added * p_.read_per_byte +
                    a.rows * matches_per_probe * p_.cpu_per_tuple +
                    out_rows * p_.cpu_per_tuple;
      if (cost < best->cost) {
        *best = Entry{cost,
                      out_rows,
                      a.width + rels_[inner].row_width,
                      a.seeks + seeks_added,
                      a.bytes + bytes_added,
                      Method::kIndexNLJoin,
                      mask_a,
                      k};
      }
    }
  }

  // Dynamic programming over the connected subsets of the join graph.
  // Every proper subset of a mask is numerically smaller, so visiting masks
  // in increasing order finalizes both halves before their union. Within
  // a mask, splits are tried in descending order of the half without the
  // mask's highest relation, each half as the left input in turn, and the
  // first strictly cheapest candidate wins.
  PhysicalPlanPtr PlanDp() {
    obs::Count("optimizer.dp_plans");
    size_t n = block_.rels.size();
    uint64_t full = (1ull << n) - 1;
    std::vector<Entry> memo(full + 1);
    std::vector<uint64_t> neighbours(full + 1, 0);
    std::vector<uint8_t> connected(full + 1, 0);
    for (uint64_t m = 1; m <= full; ++m) {
      neighbours[m] =
          neighbours[m & (m - 1)] | rels_[std::countr_zero(m)].neighbours;
      uint64_t reach = m & -m;  // flood from the lowest relation
      for (uint64_t next; (next = (reach | neighbours[reach]) & m) != reach;) {
        reach = next;
      }
      connected[m] = reach == m;
    }
    for (size_t i = 0; i < n; ++i) {
      memo[1ull << i] = AccessPath(static_cast<int>(i));
    }
    int64_t pairs = 0;
    int64_t planned = static_cast<int64_t>(n);
    for (uint64_t mask = 3; mask <= full; ++mask) {
      if (!connected[mask] || std::has_single_bit(mask)) continue;
      Entry& entry = memo[mask];
      double out_rows = Card(mask);
      uint64_t lower = mask ^ std::bit_floor(mask);
      for (uint64_t sub = lower; sub; sub = (sub - 1) & lower) {
        uint64_t rest = mask ^ sub;
        // Most subsets fail here; one branch on the combined test keeps
        // the loop cheap.
        if (!(connected[sub] & connected[rest] &
              ((neighbours[sub] & rest) != 0))) {
          continue;
        }
        if (!memo[sub].valid() || !memo[rest].valid()) continue;
        ++pairs;
        bool outer = OuterBetween(sub, rest);
        Combine(memo[sub], sub, memo[rest], rest, outer, out_rows, &entry);
        Combine(memo[rest], rest, memo[sub], sub, outer, out_rows, &entry);
      }
      if (entry.valid()) ++planned;
    }
    obs::Count("optimizer.dp_pairs", pairs);
    obs::Observe("optimizer.memo_size", static_cast<double>(planned));
    if (!memo[full].valid()) return nullptr;
    return Build(full, [&](uint64_t m) -> const Entry& { return memo[m]; });
  }

  // Greedy join ordering: repeatedly joins the cheapest connected pair.
  PhysicalPlanPtr PlanGreedy() {
    obs::Count("optimizer.greedy_plans");
    size_t n = block_.rels.size();
    std::vector<uint64_t> masks;
    std::vector<Entry> entries;
    std::map<uint64_t, Entry> chosen;  // every subset planned, for Build
    for (size_t i = 0; i < n; ++i) {
      masks.push_back(1ull << i);
      entries.push_back(AccessPath(static_cast<int>(i)));
      chosen[masks.back()] = entries.back();
    }
    while (entries.size() > 1) {
      Entry best;
      size_t bi = 0, bj = 0;
      for (size_t i = 0; i < entries.size(); ++i) {
        uint64_t adjacent = Neighbours(masks[i]);
        for (size_t j = 0; j < entries.size(); ++j) {
          if (i == j || (adjacent & masks[j]) == 0) continue;
          bool outer = OuterBetween(masks[i], masks[j]);
          double before = best.cost;
          Combine(entries[i], masks[i], entries[j], masks[j], outer,
                  Card(masks[i] | masks[j]), &best);
          if (best.cost < before) {
            bi = i;
            bj = j;
          }
        }
      }
      if (!best.valid()) return nullptr;  // disconnected
      uint64_t merged = masks[bi] | masks[bj];
      size_t lo = std::min(bi, bj), hi = std::max(bi, bj);
      masks.erase(masks.begin() + hi);
      entries.erase(entries.begin() + hi);
      masks[lo] = merged;
      entries[lo] = best;
      chosen[merged] = best;
    }
    return Build(masks[0],
                 [&](uint64_t m) -> const Entry& { return chosen[m]; });
  }

  // ---- plan construction ----

  // The edges joining the disjoint subsets `a` and `b`, in block order.
  std::vector<int> EdgesBetween(uint64_t a, uint64_t b) const {
    std::vector<int> between;
    for (size_t k = 0; k < edges_.size(); ++k) {
      const EdgeStats& e = edges_[k];
      if (((e.left_mask & a) && (e.right_mask & b)) ||
          ((e.left_mask & b) && (e.right_mask & a))) {
        between.push_back(static_cast<int>(k));
      }
    }
    return between;
  }

  std::vector<FilterPred> FiltersOn(int rel) const {
    std::vector<FilterPred> filters;
    for (const auto& f : block_.filters) {
      if (f.rel == rel) filters.push_back(f);
    }
    return filters;
  }

  // Builds the operator tree of the subset `mask` from the entries join
  // ordering chose; `entry_of` maps a planned subset to its entry.
  template <typename EntryOf>
  PhysicalPlanPtr Build(uint64_t mask, const EntryOf& entry_of) {
    const Entry& e = entry_of(mask);
    LEGODB_CHECK(e.valid(), "building an unplanned subset");
    auto plan = std::make_shared<PhysicalPlan>();
    plan->est_rows = e.rows;
    plan->est_cost = e.cost;
    plan->est_seeks = e.seeks;
    plan->est_bytes = e.bytes;
    plan->vectorized = true;
    switch (e.method) {
      case Method::kNone:  // rejected above
        break;
      case Method::kSeqScan:
      case Method::kIndexLookup:
        plan->rel = std::countr_zero(mask);
        plan->filters = FiltersOn(plan->rel);  // residuals re-checked cheaply
        if (e.method == Method::kSeqScan) {
          plan->kind = PhysicalPlan::Kind::kSeqScan;
        } else {
          plan->kind = PhysicalPlan::Kind::kIndexLookup;
          plan->index_column = block_.filters[e.arg].column;
        }
        break;
      case Method::kHashJoin: {
        // The first edge between the sides drives the probe; the rest are
        // residual.
        uint64_t probe = e.left;
        uint64_t build = mask ^ probe;
        plan->kind = PhysicalPlan::Kind::kHashJoin;
        plan->left_outer = OuterBetween(probe, build);
        std::vector<int> edges = EdgesBetween(probe, build);
        const JoinEdge& drive = block_.joins[edges[0]];
        bool left_in_probe = (edges_[edges[0]].left_mask & probe) != 0;
        plan->left_join_rel = left_in_probe ? drive.left_rel : drive.right_rel;
        plan->left_join_column =
            left_in_probe ? drive.left_column : drive.right_column;
        plan->right_join_rel = left_in_probe ? drive.right_rel : drive.left_rel;
        plan->right_join_column =
            left_in_probe ? drive.right_column : drive.left_column;
        for (size_t k = 1; k < edges.size(); ++k) {
          plan->residual_joins.push_back(block_.joins[edges[k]]);
        }
        plan->left = Build(probe, entry_of);
        plan->right = Build(build, entry_of);
        break;
      }
      case Method::kIndexNLJoin: {
        int inner = std::countr_zero(mask ^ e.left);
        const JoinEdge& drive = block_.joins[e.arg];
        bool inner_is_right = drive.right_rel == inner;
        plan->kind = PhysicalPlan::Kind::kIndexNLJoin;
        plan->rel = inner;
        plan->index_column =
            inner_is_right ? drive.right_column : drive.left_column;
        plan->filters = FiltersOn(inner);
        plan->left_join_rel = inner_is_right ? drive.left_rel : drive.right_rel;
        plan->left_join_column =
            inner_is_right ? drive.left_column : drive.right_column;
        plan->right_join_rel = inner;
        plan->right_join_column = plan->index_column;
        plan->left_outer = drive.left_outer;
        for (int k : EdgesBetween(e.left, mask ^ e.left)) {
          if (k != e.arg) plan->residual_joins.push_back(block_.joins[k]);
        }
        plan->left = Build(e.left, entry_of);
        break;
      }
    }
    return plan;
  }

  const rel::Catalog& catalog_;
  const CostParams& p_;
  const QueryBlock& block_;
  std::vector<RelStats> rels_;    // per relation
  std::vector<EdgeStats> edges_;  // per join edge
};

}  // namespace

StatusOr<PlannedBlock> Optimizer::PlanBlock(const QueryBlock& block) const {
  return BlockPlanner(catalog_, params_, block).Plan();
}

StatusOr<PlannedQuery> Optimizer::PlanQuery(const RelQuery& query) const {
  LEGODB_FAILPOINT("optimizer.plan_query");
  obs::ScopedTimer timer("optimizer.plan_ms");
  obs::Count("optimizer.queries_planned");
  PlannedQuery result;
  for (const auto& block : query.blocks) {
    LEGODB_ASSIGN_OR_RETURN(PlannedBlock pb, PlanBlock(block));
    result.total_cost += pb.cost;
    result.blocks.push_back(std::move(pb));
  }
  return result;
}

}  // namespace legodb::opt
