#ifndef LEGODB_ENGINE_PREPARED_H_
#define LEGODB_ENGINE_PREPARED_H_

// Prepared execution state for physical plans.
//
// Every execution runs from a PreparedPrograms: each scan/join node gets a
// compiled filter/residual *template* (symbolic constants left as named
// parameter slots, see ExprProgram::BindParams) plus its resolved
// ColumnVector/HashIndex pointers, so operator Open() only copies templates
// and binds parameters. A plan executed many times (the serving layer's
// plan cache) is prepared once and passed in ExecOptions::prepared; any
// other execution prepares its own block at the start of the run.
//
// Preparation alone decides the hash-join build-side bypass: a hash join
// whose build side is an unfiltered SeqScan of the build relation, on
// either backend, gets that relation's shared index in NodePrograms::index,
// and the executor probes it instead of running the build scan.
//
// A PreparedPrograms is immutable after compilation and safe to share
// across any number of concurrent executors (lookups are const; executors
// copy the programs they use). It is keyed by plan-node identity, so it is
// only meaningful for the exact plan trees it was compiled from — callers
// keep the PhysicalPlanPtrs alive alongside it (the plan cache stores both
// in one entry). The executor prepares its own block instead when a given
// set was compiled against a different Database.

#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/expr_vm.h"
#include "optimizer/plan.h"
#include "storage/database.h"

namespace legodb::engine {

class PreparedPrograms {
 public:
  // Everything one operator Open() needs; members a node kind does not use
  // stay empty/null.
  struct NodePrograms {
    ExprProgram filter;     // parameterized filter template (scan kinds)
    ExprProgram residuals;  // residual join edges (join kinds; no params)
    const store::ColumnVector* left_key = nullptr;   // probe/outer join key
    const store::ColumnVector* right_key = nullptr;  // hash-join build key
    // Lookup / NL-join index; for a hash join, the build relation's shared
    // index when the build side is bypassed (null = materialize it).
    const store::HashIndex* index = nullptr;
  };

  // Compiles templates for every operator of every block plan. Resolving
  // columns and indexes here doubles as a prewarm: the first concurrent
  // executions never race to lazily build them for these plans.
  static StatusOr<PreparedPrograms> Compile(
      store::Database* db, const opt::RelQuery& query,
      const std::vector<opt::PhysicalPlanPtr>& block_plans);

  // The same for one block plan whose tables the caller has already
  // resolved (`tables[i]` holds block relation i), for use within one
  // execution: tables are not mutated while queries run, so this set
  // records no table versions and CheckFresh() always passes.
  static StatusOr<PreparedPrograms> CompileBlock(
      store::Database* db, const opt::PhysicalPlanPtr& plan,
      std::vector<store::StoredTable*> tables);

  // The prepared state for `node`, or nullptr if `node` is not part of the
  // plans this set was compiled from.
  const NodePrograms* Find(const opt::PhysicalPlan* node) const;

  // OK while every table this plan touches still has the mutation count it
  // had at Compile() time; Internal (naming the table) once any of them has
  // been mutated since. The resolved ColumnVector/HashIndex pointers above
  // dangle after a mutation clears the table registries, so the executor
  // calls this before trusting them.
  Status CheckFresh() const;

  store::Database* database() const { return db_; }

 private:
  Status AddBlock(const opt::QueryBlock& block,
                  const opt::PhysicalPlanPtr& plan);
  Status WalkPlan(const ExprEnv& env, const opt::PhysicalPlanPtr& p);
  void SortNodes();

  store::Database* db_ = nullptr;
  // (plan node, its programs), sorted by node address once compiled.
  std::vector<std::pair<const opt::PhysicalPlan*, NodePrograms>> nodes_;
  // (table, mutation count at compile time), deduplicated per table.
  std::vector<std::pair<const store::StoredTable*, uint64_t>> table_versions_;
};

}  // namespace legodb::engine

#endif  // LEGODB_ENGINE_PREPARED_H_
