#include "engine/prepared.h"

#include <algorithm>
#include <functional>

namespace legodb::engine {

Status PreparedPrograms::WalkPlan(const ExprEnv& env,
                                  const opt::PhysicalPlanPtr& p) {
  if (!p) return Status::Internal("null plan node");
  NodePrograms np;
  switch (p->kind) {
    case opt::PhysicalPlan::Kind::kProject:
      return WalkPlan(env, p->child);
    case opt::PhysicalPlan::Kind::kSeqScan: {
      LEGODB_ASSIGN_OR_RETURN(
          np.filter, CompileFilterTemplate(env, p->rel, p->filters));
      break;
    }
    case opt::PhysicalPlan::Kind::kIndexLookup: {
      LEGODB_ASSIGN_OR_RETURN(
          np.filter, CompileFilterTemplate(env, p->rel, p->filters));
      LEGODB_ASSIGN_OR_RETURN(
          np.index, env.tables[p->rel]->GetOrBuildIndex(p->index_column));
      break;
    }
    case opt::PhysicalPlan::Kind::kHashJoin: {
      LEGODB_ASSIGN_OR_RETURN(
          np.left_key, ResolveColumnVector(env, p->left_join_rel,
                                           p->left_join_column, "hash join"));
      LEGODB_ASSIGN_OR_RETURN(
          np.right_key, ResolveColumnVector(env, p->right_join_rel,
                                            p->right_join_column, "hash join"));
      LEGODB_ASSIGN_OR_RETURN(np.residuals,
                              CompileResiduals(env, p->residual_joins));
      // The build-side bypass (see prepared.h): the build side is then
      // neither prepared nor executed.
      const opt::PhysicalPlan* b = p->right.get();
      if (b && b->kind == opt::PhysicalPlan::Kind::kSeqScan &&
          b->rel == p->right_join_rel && b->filters.empty()) {
        LEGODB_ASSIGN_OR_RETURN(
            np.index, env.tables[p->right_join_rel]->GetOrBuildIndex(
                          p->right_join_column));
      }
      const bool bypass = np.index != nullptr;
      nodes_.emplace_back(p.get(), std::move(np));
      LEGODB_RETURN_IF_ERROR(WalkPlan(env, p->left));
      return bypass ? Status::OK() : WalkPlan(env, p->right);
    }
    case opt::PhysicalPlan::Kind::kIndexNLJoin: {
      LEGODB_ASSIGN_OR_RETURN(
          np.filter, CompileFilterTemplate(env, p->rel, p->filters));
      LEGODB_ASSIGN_OR_RETURN(
          np.left_key, ResolveColumnVector(env, p->left_join_rel,
                                           p->left_join_column, "index join"));
      LEGODB_ASSIGN_OR_RETURN(
          np.index, env.tables[p->rel]->GetOrBuildIndex(p->index_column));
      LEGODB_ASSIGN_OR_RETURN(np.residuals,
                              CompileResiduals(env, p->residual_joins));
      nodes_.emplace_back(p.get(), std::move(np));
      return WalkPlan(env, p->left);
    }
  }
  nodes_.emplace_back(p.get(), std::move(np));
  return Status::OK();
}

Status PreparedPrograms::AddBlock(const opt::QueryBlock& block,
                                  const opt::PhysicalPlanPtr& plan) {
  ExprEnv env;
  for (const auto& rel : block.rels) {
    store::StoredTable* table = db_->FindTable(rel.table);
    if (!table) return Status::NotFound("table '" + rel.table + "'");
    env.tables.push_back(table);
    bool seen = false;
    for (const auto& [t, version] : table_versions_) {
      if (t == table) {
        seen = true;
        break;
      }
    }
    if (!seen) table_versions_.emplace_back(table, table->mutation_count());
  }
  return WalkPlan(env, plan);
}

void PreparedPrograms::SortNodes() {
  std::sort(nodes_.begin(), nodes_.end(), [](const auto& a, const auto& b) {
    return std::less<const opt::PhysicalPlan*>()(a.first, b.first);
  });
}

const PreparedPrograms::NodePrograms* PreparedPrograms::Find(
    const opt::PhysicalPlan* node) const {
  auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), node, [](const auto& entry, auto* key) {
        return std::less<const opt::PhysicalPlan*>()(entry.first, key);
      });
  return it != nodes_.end() && it->first == node ? &it->second : nullptr;
}

StatusOr<PreparedPrograms> PreparedPrograms::Compile(
    store::Database* db, const opt::RelQuery& query,
    const std::vector<opt::PhysicalPlanPtr>& block_plans) {
  if (block_plans.size() != query.blocks.size()) {
    return Status::InvalidArgument("plan count mismatch");
  }
  PreparedPrograms prepared;
  prepared.db_ = db;
  for (size_t i = 0; i < query.blocks.size(); ++i) {
    LEGODB_RETURN_IF_ERROR(prepared.AddBlock(query.blocks[i], block_plans[i]));
  }
  prepared.SortNodes();
  return prepared;
}

StatusOr<PreparedPrograms> PreparedPrograms::CompileBlock(
    store::Database* db, const opt::PhysicalPlanPtr& plan,
    std::vector<store::StoredTable*> tables) {
  PreparedPrograms prepared;
  prepared.db_ = db;
  ExprEnv env;
  env.tables = std::move(tables);
  LEGODB_RETURN_IF_ERROR(prepared.WalkPlan(env, plan));
  prepared.SortNodes();
  return prepared;
}

Status PreparedPrograms::CheckFresh() const {
  for (const auto& [table, version] : table_versions_) {
    if (table->mutation_count() != version) {
      return Status::Internal("prepared plan is stale: table '" +
                              table->meta().name +
                              "' was mutated after prepare");
    }
  }
  return Status::OK();
}

}  // namespace legodb::engine
