#ifndef LEGODB_SERVING_MIGRATOR_H_
#define LEGODB_SERVING_MIGRATOR_H_

// Online storage reconfiguration: shadow-shred, verify, swap, drain.
//
// The paper's cost-based search picks a storage configuration for an
// observed workload — but workloads drift, and the chosen configuration
// with them. A Migrator moves a live database to a new physical schema
// without stopping query serving:
//
//   1. shadow   — map the target p-schema to its relational configuration
//                 (map::MapSchema) and shred the source document into a
//                 fresh shadow store::Database on the caller's thread,
//                 touching nothing the serving path reads;
//   2. prewarm  — build every index and column vector of the shadow
//                 database, so the first post-swap requests pay no lazy
//                 builds;
//   3. verify   — execute every workload query against the old (pinned)
//                 version and the shadow, requiring bit-identical result
//                 rows (which subsumes row counts); a mismatch aborts.
//                 Publish queries (whole-element returns like `RETURN $s`,
//                 opt::RelQuery::publish) flatten the subtree differently
//                 per storage layout — see tests/equivalence_test.cc,
//                 which excludes them for the same reason — so they are
//                 configuration-dependent by design and are counted as
//                 skipped, not failed;
//   4. swap     — publish the shadow as the registry's next generation:
//                 one pointer store under the registry mutex. New requests
//                 pin the new version; in-flight requests finish on the
//                 version they pinned;
//   5. drain    — wait (bounded) for the superseded version's pin count to
//                 reach zero, and report how long it took.
//
// Rollback contract: the swap in step 4 is the only side effect the
// serving path can observe. Any failure before it — shred error, prewarm
// error, verification mismatch, a fired failpoint — simply abandons the
// shadow (reported as Rolled back, metric `migration.rolled_back`); the
// current version keeps serving untouched. After the swap the migration
// cannot fail. Plan-cache entries compiled against the old generation are
// invalidated lazily: the generation tag turns the next lookup into a
// miss + recompile (see serving/plan_cache.h).
//
// Failure injection: the phases carry failpoint sites `migrate.shred`,
// `migrate.verify`, and `migrate.swap` (the last fires *before* publish,
// so even a "swap failure" rolls back cleanly). The chaos harness arms
// them probabilistically while serving threads hammer the registry.
//
// Concurrency: one migration at a time per Migrator — a second concurrent
// MigrateTo returns Status::Unavailable (the retry layer's cue). Serving
// threads are never blocked by any phase; they only ever see Publish's
// pointer swap.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/db_registry.h"
#include "xml/dom.h"
#include "xquery/result.h"
#include "xschema/schema.h"

namespace legodb::serving {

// One workload query used for old-vs-new verification.
struct MigrationQuery {
  std::string name;
  std::string text;
};

struct MigrationOptions {
  // Parameter bindings (c1, c2, ...) shared by every verification query.
  std::map<std::string, Value> params;
  // Bound wait for the superseded version to drain after the swap; the
  // migration still succeeds on timeout (the version drains whenever its
  // last request finishes), drain_ms just reports the cap.
  double drain_timeout_ms = 5000;
  // Build all indexes/column vectors of the shadow database before the
  // swap (step 2). Disable only in tests that measure lazy builds.
  bool prewarm = true;
};

struct MigrationReport {
  uint64_t from_generation = 0;
  uint64_t to_generation = 0;  // == from_generation + n on success
  size_t shadow_rows = 0;      // total rows shredded into the shadow
  size_t verified_queries = 0;
  // Publish (whole-subtree) workload queries: their relational flattening
  // is configuration-dependent, so they are not comparable old-vs-new —
  // not counted as verified, and not as failures either.
  size_t skipped_queries = 0;
  double shred_ms = 0;
  double prewarm_ms = 0;
  double verify_ms = 0;
  double swap_ms = 0;   // Publish() latency: the only serving-visible step
  double drain_ms = 0;  // how long the old version stayed pinned post-swap

  std::string ToString() const;
};

class Migrator {
 public:
  // `registry` is the live database being reconfigured; `doc` is the
  // source document to shadow-shred (both non-owned, must outlive the
  // Migrator). The document must be the same one the current version was
  // loaded from, or verification will (correctly) fail.
  Migrator(store::DbRegistry* registry, const xml::Document* doc)
      : registry_(registry), doc_(doc) {}

  // Migrates the registry to the configuration `target` maps to,
  // verifying with `workload`. On any pre-swap failure the registry is
  // untouched and the error is returned (metric `migration.rolled_back`).
  // Thread-safe; concurrent calls beyond the first get Unavailable.
  StatusOr<MigrationReport> MigrateTo(
      const xs::Schema& target,
      const std::vector<MigrationQuery>& workload,
      const MigrationOptions& options = {});

 private:
  StatusOr<MigrationReport> RunPhases(const xs::Schema& target,
                                      const std::vector<MigrationQuery>& workload,
                                      const MigrationOptions& options);

  store::DbRegistry* registry_;
  const xml::Document* doc_;
  std::mutex migrate_mu_;  // one migration at a time
};

// Executes one XQuery text against a pinned version through the full
// relational pipeline (parse, translate, optimize, execute). Exposed for
// the chaos harness, which uses it to cross-check servers against shadow
// configurations. When `publish` is non-null it reports whether the query
// translated to a publish (whole-subtree) query, whose flattening is
// configuration-dependent.
StatusOr<xq::ResultSet> ExecuteAgainstVersion(
    const store::DbVersion& version, const std::string& text,
    const std::map<std::string, Value>& params, bool* publish = nullptr);

}  // namespace legodb::serving

#endif  // LEGODB_SERVING_MIGRATOR_H_
