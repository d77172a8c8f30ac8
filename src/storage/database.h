#ifndef LEGODB_STORAGE_DATABASE_H_
#define LEGODB_STORAGE_DATABASE_H_

// Relational storage for one configuration: a Database of StoredTables.
//
// The paper prices configurations in seeks and bytes. A database stores its
// tables in one of two places, chosen per database by StorageOptions:
//
//  - memory (the default, and the bit-identity reference): each table is
//    one owning ColumnVector per catalog column. Zero IO; the executor
//    charges modeled per-row stats.
//  - paged: fixed-size slotted pages in a backing file behind a pin-count
//    BufferPool with LRU eviction and write-back. Row reads pin real
//    pages; pool faults are real pread traffic, which feeds ExecStats
//    seeks/bytes and the calibration gauges.
//
// Both store the same logical rows in the same order, so every executor
// result is bit-identical across them — the equivalence suites run
// against both.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace legodb::store {

using Row = std::vector<Value>;

struct StorageOptions {
  enum class Backend { kMemory, kPaged };
  Backend backend = Backend::kMemory;
  // Paged backend knobs.
  size_t page_size = 8192;  // bytes per slotted page (512 .. 65536)
  size_t pool_pages = 256;  // buffer pool capacity, in pages
  std::string path;         // backing file; empty = anonymous temp file

  static StorageOptions Memory() { return StorageOptions{}; }
  static StorageOptions Paged(size_t page_size = 8192,
                              size_t pool_pages = 256) {
    StorageOptions o;
    o.backend = Backend::kPaged;
    o.page_size = page_size;
    o.pool_pages = pool_pages;
    return o;
  }
};

// One column of a StoredTable, laid out contiguously so vectorized
// operators can run tight per-column loops. It owns its values: on the
// memory backend it *is* the column's storage; on the paged backend it is
// decoded from pages on first use. Readers see it as immutable (same
// publication contract as HashIndex); only the owning StoredTable appends
// or truncates, while loading.
//
// Three parallel views, all indexed by row position:
//  - null_mask(): 1 byte per row, nonzero = SQL NULL;
//  - ints(): the int64 payload, meaningful only when typed_int() — i.e.
//    every non-null value in the column is an integer (catalog drift or
//    mixed-kind data degrade gracefully to the generic view);
//  - value(i): the Value itself.
class ColumnVector {
 public:
  explicit ColumnVector(std::vector<Value> values = {});

  size_t size() const { return values_.size(); }
  bool typed_int() const { return non_ints_ == 0; }

  bool is_null(size_t i) const { return nulls_[i] != 0; }
  const uint8_t* null_mask() const { return nulls_.data(); }
  const int64_t* ints() const { return ints_.data(); }
  const Value& value(size_t i) const { return values_[i]; }

 private:
  friend class StoredTable;
  void Append(Value v);
  // Keeps the first n values, leaving the state a fresh build of them has.
  void Truncate(size_t n);
  void AppendViews(const Value& v);  // extends nulls_/ints_ by one value

  std::vector<Value> values_;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;  // one per row while typed_int(), else empty
  size_t non_ints_ = 0;        // non-null values that are not integers
};

// An equality (hash) index over one column of a StoredTable. Immutable once
// built — built under the table's registry lock and published as a const
// pointer, so any number of concurrent queries may probe it without further
// synchronization.
class HashIndex {
 public:
  explicit HashIndex(const ColumnVector& column);

  // Row indices whose indexed column equals `key`; empty vector when none.
  const std::vector<size_t>& Find(const Value& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? kEmpty : it->second;
  }

  size_t distinct_keys() const { return map_.size(); }

 private:
  static const std::vector<size_t> kEmpty;
  std::unordered_map<Value, std::vector<size_t>, ValueHash> map_;
};

// Page traffic attributable to one table access: how many buffer-pool
// faults (seeks) it caused and how many bytes those faults read. The memory
// backend always reports zeros — its "IO" stays the modeled per-row charge
// the executor has always used.
struct TableIo {
  double seeks = 0;
  double bytes = 0;
};

// A table laid out per the catalog's column order, with hash indexes and
// one ColumnVector slot per column. Two physical forms behind one
// interface, told apart by whether the table has a buffer pool:
//
//  - memory (no pool): the column vectors are the table. They exist from
//    construction and every Insert appends to each of them;
//  - paged: rows serialized into fixed-size slotted pages behind the
//    database's buffer pool, with a RowLocator (page, slot) per row. A
//    column slot stays empty until GetOrBuildColumn decodes it from pages,
//    and every mutation empties it again. Readers charge real page
//    traffic via FetchRowRange()/FetchRows().
//
// Loading (Insert/RemoveLastRows) must be single-threaded and finish before
// query serving starts; after that, any number of threads may read rows and
// fetch/build indexes or column vectors concurrently — the registry is
// internally synchronized, and published HashIndex / ColumnVector pointers
// stay valid (and unchanged) until the next mutation. Every mutation bumps
// mutation_count(), which prepared plans record and re-check at Open().
class StoredTable {
 public:
  // A memory table, or a paged one when `pool` is non-null (the pool and
  // its pager must outlive the table).
  explicit StoredTable(rel::Table meta, BufferPool* pool = nullptr);
  StoredTable(StoredTable&& other) noexcept
      : meta_(std::move(other.meta_)),
        pool_(other.pool_),
        row_count_(other.row_count_),
        locators_(std::move(other.locators_)),
        pages_(std::move(other.pages_)),
        mutations_(other.mutations_.load(std::memory_order_relaxed)),
        indexes_(std::move(other.indexes_)),
        columns_(std::move(other.columns_)) {}

  const rel::Table& meta() const { return meta_; }
  bool paged() const { return pool_ != nullptr; }
  BufferPool* pool() const { return pool_; }
  Pager* pager() const { return pool_ == nullptr ? nullptr : pool_->pager(); }

  size_t row_count() const { return row_count_; }

  // Monotonic mutation counter: bumped by every Insert/RemoveLastRows.
  // Prepared plans snapshot it and refuse to run when it has moved.
  uint64_t mutation_count() const {
    return mutations_.load(std::memory_order_acquire);
  }

  // Appends a row; must have one value per column. Invalidates indexes
  // (and, on the paged backend, decoded columns). On the paged backend this
  // serializes the row into the tail slotted page (allocating a fresh page
  // when it does not fit) and can fail on real IO — memory inserts always
  // succeed.
  Status Insert(Row row);
  // Removes the n most recently inserted rows (shredder rollback support).
  Status RemoveLastRows(size_t n);

  // Materializes row `i` as a Row (copy). Works on both backends; the paged
  // read pins the row's page (IO charged to the pool, not attributed — use
  // FetchRows for attribution).
  StatusOr<Row> ReadRow(size_t i) const;

  // Touches the pages holding rows [begin, end) in order, returning the
  // page traffic this call actually caused (pool faults only — resident
  // pages are free). The sequential-scan IO path.
  StatusOr<TableIo> FetchRowRange(size_t begin, size_t end) const;
  // Same for an explicit row-index list (negative entries are skipped —
  // they are unbound lanes). The index-probe IO path.
  StatusOr<TableIo> FetchRows(const int32_t* rows, size_t n) const;

  // Returns the index on `column`, building it on first use (thread-safe).
  // Internal error when the column does not exist in this table.
  StatusOr<const HashIndex*> GetOrBuildIndex(const std::string& column);

  // Returns the column vector of `column` — the stored one on the memory
  // backend, decoded from pages on first use on the paged backend
  // (thread-safe). Internal error when the column does not exist.
  StatusOr<const ColumnVector*> GetOrBuildColumn(const std::string& column);

  // Whether an index on `column` is currently built (tests observe that
  // mutations drop indexes).
  bool HasIndex(const std::string& column) const;

 private:
  struct RowLocator {
    uint32_t page = 0;
    uint16_t slot = 0;
  };

  // Paged-backend internals (all assume paged()).
  Status InsertPaged(const Row& row);
  Status RemoveLastRowsPaged(size_t n);
  StatusOr<Row> ReadRowPaged(size_t i) const;
  StatusOr<const ColumnVector*> GetOrBuildColumnLocked(
      const std::string& column, const char* what);
  // Bumps the mutation counter and drops everything derived from rows.
  void Invalidate();

  rel::Table meta_;
  BufferPool* pool_ = nullptr;  // owned by the Database; null = memory
  size_t row_count_ = 0;

  // Paged backend: one locator per row, plus the owned pages in order (the
  // tail page is the insertion target).
  std::vector<RowLocator> locators_;
  std::vector<uint32_t> pages_;

  std::atomic<uint64_t> mutations_{0};

  mutable std::mutex index_mu_;
  std::map<std::string, std::unique_ptr<HashIndex>> indexes_;
  // One slot per catalog column, in catalog order.
  std::vector<std::unique_ptr<ColumnVector>> columns_;
};

// A relational database instance for one storage configuration.
class Database {
 public:
  // Creates empty tables for every table in the catalog, on the storage
  // `options` describes (in-memory tables by default). A paged database
  // that cannot create its backing file aborts — callers wanting to handle
  // that probe with Pager::Open first.
  explicit Database(const rel::Catalog& catalog,
                    StorageOptions options = StorageOptions());

  // Movable (the atomic id counter would otherwise delete the default);
  // move only while single-threaded, i.e. before serving starts.
  Database(Database&& other) noexcept
      : options_(std::move(other.options_)),
        pager_(std::move(other.pager_)),
        pool_(std::move(other.pool_)),
        tables_(std::move(other.tables_)),
        next_id_(other.next_id_.load(std::memory_order_relaxed)) {}

  const StorageOptions& storage_options() const { return options_; }
  bool paged() const { return pool_ != nullptr; }
  // Paged machinery, for metrics and spill paths (nullptr on memory).
  BufferPool* buffer_pool() const { return pool_.get(); }
  Pager* pager() const { return pager_.get(); }

  // Write-back + durability barrier (no-op for the memory backend). Called
  // by the shredder after loading.
  Status Flush();

  StoredTable* FindTable(const std::string& name);
  const StoredTable* FindTable(const std::string& name) const;
  StoredTable& GetTable(const std::string& name);
  const StoredTable& GetTable(const std::string& name) const;

  // Builds the primary-key and foreign-key indexes of every table up front,
  // so concurrent queries never pay (or contend on) a first-use build.
  // Call after loading, before serving.
  Status PrewarmIndexes();

  // Decodes every column of every paged table up front — the column-vector
  // counterpart of PrewarmIndexes() (memory columns always exist). Without
  // this, the first post-startup queries decode columns lazily under the
  // per-table registry mutex, serializing concurrent sessions behind one
  // another.
  Status PrewarmColumns();

  // Fresh unique id for a new row (shared across tables, like the paper's
  // element node ids). Atomic: a Database is documented as shared, and the
  // migrator's shadow loads may run concurrently with other writers of
  // *other* databases — a plain increment here was a latent lost-update
  // bug for any two threads shredding into one database.
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Total number of rows across all tables.
  size_t TotalRows() const;

  std::vector<std::string> table_names() const;

 private:
  StorageOptions options_;
  // Declared before tables_ (and the pager before the pool): StoredTables
  // point into the pool, which points into the pager, so each must be
  // destroyed after its users. Both null on the memory backend.
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::map<std::string, StoredTable> tables_;
  std::atomic<int64_t> next_id_{1};
};

}  // namespace legodb::store

#endif  // LEGODB_STORAGE_DATABASE_H_
