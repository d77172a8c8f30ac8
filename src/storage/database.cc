#include "storage/database.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace legodb::store {

namespace {

// Grows `v` to hold `n` elements, never by less than doubling, so that a
// run of small reserves (one per shredded document) stays amortized.
template <typename T>
void ReserveAmortized(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n, 2 * v->capacity()));
}

// --- Slotted pages -------------------------------------------------------
//
// Page layout (all offsets in bytes, u16 little-endian via memcpy):
//
//   [0..2)   u16 nslots     number of rows on the page
//   [2..4)   u16 free_off   start of free space (payload grows up from 4)
//   [4..free_off)           row payloads, in slot order
//   ...free space...
//   [page_size - 4*nslots .. page_size)   slot directory, growing DOWN:
//        slot i lives at page_size - 4*(i+1) as {u16 off, u16 len}
//
// A row fits iff free_off + len <= page_size - 4*(nslots+1).
//
// Row payload: per value, a 1-byte tag — 0 = NULL, 1 = int64 (8 bytes),
// 2 = string (u32 length + bytes).

constexpr size_t kPageHeaderBytes = 4;
constexpr size_t kSlotBytes = 4;

uint16_t LoadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU16(char* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

size_t SerializedSize(const Row& row) {
  size_t n = 0;
  for (const Value& v : row) {
    n += 1;  // tag
    if (v.is_int()) {
      n += 8;
    } else if (v.is_string()) {
      n += 4 + v.as_string().size();
    }
  }
  return n;
}

void SerializeRow(const Row& row, char* out) {
  char* p = out;
  for (const Value& v : row) {
    if (v.is_null()) {
      *p++ = 0;
    } else if (v.is_int()) {
      *p++ = 1;
      int64_t x = v.as_int();
      std::memcpy(p, &x, sizeof(x));
      p += sizeof(x);
    } else {
      *p++ = 2;
      const std::string& s = v.as_string();
      StoreU32(p, static_cast<uint32_t>(s.size()));
      p += 4;
      std::memcpy(p, s.data(), s.size());
      p += s.size();
    }
  }
}

Status DeserializeRow(const char* data, size_t len, size_t ncols, Row* out) {
  out->clear();
  out->reserve(ncols);
  const char* p = data;
  const char* end = data + len;
  for (size_t c = 0; c < ncols; ++c) {
    if (p >= end) return Status::Internal("slotted row truncated (tag)");
    uint8_t tag = static_cast<uint8_t>(*p++);
    switch (tag) {
      case 0:
        out->push_back(Value::MakeNull());
        break;
      case 1: {
        if (end - p < 8) return Status::Internal("slotted row truncated (int)");
        int64_t x;
        std::memcpy(&x, p, sizeof(x));
        p += sizeof(x);
        out->push_back(Value::Int(x));
        break;
      }
      case 2: {
        if (end - p < 4) {
          return Status::Internal("slotted row truncated (string length)");
        }
        uint32_t n = LoadU32(p);
        p += 4;
        if (static_cast<size_t>(end - p) < n) {
          return Status::Internal("slotted row truncated (string payload)");
        }
        out->push_back(Value::Str(std::string(p, n)));
        p += n;
        break;
      }
      default:
        return Status::Internal("slotted row: bad value tag " +
                                std::to_string(tag));
    }
  }
  if (p != end) {
    return Status::Internal("slotted row has trailing bytes");
  }
  return Status::OK();
}

// Locates slot `slot` on a pinned page; validates directory bounds.
Status SlotExtent(const char* page, size_t page_size, uint16_t slot,
                  uint16_t* off, uint16_t* len) {
  uint16_t nslots = LoadU16(page);
  if (slot >= nslots) {
    return Status::Internal("slotted page: slot " + std::to_string(slot) +
                            " out of range (nslots=" + std::to_string(nslots) +
                            ")");
  }
  const char* entry = page + page_size - kSlotBytes * (slot + 1);
  *off = LoadU16(entry);
  *len = LoadU16(entry + 2);
  if (static_cast<size_t>(*off) + static_cast<size_t>(*len) > page_size) {
    return Status::Internal("slotted page: slot extent out of bounds");
  }
  return Status::OK();
}

}  // namespace

const std::vector<size_t> HashIndex::kEmpty;

HashIndex::HashIndex(const ColumnVector& column) {
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.is_null(i)) continue;
    map_[column.value(i)].push_back(i);
  }
}

ColumnVector::ColumnVector(std::vector<Value> values)
    : values_(std::move(values)) {
  nulls_.reserve(values_.size());
  ints_.reserve(values_.size());
  for (const Value& v : values_) AppendViews(v);
}

void ColumnVector::Append(Value v) {
  values_.push_back(std::move(v));
  AppendViews(values_.back());
}

void ColumnVector::AppendViews(const Value& v) {
  nulls_.push_back(v.is_null() ? 1 : 0);
  if (!v.is_null() && !v.is_int()) {
    if (non_ints_++ == 0) {
      ints_.clear();
      ints_.shrink_to_fit();
    }
  } else if (typed_int()) {
    ints_.push_back(v.is_int() ? v.as_int() : 0);
  }
}

void ColumnVector::Truncate(size_t n) {
  for (size_t i = n; i < values_.size(); ++i) {
    if (!values_[i].is_null() && !values_[i].is_int()) --non_ints_;
  }
  values_.resize(n);
  nulls_.resize(n);
  if (!typed_int()) return;
  if (ints_.size() >= n) {
    ints_.resize(n);
    return;
  }
  // The removed rows held the column's last non-integers: the survivors
  // regain the int64 view a fresh build of them would have.
  ints_.clear();
  for (const Value& v : values_) ints_.push_back(v.is_int() ? v.as_int() : 0);
}

StoredTable::StoredTable(rel::Table meta, BufferPool* pool)
    : meta_(std::move(meta)), pool_(pool), columns_(meta_.columns.size()) {
  if (paged()) return;
  for (auto& column : columns_) column = std::make_unique<ColumnVector>();
}

void StoredTable::Invalidate() {
  mutations_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(index_mu_);
  indexes_.clear();  // rebuilt on first use after loading
  if (paged()) {
    for (auto& column : columns_) column.reset();
  }
}

Status StoredTable::Insert(Row row) {
  LEGODB_CHECK(row.size() == meta_.columns.size(),
               "StoredTable::Insert: row arity mismatch");
  if (paged()) {
    LEGODB_RETURN_IF_ERROR(InsertPaged(row));
  } else {
    for (size_t c = 0; c < row.size(); ++c) {
      columns_[c]->Append(std::move(row[c]));
    }
  }
  ++row_count_;
  Invalidate();
  return Status::OK();
}

void StoredTable::Reserve(size_t n) {
  n += row_count_;
  if (paged()) return ReserveAmortized(&locators_, n);
  for (auto& column : columns_) {
    ReserveAmortized(&column->values_, n);
    ReserveAmortized(&column->nulls_, n);
    if (column->typed_int()) ReserveAmortized(&column->ints_, n);
  }
}

Status StoredTable::InsertPaged(const Row& row) {
  BufferPool* bp = pool_;
  Pager* pg = pager();
  const size_t page_size = pg->page_size();
  const size_t len = SerializedSize(row);
  // A fresh page must hold the header, one slot entry, and the payload.
  if (len > page_size - kPageHeaderBytes - kSlotBytes || len > 65535) {
    return Status::Internal("row of " + std::to_string(len) +
                            " bytes does not fit a " +
                            std::to_string(page_size) + "-byte page (table '" +
                            meta_.name + "')");
  }

  BufferPool::PageGuard guard;
  uint32_t page_id = 0;
  if (!pages_.empty()) {
    page_id = pages_.back();
    LEGODB_ASSIGN_OR_RETURN(guard, bp->Pin(page_id));
    uint16_t nslots = LoadU16(guard.data());
    uint16_t free_off = LoadU16(guard.data() + 2);
    if (static_cast<size_t>(free_off) + len >
        page_size - kSlotBytes * (static_cast<size_t>(nslots) + 1)) {
      guard.Release();  // tail page is full; fall through to a fresh page
    }
  }
  if (!guard.valid()) {
    LEGODB_ASSIGN_OR_RETURN(page_id, pg->Allocate());
    auto pinned = bp->PinNew(page_id);
    if (!pinned.ok()) {
      pg->Free(page_id);
      return pinned.status();
    }
    guard = std::move(*pinned);
    StoreU16(guard.data(), 0);
    StoreU16(guard.data() + 2, kPageHeaderBytes);
    pages_.push_back(page_id);
  }

  char* page = guard.data();
  uint16_t nslots = LoadU16(page);
  uint16_t free_off = LoadU16(page + 2);
  SerializeRow(row, page + free_off);
  char* entry = page + page_size - kSlotBytes * (nslots + 1);
  StoreU16(entry, free_off);
  StoreU16(entry + 2, static_cast<uint16_t>(len));
  StoreU16(page, static_cast<uint16_t>(nslots + 1));
  StoreU16(page + 2, static_cast<uint16_t>(free_off + len));
  guard.MarkDirty();

  locators_.push_back(RowLocator{page_id, nslots});
  return Status::OK();
}

Status StoredTable::RemoveLastRows(size_t n) {
  LEGODB_CHECK(n <= row_count_,
               "StoredTable::RemoveLastRows: more rows than stored");
  Status st = Status::OK();
  if (paged()) {
    st = RemoveLastRowsPaged(n);
  } else {
    for (auto& column : columns_) column->Truncate(row_count_ - n);
    row_count_ -= n;
  }
  Invalidate();  // also after a partial paged removal
  return st;
}

Status StoredTable::RemoveLastRowsPaged(size_t n) {
  BufferPool* bp = pool_;
  for (size_t k = 0; k < n; ++k) {
    RowLocator loc = locators_.back();
    LEGODB_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, bp->Pin(loc.page));
    char* page = guard.data();
    uint16_t nslots = LoadU16(page);
    LEGODB_CHECK(nslots == loc.slot + 1,
                 "StoredTable::RemoveLastRows: non-LIFO slot state");
    const char* entry =
        page + pager()->page_size() - kSlotBytes * (loc.slot + 1);
    uint16_t off = LoadU16(entry);
    StoreU16(page, static_cast<uint16_t>(nslots - 1));
    StoreU16(page + 2, off);  // reclaim the payload space
    guard.MarkDirty();
    locators_.pop_back();
    --row_count_;
    if (nslots - 1 == 0 && !pages_.empty() && pages_.back() == loc.page) {
      guard.Release();
      bp->Discard(loc.page);
      pager()->Free(loc.page);
      pages_.pop_back();
    }
  }
  return Status::OK();
}

StatusOr<Row> StoredTable::ReadRow(size_t i) const {
  if (i >= row_count_) {
    return Status::Internal("ReadRow: row index out of range");
  }
  if (paged()) return ReadRowPaged(i);
  Row row;
  row.reserve(columns_.size());
  for (const auto& column : columns_) row.push_back(column->value(i));
  return row;
}

StatusOr<Row> StoredTable::ReadRowPaged(size_t i) const {
  const RowLocator loc = locators_[i];
  LEGODB_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool_->Pin(loc.page));
  uint16_t off = 0;
  uint16_t len = 0;
  LEGODB_RETURN_IF_ERROR(
      SlotExtent(guard.data(), pager()->page_size(), loc.slot, &off, &len));
  Row row;
  LEGODB_RETURN_IF_ERROR(
      DeserializeRow(guard.data() + off, len, meta_.columns.size(), &row));
  return row;
}

StatusOr<TableIo> StoredTable::FetchRowRange(size_t begin, size_t end) const {
  if (paged()) return PageFaults(nullptr, begin, end);
  return TableIo{begin == 0 ? 1.0 : 0.0,
                 static_cast<double>(end - begin) * meta_.RowWidth()};
}

StatusOr<TableIo> StoredTable::FetchRows(const int32_t* rows, size_t n) const {
  if (paged()) return PageFaults(rows, 0, n);
  return TableIo{static_cast<double>(n),
                 static_cast<double>(n) * meta_.RowWidth()};
}

TableIo StoredTable::ProbeIndex(size_t probes) const {
  if (paged()) return TableIo{};
  return TableIo{static_cast<double>(probes), 0};
}

Pager* StoredTable::SpillPager(size_t bytes) const {
  if (!paged() || bytes <= pool_->capacity() * pager()->page_size() / 4) {
    return nullptr;
  }
  return pager();
}

StatusOr<TableIo> StoredTable::PageFaults(const int32_t* rows, size_t begin,
                                          size_t end) const {
  TableIo io;
  const double page_bytes = static_cast<double>(pager()->page_size());
  BufferPool::PageGuard guard;  // keeps the current page pinned
  for (size_t i = begin; i < end; ++i) {
    // A negative entry wraps to a huge index and fails the bound check.
    const size_t r = rows == nullptr ? i : static_cast<size_t>(rows[i]);
    if (r >= locators_.size()) {
      return Status::Internal("row " + std::to_string(r) +
                              " out of range in table '" + meta_.name + "'");
    }
    const uint32_t page = locators_[r].page;
    if (guard.valid() && guard.page_id() == page) continue;
    guard.Release();  // before pinning the next page: a 1-frame pool must work
    LEGODB_ASSIGN_OR_RETURN(guard, pool_->Pin(page));
    if (guard.faulted()) {
      io.seeks += 1;
      io.bytes += page_bytes;
    }
  }
  return io;
}

StatusOr<const HashIndex*> StoredTable::GetOrBuildIndex(
    const std::string& column) {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(column);
  if (it != indexes_.end()) return static_cast<const HashIndex*>(it->second.get());
  LEGODB_ASSIGN_OR_RETURN(const ColumnVector* col,
                          GetOrBuildColumnLocked(column, "index"));
  auto built = std::make_unique<HashIndex>(*col);
  const HashIndex* result = built.get();
  indexes_.emplace(column, std::move(built));
  return result;
}

StatusOr<const ColumnVector*> StoredTable::GetOrBuildColumn(
    const std::string& column) {
  std::lock_guard<std::mutex> lock(index_mu_);
  return GetOrBuildColumnLocked(column, "vectorize");
}

StatusOr<const ColumnVector*> StoredTable::GetOrBuildColumnLocked(
    const std::string& column, const char* what) {
  int idx = meta_.ColumnIndex(column);
  if (idx < 0) {
    return Status::Internal("no column '" + column + "' in table '" +
                            meta_.name + "' to " + what);
  }
  std::unique_ptr<ColumnVector>& slot = columns_[static_cast<size_t>(idx)];
  if (slot != nullptr) return static_cast<const ColumnVector*>(slot.get());
  // Paged and not yet decoded: one sequential page scan, deserializing each
  // row once and keeping only the requested column.
  std::vector<Value> values;
  values.reserve(locators_.size());
  Row scratch;
  for (const RowLocator& loc : locators_) {
    LEGODB_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool_->Pin(loc.page));
    uint16_t off = 0;
    uint16_t len = 0;
    LEGODB_RETURN_IF_ERROR(
        SlotExtent(guard.data(), pager()->page_size(), loc.slot, &off, &len));
    LEGODB_RETURN_IF_ERROR(DeserializeRow(guard.data() + off, len,
                                          meta_.columns.size(), &scratch));
    values.push_back(std::move(scratch[static_cast<size_t>(idx)]));
  }
  slot = std::make_unique<ColumnVector>(std::move(values));
  return static_cast<const ColumnVector*>(slot.get());
}

bool StoredTable::HasIndex(const std::string& column) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return indexes_.count(column) > 0;
}

Database::Database(const rel::Catalog& catalog, StorageOptions options)
    : options_(std::move(options)) {
  if (options_.backend == StorageOptions::Backend::kPaged) {
    Pager::Options popts;
    popts.path = options_.path;
    popts.page_size = options_.page_size;
    StatusOr<std::unique_ptr<Pager>> pager = Pager::Open(popts);
    LEGODB_CHECK(pager.ok(), "Database: cannot open the paged backing file");
    pager_ = std::move(*pager);
    pool_ = std::make_unique<BufferPool>(pager_.get(), options_.pool_pages);
  }
  for (const auto& name : catalog.table_names()) {
    tables_.emplace(name, StoredTable(catalog.GetTable(name), pool_.get()));
  }
}

Status Database::Flush() {
  if (pool_ == nullptr) return Status::OK();
  LEGODB_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Sync();
}

StoredTable* Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const StoredTable* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

StoredTable& Database::GetTable(const std::string& name) {
  StoredTable* t = FindTable(name);
  LEGODB_CHECK(t != nullptr, "Database::GetTable: unknown table");
  return *t;
}

const StoredTable& Database::GetTable(const std::string& name) const {
  const StoredTable* t = FindTable(name);
  LEGODB_CHECK(t != nullptr, "Database::GetTable: unknown table");
  return *t;
}

Status Database::PrewarmIndexes() {
  for (auto& [name, table] : tables_) {
    if (!table.meta().key_column.empty()) {
      LEGODB_RETURN_IF_ERROR(
          table.GetOrBuildIndex(table.meta().key_column).status());
    }
    for (const auto& fk : table.meta().foreign_keys) {
      LEGODB_RETURN_IF_ERROR(table.GetOrBuildIndex(fk.column).status());
    }
  }
  return Status::OK();
}

Status Database::PrewarmColumns() {
  for (auto& [name, table] : tables_) {
    for (const auto& col : table.meta().columns) {
      LEGODB_RETURN_IF_ERROR(table.GetOrBuildColumn(col.name).status());
    }
  }
  return Status::OK();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table.row_count();
  return total;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace legodb::store
