#ifndef CHRONOLOG_STORAGE_RELATION_H_
#define CHRONOLOG_STORAGE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/tuple.h"
#include "util/hash.h"
#include "util/symbol_table.h"

namespace chronolog {

/// Deduplicated set of same-arity tuples — the storage unit behind every
/// predicate (and, for temporal predicates, every snapshot cell) of an
/// Interpretation.
///
/// Layout: 40 bytes inline — one flat row-major `SymbolId` vector (row `r`
/// occupies `[r * arity, (r + 1) * arity)`), the row count, the arity and a
/// pointer to a lazily allocated side struct. Rows are identified by their
/// append order (`uint32_t` row ids, dense `[0, size())`). A relation of at
/// most `kInlineRows` rows deduplicates and answers `Contains` by a linear
/// scan and owns no side struct: most snapshot cells hold a handful of
/// facts, and for them the row vector (nothing for arity 0) is the whole
/// cost, so a timeline of cells stays small. The 9th row allocates the side
/// struct, which holds
///   - a compact open-addressing dedup table (swiss-table style: one control
///     byte per slot holding a 7-bit tag of the row hash, probed eight slots
///     at a time with SWAR word ops), whose slots store row ids — so
///     `Insert`/`Contains` touch one contiguous control array plus the row
///     vector, never per-tuple heap nodes;
///   - the per-column distinct-count cache of `DistinctInColumn`;
///   - the column indexes of `Probe`, built lazily per column and maintained
///     by later inserts.
/// A probe of a small relation allocates the side struct too (the evaluator
/// scans small relations instead of probing them).
///
/// Rows are append-only: there is no erase, so row ids are stable for the
/// lifetime of the relation (truncation at the Interpretation level clears
/// whole Relations; `Clear` empties one for reuse). The arity is fixed by
/// the first insert; a default-constructed relation accepts any arity once.
/// Copies carry the side struct, indexes included; a copy's indexes address
/// the copy's own rows (row ids are positional).
///
/// Thread-safety: concurrent readers are safe, except `DistinctInColumn` and
/// `Probe`, which refresh internal caches; any write requires exclusive
/// access.
class Relation {
 public:
  /// Relations up to this many rows deduplicate by linear scan, without a
  /// side struct.
  static constexpr std::size_t kInlineRows = 8;

  Relation();
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&&) noexcept;
  Relation& operator=(Relation&&) noexcept;
  ~Relation();

  std::size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  std::size_t arity() const { return arity_ == kNoArity ? 0 : arity_; }

  /// Value of column `col` in row `row`. No bounds checks in release builds.
  SymbolId at(std::size_t row, std::size_t col) const {
    return rows_[row * arity_ + col];
  }

  /// The `arity()` values of row `row`, contiguous.
  const SymbolId* row_data(std::size_t row) const {
    return rows_.data() + row * arity_;
  }

  /// Inserts the tuple `data[0..n)`; returns true when it was new. `n` must
  /// equal the arity fixed by the first insert.
  bool Insert(const SymbolId* data, std::size_t n);
  bool Insert(const Tuple& tuple) { return Insert(tuple.data(), tuple.size()); }

  bool Contains(const SymbolId* data, std::size_t n) const;
  bool Contains(const Tuple& tuple) const {
    return Contains(tuple.data(), tuple.size());
  }

  /// Removes every row but keeps the arity, the row capacity and the side
  /// struct's table capacity, so a reused relation refills without
  /// allocating. Column indexes are dropped.
  void Clear();

  /// Materialises row `row` as a Tuple.
  Tuple Row(std::size_t row) const;

  /// Copies row `row` into `*out` (cleared first; capacity is reused, so a
  /// scratch tuple makes repeated enumeration allocation-free).
  void CopyRow(std::size_t row, Tuple* out) const;

  /// Set equality (row order is irrelevant).
  friend bool operator==(const Relation& a, const Relation& b);
  friend bool operator!=(const Relation& a, const Relation& b) {
    return !(a == b);
  }

  /// Estimated number of distinct values in column `col` (>= 1 when the
  /// relation is non-empty). Exact for relations of at most kInlineRows
  /// rows; larger ones are sampled over at most ~1k rows and cached, and the
  /// cache refreshes once the relation doubles. Feeds the join planner's
  /// bound-column fan-out estimates.
  std::size_t DistinctInColumn(std::size_t col) const;

  /// Column-index probe for hash joins: the row ids of the rows whose column
  /// `col` equals `value`, in ascending order, or nullptr when there are
  /// none. The index of a column is built on its first probe and maintained
  /// by later inserts, so a returned bucket may grow while held. It stays
  /// valid until the relation is cleared, assigned over or destroyed.
  const std::vector<uint32_t>* Probe(uint32_t col, SymbolId value) const;

 private:
  struct Side;

  static constexpr uint32_t kNoArity = ~uint32_t{0};

  bool RowEqualsData(std::size_t row, const SymbolId* data,
                     std::size_t n) const;

  /// Linear-scan membership test of a relation without a dedup table.
  bool ScanContains(const SymbolId* data, std::size_t n) const;

  /// True once the dedup table is built (the relation outgrew kInlineRows
  /// rows since it was created or last cleared).
  bool hashed() const;

  std::vector<SymbolId> rows_;  // row-major, `arity_` values per row
  uint32_t num_rows_ = 0;
  uint32_t arity_ = kNoArity;  // kNoArity until the first insert
  // Dedup table, distinct-count cache and column indexes; null until the
  // relation first outgrows kInlineRows rows or is first probed.
  mutable std::unique_ptr<Side> side_;
};

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_RELATION_H_
