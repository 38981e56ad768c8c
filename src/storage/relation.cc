#include "storage/relation.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>

namespace chronolog {

namespace {

constexpr uint64_t kLowBits = 0x0101010101010101ULL;
constexpr uint64_t kHighBits = 0x8080808080808080ULL;

inline uint64_t LoadGroup(const uint8_t* p) {
  uint64_t g;
  std::memcpy(&g, p, sizeof(g));
  return g;
}

/// Bytes of `g` equal to `byte`, marked by their high bit. The SWAR
/// subtraction can report false positives for occupied slots whose tag
/// shares low bits with `byte` — harmless, every hit is verified against the
/// stored row — but never for empty slots: an empty control byte (0x80) has
/// its high bit set, which clears the corresponding bit of `~x`.
inline uint64_t MatchByte(uint64_t g, uint8_t byte) {
  const uint64_t x = g ^ (kLowBits * byte);
  return (x - kLowBits) & ~x & kHighBits;
}

inline uint8_t TagOf(std::size_t hash) {
  return static_cast<uint8_t>(hash >> 57) & 0x7f;
}

constexpr std::size_t kGroup = 8;
constexpr uint8_t kEmpty = 0x80;  // tags use only the low 7 bits

inline std::size_t RowHash(const SymbolId* data, std::size_t n) {
  return Mix64(HashRange(data, n, n));
}

}  // namespace

/// Everything a relation needs only once it outgrows kInlineRows rows (or
/// is probed): the dedup table, the distinct-count cache, the column
/// indexes.
struct Relation::Side {
  // Open-addressing dedup table, empty (`cap == 0`) until the relation
  // outgrows kInlineRows rows: `ctrl` has `cap + kGroup - 1` bytes (the tail
  // mirrors the first kGroup-1 slots so unaligned 8-byte group loads never
  // wrap), `slots` has `cap` row ids. `cap` is a power of two.
  std::vector<uint8_t> ctrl;
  std::vector<uint32_t> slots;
  std::size_t cap = 0;

  // Per-column distinct-count cache: (rows when sampled, estimate).
  std::vector<std::pair<uint32_t, uint32_t>> distinct_cache;

  // Column indexes built by Probe: value -> ascending row ids.
  struct ColumnIndex {
    uint32_t col;
    std::unordered_map<SymbolId, std::vector<uint32_t>> buckets;
  };
  std::vector<ColumnIndex> indexes;

  void SetCtrl(std::size_t slot, uint8_t byte) {
    ctrl[slot] = byte;
    if (slot < kGroup - 1) ctrl[cap + slot] = byte;  // mirrored tail
  }

  /// Core probe: returns the row id matching `data`, or `kNotFound` with
  /// `*insert_slot` set to the first free slot on the probe path.
  static constexpr uint32_t kNotFound = ~uint32_t{0};
  uint32_t FindRow(const Relation& rel, const SymbolId* data, std::size_t n,
                   std::size_t hash, std::size_t* insert_slot) const;

  void PlaceRow(std::size_t row, std::size_t hash);

  /// Doubles the table (or builds the first one) and re-places every row.
  void Grow(const Relation& rel);
};

bool Relation::RowEqualsData(std::size_t row, const SymbolId* data,
                             std::size_t n) const {
  const SymbolId* stored = row_data(row);
  for (std::size_t c = 0; c < n; ++c) {
    if (stored[c] != data[c]) return false;
  }
  return true;
}

bool Relation::ScanContains(const SymbolId* data, std::size_t n) const {
  for (std::size_t row = 0; row < num_rows_; ++row) {
    if (RowEqualsData(row, data, n)) return true;
  }
  return false;
}

bool Relation::hashed() const { return side_ != nullptr && side_->cap != 0; }

uint32_t Relation::Side::FindRow(const Relation& rel, const SymbolId* data,
                                 std::size_t n, std::size_t hash,
                                 std::size_t* insert_slot) const {
  const std::size_t mask = cap - 1;
  const uint8_t tag = TagOf(hash);
  std::size_t idx = hash & mask;
  while (true) {
    const uint64_t g = LoadGroup(ctrl.data() + idx);
    for (uint64_t m = MatchByte(g, tag); m != 0; m &= m - 1) {
      const std::size_t slot =
          (idx + (static_cast<std::size_t>(__builtin_ctzll(m)) >> 3)) & mask;
      const uint32_t row = slots[slot];
      if (rel.RowEqualsData(row, data, n)) return row;
    }
    const uint64_t empties = g & kHighBits;
    if (empties != 0) {
      if (insert_slot != nullptr) {
        *insert_slot =
            (idx + (static_cast<std::size_t>(__builtin_ctzll(empties)) >> 3)) &
            mask;
      }
      return kNotFound;
    }
    idx = (idx + kGroup) & mask;
  }
}

void Relation::Side::PlaceRow(std::size_t row, std::size_t hash) {
  const std::size_t mask = cap - 1;
  std::size_t idx = hash & mask;
  while (true) {
    const uint64_t g = LoadGroup(ctrl.data() + idx);
    const uint64_t empties = g & kHighBits;
    if (empties != 0) {
      const std::size_t slot =
          (idx + (static_cast<std::size_t>(__builtin_ctzll(empties)) >> 3)) &
          mask;
      SetCtrl(slot, TagOf(hash));
      slots[slot] = static_cast<uint32_t>(row);
      return;
    }
    idx = (idx + kGroup) & mask;
  }
}

void Relation::Side::Grow(const Relation& rel) {
  cap = cap == 0 ? 16 : cap * 2;
  ctrl.assign(cap + kGroup - 1, kEmpty);
  slots.assign(cap, 0);
  // Rows are unique by construction, so re-placement needs no equality
  // probes — just the first free slot on each row's probe path.
  for (std::size_t row = 0; row < rel.num_rows_; ++row) {
    PlaceRow(row, RowHash(rel.row_data(row), rel.arity_));
  }
}

// A timeline pays one Relation per populated time point (its cell pool):
// keep the inline part at five words.
static_assert(sizeof(Relation) <= 40, "Relation grew past 40 bytes");

Relation::Relation() = default;

Relation::Relation(const Relation& other)
    : rows_(other.rows_),
      num_rows_(other.num_rows_),
      arity_(other.arity_),
      side_(other.side_ == nullptr ? nullptr
                                   : std::make_unique<Side>(*other.side_)) {}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) *this = Relation(other);
  return *this;
}

Relation::Relation(Relation&&) noexcept = default;
Relation& Relation::operator=(Relation&&) noexcept = default;
Relation::~Relation() = default;

bool Relation::Insert(const SymbolId* data, std::size_t n) {
  if (arity_ == kNoArity) arity_ = static_cast<uint32_t>(n);
  assert(n == arity_);
  if (!hashed() && num_rows_ < kInlineRows) {
    if (ScanContains(data, n)) return false;
  } else {
    // The row that overflows the inline scan builds the table; from then on
    // it grows at 7/8 load (keeps probe sequences short; amortised O(1)).
    if (side_ == nullptr) side_ = std::make_unique<Side>();
    Side& side = *side_;
    if (side.cap == 0 || (num_rows_ + 1) * 8 > side.cap * 7) side.Grow(*this);
    const std::size_t hash = RowHash(data, n);
    std::size_t insert_slot = 0;
    if (side.FindRow(*this, data, n, hash, &insert_slot) != Side::kNotFound) {
      return false;
    }
    side.SetCtrl(insert_slot, TagOf(hash));
    side.slots[insert_slot] = num_rows_;
  }
  if (n != 0 && rows_.capacity() == 0) {
    // The smallest heap block holds 24 bytes anyway: fill it, so a cell of
    // a few narrow rows never reallocates.
    rows_.reserve(std::max<std::size_t>(n, 24 / sizeof(SymbolId)));
  }
  rows_.insert(rows_.end(), data, data + n);
  const uint32_t row = num_rows_++;
  if (side_ != nullptr) {
    for (Side::ColumnIndex& index : side_->indexes) {
      index.buckets[data[index.col]].push_back(row);
    }
  }
  return true;
}

bool Relation::Contains(const SymbolId* data, std::size_t n) const {
  if (num_rows_ == 0) return false;
  assert(n == arity_);
  if (!hashed()) return ScanContains(data, n);
  return side_->FindRow(*this, data, n, RowHash(data, n), nullptr) !=
         Side::kNotFound;
}

void Relation::Clear() {
  rows_.clear();
  num_rows_ = 0;
  if (side_ != nullptr) {
    side_->ctrl.clear();
    side_->slots.clear();
    side_->cap = 0;
    side_->distinct_cache.clear();
    side_->indexes.clear();
  }
}

Tuple Relation::Row(std::size_t row) const {
  Tuple out;
  CopyRow(row, &out);
  return out;
}

void Relation::CopyRow(std::size_t row, Tuple* out) const {
  const SymbolId* data = row_data(row);
  out->assign(data, data + arity_);
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.num_rows_ != b.num_rows_) return false;
  if (a.num_rows_ == 0) return true;
  if (a.arity_ != b.arity_) return false;
  for (std::size_t row = 0; row < a.num_rows_; ++row) {
    if (!b.Contains(a.row_data(row), a.arity_)) return false;
  }
  return true;
}

std::size_t Relation::DistinctInColumn(std::size_t col) const {
  if (num_rows_ == 0 || col >= arity_) return 1;
  if (num_rows_ <= kInlineRows) {
    // Exact and cache-free: a value counts at its first occurrence.
    std::size_t distinct = 0;
    for (std::size_t row = 0; row < num_rows_; ++row) {
      std::size_t earlier = 0;
      while (earlier < row && at(earlier, col) != at(row, col)) ++earlier;
      if (earlier == row) ++distinct;
    }
    return distinct;
  }
  // More than kInlineRows rows: the dedup table, hence the side struct,
  // exists.
  std::vector<std::pair<uint32_t, uint32_t>>& cache = side_->distinct_cache;
  if (cache.size() < arity_) cache.resize(arity_, {0, 0});
  auto& [rows_at, estimate] = cache[col];
  if (rows_at != 0 && num_rows_ <= 2 * static_cast<std::size_t>(rows_at)) {
    return estimate;
  }
  constexpr std::size_t kSample = 1024;
  const std::size_t step = std::max<std::size_t>(1, num_rows_ / kSample);
  std::vector<SymbolId> sample;
  sample.reserve(std::min<std::size_t>(num_rows_, kSample + 1));
  for (std::size_t row = 0; row < num_rows_; row += step) {
    sample.push_back(at(row, col));
  }
  std::sort(sample.begin(), sample.end());
  const std::size_t distinct = static_cast<std::size_t>(
      std::unique(sample.begin(), sample.end()) - sample.begin());
  std::size_t result;
  if (step == 1) {
    result = distinct;  // exact
  } else if (distinct == sample.size()) {
    // Every sampled value was fresh: treat the column as (near-)unique.
    result = num_rows_;
  } else {
    // Constant-fan-out extrapolation: rows / (sampled / distinct).
    result = std::max<std::size_t>(1, num_rows_ * distinct / sample.size());
  }
  result = std::max<std::size_t>(1, std::min<std::size_t>(result, num_rows_));
  rows_at = num_rows_;
  estimate = static_cast<uint32_t>(result);
  return result;
}

const std::vector<uint32_t>* Relation::Probe(uint32_t col,
                                             SymbolId value) const {
  if (num_rows_ == 0 || col >= arity_) return nullptr;
  if (side_ == nullptr) side_ = std::make_unique<Side>();
  std::vector<Side::ColumnIndex>& indexes = side_->indexes;
  auto index = std::find_if(indexes.begin(), indexes.end(),
                            [&](const Side::ColumnIndex& i) {
                              return i.col == col;
                            });
  if (index == indexes.end()) {
    indexes.push_back({col, {}});
    index = indexes.end() - 1;
    for (uint32_t row = 0; row < num_rows_; ++row) {
      index->buckets[at(row, col)].push_back(row);
    }
  }
  auto bucket = index->buckets.find(value);
  if (bucket == index->buckets.end()) return nullptr;
#ifndef NDEBUG
  // Invalidation-contract check: every indexed row id must address a live
  // row of this relation.
  for (uint32_t row : bucket->second) assert(row < num_rows_);
#endif
  return &bucket->second;
}

}  // namespace chronolog
