#include "storage/timeline.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace chronolog {

BlockTimeline::BlockTimeline(const BlockTimeline& other)
    : num_cells_(other.num_cells_) {
  if (num_cells_ == 0) return;
  // One chunk holds all the copied cells.
  chunks_.push_back(std::make_unique<Relation[]>(num_cells_));
  Relation* next = chunks_.back().get();
  pool_next_ = pool_end_ = next + num_cells_;
  pool_cells_ = num_cells_;
  for (const auto& [key, block] : other.blocks_) {
    Block& copy = blocks_.emplace_hint(blocks_.end(), key, Block())->second;
    copy.first = block.first;
    copy.used = block.used;
    copy.cells.reserve(block.cells.size());
    for (const Relation* cell : block.cells) {
      *next = *cell;
      copy.cells.push_back(next++);
    }
  }
  window_.resize(other.window_.size(), nullptr);
  for (auto it = blocks_.begin();
       it != blocks_.end() &&
       static_cast<uint64_t>(it->first) < window_.size();
       ++it) {
    window_[static_cast<std::size_t>(it->first)] = &it->second;
  }
}

BlockTimeline& BlockTimeline::operator=(const BlockTimeline& other) {
  if (this != &other) *this = BlockTimeline(other);
  return *this;
}

BlockTimeline::BlockTimeline(BlockTimeline&& other) noexcept { Swap(other); }

BlockTimeline& BlockTimeline::operator=(BlockTimeline&& other) noexcept {
  BlockTimeline(std::move(other)).Swap(*this);
  return *this;
}

BlockTimeline::~BlockTimeline() = default;

void BlockTimeline::Swap(BlockTimeline& other) noexcept {
  std::swap(blocks_, other.blocks_);
  std::swap(window_, other.window_);
  std::swap(num_cells_, other.num_cells_);
  std::swap(spare_, other.spare_);
  std::swap(chunks_, other.chunks_);
  std::swap(pool_next_, other.pool_next_);
  std::swap(pool_end_, other.pool_end_);
  std::swap(pool_cells_, other.pool_cells_);
  std::swap(free_, other.free_);
}

namespace {

// Set bits of `x`. The portable build targets x86-64 without the popcnt
// instruction, where std::popcount is a library call; this is a handful of
// inline ALU operations.
inline std::size_t PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return static_cast<std::size_t>((x * 0x0101010101010101u) >> 56);
}

}  // namespace

std::size_t BlockTimeline::Rank(const Block& block, std::size_t i) {
  const std::size_t w = i / 64;
  std::size_t rank =
      PopCount(block.used[w] & ((uint64_t{1} << (i % 64)) - 1));
  for (std::size_t k = 0; k < w; ++k) rank += PopCount(block.used[k]);
  return rank;
}

const BlockTimeline::Block* BlockTimeline::FindBlock(int64_t key) const {
  if (static_cast<uint64_t>(key) < window_.size()) {
    return window_[static_cast<std::size_t>(key)];
  }
  // The last block and past it: the frontier of a growing timeline, and
  // most lookups in a round delta, without a tree search.
  if (blocks_.empty()) return nullptr;
  const auto last = blocks_.rbegin();
  if (key >= last->first) return key == last->first ? &last->second : nullptr;
  const auto it = blocks_.find(key);
  return it == blocks_.end() ? nullptr : &it->second;
}

BlockTimeline::Block* BlockTimeline::AddBlock(int64_t key) {
  BlockMap::iterator it;
  if (spare_.empty()) {
    it = blocks_.try_emplace(key).first;
  } else {
    BlockMap::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    it = blocks_.insert(std::move(node)).position;
  }
  Block* block = &it->second;
  block->first = key * kBlockCells;
  const uint64_t k = static_cast<uint64_t>(key);
  if (k < window_.size()) {
    window_[k] = block;
  } else if (k < 2 * blocks_.size() + kMinWindow) {
    // Grow the window over `key`, taking in the blocks of the keys between.
    const std::size_t old_size = window_.size();
    window_.resize(static_cast<std::size_t>(k) + 1, nullptr);
    for (auto j = blocks_.lower_bound(static_cast<int64_t>(old_size));
         j != blocks_.end() && j->first <= key; ++j) {
      window_[static_cast<std::size_t>(j->first)] = &j->second;
    }
  }
  return block;
}

void BlockTimeline::EraseBlock(int64_t key) {
  if (static_cast<uint64_t>(key) < window_.size()) {
    window_[static_cast<std::size_t>(key)] = nullptr;
  }
  blocks_.erase(key);
}

const Relation* BlockTimeline::Find(int64_t time) const {
  if (time < 0) return nullptr;
  const Block* block = FindBlock(KeyOf(time));
  if (block == nullptr) return nullptr;
  const std::size_t i = static_cast<std::size_t>(time % kBlockCells);
  if ((block->used[i / 64] >> (i % 64) & 1) == 0) return nullptr;
  return block->cells[Rank(*block, i)];
}

Relation* BlockTimeline::NewCell() {
  if (!free_.empty()) {
    Relation* cell = free_.back();
    free_.pop_back();
    return cell;
  }
  if (pool_next_ == pool_end_) {
    const std::size_t n =
        std::clamp<std::size_t>(pool_cells_, 4, kBlockCells);
    chunks_.push_back(std::make_unique<Relation[]>(n));
    pool_next_ = chunks_.back().get();
    pool_end_ = pool_next_ + n;
    pool_cells_ += n;
  }
  return pool_next_++;
}

bool BlockTimeline::Insert(int64_t time, const SymbolId* args,
                           std::size_t n) {
  assert(time >= 0);
  const int64_t key = KeyOf(time);
  Block* found = FindBlock(key);
  Block& block = found != nullptr ? *found : *AddBlock(key);
  const std::size_t i = static_cast<std::size_t>(time % kBlockCells);
  const uint64_t bit = uint64_t{1} << (i % 64);
  const std::size_t rank = Rank(block, i);
  if ((block.used[i / 64] & bit) != 0) {
    return block.cells[rank]->Insert(args, n);
  }
  Relation* cell = NewCell();
  const bool inserted = cell->Insert(args, n);  // an empty cell takes it
  assert(inserted);
  (void)inserted;
  if (block.cells.size() == block.cells.capacity()) {
    // Grow fourfold: a filling block reallocates its list four times.
    block.cells.reserve(std::min<std::size_t>(
        kBlockCells, std::max<std::size_t>(4, 4 * block.cells.size())));
  }
  block.cells.insert(block.cells.begin() + static_cast<std::ptrdiff_t>(rank),
                     cell);
  block.used[i / 64] |= bit;
  ++num_cells_;
  return true;
}

const Relation* BlockTimeline::NextCell(int64_t* time) const {
  const int64_t from = std::max<int64_t>(0, *time);
  const int64_t key = KeyOf(from);
  // The first non-empty cell of `block` at index >= `start`, or nullptr.
  auto scan = [time](const Block& block, std::size_t start) -> const Relation* {
    for (std::size_t w = start / 64; w < kWords; ++w) {
      uint64_t bits = block.used[w];
      if (w == start / 64) bits &= ~uint64_t{0} << (start % 64);
      if (bits != 0) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        *time = block.first + static_cast<int64_t>(i);
        return block.cells[Rank(block, i)];
      }
    }
    return nullptr;
  };
  if (const Block* block = FindBlock(key); block != nullptr) {
    const Relation* cell =
        scan(*block, static_cast<std::size_t>(from % kBlockCells));
    if (cell != nullptr) return cell;
  }
  // Every block holds a cell, so the next block has the next one.
  const auto next = blocks_.upper_bound(key);
  return next == blocks_.end() ? nullptr : scan(next->second, 0);
}

int64_t BlockTimeline::MaxTime() const {
  if (blocks_.empty()) return -1;
  const Block& block = blocks_.rbegin()->second;
  for (std::size_t w = kWords; w-- > 0;) {
    if (block.used[w] != 0) {
      return block.first +
             static_cast<int64_t>(w * 64 + 63 -
                                  static_cast<std::size_t>(
                                      std::countl_zero(block.used[w])));
    }
  }
  assert(false && "a block in the directory holds no fact");
  return -1;
}

void BlockTimeline::Clear() {
  for (auto& [key, block] : blocks_) {
    for (Relation* cell : block.cells) {
      cell->Clear();
      free_.push_back(cell);
    }
    block.cells.clear();
    block.used.fill(0);
  }
  while (!blocks_.empty()) spare_.push_back(blocks_.extract(blocks_.begin()));
  window_.clear();
  num_cells_ = 0;
}

std::size_t BlockTimeline::TruncateInPlace(int64_t m) {
  std::size_t removed = 0;
  // Frees a dropped cell's rows and returns the cell to the pool.
  auto drop = [&](Relation* cell) {
    removed += cell->size();
    *cell = Relation();
    free_.push_back(cell);
    --num_cells_;
  };
  // Blocks wholly past `m` go; the block of `m` may straddle it.
  const int64_t last_key = m < 0 ? -1 : KeyOf(m);
  const auto past = blocks_.upper_bound(last_key);
  for (auto it = past; it != blocks_.end(); ++it) {
    for (Relation* cell : it->second.cells) drop(cell);
  }
  blocks_.erase(past, blocks_.end());
  if (static_cast<int64_t>(window_.size()) > last_key + 1) {
    window_.resize(static_cast<std::size_t>(last_key + 1));
  }
  if (last_key < 0) return removed;
  Block* found = FindBlock(last_key);
  if (found == nullptr) return removed;
  // Drop the cells past `m` of the straddling block: the tail of its
  // pointer list.
  Block& block = *found;
  const std::size_t keep = static_cast<std::size_t>(m - block.first) + 1;
  if (keep == kBlockCells) return removed;
  const std::size_t kept = Rank(block, keep);
  for (std::size_t r = kept; r < block.cells.size(); ++r) drop(block.cells[r]);
  block.cells.resize(kept);
  for (std::size_t w = 0; w < kWords; ++w) {
    const std::size_t lo = w * 64;
    if (lo >= keep) {
      block.used[w] = 0;
    } else if (keep - lo < 64) {
      block.used[w] &= (uint64_t{1} << (keep - lo)) - 1;
    }
  }
  if (kept == 0) EraseBlock(last_key);
  return removed;
}

}  // namespace chronolog
