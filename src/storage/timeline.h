#ifndef CHRONOLOG_STORAGE_TIMELINE_H_
#define CHRONOLOG_STORAGE_TIMELINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "storage/relation.h"

namespace chronolog {

/// The facts of one temporal predicate, indexed by time: the snapshot cells
/// `t -> Relation` of an Interpretation.
///
/// Layout: blocks covering the block-aligned time ranges
/// `[k * kBlockCells, (k + 1) * kBlockCells)` ("key" k), held in a
/// `std::map` by key, which gives ascending order and O(log n) lookup and
/// insertion however the times are spread or ordered. Algorithm BT and the
/// period detectors materialise a dense prefix `[0, m]`, so a window of
/// block pointers indexed by key covers keys `[0, W)` (null where no block
/// exists) and makes finding their blocks index arithmetic. The window
/// grows to take a new block's key when it stays at most about twice the
/// number of blocks, so it costs a pointer per block, not per time; blocks
/// of far-out keys are found through the map.
///
/// A block holds a bitmap of its non-empty cells and one pointer per set
/// bit, in bit order: cell `t % kBlockCells` is the pointer at the bit's
/// rank (the set bits below it, a popcount per 64-bit word). The cells
/// themselves come from the timeline's cell pool — chunks of cells that
/// never move — so a block costs memory in the facts it holds, not in the
/// times it covers: a lone fact costs a map node, one pointer and one
/// 40-byte cell, about what a map node holding a cell costs, and a dense
/// block about 48 bytes per time point. Walking the non-empty cells in
/// ascending time skips empty ones wordwise.
///
/// Address stability: a cell never moves. Inserting at a new time may add a
/// block and reallocate the window or a block's pointer list, but never a
/// cell, so a `const Relation*` from Find stays valid — and keeps its
/// contents — across inserts at other times, until TruncateInPlace drops
/// its time or Clear runs.
///
/// Invariants: every cell linked into a block holds at least one fact, and
/// every block in the map holds at least one cell. TruncateInPlace frees
/// the blocks it empties and the rows of the cells it drops. Clear empties
/// the cells, returns them (with their row capacity) to the pool and parks
/// their blocks' map nodes for reuse at whatever times the next inserts
/// need, so a reused scratch timeline — the semi-naive round delta —
/// neither allocates nor keeps a window that grows across rounds.
class BlockTimeline {
 public:
  static constexpr int64_t kBlockCells = 256;

  BlockTimeline() = default;
  BlockTimeline(const BlockTimeline& other);
  BlockTimeline& operator=(const BlockTimeline& other);
  // A moved-from timeline is empty.
  BlockTimeline(BlockTimeline&& other) noexcept;
  BlockTimeline& operator=(BlockTimeline&& other) noexcept;
  ~BlockTimeline();

  /// Number of non-empty cells (populated time points).
  std::size_t size() const { return num_cells_; }
  bool empty() const { return num_cells_ == 0; }

  /// Blocks owned — holding facts or parked by Clear.
  std::size_t allocated_blocks() const {
    return blocks_.size() + spare_.size();
  }

  /// Cells owned by the pool — linked into blocks, free, or not yet handed
  /// out of the last chunk.
  std::size_t allocated_cells() const { return pool_cells_; }

  /// The non-empty cell at `time`, or nullptr when nothing is stored there.
  const Relation* Find(int64_t time) const;

  /// Inserts `args[0..n)` at `time` (>= 0); returns true when it was new.
  bool Insert(int64_t time, const SymbolId* args, std::size_t n);

  /// The first non-empty cell at a time >= `*time`, or nullptr when there is
  /// none; sets `*time` to the cell's time.
  const Relation* NextCell(int64_t* time) const;

  /// Largest populated time point; -1 when empty.
  int64_t MaxTime() const;

  /// Empties every cell; keeps the cells' capacity and parks the blocks for
  /// reuse.
  void Clear();

  /// Removes every fact at time > `m` and returns how many were removed.
  std::size_t TruncateInPlace(int64_t m);

  /// Forward iteration over the non-empty cells in ascending time; yields
  /// `(time, cell)` pairs. Each step looks its cell up again, so an
  /// iterator survives inserts at other times.
  class iterator {
   public:
    using value_type = std::pair<int64_t, const Relation&>;

    value_type operator*() const { return {time_, *cell_}; }
    iterator& operator++() {
      // A cell at the largest time is the last one; stepping past it would
      // overflow.
      if (time_ == std::numeric_limits<int64_t>::max()) {
        cell_ = nullptr;
      } else {
        ++time_;
        cell_ = timeline_->NextCell(&time_);
      }
      return *this;
    }
    bool operator==(const iterator& other) const {
      return cell_ == other.cell_;
    }
    bool operator!=(const iterator& other) const { return !(*this == other); }

   private:
    friend class BlockTimeline;
    iterator(const BlockTimeline* timeline, int64_t time)
        : timeline_(timeline), time_(time), cell_(timeline->NextCell(&time_)) {}
    iterator() = default;

    const BlockTimeline* timeline_ = nullptr;
    int64_t time_ = 0;
    const Relation* cell_ = nullptr;  // null = end
  };

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(); }

  /// The non-empty cells at times >= `time`, ascending.
  struct Range {
    iterator first;
    iterator last;
    iterator begin() const { return first; }
    iterator end() const { return last; }
  };
  Range From(int64_t time) const {
    return {iterator(this, time < 0 ? 0 : time), end()};
  }

 private:
  static constexpr std::size_t kWords = kBlockCells / 64;
  // The window may always cover this many keys, however few blocks exist.
  static constexpr std::size_t kMinWindow = 16;

  struct Block {
    int64_t first = 0;  // time of cell 0, a multiple of kBlockCells
    std::array<uint64_t, kWords> used{};  // bit i: cell i is non-empty
    std::vector<Relation*> cells;         // cell of each set bit, in order
  };
  using BlockMap = std::map<int64_t, Block>;

  static int64_t KeyOf(int64_t time) { return time / kBlockCells; }

  /// Index into `block.cells` of cell `i`: the number of set bits below `i`.
  static std::size_t Rank(const Block& block, std::size_t i);

  /// Block of key `key`, or nullptr.
  const Block* FindBlock(int64_t key) const;
  Block* FindBlock(int64_t key) {
    return const_cast<Block*>(std::as_const(*this).FindBlock(key));
  }

  /// Adds an empty block of key `key` (absent so far), reusing a parked
  /// node when there is one, and grows the window over it when that keeps
  /// the window within about twice the number of blocks.
  Block* AddBlock(int64_t key);

  /// Unlinks the block of key `key` (present), freeing it.
  void EraseBlock(int64_t key);

  /// A cell from the pool: a freed one, else the next of the last chunk,
  /// allocating a chunk when it is used up.
  Relation* NewCell();

  void Swap(BlockTimeline& other) noexcept;

  // Blocks holding facts, by key.
  BlockMap blocks_;
  // window_[k]: the block of key k, or null; covers keys [0, window_.size()).
  std::vector<Block*> window_;
  std::size_t num_cells_ = 0;
  // Emptied blocks parked by Clear, reused before allocating.
  std::vector<BlockMap::node_type> spare_;
  // The cell pool: chunks of cells that never move, chunk sizes doubling up
  // to kBlockCells; `pool_next_` hands out the cells of the last chunk up to
  // `pool_end_`, and `free_` holds the cells given back by Clear and
  // TruncateInPlace.
  std::vector<std::unique_ptr<Relation[]>> chunks_;
  Relation* pool_next_ = nullptr;
  Relation* pool_end_ = nullptr;
  std::size_t pool_cells_ = 0;
  std::vector<Relation*> free_;
};

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_TIMELINE_H_
