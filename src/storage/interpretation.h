#ifndef CHRONOLOG_STORAGE_INTERPRETATION_H_
#define CHRONOLOG_STORAGE_INTERPRETATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ast/atom.h"
#include "ast/program.h"
#include "ast/vocabulary.h"
#include "storage/relation.h"
#include "storage/timeline.h"
#include "storage/tuple.h"

namespace chronolog {

/// A finite fragment of a Herbrand interpretation of a TDD: for every
/// temporal predicate a block timeline `time -> relation` (see
/// BlockTimeline), for every non-temporal predicate a columnar relation (the
/// paper's `M_nt`).
///
/// Interpretations are the working store of every evaluator in chronolog:
/// `T_{Z∧D}` maps interpretations to interpretations, algorithm BT iterates
/// truncated interpretations, and the primary database `B` of a relational
/// specification is an interpretation restricted to representative times.
class Interpretation {
 public:
  explicit Interpretation(std::shared_ptr<Vocabulary> vocab);

  // Copies and moves carry the lazily built column indexes along with the
  // facts: each index lives in the relation it indexes, and row ids are
  // positional, so a copied index addresses the copy's own rows.
  Interpretation(const Interpretation&) = default;
  Interpretation& operator=(const Interpretation&) = default;
  Interpretation(Interpretation&&) = default;
  Interpretation& operator=(Interpretation&&) = default;

  const Vocabulary& vocab() const { return *vocab_; }
  const std::shared_ptr<Vocabulary>& vocab_ptr() const { return vocab_; }

  /// Inserts a fact; returns true when it was new. For temporal predicates,
  /// `time` must be >= 0. The span overload copies `args[0..n)` straight
  /// into the columnar store — the allocation-free path the fixpoint merge
  /// loops use.
  bool Insert(const GroundAtom& fact);
  bool Insert(PredicateId pred, int64_t time, const Tuple& args);
  bool Insert(PredicateId pred, int64_t time, const SymbolId* args,
              std::size_t n);

  /// Inserts every fact of `db`.
  void InsertDatabase(const Database& db);

  bool Contains(const GroundAtom& fact) const;
  bool Contains(PredicateId pred, int64_t time, const Tuple& args) const;

  /// Number of stored facts (temporal + non-temporal).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tuples of a non-temporal predicate, as a columnar relation.
  const Relation& NonTemporal(PredicateId pred) const;

  /// Tuples of a temporal predicate at `time` — one cell of the paper's
  /// snapshot `M(t)`. Returns a shared, always-empty relation when nothing
  /// is stored there; that reference does not see facts inserted later.
  ///
  /// Invalidation contract: cells are address-stable. A cell, and the column
  /// indexes inside it (Relation::Probe, the evaluator's hash joins), never
  /// move while facts are inserted at any time, its own included, and a
  /// move of the interpretation carries them along; a copy carries copies
  /// whose indexes address the copy's rows. A returned non-empty cell
  /// reference (and a Probe bucket of it) stays valid until the
  /// interpretation is assigned over or destroyed, cleared, or truncated
  /// below the cell's time; the bucket may grow while held. The same holds
  /// for `NonTemporal` relations, which only Clear and assignment
  /// invalidate.
  const Relation& Snapshot(PredicateId pred, int64_t time) const;

  /// The timeline of a temporal predicate. Iterating it yields the
  /// populated time points and their cells, ascending; `size()` counts them.
  const BlockTimeline& Timeline(PredicateId pred) const;

  /// Largest time point carrying any temporal fact; -1 when none.
  int64_t MaxTime() const;

  /// Content hash of the state `M[time]` (the snapshot with the temporal
  /// argument projected out), computed from the cells at `time`: equals
  /// `State::FromInterpretation(*this, time).Hash()` without materialising
  /// the state. Empty snapshots hash to 0. Equal hashes do not prove equal
  /// states — verify collisions with SnapshotEquals.
  std::size_t SnapshotHash(int64_t time) const;

  /// Exact comparison of the states `M[t1]` and `M[t2]`, in place (no State
  /// materialisation) — the hash-collision verification step of the period
  /// detectors, which call it only where the snapshot hashes agree.
  bool SnapshotEquals(int64_t t1, int64_t t2) const;

  /// Enumerates every stored fact. `fn` receives (pred, time, tuple); `time`
  /// is 0 for non-temporal predicates. The Tuple reference points at a
  /// scratch buffer that is overwritten between calls — callbacks must copy
  /// whatever they keep (all in-tree consumers insert or serialise).
  void ForEach(
      const std::function<void(PredicateId, int64_t, const Tuple&)>& fn) const;

  /// ForEach without the type erasure and the Tuple copy: `fn` receives
  /// (pred, time, args, n) with `args[0..n)` pointing into the stored row.
  /// Same order as ForEach. Allocation-free — the fixpoint merge loop.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (std::size_t p = 0; p < non_temporal_.size(); ++p) {
      const PredicateId pred = static_cast<PredicateId>(p);
      if (vocab_->predicate(pred).is_temporal) {
        for (const auto& [time, rel] : temporal_[p]) {
          for (uint32_t row = 0; row < rel.size(); ++row) {
            fn(pred, time, rel.row_data(row), rel.arity());
          }
        }
      } else {
        const Relation& rel = non_temporal_[p];
        for (uint32_t row = 0; row < rel.size(); ++row) {
          fn(pred, int64_t{0}, rel.row_data(row), rel.arity());
        }
      }
    }
  }

  /// Removes every fact (and every column index) but keeps the
  /// per-predicate slots, the relations' row capacity and the timelines'
  /// blocks, so a reused scratch interpretation — the semi-naive round delta
  /// — refills without allocating. Costs time in the number of populated
  /// cells, not in the span of times they cover.
  void Clear();

  /// Removes (in place) every temporal fact at time > `m` — the paper's
  /// `L'(0...m) ∪ L'_nt` truncation used by BT.
  void TruncateInPlace(int64_t m);

  /// True when both interpretations contain the same non-temporal facts.
  bool NonTemporalEquals(const Interpretation& other) const;

  /// True when both interpretations coincide on the segment `[0...m]`
  /// (and, with `and_non_temporal`, on the non-temporal part too) — the
  /// termination test of algorithm BT.
  bool SegmentEquals(const Interpretation& other, int64_t m,
                     bool and_non_temporal = true) const;

  friend bool operator==(const Interpretation& a, const Interpretation& b);

 private:
  std::shared_ptr<Vocabulary> vocab_;
  // Indexed by PredicateId. Exactly one of the two slots is meaningful per
  // predicate; both are default-constructed for uniformity.
  std::vector<Relation> non_temporal_;
  std::vector<BlockTimeline> temporal_;
  std::size_t size_ = 0;

  void EnsurePred(PredicateId pred);
};

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_INTERPRETATION_H_
