#include "storage/interpretation.h"

#include <algorithm>
#include <cassert>

namespace chronolog {

namespace {
const Relation kEmptyRelation;
const BlockTimeline kEmptyTimeline;
}  // namespace

Interpretation::Interpretation(std::shared_ptr<Vocabulary> vocab)
    : vocab_(std::move(vocab)) {
  assert(vocab_ != nullptr);
  non_temporal_.resize(vocab_->num_predicates());
  temporal_.resize(vocab_->num_predicates());
}

void Interpretation::EnsurePred(PredicateId pred) {
  // The vocabulary may have grown since construction (e.g. normalization
  // introduces predicates); grow lazily.
  if (pred >= non_temporal_.size()) {
    non_temporal_.resize(vocab_->num_predicates());
    temporal_.resize(vocab_->num_predicates());
  }
}

bool Interpretation::Insert(const GroundAtom& fact) {
  return Insert(fact.pred, fact.time, fact.args.data(), fact.args.size());
}

bool Interpretation::Insert(PredicateId pred, int64_t time, const Tuple& args) {
  return Insert(pred, time, args.data(), args.size());
}

bool Interpretation::Insert(PredicateId pred, int64_t time,
                            const SymbolId* args, std::size_t n) {
  EnsurePred(pred);
  const bool inserted = vocab_->predicate(pred).is_temporal
                            ? temporal_[pred].Insert(time, args, n)
                            : non_temporal_[pred].Insert(args, n);
  if (inserted) ++size_;
  return inserted;
}

std::size_t Interpretation::SnapshotHash(int64_t time) const {
  std::size_t hash = 0;
  for (std::size_t p = 0; p < temporal_.size(); ++p) {
    const Relation* rel = temporal_[p].Find(time);
    if (rel == nullptr) continue;
    for (uint32_t row = 0; row < rel->size(); ++row) {
      // `+ 1` carries the fact-count term of State::Hash.
      hash += FactHash(p, rel->row_data(row), rel->arity()) + 1;
    }
  }
  return hash;
}

bool Interpretation::SnapshotEquals(int64_t t1, int64_t t2) const {
  if (t1 == t2) return true;
  for (const BlockTimeline& timeline : temporal_) {
    const Relation* a = timeline.Find(t1);
    const Relation* b = timeline.Find(t2);
    if (*(a == nullptr ? &kEmptyRelation : a) !=
        *(b == nullptr ? &kEmptyRelation : b)) {
      return false;
    }
  }
  return true;
}

void Interpretation::InsertDatabase(const Database& db) {
  for (const GroundAtom& f : db.facts()) Insert(f);
}

bool Interpretation::Contains(const GroundAtom& fact) const {
  return Contains(fact.pred, fact.time, fact.args);
}

bool Interpretation::Contains(PredicateId pred, int64_t time,
                              const Tuple& args) const {
  if (vocab_->predicate(pred).is_temporal) {
    if (pred >= temporal_.size()) return false;
    const Relation* cell = temporal_[pred].Find(time);
    return cell != nullptr && cell->Contains(args.data(), args.size());
  }
  if (pred >= non_temporal_.size()) return false;
  return non_temporal_[pred].Contains(args.data(), args.size());
}

const Relation& Interpretation::NonTemporal(PredicateId pred) const {
  assert(!vocab_->predicate(pred).is_temporal);
  if (pred >= non_temporal_.size()) return kEmptyRelation;
  return non_temporal_[pred];
}

const Relation& Interpretation::Snapshot(PredicateId pred,
                                         int64_t time) const {
  assert(vocab_->predicate(pred).is_temporal);
  if (pred >= temporal_.size()) return kEmptyRelation;
  const Relation* cell = temporal_[pred].Find(time);
  return cell == nullptr ? kEmptyRelation : *cell;
}

const BlockTimeline& Interpretation::Timeline(PredicateId pred) const {
  assert(vocab_->predicate(pred).is_temporal);
  if (pred >= temporal_.size()) return kEmptyTimeline;
  return temporal_[pred];
}

int64_t Interpretation::MaxTime() const {
  int64_t max_time = -1;
  for (const BlockTimeline& timeline : temporal_) {
    max_time = std::max(max_time, timeline.MaxTime());
  }
  return max_time;
}

void Interpretation::ForEach(
    const std::function<void(PredicateId, int64_t, const Tuple&)>& fn) const {
  Tuple scratch;
  ForEachRow([&](PredicateId pred, int64_t time, const SymbolId* args,
                 std::size_t n) {
    scratch.assign(args, args + n);
    fn(pred, time, scratch);
  });
}

void Interpretation::Clear() {
  for (Relation& rel : non_temporal_) rel.Clear();
  for (BlockTimeline& timeline : temporal_) timeline.Clear();
  size_ = 0;
}

void Interpretation::TruncateInPlace(int64_t m) {
  for (BlockTimeline& timeline : temporal_) {
    size_ -= timeline.TruncateInPlace(m);
  }
}

bool Interpretation::NonTemporalEquals(const Interpretation& other) const {
  std::size_t n = std::max(non_temporal_.size(), other.non_temporal_.size());
  for (std::size_t p = 0; p < n; ++p) {
    const Relation& a =
        p < non_temporal_.size() ? non_temporal_[p] : kEmptyRelation;
    const Relation& b = p < other.non_temporal_.size()
                            ? other.non_temporal_[p]
                            : kEmptyRelation;
    if (a != b) return false;
  }
  return true;
}

bool Interpretation::SegmentEquals(const Interpretation& other, int64_t m,
                                   bool and_non_temporal) const {
  if (and_non_temporal && !NonTemporalEquals(other)) return false;
  std::size_t n = std::max(temporal_.size(), other.temporal_.size());
  for (std::size_t p = 0; p < n; ++p) {
    const BlockTimeline& ta =
        p < temporal_.size() ? temporal_[p] : kEmptyTimeline;
    const BlockTimeline& tb =
        p < other.temporal_.size() ? other.temporal_[p] : kEmptyTimeline;
    // Lockstep walk over the populated cells of [0, m].
    auto ia = ta.begin();
    auto ib = tb.begin();
    while (true) {
      const bool ea = ia == ta.end() || (*ia).first > m;
      const bool eb = ib == tb.end() || (*ib).first > m;
      if (ea || eb) {
        if (ea != eb) return false;
        break;
      }
      if ((*ia).first != (*ib).first || (*ia).second != (*ib).second) {
        return false;
      }
      ++ia;
      ++ib;
    }
  }
  return true;
}

bool operator==(const Interpretation& a, const Interpretation& b) {
  int64_t m = std::max(a.MaxTime(), b.MaxTime());
  return a.SegmentEquals(b, m, /*and_non_temporal=*/true);
}

}  // namespace chronolog
