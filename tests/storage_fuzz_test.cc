// Differential fuzz of Interpretation against a plain reference store
// (`std::map<(pred, time), std::set<Tuple>>`): random sequences of inserts
// (at nearby and far times up to the largest int64_t, before the timeline's
// first block and across block boundaries, into cells wider than
// Relation::kInlineRows), Clear,
// TruncateInPlace, copies and moves, with column probes on the way; after
// every step the two stores must agree on every observable.
//
// The seed comes from gtest: a plain run uses seed 0, and
// `--gtest_shuffle --gtest_repeat=N` draws a fresh seed per iteration
// (reproduce one with `--gtest_shuffle --gtest_random_seed=S`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "storage/interpretation.h"

namespace chronolog {
namespace {

constexpr int64_t kBlock = BlockTimeline::kBlockCells;
constexpr SymbolId kValues = 6;  // arity-2 cells reach 36 rows
constexpr int64_t kMaxTime = std::numeric_limits<int64_t>::max();

// `a + b`, clamped to kMaxTime.
int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? kMaxTime : sum;
}

using Key = std::pair<PredicateId, int64_t>;  // time 0 for non-temporal
using Reference = std::map<Key, std::set<Tuple>>;

class StorageFuzz {
 public:
  explicit StorageFuzz(uint32_t seed) : rng_(seed) {
    vocab_ = std::make_shared<Vocabulary>();
    // Temporal predicates of 0, 1 and 2 arguments, one non-temporal of 2.
    for (int args = 0; args < 3; ++args) {
      auto pred = vocab_->DeclarePredicate("p" + std::to_string(args),
                                           static_cast<std::size_t>(args + 1));
      EXPECT_TRUE(pred.ok());
      vocab_->SetTemporal(*pred);
      preds_.push_back({*pred, static_cast<std::size_t>(args), true});
    }
    auto e = vocab_->DeclarePredicate("e", 2);
    EXPECT_TRUE(e.ok());
    preds_.push_back({*e, 2, false});
    interp_ = std::make_unique<Interpretation>(vocab_);
  }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int op = Uniform(0, 99);
      if (op < 80) {
        DoInsert();
      } else if (op < 83) {
        interp_->Clear();
        ref_.clear();
      } else if (op < 88) {
        DoTruncate();
      } else if (op < 91) {
        DoCopy();
      } else {
        DoProbe();
      }
      ExpectAgrees(*interp_);
      if (::testing::Test::HasFailure()) return;
    }
  }

 private:
  struct Pred {
    PredicateId id;
    std::size_t args;
    bool temporal;
  };

  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

  /// Times near the current facts, in the first block (often before the
  /// timeline's base), at block edges, far out (a gap of blocks), or in the
  /// last blocks of the time axis, up to the largest int64_t.
  int64_t RandomTime() {
    switch (Uniform(0, 6)) {
      case 0:
        return Uniform(0, 20);
      case 1:
        return Uniform(1, 8) * kBlock + Uniform(-1, 0);
      case 2:
        return Uniform(0, 1) == 0 ? Uniform(0, 40 * kBlock)
                                  : Uniform(0, int64_t{1} << 40);
      case 3:
        return Uniform(0, 2) == 0 ? kMaxTime
                                  : kMaxTime - Uniform(0, 2 * kBlock);
      default: {
        const int64_t max_time = std::max<int64_t>(0, interp_->MaxTime());
        return std::max<int64_t>(0, SaturatingAdd(max_time, Uniform(-30, 5)));
      }
    }
  }

  Tuple RandomTuple(std::size_t args) {
    Tuple tuple(args);
    for (SymbolId& v : tuple) {
      v = static_cast<SymbolId>(Uniform(0, kValues - 1));
    }
    return tuple;
  }

  const Pred& RandomPred() {
    return preds_[static_cast<std::size_t>(
        Uniform(0, static_cast<int64_t>(preds_.size()) - 1))];
  }

  void DoInsert() {
    const Pred& pred = RandomPred();
    const int64_t time = pred.temporal ? RandomTime() : 0;
    // Several rows into one cell, so cells grow past kInlineRows.
    const int64_t rows = Uniform(1, 12);
    for (int64_t i = 0; i < rows; ++i) {
      const Tuple tuple = RandomTuple(pred.args);
      const bool fresh = ref_[{pred.id, time}].insert(tuple).second;
      EXPECT_EQ(interp_->Insert(pred.id, time, tuple), fresh);
    }
  }

  /// Inserts into a copy: the original must not change. Then continues on
  /// one of the two, handed over by a move, or on a copy-assigned third.
  void DoCopy() {
    auto original = std::make_unique<Interpretation>(*interp_);
    Reference original_ref = ref_;
    DoInsert();
    ExpectAgrees(*interp_);
    std::swap(interp_, original);
    std::swap(ref_, original_ref);
    ExpectAgrees(*interp_);
    switch (Uniform(0, 2)) {
      case 0:  // continue on the original
        break;
      case 1:  // continue on the copy, moved over the original
        *interp_ = std::move(*original);
        ref_ = std::move(original_ref);
        break;
      default: {  // continue on a copy-assigned store
        Interpretation assigned(vocab_);
        assigned.Insert(preds_[0].id, 7, Tuple{});
        assigned = *interp_;
        interp_ = std::make_unique<Interpretation>(std::move(assigned));
        break;
      }
    }
  }

  void DoTruncate() {
    // Half the cuts fall next to a stored time, so they split blocks that
    // hold facts however far apart the times are.
    int64_t m = Uniform(
        -1, SaturatingAdd(std::max<int64_t>(0, interp_->MaxTime()), 3));
    if (!ref_.empty() && Uniform(0, 1) == 0) {
      auto it = ref_.begin();
      std::advance(it, Uniform(0, static_cast<int64_t>(ref_.size()) - 1));
      m = std::max<int64_t>(-1,
                            SaturatingAdd(it->first.second, Uniform(-3, 3)));
    }
    interp_->TruncateInPlace(m);
    for (auto it = ref_.begin(); it != ref_.end();) {
      const bool temporal = vocab_->predicate(it->first.first).is_temporal;
      it = temporal && it->first.second > m ? ref_.erase(it) : std::next(it);
    }
  }

  /// Probes a random column of a random stored relation and checks the
  /// bucket against the relation's rows.
  void DoProbe() {
    if (ref_.empty()) return;
    auto it = ref_.begin();
    std::advance(it, Uniform(0, static_cast<int64_t>(ref_.size()) - 1));
    const auto [pred, time] = it->first;
    const bool temporal = vocab_->predicate(pred).is_temporal;
    const Relation& rel =
        temporal ? interp_->Snapshot(pred, time) : interp_->NonTemporal(pred);
    if (rel.arity() == 0) return;
    const uint32_t col = static_cast<uint32_t>(
        Uniform(0, static_cast<int64_t>(rel.arity()) - 1));
    const SymbolId value = static_cast<SymbolId>(Uniform(0, kValues - 1));
    const std::vector<uint32_t>* bucket = rel.Probe(col, value);
    std::vector<uint32_t> expected;
    for (uint32_t row = 0; row < rel.size(); ++row) {
      if (rel.at(row, col) == value) expected.push_back(row);
    }
    if (expected.empty()) {
      EXPECT_EQ(bucket, nullptr);
    } else {
      ASSERT_NE(bucket, nullptr);
      EXPECT_EQ(*bucket, expected);
    }
  }

  /// Every observable of `interp` against the reference.
  void ExpectAgrees(const Interpretation& interp) {
    std::size_t facts = 0;
    int64_t max_time = -1;
    std::map<int64_t, std::size_t> state_hash;
    for (const auto& [key, tuples] : ref_) {
      const auto [pred, time] = key;
      facts += tuples.size();
      const bool temporal = vocab_->predicate(pred).is_temporal;
      if (temporal && !tuples.empty()) max_time = std::max(max_time, time);
      const Relation& rel =
          temporal ? interp.Snapshot(pred, time) : interp.NonTemporal(pred);
      EXPECT_EQ(rel.size(), tuples.size()) << "pred " << pred << " t " << time;
      for (const Tuple& tuple : tuples) {
        EXPECT_TRUE(interp.Contains(pred, time, tuple));
        if (temporal) state_hash[time] += FactHash(pred, tuple) + 1;
      }
    }
    EXPECT_EQ(interp.size(), facts);
    EXPECT_EQ(interp.MaxTime(), max_time);

    // Absent facts: random tuples at random times.
    for (int i = 0; i < 8; ++i) {
      const Pred& pred = RandomPred();
      const int64_t time = pred.temporal ? RandomTime() : 0;
      const Tuple tuple = RandomTuple(pred.args);
      auto cell = ref_.find({pred.id, time});
      const bool present = cell != ref_.end() && cell->second.count(tuple) == 1;
      EXPECT_EQ(interp.Contains(pred.id, time, tuple), present);
    }

    // Snapshot hashes and in-place state equality, on stored and empty
    // times.
    std::vector<int64_t> times;
    for (const auto& [time, hash] : state_hash) times.push_back(time);
    times.push_back(RandomTime());
    for (int64_t t : times) {
      auto it = state_hash.find(t);
      EXPECT_EQ(interp.SnapshotHash(t), it == state_hash.end() ? 0 : it->second)
          << "t " << t;
    }
    for (int i = 0; i < 4 && !times.empty(); ++i) {
      const int64_t t1 = times[static_cast<std::size_t>(
          Uniform(0, static_cast<int64_t>(times.size()) - 1))];
      const int64_t t2 = times[static_cast<std::size_t>(
          Uniform(0, static_cast<int64_t>(times.size()) - 1))];
      EXPECT_EQ(interp.SnapshotEquals(t1, t2), ReferenceState(t1) ==
                                                   ReferenceState(t2))
          << "t1 " << t1 << " t2 " << t2;
    }

    // ForEach: ascending (pred, time), exactly the reference's facts.
    Reference seen;
    Key last{0, -1};
    bool ordered = true;
    interp.ForEach([&](PredicateId pred, int64_t time, const Tuple& args) {
      const Key key{pred, time};
      if (key < last) ordered = false;
      last = key;
      seen[key].insert(args);
    });
    EXPECT_TRUE(ordered);
    Reference stored = ref_;
    std::erase_if(stored, [](const auto& kv) { return kv.second.empty(); });
    EXPECT_TRUE(seen == stored);

    // Segment comparison against a store rebuilt from the reference in
    // reverse order, on the whole segment and on a prefix that cuts a fact
    // away.
    Interpretation rebuilt(vocab_);
    for (auto it = ref_.rbegin(); it != ref_.rend(); ++it) {
      for (const Tuple& tuple : it->second) {
        rebuilt.Insert(it->first.first, it->first.second, tuple);
      }
    }
    EXPECT_TRUE(interp == rebuilt);
    EXPECT_TRUE(interp.SegmentEquals(rebuilt, SaturatingAdd(max_time, 1)));
    if (max_time >= 0) {
      Interpretation shorter = rebuilt;
      shorter.TruncateInPlace(max_time - 1);
      EXPECT_TRUE(interp.SegmentEquals(shorter, max_time - 1));
      EXPECT_FALSE(interp.SegmentEquals(shorter, max_time));
    }
  }

  std::map<PredicateId, std::set<Tuple>> ReferenceState(int64_t t) const {
    std::map<PredicateId, std::set<Tuple>> state;
    for (const auto& [key, tuples] : ref_) {
      if (key.second == t && vocab_->predicate(key.first).is_temporal &&
          !tuples.empty()) {
        state[key.first] = tuples;
      }
    }
    return state;
  }

  std::mt19937 rng_;
  std::shared_ptr<Vocabulary> vocab_;
  std::vector<Pred> preds_;
  std::unique_ptr<Interpretation> interp_;
  Reference ref_;
};

TEST(StorageFuzzTest, InterpretationMatchesReferenceStore) {
  const uint32_t seed = static_cast<uint32_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
  for (uint32_t run = 0; run < 4; ++run) {
    SCOPED_TRACE("gtest random seed " + std::to_string(seed) + ", run " +
                 std::to_string(run));
    StorageFuzz fuzz(seed * 4 + run);
    fuzz.Run(200);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace chronolog
