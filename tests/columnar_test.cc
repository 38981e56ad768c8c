// Unit tests of the columnar Relation (storage/relation.h): dedup table
// behaviour against a reference std::set, row-id stability, arity handling
// (including nullary tuples), set equality, and the sampled distinct-count
// estimator feeding the join planner.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "storage/interpretation.h"
#include "storage/relation.h"

namespace chronolog {
namespace {

TEST(ColumnarRelationTest, InsertDedupAndContains) {
  Relation rel;
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({1, 3}));
  EXPECT_FALSE(rel.Insert({1, 2}));  // duplicate
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.arity(), 2u);
  EXPECT_TRUE(rel.Contains({1, 2}));
  EXPECT_TRUE(rel.Contains({1, 3}));
  EXPECT_FALSE(rel.Contains({2, 1}));
}

TEST(ColumnarRelationTest, RowIdsAreAppendOrder) {
  Relation rel;
  rel.Insert({7, 8});
  rel.Insert({9, 10});
  EXPECT_EQ(rel.at(0, 0), 7u);
  EXPECT_EQ(rel.at(0, 1), 8u);
  EXPECT_EQ(rel.at(1, 0), 9u);
  EXPECT_EQ(rel.Row(1), (Tuple{9, 10}));
  Tuple scratch{99};
  rel.CopyRow(0, &scratch);
  EXPECT_EQ(scratch, (Tuple{7, 8}));
}

TEST(ColumnarRelationTest, NullaryTuples) {
  // Arity-0 relations back nullary predicates like `even(T)`, whose
  // non-temporal argument tuple is empty: one row at most.
  Relation rel;
  EXPECT_FALSE(rel.Contains(Tuple{}));
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.arity(), 0u);
  EXPECT_TRUE(rel.Contains(Tuple{}));
  EXPECT_EQ(rel.Row(0), Tuple{});
}

TEST(ColumnarRelationTest, MatchesReferenceSetAcrossGrowth) {
  // Drive the swiss table through many grows and verify every Insert
  // return value and final membership against std::set.
  std::mt19937 rng(7);
  std::uniform_int_distribution<SymbolId> value(0, 99);
  Relation rel;
  std::set<Tuple> reference;
  for (int i = 0; i < 20000; ++i) {
    Tuple t{value(rng), value(rng), value(rng)};
    const bool fresh = reference.insert(t).second;
    EXPECT_EQ(rel.Insert(t), fresh);
  }
  EXPECT_EQ(rel.size(), reference.size());
  for (const Tuple& t : reference) EXPECT_TRUE(rel.Contains(t));
  for (uint32_t row = 0; row < rel.size(); ++row) {
    EXPECT_EQ(reference.count(rel.Row(row)), 1u);
  }
}

TEST(ColumnarRelationTest, SetEqualityIgnoresInsertionOrder) {
  Relation a;
  Relation b;
  a.Insert({1, 2});
  a.Insert({3, 4});
  a.Insert({5, 6});
  b.Insert({5, 6});
  b.Insert({1, 2});
  b.Insert({3, 4});
  EXPECT_TRUE(a == b);
  b.Insert({7, 8});
  EXPECT_TRUE(a != b);
  Relation empty1;
  Relation empty2;
  EXPECT_TRUE(empty1 == empty2);
  EXPECT_TRUE(empty1 != a);
}

TEST(ColumnarRelationTest, DistinctInColumnExactWhenSmall) {
  Relation rel;
  for (SymbolId x = 0; x < 10; ++x) {
    rel.Insert({x, x % 3});
  }
  // Fewer rows than the sample budget: the estimate is exact.
  EXPECT_EQ(rel.DistinctInColumn(0), 10u);
  EXPECT_EQ(rel.DistinctInColumn(1), 3u);
  EXPECT_EQ(rel.DistinctInColumn(7), 1u);  // out of range => neutral
}

TEST(ColumnarRelationTest, DistinctInColumnRefreshesAfterDoubling) {
  Relation rel;
  for (SymbolId x = 0; x < 100; ++x) rel.Insert({x % 2, x});
  EXPECT_EQ(rel.DistinctInColumn(0), 2u);
  // Grow the relation well past 2x; the cached estimate must refresh and
  // see the now-unique column.
  for (SymbolId x = 100; x < 400; ++x) rel.Insert({x, x});
  const std::size_t estimate = rel.DistinctInColumn(0);
  EXPECT_GT(estimate, 100u);
  EXPECT_LE(estimate, rel.size());
}

/// Rows of `rows` whose column `col` equals `value`, as row ids.
std::vector<uint32_t> RowsWithValue(const std::vector<Tuple>& rows,
                                    std::size_t col, SymbolId value) {
  std::vector<uint32_t> out;
  for (uint32_t row = 0; row < rows.size(); ++row) {
    if (rows[row][col] == value) out.push_back(row);
  }
  return out;
}

TEST(ColumnarRelationTest, PropertyAcrossInlineToHashedBoundary) {
  // Seeded relations of 0-64 distinct rows (with duplicates) cross the
  // inline-scan -> hash-table boundary at the 9th row. After every insert
  // the relation must agree with a std::set on Insert's result, Contains,
  // CopyRow, operator== and DistinctInColumn, and the snapshot column
  // indexes built before and after the boundary must hold exactly the
  // matching row ids.
  for (uint32_t seed = 0; seed < 48; ++seed) {
    std::mt19937 rng(seed);
    const std::size_t arity = 1 + seed % 3;
    const std::size_t target = seed % 65;
    // Small domains keep duplicates frequent; arity 1 still needs room for
    // 64 distinct rows.
    const SymbolId max_value = arity == 1 ? 79 : 9;
    std::uniform_int_distribution<SymbolId> value(0, max_value);
    auto random_tuple = [&]() {
      Tuple t(arity);
      for (SymbolId& v : t) v = value(rng);
      return t;
    };

    auto vocab = std::make_shared<Vocabulary>();
    auto p = vocab->DeclarePredicate("p", static_cast<uint32_t>(arity + 1));
    ASSERT_TRUE(p.ok());
    vocab->SetTemporal(*p);
    Interpretation interp(vocab);
    constexpr int64_t kTime = 4;
    bool probed_early = false;
    bool probed_late = false;

    Relation rel;
    std::set<Tuple> reference;
    std::vector<Tuple> rows;  // reference rows in append order
    for (int attempt = 0; reference.size() < target && attempt < 400;
         ++attempt) {
      const Tuple t = random_tuple();
      const bool fresh = reference.insert(t).second;
      ASSERT_EQ(rel.Insert(t), fresh) << "seed " << seed;
      ASSERT_EQ(interp.Insert(*p, kTime, t), fresh) << "seed " << seed;
      if (fresh) rows.push_back(t);
      ASSERT_EQ(rel.size(), reference.size());

      for (const Tuple& r : reference) EXPECT_TRUE(rel.Contains(r));
      for (int probe = 0; probe < 4; ++probe) {
        const Tuple q = random_tuple();
        EXPECT_EQ(rel.Contains(q), reference.count(q) == 1) << "seed " << seed;
      }
      Tuple scratch{99};
      for (uint32_t row = 0; row < rel.size(); ++row) {
        rel.CopyRow(row, &scratch);
        EXPECT_EQ(scratch, rows[row]) << "seed " << seed << " row " << row;
      }

      // A mirror built in reverse order is set-equal; one row fewer is not.
      Relation mirror;
      for (auto it = rows.rbegin(); it != rows.rend(); ++it) mirror.Insert(*it);
      EXPECT_TRUE(rel == mirror);
      Relation shorter;
      for (std::size_t i = 1; i < rows.size(); ++i) shorter.Insert(rows[i]);
      EXPECT_TRUE(rel != shorter);
      // The fresh mirror samples every row: its estimate is exact.
      for (std::size_t col = 0; col < arity; ++col) {
        std::set<SymbolId> distinct;
        for (const Tuple& r : rows) distinct.insert(r[col]);
        EXPECT_EQ(mirror.DistinctInColumn(col), distinct.size());
      }

      // Column indexes: one set built while the cell is inline, one right
      // after it overflows into the table; both are maintained by inserts.
      if (!probed_early && rows.size() == 5) {
        for (uint32_t col = 0; col < arity; ++col) {
          interp.ProbeSnapshot(*p, kTime, col, 0);
        }
        probed_early = true;
      }
      if (!probed_late && rows.size() == Relation::kInlineRows + 1) {
        for (uint32_t col = 0; col < arity; ++col) {
          interp.ProbeSnapshot(*p, kTime, col, 0);
        }
        probed_late = true;
      }
      if (probed_early || probed_late) {
        for (uint32_t col = 0; col < arity; ++col) {
          for (SymbolId v = 0; v <= max_value; ++v) {
            const std::vector<uint32_t>* bucket =
                interp.ProbeSnapshot(*p, kTime, col, v);
            const std::vector<uint32_t> expected = RowsWithValue(rows, col, v);
            if (expected.empty()) {
              EXPECT_EQ(bucket, nullptr);
            } else {
              ASSERT_NE(bucket, nullptr);
              EXPECT_EQ(*bucket, expected) << "seed " << seed;
            }
          }
        }
      }
    }
    EXPECT_EQ(rel.size(), target) << "seed " << seed;
    EXPECT_TRUE(interp.Snapshot(*p, kTime) == rel);
  }
}

TEST(ColumnarRelationTest, ClearKeepsArityAndRefills) {
  Relation rel;
  for (SymbolId x = 0; x < 20; ++x) rel.Insert({x, x});
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.arity(), 2u);
  EXPECT_FALSE(rel.Contains({1, 1}));
  EXPECT_TRUE(rel.Insert({1, 1}));
  EXPECT_FALSE(rel.Insert({1, 1}));
  EXPECT_EQ(rel.Row(0), (Tuple{1, 1}));
  EXPECT_EQ(rel.DistinctInColumn(0), 1u);
}

TEST(ColumnarInterpretationTest, ProbeBucketsHoldRowIds) {
  auto vocab = std::make_shared<Vocabulary>();
  auto e = vocab->DeclarePredicate("e", 2);
  ASSERT_TRUE(e.ok());
  const SymbolId a = vocab->InternConstant("a");
  const SymbolId b = vocab->InternConstant("b");
  const SymbolId c = vocab->InternConstant("c");
  Interpretation interp(vocab);
  interp.Insert(*e, 0, {a, b});
  interp.Insert(*e, 0, {a, c});
  interp.Insert(*e, 0, {b, c});
  const std::vector<uint32_t>* bucket = interp.ProbeNonTemporal(*e, 0, a);
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 2u);
  const Relation& rel = interp.NonTemporal(*e);
  for (uint32_t row : *bucket) {
    ASSERT_LT(row, rel.size());
    EXPECT_EQ(rel.at(row, 0), a);
  }
  // Row ids survive further inserts (positional, append-only).
  interp.Insert(*e, 0, {a, a});
  EXPECT_EQ(interp.ProbeNonTemporal(*e, 0, a)->size(), 3u);
  EXPECT_EQ(rel.at((*bucket)[0], 0), a);
}

TEST(ColumnarInterpretationTest, ForEachEnumeratesEveryFact) {
  auto vocab = std::make_shared<Vocabulary>();
  auto e = vocab->DeclarePredicate("e", 1);
  auto p = vocab->DeclarePredicate("p", 1);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(p.ok());
  vocab->SetTemporal(*p);
  const SymbolId a = vocab->InternConstant("a");
  const SymbolId b = vocab->InternConstant("b");
  Interpretation interp(vocab);
  interp.Insert(*e, 0, {a});
  interp.Insert(*p, 3, {a});
  interp.Insert(*p, 3, {b});
  interp.Insert(*p, 5, {a});
  std::set<std::tuple<PredicateId, int64_t, Tuple>> seen;
  interp.ForEach([&](PredicateId pred, int64_t time, const Tuple& args) {
    // The tuple reference is scratch storage: copy, as the contract says.
    seen.insert({pred, time, args});
  });
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.count({*p, 3, Tuple{b}}), 1u);
  EXPECT_EQ(seen.count({*e, 0, Tuple{a}}), 1u);
}

TEST(ColumnarInterpretationTest, ForEachRowMatchesForEachAndClearEmpties) {
  auto vocab = std::make_shared<Vocabulary>();
  auto e = vocab->DeclarePredicate("e", 1);
  auto p = vocab->DeclarePredicate("p", 2);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(p.ok());
  vocab->SetTemporal(*p);
  const SymbolId a = vocab->InternConstant("a");
  const SymbolId b = vocab->InternConstant("b");
  Interpretation interp(vocab);
  interp.Insert(*p, 5, {a});
  interp.Insert(*e, 0, {b});
  interp.Insert(*p, 3, {b});
  interp.Insert(*p, 3, {a});
  std::vector<std::tuple<PredicateId, int64_t, Tuple>> by_tuple;
  interp.ForEach([&](PredicateId pred, int64_t time, const Tuple& args) {
    by_tuple.emplace_back(pred, time, args);
  });
  std::vector<std::tuple<PredicateId, int64_t, Tuple>> by_row;
  interp.ForEachRow([&](PredicateId pred, int64_t time, const SymbolId* args,
                        std::size_t n) {
    by_row.emplace_back(pred, time, Tuple(args, args + n));
  });
  EXPECT_EQ(by_row, by_tuple);  // same facts, same order
  ASSERT_EQ(by_row.size(), 4u);

  ASSERT_NE(interp.ProbeSnapshot(*p, 3, 0, a), nullptr);
  interp.Clear();
  EXPECT_TRUE(interp.empty());
  EXPECT_FALSE(interp.Contains(*p, 3, {a}));
  EXPECT_TRUE(interp.Timeline(*p).empty());
  EXPECT_TRUE(interp.NonTemporal(*e).empty());
  EXPECT_EQ(interp.ProbeSnapshot(*p, 3, 0, a), nullptr);
  // Refills like a fresh interpretation, indexes included.
  EXPECT_TRUE(interp.Insert(*p, 3, {a}));
  EXPECT_TRUE(interp.Insert(*e, 0, {b}));
  EXPECT_EQ(interp.size(), 2u);
  const std::vector<uint32_t>* bucket = interp.ProbeSnapshot(*p, 3, 0, a);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(*bucket, (std::vector<uint32_t>{0}));
}

}  // namespace
}  // namespace chronolog
