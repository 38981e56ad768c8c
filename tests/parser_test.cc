#include <gtest/gtest.h>

#include "ast/lexer.h"
#include "ast/parser.h"
#include "ast/printer.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

Result<ParsedUnit> Parse(std::string_view src) { return Parser::Parse(src); }

const PredicateInfo& Pred(const ParsedUnit& unit, std::string_view name) {
  PredicateId id = unit.program.vocab().FindPredicate(name);
  EXPECT_NE(id, kInvalidPredicate) << "unknown predicate " << name;
  return unit.program.vocab().predicate(id);
}

// --------------------------------------------------------------------------
// Basic structure
// --------------------------------------------------------------------------

TEST(ParserTest, EvenExample) {
  auto unit = Parse("even(0). even(T+2) :- even(T).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->program.rules().size(), 1u);
  EXPECT_EQ(unit->database.size(), 1u);
  const PredicateInfo& even = Pred(*unit, "even");
  EXPECT_TRUE(even.is_temporal);
  EXPECT_EQ(even.arity, 0u);
  EXPECT_EQ(even.written_arity(), 1u);
}

// Times are int64: 2^63 used to lex as a uint64 and wrap to a negative time.
// It is now a located error; 2^63 - 1 still lexes.
TEST(ParserTest, IntegerLiteralAboveInt64MaxIsALocatedError) {
  auto unit = Parse("even(0).\neven(9223372036854775808).");
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unit.status().message().find(
                "integer literal overflow at line 2, column 6"),
            std::string::npos)
      << unit.status();

  auto tokens = Tokenize("9223372036854775807");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  EXPECT_EQ((*tokens)[0].int_value, uint64_t{9223372036854775807});
}

TEST(ParserTest, FactTimeIsParsed) {
  auto unit = Parse("p(7, a).\np(T+1, X) :- p(T, X).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->database.size(), 1u);
  EXPECT_EQ(unit->database.facts()[0].time, 7);
  EXPECT_EQ(unit->database.MaxTemporalDepth(), 7);
}

TEST(ParserTest, SkiExampleFromPaper) {
  auto unit = Parse(workload::SkiScheduleSource(/*resorts=*/2,
                                                /*year_len=*/12,
                                                /*winter_len=*/4,
                                                /*holidays=*/1));
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->program.rules().size(), 6u);
  EXPECT_TRUE(Pred(*unit, "plane").is_temporal);
  EXPECT_EQ(Pred(*unit, "plane").arity, 1u);
  EXPECT_FALSE(Pred(*unit, "resort").is_temporal);
  EXPECT_TRUE(Pred(*unit, "offseason").is_temporal);
  EXPECT_TRUE(unit->program.IsSemiNormal());
  EXPECT_FALSE(unit->program.IsNormal());  // depth 7 and 12
}

TEST(ParserTest, PathExampleFromPaper) {
  auto unit = Parse(workload::PathProgramSource() +
                    workload::CycleGraphFactsSource(3));
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->program.rules().size(), 3u);
  EXPECT_TRUE(Pred(*unit, "path").is_temporal);
  EXPECT_EQ(Pred(*unit, "path").arity, 2u);
  EXPECT_TRUE(Pred(*unit, "null").is_temporal);
  EXPECT_FALSE(Pred(*unit, "node").is_temporal);
  EXPECT_TRUE(unit->program.IsNormal());
}

TEST(ParserTest, ZeroAryPredicates) {
  auto unit = Parse("go. stop :- go.");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(Pred(*unit, "go").written_arity(), 0u);
  EXPECT_EQ(unit->database.size(), 1u);
  EXPECT_EQ(unit->program.rules().size(), 1u);
}

// --------------------------------------------------------------------------
// Sort inference
// --------------------------------------------------------------------------

TEST(ParserTest, TemporalityPropagatesThroughVariables) {
  // `q` becomes temporal because T is temporal via `p`.
  auto unit = Parse("p(0). p(T+1) :- p(T), q(T).\nq(3).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_TRUE(Pred(*unit, "q").is_temporal);
}

TEST(ParserTest, TemporalityPropagatesAcrossClauses) {
  // `q` is only used with a bare variable; temporality flows from the fact
  // in a *different* clause via p.
  auto unit = Parse(R"(
    q(T, X) :- p(T, X).
    p(0, a).
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_TRUE(Pred(*unit, "q").is_temporal);
  EXPECT_TRUE(Pred(*unit, "p").is_temporal);
}

TEST(ParserTest, AmbiguousPredicateDefaultsToNonTemporal) {
  auto unit = Parse("likes(X, Y) :- knows(X, Y).\nknows(a, b).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_FALSE(Pred(*unit, "likes").is_temporal);
  EXPECT_FALSE(Pred(*unit, "knows").is_temporal);
}

TEST(ParserTest, TemporalDirectivePinsSort) {
  auto unit = Parse("@temporal happy/2.\nhappy(T, X) :- happy(T, Y), f(X, Y).\n"
                    "f(a, b). happy(0, b).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_TRUE(Pred(*unit, "happy").is_temporal);
  EXPECT_EQ(Pred(*unit, "happy").arity, 1u);
}

TEST(ParserTest, WithoutDirectiveDataOnlyRuleStaysAmbiguous) {
  // No integer ever appears: defaults to non-temporal (documented).
  auto unit = Parse("happy(T, X) :- happy(T, Y), f(X, Y).\nf(a, b).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_FALSE(Pred(*unit, "happy").is_temporal);
}

TEST(ParserTest, ConstantInTemporalPositionFails) {
  auto unit = Parse("p(0). p(T+1) :- p(T).\np(zero).");
  EXPECT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("temporal argument"),
            std::string::npos);
}

TEST(ParserTest, IntegerInNonTemporalPositionFails) {
  auto unit = Parse("edge(a, 3).");
  EXPECT_FALSE(unit.ok());
}

TEST(ParserTest, OffsetInNonFirstPositionFails) {
  auto unit = Parse("p(T, X+1) :- p(T, X).");
  EXPECT_FALSE(unit.ok());
}

TEST(ParserTest, MixedSortVariableFails) {
  // T used as temporal (first arg of p) and non-temporal (second arg of q).
  auto unit = Parse("p(0, a). q(b, c). r(T) :- p(T, X), q(X, T).");
  EXPECT_FALSE(unit.ok());
}

TEST(ParserTest, ConflictingTemporalityFails) {
  auto unit = Parse("p(0). p(a).");
  EXPECT_FALSE(unit.ok());
}

// --------------------------------------------------------------------------
// Arity and structure errors
// --------------------------------------------------------------------------

TEST(ParserTest, ArityMismatchFails) {
  auto unit = Parse("p(a). p(a, b).");
  EXPECT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("previously with"),
            std::string::npos)
      << unit.status();
}

TEST(ParserTest, NonGroundFactFails) {
  auto unit = Parse("p(X).");
  EXPECT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("variables"), std::string::npos);
}

TEST(ParserTest, NonRangeRestrictedRuleFails) {
  auto unit = Parse("p(X) :- q(Y).\nq(a).");
  EXPECT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("range-restricted"),
            std::string::npos);
}

TEST(ParserTest, TemporalHeadVarMustAppearInBody) {
  auto unit = Parse("p(0). p(T+1) :- q(a).\nq(a).");
  EXPECT_FALSE(unit.ok());
}

TEST(ParserTest, MissingDotFails) {
  auto unit = Parse("p(a)");
  EXPECT_FALSE(unit.ok());
}

TEST(ParserTest, DirectiveArityConflictFails) {
  auto unit = Parse("@temporal p/2.\np(0, a, b).");
  EXPECT_FALSE(unit.ok());
}

TEST(ParserTest, DirectiveOnZeroArityFails) {
  auto unit = Parse("@temporal p/0.");
  EXPECT_FALSE(unit.ok());
}

// --------------------------------------------------------------------------
// Error positions: every parse error names the offending line and column,
// including Finish-time (sort inference / lowering) errors.
// --------------------------------------------------------------------------

TEST(ParserTest, SyntaxErrorCarriesLineAndColumn) {
  auto unit = Parse("p(a).\nq(b)\nr(c).");
  ASSERT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("line 3, column 1"),
            std::string::npos)
      << unit.status();
}

TEST(ParserTest, RangeRestrictionErrorCarriesPositionAndVariable) {
  auto unit = Parse("q(a).\np(X) :- q(Y).");
  ASSERT_FALSE(unit.ok());
  const std::string& message = unit.status().message();
  EXPECT_NE(message.find("'X'"), std::string::npos) << unit.status();
  EXPECT_NE(message.find("line 2, column 1"), std::string::npos)
      << unit.status();
}

TEST(ParserTest, SortConflictErrorCarriesPosition) {
  auto unit = Parse("p(0). p(T+1) :- p(T).\np(zero).");
  ASSERT_FALSE(unit.ok());
  // Points at the offending term, not just the clause.
  EXPECT_NE(unit.status().message().find("line 2, column 3"),
            std::string::npos)
      << unit.status();
}

TEST(ParserTest, ArityMismatchErrorCarriesPosition) {
  auto unit = Parse("p(a).\n\np(a, b).");
  ASSERT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("line 3, column 1"),
            std::string::npos)
      << unit.status();
}

TEST(ParserTest, NonGroundFactErrorCarriesPosition) {
  auto unit = Parse("q(a).\np(X).\nq(b).");
  ASSERT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("line 2, column 1"),
            std::string::npos)
      << unit.status();
}

TEST(ParserTest, FinishErrorNamesTheSourceUnit) {
  Parser parser;
  ASSERT_TRUE(parser.AddSource("q(a).", "good.tdd").ok());
  ASSERT_TRUE(parser.AddSource("p(X) :- q(Y).", "bad.tdd").ok());
  auto unit = parser.Finish();
  ASSERT_FALSE(unit.ok());
  EXPECT_NE(unit.status().message().find("of bad.tdd"), std::string::npos)
      << unit.status();
}

// --------------------------------------------------------------------------
// Source spans on the lowered AST
// --------------------------------------------------------------------------

TEST(ParserTest, RulesAndAtomsCarrySourceLocations) {
  auto unit = Parse("even(0).\neven(T+2) :-\n    even(T).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  const Rule& rule = unit->program.rules()[0];
  EXPECT_EQ(rule.loc.line, 2);
  EXPECT_EQ(rule.loc.column, 1);
  EXPECT_EQ(rule.head.loc.line, 2);
  ASSERT_EQ(rule.body.size(), 1u);
  EXPECT_EQ(rule.body[0].loc.line, 3);
  EXPECT_EQ(rule.body[0].loc.column, 5);
}

TEST(ParserTest, SourceUnitNamesAreRecorded) {
  Parser parser;
  ASSERT_TRUE(parser.AddSource("p(T+1, X) :- p(T, X).", "rules.tdd").ok());
  ASSERT_TRUE(parser.AddSource("p(0, a).", "facts.tdd").ok());
  auto unit = parser.Finish();
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->program.source_units().size(), 2u);
  EXPECT_EQ(unit->program.source_units()[0], "rules.tdd");
  const Rule& rule = unit->program.rules()[0];
  EXPECT_EQ(unit->program.SourceUnitName(rule.loc.unit), "rules.tdd");
  EXPECT_EQ(unit->program.SourceUnitName(-1), "<input>");
  EXPECT_EQ(unit->program.SourceUnitName(99), "<input>");
}

TEST(ParserTest, FinishTwiceFails) {
  Parser parser;
  ASSERT_TRUE(parser.AddSource("p(a).").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(parser.Finish().status().code(), StatusCode::kFailedPrecondition);
}

TEST(ParserTest, AddSourceAfterFinishFails) {
  Parser parser;
  ASSERT_TRUE(parser.AddSource("p(a).").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(parser.AddSource("q(b).").code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------------------
// Multi-source parsing and vocabulary reuse
// --------------------------------------------------------------------------

TEST(ParserTest, MultipleSourcesShareInference) {
  Parser parser;
  ASSERT_TRUE(parser.AddSource("p(T+1, X) :- p(T, X).").ok());
  ASSERT_TRUE(parser.AddSource("p(0, a).").ok());
  auto unit = parser.Finish();
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_TRUE(Pred(*unit, "p").is_temporal);
}

TEST(ParserTest, ExistingVocabularySignaturesAreBinding) {
  auto first = Parse("p(0, a). p(T+1, X) :- p(T, X).");
  ASSERT_TRUE(first.ok());
  // Same predicate, now used non-temporally: rejected.
  Parser parser(first->program.vocab_ptr());
  ASSERT_TRUE(parser.AddSource("p(b, c).").ok());
  EXPECT_FALSE(parser.Finish().ok());
}

TEST(ParserTest, ExistingVocabularyAcceptsConsistentUse) {
  auto first = Parse("p(0, a). p(T+1, X) :- p(T, X).");
  ASSERT_TRUE(first.ok());
  Parser parser(first->program.vocab_ptr());
  ASSERT_TRUE(parser.AddSource("p(5, b).").ok());
  auto unit = parser.Finish();
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->database.facts()[0].time, 5);
}

// --------------------------------------------------------------------------
// Rule shape helpers on parsed rules
// --------------------------------------------------------------------------

TEST(ParserTest, SemiNormalAndNormalDetection) {
  auto unit = Parse(R"(
    p(0, a).
    p(T+1, X) :- p(T, X).
    q(0).
    q(T+2) :- q(T).
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_TRUE(unit->program.rules()[0].IsNormal());
  EXPECT_TRUE(unit->program.rules()[1].IsSemiNormal());
  EXPECT_FALSE(unit->program.rules()[1].IsNormal());
  EXPECT_EQ(unit->program.MaxTemporalDepth(), 2);
}

TEST(ParserTest, TwoTemporalVariablesIsNotSemiNormal) {
  auto unit = Parse(R"(
    r(0). s(0).
    p(T) :- r(T), s(S).
    p(0).
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->program.rules().size(), 1u);
  EXPECT_FALSE(unit->program.rules()[0].IsSemiNormal());
  EXPECT_FALSE(unit->program.IsSemiNormal());
}

TEST(ParserTest, GroundTemporalTermInRuleBody) {
  auto unit = Parse("p(0). q(T) :- p(T), p(3).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  const Rule& rule = unit->program.rules()[0];
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_TRUE(rule.body[1].time->ground());
  EXPECT_EQ(rule.body[1].time->offset, 3);
}

// --------------------------------------------------------------------------
// Printer round-trips
// --------------------------------------------------------------------------

TEST(PrinterTest, RuleRoundTrip) {
  auto unit = Parse("plane(T+7, X) :- plane(T, X), resort(X), offseason(T).\n"
                    "plane(0, hunter). resort(hunter). offseason(0).");
  ASSERT_TRUE(unit.ok()) << unit.status();
  std::string printed =
      RuleToString(unit->program.rules()[0], unit->program.vocab());
  EXPECT_EQ(printed,
            "plane(T+7, X) :- plane(T, X), resort(X), offseason(T).");
  // Re-parsing the printed program yields the same structure.
  auto reparsed = Parse(ProgramToString(unit->program) +
                        DatabaseToString(unit->database));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(ProgramToString(reparsed->program),
            ProgramToString(unit->program));
  EXPECT_EQ(DatabaseToString(reparsed->database),
            DatabaseToString(unit->database));
}

TEST(PrinterTest, GroundAtomRendering) {
  auto unit = Parse("p(3, a). q(b). go.");
  ASSERT_TRUE(unit.ok()) << unit.status();
  const Vocabulary& vocab = unit->database.vocab();
  EXPECT_EQ(GroundAtomToString(unit->database.facts()[0], vocab), "p(3, a)");
  EXPECT_EQ(GroundAtomToString(unit->database.facts()[1], vocab), "q(b)");
  EXPECT_EQ(GroundAtomToString(unit->database.facts()[2], vocab), "go");
}

TEST(PrinterTest, WorkloadSourcesAllParse) {
  std::mt19937 rng(7);
  EXPECT_TRUE(Parse(workload::EvenSource()).ok());
  EXPECT_TRUE(Parse(workload::TokenRingSource({2, 3, 5})).ok());
  EXPECT_TRUE(Parse(workload::BinaryCounterSource(4)).ok());
  EXPECT_TRUE(Parse(workload::DelayChainSource({3, 4})).ok());
  EXPECT_TRUE(Parse(workload::PathProgramSource() +
                    workload::RandomGraphFactsSource(5, 10, &rng))
                  .ok());
  EXPECT_TRUE(Parse(workload::BoundedDatalogSource()).ok());
  EXPECT_TRUE(Parse(workload::TransitiveClosureDatalogSource()).ok());
}

}  // namespace
}  // namespace chronolog
