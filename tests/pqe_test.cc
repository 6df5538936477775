#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <tuple>

#include "logic/parser.h"
#include "pqe/lineage.h"
#include "pqe/prepared.h"
#include "pqe/wmc.h"
#include "util/budget.h"
#include "test_util.h"
#include "util/random.h"

namespace ipdb {
namespace pqe {
namespace {

TEST(LineageTest, SimplificationRules) {
  Lineage lineage;
  NodeId x = lineage.Var(0);
  NodeId y = lineage.Var(1);
  // Constant folding.
  EXPECT_EQ(lineage.MakeAnd({x, lineage.False()}), Lineage::kFalseId);
  EXPECT_EQ(lineage.MakeOr({x, lineage.True()}), Lineage::kTrueId);
  EXPECT_EQ(lineage.MakeAnd({x, lineage.True()}), x);
  EXPECT_EQ(lineage.MakeOr({x, lineage.False()}), x);
  // Idempotence and flattening.
  EXPECT_EQ(lineage.MakeAnd({x, x}), x);
  NodeId xy = lineage.MakeAnd({x, y});
  EXPECT_EQ(lineage.MakeAnd({xy, x}), xy);
  // Complement detection.
  EXPECT_EQ(lineage.MakeAnd({x, lineage.MakeNot(x)}), Lineage::kFalseId);
  EXPECT_EQ(lineage.MakeOr({x, lineage.MakeNot(x)}), Lineage::kTrueId);
  // Double negation.
  EXPECT_EQ(lineage.MakeNot(lineage.MakeNot(x)), x);
  // Hash consing: same structure, same id.
  EXPECT_EQ(lineage.MakeAnd({y, x}), xy);
}

TEST(LineageTest, SupportAndEvaluate) {
  Lineage lineage;
  NodeId x = lineage.Var(0);
  NodeId z = lineage.Var(2);
  NodeId f = lineage.MakeOr({lineage.MakeAnd({x, z}), lineage.MakeNot(x)});
  std::vector<int> support = lineage.Support(f);
  EXPECT_EQ(support, (std::vector<int>{0, 2}));
  EXPECT_TRUE(lineage.Evaluate(f, {true, false, true}));
  EXPECT_FALSE(lineage.Evaluate(f, {true, false, false}));
  EXPECT_TRUE(lineage.Evaluate(f, {false, false, false}));
}

TEST(LineageTest, Restrict) {
  Lineage lineage;
  NodeId x = lineage.Var(0);
  NodeId y = lineage.Var(1);
  NodeId f = lineage.MakeAnd({x, y});
  EXPECT_EQ(lineage.Restrict(f, 0, true), y);
  EXPECT_EQ(lineage.Restrict(f, 0, false), Lineage::kFalseId);
  EXPECT_EQ(lineage.Restrict(f, 7, true), f);  // untouched variable
}

pdb::TiPdb<double> PathTi() {
  // R(1,2), R(2,3), R(1,3), S(2) with assorted marginals.
  rel::Schema schema({{"R", 2}, {"S", 1}});
  auto r = [](int64_t a, int64_t b) {
    return rel::Fact(0, {rel::Value::Int(a), rel::Value::Int(b)});
  };
  return pdb::TiPdb<double>::CreateOrDie(
      schema, {{r(1, 2), 0.5},
               {r(2, 3), 0.25},
               {r(1, 3), 0.75},
               {rel::Fact(1, {rel::Value::Int(2)}), 0.4}});
}

TEST(GroundingTest, AtomicAndBooleanQueries) {
  pdb::TiPdb<double> ti = PathTi();
  const rel::Schema& schema = ti.schema();
  Lineage lineage;
  // A present fact grounds to its variable.
  auto root = GroundSentence(
      ti, logic::ParseSentence("R(1, 2)", schema).value(), &lineage);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(lineage.kind(root.value()), NodeKind::kVar);
  // An absent fact grounds to false.
  root = GroundSentence(
      ti, logic::ParseSentence("R(9, 9)", schema).value(), &lineage);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value(), Lineage::kFalseId);
}

TEST(GroundingTest, RequiresSentence) {
  pdb::TiPdb<double> ti = PathTi();
  Lineage lineage;
  auto open = logic::ParseFormula("S(x)", ti.schema()).value();
  EXPECT_FALSE(GroundSentence(ti, open, &lineage).ok());
}

TEST(GroundingTest, BudgetStopsUnguardedEnumeration) {
  // A 200-fact chain: a domain of 201 values plus the fresh witnesses.
  rel::Schema schema({{"R", 2}});
  pdb::TiPdbD::FactList facts;
  for (int i = 0; i < 200; ++i) {
    facts.emplace_back(
        rel::Fact(0, {rel::Value::Int(i), rel::Value::Int(i + 1)}), 0.5);
  }
  pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, std::move(facts));
  // Transitivity: every quantifier is universal, hence unguarded, and no
  // binding grounds to false, so the unbudgeted grounding enumerates all
  // |D|^3 ≈ 8.5e6 bindings.
  logic::Formula sentence =
      logic::ParseSentence("forall x y z. !R(x, y) | !R(y, z) | R(x, z)",
                           schema)
          .value();
  // One x-slice of that enumeration (|D|^2 bindings), unbudgeted, sizes
  // the whole: the full grounding costs about |D| slices.
  logic::Formula slice =
      logic::ParseSentence("forall y z. !R(0, y) | !R(y, z) | R(0, z)",
                           schema)
          .value();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point slice_start = Clock::now();
  Lineage slice_lineage;
  ASSERT_TRUE(GroundSentence(ti, slice, &slice_lineage).ok());
  const Clock::duration unbudgeted = (Clock::now() - slice_start) * 204;

  for (bool fallback : {true, false}) {
    ExecutionBudget budget =
        ExecutionBudget::WithTimeout(std::chrono::milliseconds(1));
    QueryOptions options;
    options.budget = &budget;
    options.fallback = fallback;
    const Clock::time_point start = Clock::now();
    StatusOr<QueryAnswer> answer = QueryProbability(ti, sentence, options);
    const Clock::duration elapsed = Clock::now() - start;
    if (fallback) {
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_TRUE(answer.value().quality == AnswerQuality::kInterval ||
                  answer.value().quality == AnswerQuality::kFailed);
      EXPECT_TRUE(IsBudgetError(answer.value().exact_error));
    } else {
      ASSERT_FALSE(answer.ok());
      EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
    }
    EXPECT_LT(elapsed * 4, unbudgeted) << "fallback=" << fallback;
  }

  // A prepared handle grounds under its own budget as well.
  ExecutionBudget budget =
      ExecutionBudget::WithTimeout(std::chrono::milliseconds(1));
  PreparedQuery::Options prepared_options;
  prepared_options.budget = &budget;
  StatusOr<PreparedQuery> prepared =
      PreparedQuery::Prepare(ti.store(), sentence, prepared_options);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(WmcTest, MatchesHandComputation) {
  pdb::TiPdb<double> ti = PathTi();
  const rel::Schema& schema = ti.schema();
  // Pr(∃x,y,z path x→y→z) — the only 2-path is 1→2→3:
  // P = 0.5 · 0.25.
  auto p = QueryProbability(
      ti,
      logic::ParseSentence("exists x y z. R(x, y) & R(y, z)", schema)
          .value());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_NEAR(p.value(), 0.125, 1e-12);
  // Independent OR: Pr(R(1,2) ∨ R(2,3)) = 1 − 0.5·0.75.
  p = QueryProbability(
      ti, logic::ParseSentence("R(1, 2) | R(2, 3)", schema).value());
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 1.0 - 0.375, 1e-12);
}

struct PqeCase {
  std::string name;
  std::string sentence;
};

class PqeAgreementTest : public ::testing::TestWithParam<PqeCase> {};

TEST_P(PqeAgreementTest, WmcMatchesBruteForce) {
  pdb::TiPdb<double> ti = PathTi();
  const rel::Schema& schema = ti.schema();
  logic::Formula sentence =
      logic::ParseSentence(GetParam().sentence, schema).value();
  auto exact = QueryProbability(ti, sentence);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  auto brute = QueryProbabilityBruteForce(ti, sentence);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  EXPECT_NEAR(exact.value(), brute.value(), 1e-10) << GetParam().sentence;
}

INSTANTIATE_TEST_SUITE_P(
    Sentences, PqeAgreementTest,
    ::testing::Values(
        PqeCase{"Path2", "exists x y z. R(x, y) & R(y, z)"},
        PqeCase{"Reach13", "R(1, 3) | exists y. R(1, y) & R(y, 3)"},
        PqeCase{"Negation", "!(exists x. S(x))"},
        PqeCase{"Universal", "forall x y. R(x, y) -> x = 1 | x = 2"},
        PqeCase{"Mixed",
                "exists x. S(x) & forall y. R(x, y) -> S(y) | y = 3"},
        PqeCase{"Iff", "R(1, 2) <-> S(2)"},
        PqeCase{"EqualityOnly", "exists x. x = 1 & !S(x)"},
        PqeCase{"Triangle",
                "exists x y z. R(x, y) & R(y, z) & R(x, z)"},
        PqeCase{"TwoDisjointPatterns", "S(2) & R(1, 3)"},
        PqeCase{"DeMorgan", "!(R(1, 2) & R(2, 3))"}),
    [](const ::testing::TestParamInfo<PqeCase>& info) {
      return info.param.name;
    });

TEST(WmcTest, RandomizedAgainstBruteForce) {
  Pcg32 rng(97);
  rel::Schema schema({{"R", 2}, {"S", 1}});
  const char* sentences[] = {
      "exists x y. R(x, y) & S(y)",
      "forall x. S(x) -> exists y. R(x, y)",
      "exists x. !S(x) & exists y. R(x, y)",
  };
  for (int trial = 0; trial < 6; ++trial) {
    pdb::TiPdb<math::Rational> exact_ti =
        testing_util::RandomRationalTi(schema, 6, 3, 8, &rng);
    // Double version of the same TI.
    pdb::TiPdb<double>::FactList facts;
    for (const auto& [fact, marginal] : exact_ti.facts()) {
      facts.emplace_back(fact, marginal.ToDouble());
    }
    pdb::TiPdb<double> ti =
        pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
    for (const char* text : sentences) {
      logic::Formula sentence =
          logic::ParseSentence(text, schema).value();
      auto wmc = QueryProbability(ti, sentence);
      auto brute = QueryProbabilityBruteForce(ti, sentence);
      ASSERT_TRUE(wmc.ok()) << text;
      ASSERT_TRUE(brute.ok()) << text;
      EXPECT_NEAR(wmc.value(), brute.value(), 1e-9) << text;
    }
  }
}

TEST(WmcTest, DecompositionStatisticsReported) {
  // Two independent conjuncts: a decomposition, no Shannon expansion.
  pdb::TiPdb<double> ti = PathTi();
  WmcStats stats;
  auto p = QueryProbability(
      ti,
      logic::ParseSentence("S(2) & R(1, 3)", ti.schema()).value(), &stats);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.4 * 0.75, 1e-12);
  EXPECT_EQ(stats.shannon_expansions, 0);
  EXPECT_GE(stats.decompositions, 1);
}

TEST(WmcTest, DecompositionAblationAgrees) {
  // With decomposition disabled everything goes through Shannon
  // expansion — slower, but the probabilities must be identical.
  pdb::TiPdb<double> ti = PathTi();
  const rel::Schema& schema = ti.schema();
  const char* sentences[] = {
      "exists x y z. R(x, y) & R(y, z)",
      "S(2) & R(1, 3)",
      "forall x y. R(x, y) -> x = 1 | x = 2",
  };
  WmcOptions no_decompose;
  no_decompose.decompose = false;
  for (const char* text : sentences) {
    logic::Formula sentence = logic::ParseSentence(text, schema).value();
    Lineage lineage;
    auto root = GroundSentence(ti, sentence, &lineage);
    ASSERT_TRUE(root.ok());
    std::vector<double> probs;
    for (const auto& [fact, marginal] : ti.facts()) {
      probs.push_back(marginal);
    }
    WmcStats with_stats;
    WmcStats without_stats;
    auto with = ComputeProbability(&lineage, root.value(), probs,
                                   &with_stats);
    auto without = ComputeProbability(&lineage, root.value(), probs,
                                      &without_stats, no_decompose);
    ASSERT_TRUE(with.ok());
    ASSERT_TRUE(without.ok());
    EXPECT_NEAR(with.value(), without.value(), 1e-12) << text;
    EXPECT_EQ(without_stats.decompositions, 0) << text;
  }
}

TEST(WmcTest, SharedVariableNeedsShannon) {
  // (x ∧ y) ∨ (x ∧ z): x is shared, forcing Shannon expansion.
  Lineage lineage;
  NodeId x = lineage.Var(0);
  NodeId y = lineage.Var(1);
  NodeId z = lineage.Var(2);
  NodeId f = lineage.MakeOr(
      {lineage.MakeAnd({x, y}), lineage.MakeAnd({x, z})});
  WmcStats stats;
  auto p = ComputeProbability(&lineage, f, {0.5, 0.5, 0.5}, &stats);
  ASSERT_TRUE(p.ok());
  // P = P(x)·P(y ∨ z) = 0.5 · 0.75.
  EXPECT_NEAR(p.value(), 0.375, 1e-12);
  EXPECT_GE(stats.shannon_expansions, 1);
}

}  // namespace
}  // namespace pqe
}  // namespace ipdb
