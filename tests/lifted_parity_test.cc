/// Randomized exact-parity suite for the lifted safe-plan engine: ~500
/// random hierarchical self-join-free CQs over random TI instances,
/// checked in exact rational arithmetic (EXPECT_EQ, no tolerances)
/// against two independent oracles — the ground-then-compile d-DNNF
/// pipeline and brute-force world enumeration. Each accepted query also
/// runs through the other entry points of the one columnar evaluator:
/// the interval enclosure must contain the exact answer, and the
/// QueryProbability ladder (QUERY) and a PreparedQuery (PQUERY) must
/// agree bit for bit. Randomly generated queries *outside* the safe
/// class double as rejection coverage.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/evaluator.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "math/bigint.h"
#include "math/rational.h"
#include "pqe/lineage.h"
#include "pqe/prepared.h"
#include "pqe/safe_plan.h"
#include "pqe/wmc.h"
#include "relational/fact.h"
#include "relational/instance.h"
#include "test_util.h"
#include "util/random.h"

namespace ipdb {
namespace pqe {
namespace {

rel::Schema ParitySchema() {
  return rel::Schema({{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}});
}

/// A random conjunction of quantified groups. Groups deliberately reuse
/// the variable names x/y/z, so multi-group queries exercise the
/// alpha-renaming of shadowed quantifiers; terms mix variables and
/// constants; relations are drawn without replacement (self-join-free
/// by construction). Hierarchicality is random — three-atom groups
/// regularly produce H0-shaped patterns — and LiftedPlan::Compile is
/// the filter.
logic::Formula RandomCq(const rel::Schema& schema, int universe,
                        Pcg32* rng) {
  const int num_relations = schema.num_relations();
  std::vector<int> relations(num_relations);
  for (int i = 0; i < num_relations; ++i) relations[i] = i;
  for (int i = num_relations - 1; i > 0; --i) {
    std::swap(relations[i],
              relations[rng->NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  const int num_groups = 1 + static_cast<int>(rng->NextBounded(2));
  const char* names[] = {"x", "y", "z"};
  size_t next_relation = 0;
  std::vector<logic::Formula> groups;
  for (int g = 0; g < num_groups; ++g) {
    const int num_vars = 1 + static_cast<int>(rng->NextBounded(3));
    std::vector<std::string> vars(names, names + num_vars);
    int num_atoms = 1 + static_cast<int>(rng->NextBounded(3));
    std::vector<logic::Formula> atoms;
    while (num_atoms-- > 0 && next_relation < relations.size()) {
      const int relation = relations[next_relation++];
      std::vector<logic::Term> terms;
      for (int pos = 0; pos < schema.arity(relation); ++pos) {
        if (rng->NextBounded(10) < 9) {
          terms.push_back(logic::Term::Var(
              vars[rng->NextBounded(static_cast<uint32_t>(vars.size()))]));
        } else {
          terms.push_back(logic::Term::Int(static_cast<int64_t>(
              rng->NextBounded(static_cast<uint32_t>(universe)))));
        }
      }
      atoms.push_back(logic::Atom(relation, std::move(terms)));
    }
    if (atoms.empty()) continue;
    groups.push_back(logic::ExistsAll(vars, logic::And(std::move(atoms))));
  }
  if (groups.empty()) return logic::Truth();
  return logic::And(std::move(groups));
}

/// Exact brute-force oracle: Σ over worlds satisfying the sentence of
/// the world's rational probability.
math::Rational BruteForceRational(const pdb::TiPdb<math::Rational>& ti,
                                  const logic::Formula& sentence) {
  math::Rational total;
  const uint64_t worlds = uint64_t{1} << ti.num_facts();
  for (uint64_t mask = 0; mask < worlds; ++mask) {
    std::vector<rel::Fact> chosen;
    math::Rational probability(1);
    for (int i = 0; i < ti.num_facts(); ++i) {
      if ((mask >> i) & 1) {
        chosen.push_back(ti.facts()[i].first);
        probability *= ti.facts()[i].second;
      } else {
        probability *= math::Rational(1) - ti.facts()[i].second;
      }
    }
    rel::Instance world(std::move(chosen));
    auto holds = logic::Evaluate(world, ti.schema(), sentence);
    if (holds.ok() && holds.value()) total += probability;
  }
  return total;
}

/// The exact value of a finite double of magnitude below 2^53.
math::Rational ExactValue(double x) {
  int exponent = 0;
  const double mantissa = std::frexp(x, &exponent);  // x = mantissa·2^exp
  const int64_t scaled = static_cast<int64_t>(std::ldexp(mantissa, 53));
  return math::Rational(math::BigInt(scaled),
                        math::BigInt::TwoToThe(static_cast<uint64_t>(
                            53 - exponent)));
}

/// The double-marginal entry points on one accepted query: the interval
/// enclosure contains the exact answer for the marginals it was given
/// (the doubles, read exactly), and the lifted rung of QueryProbability
/// and a PreparedQuery on the same store return the same double bit for
/// bit.
void CheckDoubleEntryPoints(const rel::Schema& schema, const LiftedPlan& plan,
                            const logic::Formula& sentence,
                            const pdb::TiPdb<double>& ti) {
  pdb::TiPdb<math::Rational>::FactList dyadic;
  for (const auto& [fact, marginal] : ti.facts()) {
    dyadic.emplace_back(fact, ExactValue(marginal));
  }
  StatusOr<math::Rational> exact = plan.Evaluate(
      pdb::TiPdb<math::Rational>::CreateOrDie(schema, std::move(dyadic)));
  StatusOr<Interval> enclosure = plan.EvaluateInterval(ti);
  ASSERT_TRUE(exact.ok()) << sentence.ToString(schema);
  ASSERT_TRUE(enclosure.ok()) << sentence.ToString(schema);
  EXPECT_LE(ExactValue(enclosure.value().lo()), exact.value())
      << sentence.ToString(schema);
  EXPECT_LE(exact.value(), ExactValue(enclosure.value().hi()))
      << sentence.ToString(schema);

  StatusOr<QueryAnswer> query = QueryProbability(ti, sentence, QueryOptions{});
  StatusOr<PreparedQuery> prepared = PreparedQuery::Prepare(ti.store(), sentence);
  ASSERT_TRUE(query.ok()) << sentence.ToString(schema);
  ASSERT_TRUE(prepared.ok()) << sentence.ToString(schema);
  EXPECT_TRUE(query.value().lifted) << sentence.ToString(schema);
  EXPECT_TRUE(prepared.value().lifted()) << sentence.ToString(schema);
  StatusOr<double> pquery = prepared.value().Query();
  ASSERT_TRUE(pquery.ok()) << sentence.ToString(schema);
  EXPECT_EQ(query.value().probability, pquery.value())
      << sentence.ToString(schema);
}

TEST(LiftedParityTest, RandomHierarchicalQueriesMatchCircuitAndBruteForce) {
  rel::Schema schema = ParitySchema();
  Pcg32 rng(0x11f7ed);
  int accepted = 0;
  int rejected = 0;
  int attempts = 0;
  const int kTarget = 500;
  const int kMaxAttempts = 5000;
  while (accepted < kTarget && ++attempts <= kMaxAttempts) {
    logic::Formula sentence = RandomCq(schema, 3, &rng);
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
    if (!plan.ok()) {
      // Rejection coverage: everything LiftedPlan turns away must be a
      // clean kFailedPrecondition (non-hierarchical — the generator
      // never emits self-joins or non-CQ shapes).
      EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition)
          << sentence.ToString(schema);
      ++rejected;
      continue;
    }
    ++accepted;

    pdb::TiPdb<math::Rational> exact_ti =
        testing_util::RandomRationalTi(schema, 8, 3, 10, &rng);
    // Lifted evaluation, exact.
    StatusOr<math::Rational> lifted = plan.value().Evaluate(exact_ti);
    ASSERT_TRUE(lifted.ok())
        << sentence.ToString(schema) << ": " << lifted.status().ToString();

    // Circuit oracle: ground the double shadow, compile, evaluate the
    // d-DNNF with the rational marginals (grounding is
    // probability-independent, so the shadow only fixes the fact order).
    pdb::TiPdb<double>::FactList shadow;
    std::map<rel::Fact, math::Rational> marginals;
    for (const auto& [fact, marginal] : exact_ti.facts()) {
      shadow.emplace_back(fact, marginal.ToDouble());
      marginals.emplace(fact, marginal);
    }
    pdb::TiPdb<double> ti =
        pdb::TiPdb<double>::CreateOrDie(schema, std::move(shadow));
    Lineage lineage;
    StatusOr<NodeId> root = GroundSentence(ti, sentence, &lineage);
    ASSERT_TRUE(root.ok()) << sentence.ToString(schema);
    StatusOr<kc::CompiledQuery> compiled =
        kc::CompileLineage(&lineage, root.value());
    ASSERT_TRUE(compiled.ok()) << sentence.ToString(schema);
    std::vector<math::Rational> probs;
    for (const auto& [fact, marginal] : ti.facts()) {
      probs.push_back(marginals.at(fact));
    }
    StatusOr<math::Rational> circuit = kc::EvaluateCircuitExact(
        compiled.value().circuit, compiled.value().root, probs);
    ASSERT_TRUE(circuit.ok()) << sentence.ToString(schema);

    // Brute-force oracle.
    math::Rational brute = BruteForceRational(exact_ti, sentence);

    EXPECT_EQ(lifted.value(), circuit.value())
        << sentence.ToString(schema);
    EXPECT_EQ(lifted.value(), brute) << sentence.ToString(schema);
    CheckDoubleEntryPoints(schema, plan.value(), sentence, ti);
    if (lifted.value() != circuit.value() || lifted.value() != brute ||
        HasFailure()) {
      break;  // one counterexample is enough output
    }
  }
  EXPECT_EQ(accepted, kTarget)
      << "generator too restrictive: " << accepted << " accepted / "
      << rejected << " rejected in " << attempts << " attempts";
  // The generator must also exercise the rejection path.
  EXPECT_GT(rejected, 10);
}

/// Constant and repeated-variable shapes the row scan narrows or filters
/// differently, on one fixed instance, against brute force.
TEST(LiftedParityTest, ConstantAndRepeatedVariableAtoms) {
  rel::Schema schema = ParitySchema();
  auto fact = [](int relation, std::vector<int64_t> args) {
    std::vector<rel::Value> values;
    for (int64_t a : args) values.push_back(rel::Value::Int(a));
    return rel::Fact(relation, std::move(values));
  };
  pdb::TiPdb<math::Rational>::FactList facts = {
      {fact(0, {1}), math::Rational::Ratio(1, 2)},
      {fact(0, {3}), math::Rational::Ratio(2, 3)},
      {fact(1, {1, 1}), math::Rational::Ratio(1, 3)},
      {fact(1, {1, 2}), math::Rational::Ratio(3, 4)},
      {fact(1, {2, 1}), math::Rational::Ratio(1, 5)},
      {fact(1, {3, 2}), math::Rational::Ratio(2, 7)},
      {fact(1, {3, 3}), math::Rational::Ratio(5, 8)},
      {fact(2, {1}), math::Rational::Ratio(3, 5)},
      {fact(2, {2}), math::Rational::Ratio(1, 4)},
  };
  pdb::TiPdb<math::Rational> exact_ti =
      pdb::TiPdb<math::Rational>::CreateOrDie(schema, facts);
  pdb::TiPdb<double>::FactList shadow;
  for (const auto& [f, marginal] : facts) {
    shadow.emplace_back(f, marginal.ToDouble());
  }
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(shadow));

  const char* queries[] = {
      "exists y. S(1, y) & T(y)",       // leading constant: prefix range
      "exists x. S(x, 2) & R(x)",       // trailing constant: filtered
      "exists y. S(7, y) & T(y)",       // absent constant: no rows
      "exists x. S(x, x) & R(x)",       // repeated variable
      "exists x y. R(x) & S(x, y)",     // whole relation
      "exists x. S(3, x) & T(x) & R(3)",  // constant-only atom
  };
  for (const char* text : queries) {
    logic::Formula sentence = logic::ParseSentence(text, schema).value();
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    StatusOr<math::Rational> lifted = plan.value().Evaluate(exact_ti);
    ASSERT_TRUE(lifted.ok()) << text << ": " << lifted.status().ToString();
    EXPECT_EQ(lifted.value(), BruteForceRational(exact_ti, sentence)) << text;
    CheckDoubleEntryPoints(schema, plan.value(), sentence, ti);
  }
}

TEST(LiftedParityTest, NullStoreIsInvalidArgument) {
  rel::Schema schema = ParitySchema();
  StatusOr<LiftedPlan> plan = LiftedPlan::Compile(
      logic::ParseSentence("exists x y. R(x) & S(x, y)", schema).value());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().Evaluate(pdb::TiPdb<double>()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      plan.value().Evaluate(pdb::TiPdb<math::Rational>()).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.value().EvaluateInterval(pdb::TiPdb<double>()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LiftedParityTest, SelfJoinAndNonCqShapesRejected) {
  rel::Schema schema = ParitySchema();
  // Self-join.
  auto sj = LiftedPlan::Compile(
      logic::ParseSentence("exists x y z. S(x, y) & S(y, z)", schema)
          .value());
  EXPECT_FALSE(sj.ok());
  EXPECT_EQ(sj.status().code(), StatusCode::kFailedPrecondition);
  // Disjunction.
  auto disj = LiftedPlan::Compile(
      logic::ParseSentence("(exists x. R(x)) | (exists x. T(x))", schema)
          .value());
  EXPECT_FALSE(disj.ok());
  EXPECT_EQ(disj.status().code(), StatusCode::kFailedPrecondition);
  // The canonical #P-hard H0.
  auto h0 = LiftedPlan::Compile(
      logic::ParseSentence("exists x y. R(x) & S(x, y) & T(y)", schema)
          .value());
  EXPECT_FALSE(h0.ok());
  EXPECT_EQ(h0.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace pqe
}  // namespace ipdb
