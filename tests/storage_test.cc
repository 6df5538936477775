/// Tests for the columnar fact store: dictionary interning, column-table
/// lookups and mutation, columnar-vs-legacy parity (grounding
/// fingerprints, lifted evaluation, size distributions) on randomized
/// instances and queries, and the generation-counter invalidation
/// protocol (structural mutation evicts dependent compiled artifacts;
/// probability updates keep circuits and refresh answers).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "kc/cache.h"
#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/evaluator.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "math/rational.h"
#include "pdb/bid_pdb.h"
#include "pdb/ti_pdb.h"
#include "pqe/lineage.h"
#include "pqe/prepared.h"
#include "pqe/safe_plan.h"
#include "pqe/wmc.h"
#include "storage/column_table.h"
#include "storage/dictionary.h"
#include "storage/ti_store.h"
#include "test_util.h"
#include "util/check.h"
#include "util/random.h"

namespace ipdb {
namespace storage {
namespace {

// Satellite guarantee: fact/block counts are 64-bit everywhere.
static_assert(std::is_same_v<decltype(std::declval<const pdb::TiPdbD&>()
                                          .num_facts()),
                             int64_t>);
static_assert(std::is_same_v<decltype(std::declval<const pdb::BidPdbD&>()
                                          .num_blocks()),
                             int64_t>);
static_assert(std::is_same_v<decltype(std::declval<const TiStore&>()
                                          .num_facts()),
                             int64_t>);

TEST(DictionaryTest, InternsAndFindsValues) {
  Dictionary dict;
  const uint32_t a = dict.Intern(rel::Value::Int(7));
  const uint32_t b = dict.Intern(rel::Value::Symbol("alice"));
  const uint32_t c = dict.Intern(rel::Value::Int(7));  // dedup
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.Find(rel::Value::Int(7)), a);
  EXPECT_EQ(dict.Find(rel::Value::Symbol("alice")), b);
  EXPECT_EQ(dict.Find(rel::Value::Symbol("bob")), Dictionary::kNotFound);
  EXPECT_EQ(dict.ValueAt(a), rel::Value::Int(7));
  EXPECT_EQ(dict.ValueAt(b), rel::Value::Symbol("alice"));
}

TEST(DictionaryTest, SurvivesRehashing) {
  Dictionary dict;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(dict.Intern(rel::Value::Int(i * 3)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(dict.Find(rel::Value::Int(i * 3)), ids[i]);
    EXPECT_EQ(dict.ValueAt(ids[i]), rel::Value::Int(i * 3));
  }
  EXPECT_EQ(dict.Find(rel::Value::Int(1)), Dictionary::kNotFound);
}

TEST(ColumnTableTest, BuildLookupAndPrefixRange) {
  ColumnTable table(2);
  const uint32_t rows[][2] = {{3, 1}, {1, 2}, {1, 1}, {2, 9}};
  for (const auto& row : rows) table.AppendRow(row, 0.5);
  ASSERT_TRUE(table.FinishBuild().ok());
  EXPECT_EQ(table.num_rows(), 4);
  const uint32_t probe[2] = {1, 2};
  EXPECT_EQ(table.FindRow(probe), 1);  // row identity = append order
  const uint32_t missing[2] = {2, 2};
  EXPECT_EQ(table.FindRow(missing), -1);
  const uint32_t prefix[1] = {1};
  auto [begin, end] = table.PrefixRange(prefix, 1);
  EXPECT_EQ(end - begin, 2);  // (1,1) and (1,2)
  EXPECT_EQ(table.id(0, table.sorted_row(begin)), 1u);
}

TEST(ColumnTableTest, DetectsDuplicates) {
  ColumnTable table(1);
  const uint32_t a[1] = {4};
  table.AppendRow(a, 0.1);
  table.AppendRow(a, 0.2);
  int64_t duplicate = -1;
  Status status = table.FinishBuild(&duplicate);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(duplicate == 0 || duplicate == 1);
}

TEST(ColumnTableTest, InsertEraseAndExactSideTable) {
  ColumnTable table(1);
  for (uint32_t v : {5u, 1u, 9u}) {
    const uint32_t row[1] = {v};
    table.AppendRow(row, 0.25);
  }
  ASSERT_TRUE(table.FinishBuild().ok());
  const uint32_t seven[1] = {7};
  StatusOr<int64_t> inserted = table.Insert(seven, 0.5);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted.value(), 3);
  EXPECT_FALSE(table.Insert(seven, 0.5).ok());  // duplicate
  table.SetExact(1, math::Rational::Ratio(1, 4));
  table.SetExact(3, math::Rational::Ratio(1, 2));
  EXPECT_EQ(table.num_exact(), 2);
  // Erase row 0: rows above shift down; exact entries renumber.
  table.EraseRow(0);
  EXPECT_EQ(table.num_rows(), 3);
  const uint32_t one[1] = {1};
  EXPECT_EQ(table.FindRow(one), 0);
  ASSERT_NE(table.ExactAt(0), nullptr);
  EXPECT_EQ(*table.ExactAt(0), math::Rational::Ratio(1, 4));
  ASSERT_NE(table.ExactAt(2), nullptr);
  EXPECT_EQ(*table.ExactAt(2), math::Rational::Ratio(1, 2));
  EXPECT_EQ(table.ExactAt(1), nullptr);
}

rel::Schema TestSchema() {
  return rel::Schema({{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}});
}

TEST(TiStoreTest, FindFactMarginalAndRoundTrip) {
  rel::Schema schema({{"R", 1}, {"S", 2}});
  pdb::TiPdbD::FactList facts;
  facts.emplace_back(rel::Fact(0, {rel::Value::Int(1)}), 0.25);
  facts.emplace_back(
      rel::Fact(1, {rel::Value::Int(1), rel::Value::Symbol("a")}), 0.5);
  facts.emplace_back(rel::Fact(0, {rel::Value::Int(2)}), 0.75);
  pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, facts);
  ASSERT_NE(ti.store(), nullptr);
  const TiStore& store = *ti.store();
  EXPECT_EQ(store.num_facts(), 3);
  for (int64_t i = 0; i < store.num_facts(); ++i) {
    EXPECT_EQ(store.FactAt(i), facts[static_cast<size_t>(i)].first);
    EXPECT_EQ(store.ProbAt(i), facts[static_cast<size_t>(i)].second);
    EXPECT_EQ(store.FindFact(facts[static_cast<size_t>(i)].first), i);
  }
  EXPECT_EQ(store.FindFact(rel::Fact(0, {rel::Value::Int(99)})), -1);
  EXPECT_EQ(store.Marginal(facts[1].first), 0.5);
  // FromStore rebuilds the compatibility view in global-index order.
  StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(ti.store());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().facts(), ti.facts());
  EXPECT_EQ(view.value().SizeDistribution(), ti.SizeDistribution());
}

TEST(TiStoreTest, PreservesLegacyValidationMessages) {
  rel::Schema schema({{"R", 1}});
  pdb::TiPdbD::FactList duplicated;
  duplicated.emplace_back(rel::Fact(0, {rel::Value::Int(3)}), 0.5);
  duplicated.emplace_back(rel::Fact(0, {rel::Value::Int(3)}), 0.25);
  StatusOr<pdb::TiPdbD> dup = pdb::TiPdbD::Create(schema, duplicated);
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate fact"), std::string::npos);

  pdb::TiPdbD::FactList wrong;
  wrong.emplace_back(rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(2)}),
                     0.5);
  StatusOr<pdb::TiPdbD> mismatch = pdb::TiPdbD::Create(schema, wrong);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("does not match the schema"),
            std::string::npos);

  pdb::TiPdbD::FactList out_of_range;
  out_of_range.emplace_back(rel::Fact(0, {rel::Value::Int(1)}), 1.5);
  StatusOr<pdb::TiPdbD> range = pdb::TiPdbD::Create(schema, out_of_range);
  EXPECT_FALSE(range.ok());
  EXPECT_NE(range.status().message().find("outside [0, 1]"),
            std::string::npos);

  pdb::BidPdbD::Block block;
  block.emplace_back(rel::Fact(0, {rel::Value::Int(3)}), 0.25);
  StatusOr<pdb::BidPdbD> bid = pdb::BidPdbD::Create(schema, {block, block});
  EXPECT_FALSE(bid.ok());
  EXPECT_NE(bid.status().message().find("duplicate fact across blocks"),
            std::string::npos);
}

TEST(TiStoreTest, BytesPerFactWithinBudget) {
  rel::Schema schema({{"S", 2}});
  TiStore::Builder builder(schema);
  const int64_t n = 20000;
  builder.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    builder.Add(rel::Fact(0, {rel::Value::Int(i % 997),
                              rel::Value::Int(i / 997)}),
                0.5);
  }
  StatusOr<std::shared_ptr<TiStore>> store = builder.Finish();
  ASSERT_TRUE(store.ok());
  EXPECT_LE(store.value()->ApproxBytes() / n, 48);
}

/// The lifted parity generator's little sibling: random ∃-prefixed
/// conjunctions over the four-relation schema (self-join-free by
/// construction, hierarchical by chance).
logic::Formula RandomCq(const rel::Schema& schema, int universe,
                        Pcg32* rng) {
  const int num_relations = schema.num_relations();
  std::vector<int> relations(num_relations);
  for (int i = 0; i < num_relations; ++i) relations[i] = i;
  for (int i = num_relations - 1; i > 0; --i) {
    std::swap(relations[i],
              relations[rng->NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  const char* names[] = {"x", "y", "z"};
  const int num_vars = 1 + static_cast<int>(rng->NextBounded(3));
  std::vector<std::string> vars(names, names + num_vars);
  int num_atoms = 1 + static_cast<int>(rng->NextBounded(3));
  size_t next_relation = 0;
  std::vector<logic::Formula> atoms;
  while (num_atoms-- > 0 && next_relation < relations.size()) {
    const int relation = relations[next_relation++];
    std::vector<logic::Term> terms;
    for (int pos = 0; pos < schema.arity(relation); ++pos) {
      if (rng->NextBounded(10) < 8) {
        terms.push_back(logic::Term::Var(
            vars[rng->NextBounded(static_cast<uint32_t>(vars.size()))]));
      } else {
        terms.push_back(logic::Term::Int(static_cast<int64_t>(
            rng->NextBounded(static_cast<uint32_t>(universe)))));
      }
    }
    atoms.push_back(logic::Atom(relation, std::move(terms)));
  }
  return logic::ExistsAll(vars, logic::And(std::move(atoms)));
}

TEST(StorageParityTest, ColumnarGroundingMatchesLegacy) {
  rel::Schema schema = TestSchema();
  Pcg32 rng(0xc01a7);
  int checked = 0;
  while (checked < 200) {
    logic::Formula sentence = RandomCq(schema, 3, &rng);
    pdb::TiPdb<math::Rational> exact_ti =
        testing_util::RandomRationalTi(schema, 8, 3, 10, &rng);
    pdb::TiPdbD::FactList shadow;
    for (const auto& [fact, marginal] : exact_ti.facts()) {
      shadow.emplace_back(fact, marginal.ToDouble());
    }
    pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, std::move(shadow));
    ASSERT_NE(ti.store(), nullptr);

    // Structural identity: the columnar and legacy grounders must agree
    // node for node (same var ids, same domain order), which the 128-bit
    // fingerprint certifies.
    pqe::Lineage legacy_lineage;
    StatusOr<pqe::NodeId> legacy =
        pqe::GroundSentenceLegacy(ti, sentence, &legacy_lineage);
    pqe::Lineage columnar_lineage;
    StatusOr<pqe::NodeId> columnar =
        pqe::GroundSentence(*ti.store(), sentence, &columnar_lineage);
    ASSERT_TRUE(legacy.ok()) << sentence.ToString(schema);
    ASSERT_TRUE(columnar.ok()) << sentence.ToString(schema);
    EXPECT_EQ(kc::LineageFingerprint(legacy_lineage, legacy.value()),
              kc::LineageFingerprint(columnar_lineage, columnar.value()))
        << sentence.ToString(schema);

    // Same full query answer through the public ladder.
    StatusOr<double> probability =
        pqe::QueryProbability(ti, sentence, nullptr);
    ASSERT_TRUE(probability.ok()) << sentence.ToString(schema);
    StatusOr<double> brute = pqe::QueryProbabilityBruteForce(ti, sentence);
    ASSERT_TRUE(brute.ok()) << sentence.ToString(schema);
    EXPECT_NEAR(probability.value(), brute.value(), 1e-9)
        << sentence.ToString(schema);

    ++checked;
  }
}

/// Random FO sentences beyond CQs for the grounder differential test:
/// quantifiers over a three-name pool (so nesting shadows), negation,
/// universals, implications, `=`, self-joins and repeated variables, and
/// constants from [0, universe + 2) — the top two are absent from every
/// store the test builds.
logic::Formula RandomFo(const rel::Schema& schema, int universe, int depth,
                        std::vector<std::string>* bound, Pcg32* rng) {
  auto term = [&]() {
    if (!bound->empty() && rng->NextBounded(4) != 0) {
      return logic::Term::Var(
          (*bound)[rng->NextBounded(static_cast<uint32_t>(bound->size()))]);
    }
    return logic::Term::Int(static_cast<int64_t>(
        rng->NextBounded(static_cast<uint32_t>(universe + 2))));
  };
  const uint32_t pick = rng->NextBounded(depth == 0 ? 4 : 12);
  if (pick <= 2) {
    const rel::RelationId relation = static_cast<rel::RelationId>(
        rng->NextBounded(static_cast<uint32_t>(schema.num_relations())));
    std::vector<logic::Term> terms;
    for (int p = 0; p < schema.arity(relation); ++p) terms.push_back(term());
    return logic::Atom(relation, std::move(terms));
  }
  if (pick == 3) return logic::Eq(term(), term());
  if (pick <= 6) {
    // exists, the guarded case, is the most common quantifier.
    const char* names[] = {"x", "y", "z"};
    const std::string var = names[rng->NextBounded(3)];
    bound->push_back(var);
    logic::Formula body = RandomFo(schema, universe, depth - 1, bound, rng);
    bound->pop_back();
    return pick == 6 ? logic::Forall(var, std::move(body))
                     : logic::Exists(var, std::move(body));
  }
  if (pick <= 8) {
    std::vector<logic::Formula> parts;
    const int n = 2 + static_cast<int>(rng->NextBounded(2));
    for (int i = 0; i < n; ++i) {
      parts.push_back(RandomFo(schema, universe, depth - 1, bound, rng));
    }
    return logic::And(std::move(parts));
  }
  if (pick == 9) {
    return logic::Or(RandomFo(schema, universe, depth - 1, bound, rng),
                     RandomFo(schema, universe, depth - 1, bound, rng));
  }
  if (pick == 10) {
    return logic::Not(RandomFo(schema, universe, depth - 1, bound, rng));
  }
  return logic::Implies(RandomFo(schema, universe, depth - 1, bound, rng),
                        RandomFo(schema, universe, depth - 1, bound, rng));
}

/// Σ over all worlds of Pr(world)·[world ⊨ φ], in exact rationals, with
/// the FO evaluator as the judge — independent of grounding.
math::Rational BruteForceExact(const pdb::TiPdb<math::Rational>& ti,
                               const logic::Formula& sentence) {
  math::Rational total;
  const int64_t n = ti.num_facts();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<rel::Fact> chosen;
    math::Rational weight(1);
    for (int64_t i = 0; i < n; ++i) {
      const math::Rational& p = ti.facts()[static_cast<size_t>(i)].second;
      if ((mask >> i) & 1) {
        chosen.push_back(ti.facts()[static_cast<size_t>(i)].first);
        weight *= p;
      } else {
        weight *= math::Rational(1) - p;
      }
    }
    StatusOr<bool> holds =
        logic::Evaluate(rel::Instance(std::move(chosen)), ti.schema(), sentence);
    IPDB_CHECK(holds.ok());
    if (holds.value()) total += weight;
  }
  return total;
}

TEST(StorageParityTest, GuardedGroundingMatchesLegacyOnFoSentences) {
  rel::Schema schema = TestSchema();
  std::vector<logic::Formula> sentences;
  for (const char* text : {
           // Shadowing: the inner x is S's, the outer x is R's.
           "exists x. R(x) & exists x. S(x, x)",
           "exists x. exists y. S(y, x) & exists x. U(x, y)",
           "exists x. (exists y. S(x, y)) & T(x)",
           // Repeated variables and self-joins (the 3-variable path).
           "exists x. S(x, x)",
           "exists x y z. S(x, y) & S(y, z)",
           "exists x y. S(x, y) & S(y, x) & U(x, x)",
           // The benchmark's hub query H0 with & L, | L and & !L.
           "exists x y. R(x) & S(x, y) & T(y)",
           "(exists x y. R(x) & S(x, y) & T(y)) & R(1)",
           "(exists x y. R(x) & S(x, y) & T(y)) | R(1)",
           "(exists x y. R(x) & S(x, y) & T(y)) & !R(1)",
           "(exists x y z. S(x, y) & S(y, z)) & !S(1, 2)",
           // Constants absent from the store, in guards and elsewhere.
           "exists x. S(x, 9)",
           "exists x. R(9) | S(x, 1)",
           "exists x y. S(x, y) & y = 9",
           // `=` atoms.
           "exists x. R(x) & x = 1",
           "exists x y. S(x, y) & x = y",
           "exists x y. R(x) & T(y) & !(x = y)",
           // Fallback: negation, forall, unguarded variables.
           "exists x. R(x) & !T(x)",
           "exists x y. !S(x, y)",
           "exists x. x = x",
           "forall x. R(x) -> exists y. S(x, y)",
           "forall x. exists y. S(x, y) | !R(x)",
           "exists x. forall y. S(x, y) | !T(y)",
           "exists x. R(x) | T(x)",
       }) {
    StatusOr<logic::Formula> parsed = logic::ParseSentence(text, schema);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    sentences.push_back(std::move(parsed).value());
  }
  Pcg32 rng(0xf0f0);
  while (sentences.size() < 224) {
    // Under a leading exists, so most sentences reach the join path.
    std::vector<std::string> bound = {"x"};
    logic::Formula sentence =
        logic::Exists("x", RandomFo(schema, 3, 4, &bound, &rng));
    if (sentence.QuantifierRank() > 3) continue;  // keeps brute force cheap
    sentences.push_back(std::move(sentence));
  }

  int smaller = 0;
  for (size_t k = 0; k < sentences.size(); ++k) {
    const logic::Formula& sentence = sentences[k];
    pdb::TiPdb<math::Rational> exact_ti =
        testing_util::RandomRationalTi(schema, 7, 3, 10, &rng);
    pdb::TiPdbD::FactList shadow;
    for (const auto& [fact, marginal] : exact_ti.facts()) {
      shadow.emplace_back(fact, marginal.ToDouble());
    }
    pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, std::move(shadow));
    ASSERT_NE(ti.store(), nullptr);

    pqe::Lineage legacy_lineage;
    StatusOr<pqe::NodeId> legacy =
        pqe::GroundSentenceLegacy(ti, sentence, &legacy_lineage);
    pqe::Lineage columnar_lineage;
    StatusOr<pqe::NodeId> columnar =
        pqe::GroundSentence(*ti.store(), sentence, &columnar_lineage);
    ASSERT_TRUE(legacy.ok()) << sentence.ToString(schema);
    ASSERT_TRUE(columnar.ok()) << sentence.ToString(schema);
    EXPECT_EQ(kc::LineageFingerprint(legacy_lineage, legacy.value()),
              kc::LineageFingerprint(columnar_lineage, columnar.value()))
        << sentence.ToString(schema);
    if (columnar_lineage.size() < legacy_lineage.size()) ++smaller;

    // The columnar lineage, compiled and evaluated in exact rationals,
    // is the query probability the FO evaluator gives world by world.
    StatusOr<kc::CompiledQuery> compiled =
        kc::CompileLineage(&columnar_lineage, columnar.value());
    ASSERT_TRUE(compiled.ok()) << sentence.ToString(schema);
    std::vector<math::Rational> marginals;
    for (const auto& [fact, marginal] : exact_ti.facts()) {
      marginals.push_back(marginal);
    }
    StatusOr<math::Rational> exact = kc::EvaluateCircuitExact(
        compiled.value().circuit, compiled.value().root, marginals);
    ASSERT_TRUE(exact.ok()) << sentence.ToString(schema);
    EXPECT_EQ(exact.value(), BruteForceExact(exact_ti, sentence))
        << sentence.ToString(schema);
  }
  // The join path must actually run: a skipped binding never interns
  // its nodes, so some columnar lineages are smaller than the legacy ones
  // (34 of the 224 on these seeds).
  EXPECT_GT(smaller, static_cast<int>(sentences.size()) / 10);
}

TEST(StorageParityTest, SizeDistributionUnchangedByColumnarBacking) {
  rel::Schema schema = TestSchema();
  Pcg32 rng(0x512e);
  pdb::TiPdb<math::Rational> exact_ti =
      testing_util::RandomRationalTi(schema, 12, 3, 10, &rng);
  pdb::TiPdbD::FactList shadow;
  for (const auto& [fact, marginal] : exact_ti.facts()) {
    shadow.emplace_back(fact, marginal.ToDouble());
  }
  pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, shadow);
  // The compatibility view preserves insertion order, so the Poisson-
  // binomial DP sees the same marginal sequence as the pre-columnar
  // engine: bit-identical distribution.
  std::vector<double> expected;
  {
    std::vector<double> marginals;
    for (const auto& [fact, marginal] : shadow) marginals.push_back(marginal);
    expected = prob::PoissonBinomialPmf(marginals);
  }
  EXPECT_EQ(ti.SizeDistribution(), expected);
}

rel::Fact ChainR(int i) { return rel::Fact(0, {rel::Value::Int(i)}); }
rel::Fact ChainS(int i, int j) {
  return rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(j)});
}

/// A small chain instance as a *mutable* store plus its query.
std::shared_ptr<TiStore> ChainStore(int hubs) {
  rel::Schema schema({{"R", 1}, {"S", 2}});
  TiStore::Builder builder(schema);
  for (int i = 0; i < hubs; ++i) {
    builder.Add(ChainR(i), 0.3 + 0.05 * (i % 10));
    builder.Add(ChainS(i, 1000 + (i % 3)), 0.2 + 0.04 * (i % 7));
  }
  StatusOr<std::shared_ptr<TiStore>> store = builder.Finish();
  EXPECT_TRUE(store.ok());
  return store.value();
}

logic::Formula ChainQuery(const rel::Schema& schema) {
  return logic::ParseSentence("exists x y. R(x) & S(x, y)", schema).value();
}

double BruteForceAnswer(const std::shared_ptr<TiStore>& store,
                        const logic::Formula& sentence) {
  StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(store);
  EXPECT_TRUE(view.ok());
  StatusOr<double> brute =
      pqe::QueryProbabilityBruteForce(view.value(), sentence);
  EXPECT_TRUE(brute.ok());
  return brute.value();
}

TEST(StorageInvalidationTest, StructuralMutationEvictsOnlyDependents) {
  kc::GlobalCompiledQueryCache().Clear();
  std::shared_ptr<TiStore> mutated = ChainStore(4);
  std::shared_ptr<TiStore> untouched = ChainStore(6);
  logic::Formula sentence = ChainQuery(mutated->schema());

  pqe::PreparedQuery::Options options;
  options.allow_lifted = false;  // exercise the circuit pipeline
  StatusOr<pqe::PreparedQuery> a =
      pqe::PreparedQuery::Prepare(mutated, sentence, options);
  StatusOr<pqe::PreparedQuery> b =
      pqe::PreparedQuery::Prepare(untouched, sentence, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto [a_hi, a_lo] = a.value().fingerprint();
  auto [b_hi, b_lo] = b.value().fingerprint();
  ASSERT_NE(std::make_pair(a_hi, a_lo), std::make_pair(b_hi, b_lo));
  EXPECT_TRUE(kc::GlobalCompiledQueryCache().ContainsFingerprint(a_hi, a_lo));
  EXPECT_TRUE(kc::GlobalCompiledQueryCache().ContainsFingerprint(b_hi, b_lo));

  // Erasing a fact is structural: the dependent artifact is evicted,
  // the untouched store's artifact survives.
  ASSERT_TRUE(mutated->Erase(ChainR(3)).ok());
  EXPECT_FALSE(
      kc::GlobalCompiledQueryCache().ContainsFingerprint(a_hi, a_lo));
  EXPECT_TRUE(kc::GlobalCompiledQueryCache().ContainsFingerprint(b_hi, b_lo));

  // Re-query recompiles cold and answers the mutated instance.
  StatusOr<double> requeried = a.value().Query();
  ASSERT_TRUE(requeried.ok());
  EXPECT_NEAR(requeried.value(), BruteForceAnswer(mutated, sentence), 1e-9);
  EXPECT_EQ(a.value().recompiles(), 1);
  EXPECT_EQ(a.value().incremental_refreshes(), 0);

  // Insert is structural too.
  ASSERT_TRUE(mutated->Insert(ChainR(40), 0.5).ok());
  StatusOr<double> after_insert = a.value().Query();
  ASSERT_TRUE(after_insert.ok());
  EXPECT_NEAR(after_insert.value(), BruteForceAnswer(mutated, sentence),
              1e-9);
  EXPECT_EQ(a.value().recompiles(), 2);
}

TEST(StorageInvalidationTest, ProbabilityUpdateKeepsCircuitRefreshesAnswer) {
  kc::GlobalCompiledQueryCache().Clear();
  std::shared_ptr<TiStore> store = ChainStore(5);
  logic::Formula sentence = ChainQuery(store->schema());
  pqe::PreparedQuery::Options options;
  options.allow_lifted = false;
  StatusOr<pqe::PreparedQuery> prepared =
      pqe::PreparedQuery::Prepare(store, sentence, options);
  ASSERT_TRUE(prepared.ok());
  auto [hi, lo] = prepared.value().fingerprint();

  const uint64_t structure_before = store->structure_generation();
  ASSERT_TRUE(store->UpdateProbability(ChainR(2), 0.9).ok());
  EXPECT_EQ(store->structure_generation(), structure_before);
  // The fact set (hence the fingerprint and circuit) is unchanged: the
  // compiled artifact must SURVIVE a probability update...
  EXPECT_TRUE(kc::GlobalCompiledQueryCache().ContainsFingerprint(hi, lo));
  // ...while the memoized answer is refreshed from the new marginals.
  StatusOr<double> refreshed = prepared.value().Query();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_NEAR(refreshed.value(), BruteForceAnswer(store, sentence), 1e-9);
  EXPECT_EQ(prepared.value().incremental_refreshes(), 1);
  EXPECT_EQ(prepared.value().recompiles(), 0);

  // Untouched store: the memoized answer is served as-is.
  StatusOr<double> memoized = prepared.value().Query();
  ASSERT_TRUE(memoized.ok());
  EXPECT_EQ(memoized.value(), refreshed.value());
  EXPECT_EQ(prepared.value().incremental_refreshes(), 1);

  // Exact update round-trips through the side table.
  ASSERT_TRUE(store
                  ->UpdateProbabilityExact(ChainR(2),
                                           math::Rational::Ratio(1, 4))
                  .ok());
  const math::Rational* exact =
      store->ExactAt(store->FindFact(ChainR(2)));
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(*exact, math::Rational::Ratio(1, 4));
}

TEST(StorageInvalidationTest, ConcurrentReadersAndRegistrations) {
  std::shared_ptr<TiStore> store = ChainStore(32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 200; ++i) {
        const int hub = (t * 53 + i) % 32;
        EXPECT_GE(store->FindFact(ChainR(hub)), 0);
        EXPECT_GT(store->Marginal(ChainR(hub)), 0.0);
        store->RegisterDependentArtifact(static_cast<uint64_t>(t),
                                         static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(store->num_dependent_artifacts(), 0);
}

TEST(TiStoreTest, ErasingARelationsLastFactLeavesItEmptyButUsable) {
  rel::Schema schema({{"R", 2}, {"S", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(2)}), 0.5);
  builder.Add(rel::Fact(1, {rel::Value::Symbol("only")}), 0.75);
  std::shared_ptr<TiStore> store = builder.Finish().value();
  const rel::Fact only(1, {rel::Value::Symbol("only")});
  ASSERT_TRUE(store->Erase(only).ok());
  EXPECT_EQ(store->table(1).num_rows(), 0);
  EXPECT_EQ(store->num_facts(), 1);
  EXPECT_EQ(store->FindFact(only), -1);
  // The emptied relation still accepts inserts.
  StatusOr<int64_t> back = store->Insert(only, 0.25);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(store->FactAt(back.value()), only);
  EXPECT_EQ(store->ProbAt(back.value()), 0.25);
}

TEST(TiStoreTest, MutationsOfAnErasedFactAreInvalidArgument) {
  rel::Schema schema({{"R", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1)}), 0.5);
  builder.Add(rel::Fact(0, {rel::Value::Int(2)}), 0.5);
  std::shared_ptr<TiStore> store = builder.Finish().value();
  const rel::Fact gone(0, {rel::Value::Int(1)});
  ASSERT_TRUE(store->Erase(gone).ok());
  EXPECT_EQ(store->UpdateProbability(gone, 0.9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store->UpdateProbabilityExact(gone, math::Rational::Ratio(1, 3))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store->Erase(gone).code(), StatusCode::kInvalidArgument);
  // A failed mutation leaves the survivor untouched.
  EXPECT_EQ(store->num_facts(), 1);
  EXPECT_EQ(store->ProbAt(store->FindFact(rel::Fact(0, {rel::Value::Int(2)}))),
            0.5);
  // Re-inserting the erased fact appends it as a fresh row at the end.
  StatusOr<int64_t> again = store->Insert(gone, 0.0625);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), store->num_facts() - 1);
  EXPECT_EQ(store->ProbAt(again.value()), 0.0625);
}

TEST(TiStoreTest, ExactSideTableChurnTracksTheLatestUpdate) {
  rel::Schema schema({{"R", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1)}), 0.5);
  builder.AddExact(rel::Fact(0, {rel::Value::Int(2)}),
                   math::Rational::Ratio(2, 5));
  std::shared_ptr<TiStore> store = builder.Finish().value();
  const rel::Fact one(0, {rel::Value::Int(1)});
  const rel::Fact two(0, {rel::Value::Int(2)});
  // Double-only fact gains an exact entry...
  ASSERT_TRUE(
      store->UpdateProbabilityExact(one, math::Rational::Ratio(1, 3)).ok());
  {
    const math::Rational* exact = store->ExactAt(store->FindFact(one));
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, math::Rational::Ratio(1, 3));
  }
  // ...and a plain double update clears it again: the exact side table
  // never serves a value the double column has since diverged from.
  ASSERT_TRUE(store->UpdateProbability(one, 0.5).ok());
  EXPECT_EQ(store->ExactAt(store->FindFact(one)), nullptr);
  // Overwriting an existing exact entry replaces it in place.
  ASSERT_TRUE(
      store->UpdateProbabilityExact(two, math::Rational::Ratio(2, 7)).ok());
  {
    const math::Rational* exact = store->ExactAt(store->FindFact(two));
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, math::Rational::Ratio(2, 7));
  }
  // Erasing a fact drops its exact entry with it.
  ASSERT_TRUE(store->Erase(two).ok());
  EXPECT_EQ(store->table(0).num_exact(), 0);
}

TEST(TiStoreTest, ExactViewRequiresExactMarginals) {
  rel::Schema schema({{"R", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1)}), 0.5);  // double only
  StatusOr<std::shared_ptr<TiStore>> store = builder.Finish();
  ASSERT_TRUE(store.ok());
  StatusOr<pdb::TiPdbQ> exact = pdb::TiPdbQ::FromStore(store.value());
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kFailedPrecondition);
  // And the exact lifted evaluator enforces the same precondition.
  pqe::LiftedPlan plan =
      pqe::LiftedPlan::Compile(
          logic::ParseSentence("exists x. R(x)", schema).value())
          .value();
  StatusOr<math::Rational> result = plan.EvaluateExact(*store.value());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace storage
}  // namespace ipdb
