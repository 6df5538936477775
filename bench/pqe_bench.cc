// Microbenchmark: probabilistic query evaluation over TI-PDBs — the
// workload that motivates tuple-independent representations. Measures
// lineage grounding and exact WMC on path/star queries as the fact count
// grows, including the decomposition-friendly and Shannon-heavy regimes.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_json.h"
#include "kc/cache.h"
#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "pqe/expected_answers.h"
#include "pqe/lineage.h"
#include "pqe/monte_carlo.h"
#include "pqe/safe_plan.h"
#include "pqe/wmc.h"
#include "util/budget.h"

namespace {

namespace pqe = ipdb::pqe;
namespace pdb = ipdb::pdb;
namespace rel = ipdb::rel;

/// A chain TI-PDB: R(0,1), R(1,2), …, R(n-1,n) with varying marginals.
pdb::TiPdb<double> ChainTi(int n) {
  rel::Schema schema({{"R", 2}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < n; ++i) {
    facts.emplace_back(
        rel::Fact(0, {rel::Value::Int(i), rel::Value::Int(i + 1)}),
        0.3 + 0.4 * ((i * 7) % 10) / 10.0);
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
}

/// A bipartite TI-PDB R(i, j), i in [0,a), j in [a, a+b).
pdb::TiPdb<double> BipartiteTi(int a, int b) {
  rel::Schema schema({{"R", 2}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < a; ++i) {
    for (int j = 0; j < b; ++j) {
      facts.emplace_back(
          rel::Fact(0, {rel::Value::Int(i), rel::Value::Int(a + j)}),
          0.5);
    }
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
}

void BM_GroundPathQuery(benchmark::State& state) {
  pdb::TiPdb<double> ti = ChainTi(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  for (auto _ : state) {
    pqe::Lineage lineage;
    auto root = pqe::GroundSentence(ti, query, &lineage);
    benchmark::DoNotOptimize(root.ok());
    state.counters["nodes"] = lineage.size();
  }
}
BENCHMARK(BM_GroundPathQuery)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// The same path query through the legacy grounder, which enumerates
/// the whole domain at each of the three quantifiers: the baseline of
/// ci.sh's guarded-join gate.
void BM_GroundPathQueryLegacy(benchmark::State& state) {
  pdb::TiPdb<double> ti = ChainTi(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  for (auto _ : state) {
    pqe::Lineage lineage;
    auto root = pqe::GroundSentenceLegacy(ti, query, &lineage);
    benchmark::DoNotOptimize(root.ok());
    state.counters["nodes"] = lineage.size();
  }
}
BENCHMARK(BM_GroundPathQueryLegacy)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// A hub instance of about `n` facts: n/10 hubs R(h), each with eight
/// edges S(h, t) into n/10 tails T(t).
pdb::TiPdb<double> HubTi(int n) {
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}});
  const int hubs = std::max(8, n / 10);
  pdb::TiPdb<double>::FactList facts;
  for (int h = 0; h < hubs; ++h) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(h)}), 0.5);
    facts.emplace_back(rel::Fact(2, {rel::Value::Int(hubs + h)}), 0.5);
    for (int j = 0; j < 8; ++j) {
      facts.emplace_back(
          rel::Fact(1, {rel::Value::Int(h),
                        rel::Value::Int(hubs + (h * 8 + j) % hubs)}),
          0.5);
    }
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
}

/// Grounding the hub query H0 = ∃x∃y R(x) ∧ S(x,y) ∧ T(y) at 10²–10⁵
/// facts. Its lineage has one conjunction per S fact, and the join binds
/// only those, so the `nodes` counter grows exactly with `facts`; time
/// per fact also carries one O(log n) probe per atom and the lineage's
/// hash-consing, both of which slow once the tables outgrow the caches.
void BM_GroundHubQuery(benchmark::State& state) {
  pdb::TiPdb<double> ti = HubTi(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x) & S(x, y) & T(y)",
                                 ti.schema())
          .value();
  for (auto _ : state) {
    pqe::Lineage lineage;
    auto root = pqe::GroundSentence(ti, query, &lineage);
    benchmark::DoNotOptimize(root.ok());
    state.counters["nodes"] = lineage.size();
  }
  state.counters["facts"] = static_cast<double>(ti.num_facts());
}
BENCHMARK(BM_GroundHubQuery)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_WmcPathQuery(benchmark::State& state) {
  pdb::TiPdb<double> ti = ChainTi(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  for (auto _ : state) {
    auto p = pqe::QueryProbability(ti, query);
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_WmcPathQuery)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_WmcBipartiteExists(benchmark::State& state) {
  // Pr(∃x∃y R(x,y)): an independent-OR lineage — pure decomposition.
  int side = static_cast<int>(state.range(0));
  pdb::TiPdb<double> ti = BipartiteTi(side, side);
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x, y)", ti.schema())
          .value();
  // The single-atom existence query is safe, so the default ladder would
  // answer it on the lifted rung; pin this row to the circuit pipeline
  // it is meant to measure (lifted_bench prices the lifted path).
  pqe::QueryOptions circuit_only;
  circuit_only.lifted = false;
  for (auto _ : state) {
    pqe::WmcStats stats;
    auto p = pqe::QueryProbability(ti, query, circuit_only, &stats);
    benchmark::DoNotOptimize(p.ok());
    state.counters["shannon"] =
        static_cast<double>(stats.shannon_expansions);
  }
}
BENCHMARK(BM_WmcBipartiteExists)->Arg(2)->Arg(4)->Arg(6);

void BM_WmcShannonHeavy(benchmark::State& state) {
  // Pr(∀x (∃y R(x,y)) → (∃y R(y,x))): negation + sharing forces Shannon
  // expansions; #P-hard in general, small here.
  int n = static_cast<int>(state.range(0));
  pdb::TiPdb<double> ti = ChainTi(n);
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence(
          "forall x. (exists y. R(x, y)) -> (exists y. R(y, x))",
          ti.schema())
          .value();
  for (auto _ : state) {
    pqe::WmcStats stats;
    auto p = pqe::QueryProbability(ti, query, &stats);
    benchmark::DoNotOptimize(p.ok());
    state.counters["shannon"] =
        static_cast<double>(stats.shannon_expansions);
  }
}
BENCHMARK(BM_WmcShannonHeavy)->Arg(3)->Arg(5)->Arg(7);

void BM_SafePlanVsWmc_SafePlan(benchmark::State& state) {
  // Lifted inference: the hierarchical query ∃x∃y R(x) ∧ S(x,y) on a
  // star-shaped TI evaluated by the Dalvi-Suciu safe plan (polynomial)…
  int n = static_cast<int>(state.range(0));
  rel::Schema schema({{"R", 1}, {"S", 2}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < n; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}), 0.4);
    for (int j = 0; j < 3; ++j) {
      facts.emplace_back(
          rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(1000 + j)}),
          0.5);
    }
  }
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x) & S(x, y)", schema)
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pqe::SafeQueryProbability(ti, query));
  }
}
BENCHMARK(BM_SafePlanVsWmc_SafePlan)->Arg(4)->Arg(16)->Arg(64);

void BM_SafePlanVsWmc_Wmc(benchmark::State& state) {
  // …versus the generic grounding + WMC pipeline on the same input.
  int n = static_cast<int>(state.range(0));
  rel::Schema schema({{"R", 1}, {"S", 2}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < n; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}), 0.4);
    for (int j = 0; j < 3; ++j) {
      facts.emplace_back(
          rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(1000 + j)}),
          0.5);
    }
  }
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x) & S(x, y)", schema)
          .value();
  // This row is the generic-pipeline side of the comparison: keep it on
  // the circuit rung (the default ladder would take the lifted fast
  // path for this hierarchical query and measure the wrong thing).
  pqe::QueryOptions circuit_only;
  circuit_only.lifted = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pqe::QueryProbability(ti, query, circuit_only));
  }
}
BENCHMARK(BM_SafePlanVsWmc_Wmc)->Arg(4)->Arg(16);

void BM_WmcDecompositionAblation(benchmark::State& state) {
  // Ablation (DESIGN.md): the bipartite existence query with independent-
  // component decomposition DISABLED — every gate becomes a chain of
  // Shannon expansions. Compare with BM_WmcBipartiteExists.
  int side = static_cast<int>(state.range(0));
  pdb::TiPdb<double> ti = BipartiteTi(side, side);
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x, y)", ti.schema())
          .value();
  pqe::Lineage lineage;
  auto root = pqe::GroundSentence(ti, query, &lineage);
  std::vector<double> probs;
  for (const auto& [fact, marginal] : ti.facts()) {
    probs.push_back(marginal);
  }
  pqe::WmcOptions no_decompose;
  no_decompose.decompose = false;
  for (auto _ : state) {
    pqe::WmcStats stats;
    benchmark::DoNotOptimize(pqe::ComputeProbability(
        &lineage, root.value(), probs, &stats, no_decompose));
    state.counters["shannon"] =
        static_cast<double>(stats.shannon_expansions);
  }
}
BENCHMARK(BM_WmcDecompositionAblation)->Arg(2)->Arg(4);

void BM_MonteCarloEstimate(benchmark::State& state) {
  // Thread-scaling of the deterministic parallel Monte Carlo estimator:
  // each row reports the same bit-identical estimate, only faster.
  pdb::TiPdb<double> ti = ChainTi(16);
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  ipdb::Pcg32 base(21);
  pdb::SamplingOptions options;
  options.threads = static_cast<int>(state.range(0));
  const int64_t samples = 4000;
  for (auto _ : state) {
    auto estimate =
        pqe::EstimateQueryProbability(ti, query, samples, base, options);
    benchmark::DoNotOptimize(estimate.ok());
  }
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_MonteCarloEstimate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ParallelRankedAnswers(benchmark::State& state) {
  // Exact per-tuple WMC over the candidate grid, fanned out across
  // workers (pqe::RankedAnswers with a thread knob).
  pdb::TiPdb<double> ti = BipartiteTi(6, 6);
  ipdb::logic::Formula query =
      ipdb::logic::ParseFormula("exists y. R(x, y)", ti.schema()).value();
  pdb::SamplingOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto answers = pqe::RankedAnswers(ti, query, {"x"}, options);
    benchmark::DoNotOptimize(answers.ok());
  }
}
BENCHMARK(BM_ParallelRankedAnswers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// The decomposable-suite lineage shared by the compile-once rows: the
/// path query over a chain TI (independent-component decomposition with
/// a little Shannon expansion — the regime knowledge compilation is
/// built for).
void GroundDecomposableSuite(int n, pqe::Lineage* lineage, pqe::NodeId* root,
                             std::vector<double>* probs) {
  pdb::TiPdb<double> ti = ChainTi(n);
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  *root = pqe::GroundSentence(ti, query, lineage).value();
  probs->clear();
  for (const auto& [fact, marginal] : ti.facts()) {
    probs->push_back(marginal);
  }
}

/// Deterministic per-round perturbation of the marginals — the
/// "evaluate-many" workload re-weights the same lineage, it does not
/// change it (what-if / sensitivity queries over one compiled circuit).
void PerturbProbs(int round, std::vector<double>* probs) {
  for (size_t i = 0; i < probs->size(); ++i) {
    double delta = 0.001 * (((round * 31 + static_cast<int>(i) * 17) % 13) - 6);
    (*probs)[i] = std::min(0.99, std::max(0.01, (*probs)[i] + delta));
  }
}

void BM_CompileOnceEvaluate64(benchmark::State& state) {
  // One d-DNNF compilation, then 64 re-evaluations under perturbed
  // marginals — the compile-once / evaluate-many serving pattern.
  int n = static_cast<int>(state.range(0));
  // Grounding is identical for both serving strategies, so it happens
  // once in setup; the timed region is one compilation plus 64
  // evaluations (the lineage is pre-warmed so Shannon restrictions are
  // already interned, as they are after any first solve).
  pqe::Lineage lineage;
  pqe::NodeId root;
  std::vector<double> probs;
  GroundDecomposableSuite(n, &lineage, &root, &probs);
  (void)ipdb::kc::CompileLineage(&lineage, root);
  for (auto _ : state) {
    auto compiled = ipdb::kc::CompileLineage(&lineage, root);
    double checksum = 0.0;
    for (int round = 0; round < 64; ++round) {
      PerturbProbs(round, &probs);
      checksum += ipdb::kc::EvaluateCircuit<double>(compiled->circuit,
                                                    compiled->root, probs)
                      .value();
    }
    benchmark::DoNotOptimize(checksum);
    state.counters["circuit_nodes"] =
        static_cast<double>(compiled->stats.circuit_nodes);
  }
}
BENCHMARK(BM_CompileOnceEvaluate64)->Arg(16)->Arg(32);

void BM_LegacyWmc64(benchmark::State& state) {
  // The same 64 re-weighted queries answered by the legacy solver: a
  // full Shannon/decomposition solve per round.
  int n = static_cast<int>(state.range(0));
  // Same setup as BM_CompileOnceEvaluate64: ground once, pre-warm the
  // lineage, then time the 64 re-weighted solves.
  pqe::Lineage lineage;
  pqe::NodeId root;
  std::vector<double> probs;
  GroundDecomposableSuite(n, &lineage, &root, &probs);
  (void)pqe::ComputeProbability(&lineage, root, probs);
  for (auto _ : state) {
    double checksum = 0.0;
    for (int round = 0; round < 64; ++round) {
      PerturbProbs(round, &probs);
      checksum += pqe::ComputeProbability(&lineage, root, probs).value();
    }
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_LegacyWmc64)->Arg(16)->Arg(32);

void BM_ArtifactCacheHitServing(benchmark::State& state) {
  // End-to-end QueryProbability with a warm artifact cache: ground,
  // fingerprint, evaluate — no compilation after the first call.
  pdb::TiPdb<double> ti = ChainTi(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  (void)pqe::QueryProbability(ti, query);  // warm the cache
  for (auto _ : state) {
    pqe::WmcStats stats;
    benchmark::DoNotOptimize(pqe::QueryProbability(ti, query, &stats));
    state.counters["artifact_hits"] =
        static_cast<double>(stats.artifact_cache_hits);
  }
}
BENCHMARK(BM_ArtifactCacheHitServing)->Arg(16)->Arg(32);

void BM_BudgetedFallback(benchmark::State& state) {
  // The degradation rung end to end: a node cap the path query cannot
  // meet forces every iteration down the certified Monte Carlo fallback
  // (cache miss, compile aborted at the cap, bounded sampling). The row
  // prices "a bounded answer now" against the exact rows above.
  pdb::TiPdb<double> ti = ChainTi(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  // Earlier rows in this binary compile the same lineage; a cached
  // artifact would serve the query budget-free, so drop it. A failed
  // compile inserts nothing, so one clear keeps every iteration on the
  // fallback rung.
  ipdb::kc::GlobalCompiledQueryCache().Clear();
  ipdb::ExecutionBudget budget;
  budget.max_circuit_nodes = 1;
  pqe::QueryOptions options;
  options.budget = &budget;
  options.fallback_samples = 4000;
  for (auto _ : state) {
    auto answer = pqe::QueryProbability(ti, query, options);
    benchmark::DoNotOptimize(answer.ok());
    state.counters["samples"] =
        static_cast<double>(answer->samples);
    state.counters["half_width"] = answer->half_width;
  }
}
BENCHMARK(BM_BudgetedFallback)->Arg(16)->Arg(32);

void BM_LineageRestrict(benchmark::State& state) {
  pdb::TiPdb<double> ti = ChainTi(24);
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  pqe::Lineage lineage;
  auto root = pqe::GroundSentence(ti, query, &lineage);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lineage.Restrict(root.value(), 3, true));
  }
}
BENCHMARK(BM_LineageRestrict);

}  // namespace

IPDB_BENCHMARK_JSON_MAIN("pqe_bench", "BENCH_pqe.json")
