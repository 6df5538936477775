// Microbenchmark: the lifted safe-plan rung versus the ground-and-compile
// circuit rung on hierarchical queries, as the instance grows from 10²
// to 10⁵ facts. The lifted rows run the governed QueryProbability ladder
// with defaults (so they price exactly what a caller gets); the circuit
// rows disable the lifted rung and clear the artifact cache each
// iteration so every sample pays grounding + d-DNNF compilation.
//
// Each row carries a `facts` counter (actual instance size) and, where
// the circuit oracle is still tractable, a `parity_abs_err` counter —
// |lifted − circuit| computed once in setup — which ci.sh gates at
// ≤ 1e-9 alongside the ≥10× chain-speedup gate at 10⁴ facts. The
// entity rows (one constant-led query on a hub instance of 10⁴–10⁶
// facts) must stay within 5× of each other across that 100× growth.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <string>

#include "bench_json.h"
#include "kc/cache.h"
#include "logic/parser.h"
#include "pqe/safe_plan.h"
#include "pqe/wmc.h"

namespace {

namespace pqe = ipdb::pqe;
namespace pdb = ipdb::pdb;
namespace rel = ipdb::rel;

/// Chain instance for ∃x∃y R(x) ∧ S(x,y): k hub values, each with one
/// R-fact and three S-neighbours — 4 facts per hub, n ≈ 4k total.
pdb::TiPdb<double> ChainTi(int n) {
  rel::Schema schema({{"R", 1}, {"S", 2}});
  pdb::TiPdb<double>::FactList facts;
  const int hubs = n / 4;
  for (int i = 0; i < hubs; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}),
                       0.2 + 0.6 * ((i * 7) % 10) / 10.0);
    for (int j = 0; j < 3; ++j) {
      facts.emplace_back(
          rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(1000000 + j)}),
          0.1 + 0.08 * ((i + j) % 10));
    }
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
}

/// Star instance for ∃x∃y∃z R(x) ∧ S(x,y) ∧ U(x,z): k hub values, each
/// with one R-fact and three S- and U-neighbours — 7 facts per hub.
pdb::TiPdb<double> StarTi(int n) {
  rel::Schema schema({{"R", 1}, {"S", 2}, {"U", 2}});
  pdb::TiPdb<double>::FactList facts;
  const int hubs = n / 7;
  for (int i = 0; i < hubs; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}),
                       0.2 + 0.6 * ((i * 3) % 10) / 10.0);
    for (int j = 0; j < 3; ++j) {
      facts.emplace_back(
          rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(1000000 + j)}),
          0.1 + 0.08 * ((i + j) % 10));
      facts.emplace_back(
          rel::Fact(2, {rel::Value::Int(i), rel::Value::Int(2000000 + j)}),
          0.15 + 0.07 * ((i + 2 * j) % 10));
    }
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
}

/// Hub instance for the entity query ∃y S(c, y) ∧ T(y), shaped like the
/// query service's lifted workload: n/5 hubs x, each with R(x) and four
/// edges S(x, y) into an 8-value tail domain, and T over four tails — so
/// |S| grows with n while |T| stays 4. Built once per size.
const pdb::TiPdb<double>& HubTi(int n) {
  static std::map<int, pdb::TiPdb<double>> built;
  auto it = built.find(n);
  if (it != built.end()) return it->second;
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}});
  pdb::TiPdb<double>::FactList facts;
  const int hubs = n / 5;
  for (int x = 0; x < hubs; ++x) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(x)}),
                       0.2 + 0.6 * ((x * 7) % 10) / 10.0);
    for (int j = 0; j < 4; ++j) {
      facts.emplace_back(
          rel::Fact(1, {rel::Value::Int(x), rel::Value::Int((x + 2 * j) % 8)}),
          0.1 + 0.05 * ((x + j) % 10));
    }
  }
  for (int y = 0; y < 4; ++y) {
    facts.emplace_back(rel::Fact(2, {rel::Value::Int(y)}), 0.3 + 0.1 * y);
  }
  return built
      .emplace(n, pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts)))
      .first->second;
}

const char kChainQuery[] = "exists x y. R(x) & S(x, y)";
const char kStarQuery[] = "exists x y z. R(x) & S(x, y) & U(x, z)";

/// One-off parity probe for a row's setup: lifted answer vs the circuit
/// rung on the same instance. Returns NaN when the caller opts out
/// (instances where a fresh compile is too slow for setup).
double ParityAbsErr(const pdb::TiPdb<double>& ti,
                    const ipdb::logic::Formula& query) {
  auto lifted = pqe::QueryProbability(ti, query, pqe::QueryOptions{});
  pqe::QueryOptions circuit_only;
  circuit_only.lifted = false;
  ipdb::kc::GlobalCompiledQueryCache().Clear();
  auto circuit = pqe::QueryProbability(ti, query, circuit_only);
  ipdb::kc::GlobalCompiledQueryCache().Clear();
  if (!lifted.ok() || !circuit.ok()) return 1.0;  // poison the gate
  return std::fabs(lifted.value().probability - circuit.value().probability);
}

void LiftedRows(benchmark::State& state, const char* text,
                const pdb::TiPdb<double>& ti, int parity_max) {
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence(text, ti.schema()).value();
  // The parity probe runs the circuit rung once; past `parity_max` the
  // grounder (polynomial of higher degree in the active domain than the
  // plan walk) is too slow for a setup step.
  if (static_cast<int>(state.range(0)) <= parity_max) {
    state.counters["parity_abs_err"] = ParityAbsErr(ti, query);
  }
  pqe::QueryOptions options;  // default ladder: lifted rung first
  for (auto _ : state) {
    auto answer = pqe::QueryProbability(ti, query, options);
    benchmark::DoNotOptimize(answer.ok());
    // The row must price the lifted path; a non-lifted answer means the
    // ladder regressed.
    if (!answer.ok() || !answer.value().lifted) {
      state.SkipWithError("lifted rung did not answer");
      return;
    }
  }
  state.counters["facts"] = static_cast<double>(ti.num_facts());
}

void CircuitRows(benchmark::State& state, const char* text,
                 const pdb::TiPdb<double>& ti) {
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence(text, ti.schema()).value();
  pqe::QueryOptions circuit_only;
  circuit_only.lifted = false;
  for (auto _ : state) {
    // A warm artifact cache would skip compilation; each sample pays the
    // full ground + compile + evaluate pipeline the row advertises.
    ipdb::kc::GlobalCompiledQueryCache().Clear();
    auto answer = pqe::QueryProbability(ti, query, circuit_only);
    benchmark::DoNotOptimize(answer.ok());
  }
  state.counters["facts"] = static_cast<double>(ti.num_facts());
}

void BM_LiftedChain(benchmark::State& state) {
  pdb::TiPdb<double> ti = ChainTi(static_cast<int>(state.range(0)));
  LiftedRows(state, kChainQuery, ti, 10000);
}
BENCHMARK(BM_LiftedChain)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CircuitChain(benchmark::State& state) {
  pdb::TiPdb<double> ti = ChainTi(static_cast<int>(state.range(0)));
  CircuitRows(state, kChainQuery, ti);
}
BENCHMARK(BM_CircuitChain)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LiftedStar(benchmark::State& state) {
  pdb::TiPdb<double> ti = StarTi(static_cast<int>(state.range(0)));
  LiftedRows(state, kStarQuery, ti, 1000);
}
BENCHMARK(BM_LiftedStar)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

// The 3-variable star query grounds in time cubic in the active domain
// (~1 s/iteration at 10^3 facts, ~20 min at 10^4), so the circuit side
// stops at 10^3; the lifted rows above keep going to 10^5.
void BM_CircuitStar(benchmark::State& state) {
  pdb::TiPdb<double> ti = StarTi(static_cast<int>(state.range(0)));
  CircuitRows(state, kStarQuery, ti);
}
BENCHMARK(BM_CircuitStar)->Arg(100)->Arg(1000);

// The entity query on the middle hub. Its constant leads S's key, so
// the plan reads that hub's prefix range of S and the 4-row T: the cost
// must not grow with |S| (ci.sh: 10^6 facts within 5x of 10^4).
void BM_LiftedEntity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string text =
      "exists y. S(" + std::to_string(n / 10) + ", y) & T(y)";
  LiftedRows(state, text.c_str(), HubTi(n), n);
}
BENCHMARK(BM_LiftedEntity)->Arg(10000)->Arg(100000)->Arg(1000000);

}  // namespace

IPDB_BENCHMARK_JSON_MAIN("lifted_bench", "BENCH_lifted.json")
