// The serve-* workloads: request streams, Engine set-up, the closed-loop
// client pass, and the single-threaded replay the traced run times
// layer by layer.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "kc/cache.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "oracle.h"
#include "pdb/ti_pdb.h"
#include "pqe/lineage.h"
#include "pqe/safe_plan.h"
#include "report.h"
#include "server/engine.h"
#include "spans.h"

namespace perfbench {

// Two tenants with the same generous policy: nothing sheds, nothing
// degrades, and the 48-sentence working set fits each cache cap.
inline constexpr const char* kTenantConfig =
    "max_in_flight=8 budget_ms=60000 cache_max_entries=64";
inline constexpr int kEngineThreads = 2;
inline constexpr int kClients = 2;

enum class Cls { kLight, kHeavy };

struct Request {
  std::string instance;  // "hub" or "chain"
  std::string text;
  double expected = 0.0;
  Cls cls = Cls::kLight;
};

inline const char* kH0 = "exists x y. R(x) & S(x, y) & T(y)";
inline const char* kPath = "exists x y z. E(x, y) & E(y, z)";

/// The serve-ground working set: {Q & L, Q | L, Q & !L} for the hub
/// query Q = H0 with L = R(c), and for the path query with L = E(c, c+1),
/// over seeded constants. Every sentence grounds to its own lineage, so
/// each has its own artifact.
inline std::vector<Request> GroundWorkingSet(const HubData& hub,
                                             const std::vector<double>& chain,
                                             uint64_t seed, int hub_consts,
                                             int chain_consts) {
  Rng rng(seed);
  std::vector<Request> set;
  const Combine combines[] = {Combine::kAnd, Combine::kOr, Combine::kAndNot};
  std::vector<int> used;
  auto fresh = [&](int n) {
    for (;;) {
      const int c = rng.Below(n);
      if (std::find(used.begin(), used.end(), c) == used.end()) {
        used.push_back(c);
        return c;
      }
    }
  };
  for (int i = 0; i < hub_consts; ++i) {
    const int c = fresh(hub.shape.hubs);
    const double p = hub.r[static_cast<size_t>(c)];
    const double q1 = H0Oracle(hub, c, 1.0), q0 = H0Oracle(hub, c, 0.0);
    for (Combine k : combines) {
      set.push_back({"hub",
                     std::string("(") + kH0 + ")" + CombineOp(k) + "R(" +
                         std::to_string(c) + ")",
                     CombineOracle(k, p, q1, q0), Cls::kLight});
    }
  }
  used.clear();
  for (int i = 0; i < chain_consts; ++i) {
    const int c = fresh(static_cast<int>(chain.size()));
    const double p = chain[static_cast<size_t>(c)];
    const double q1 = PathOracle(chain, c, 1.0), q0 = PathOracle(chain, c, 0.0);
    for (Combine k : combines) {
      set.push_back({"chain",
                     std::string("(") + kPath + ")" + CombineOp(k) + "E(" +
                         std::to_string(c) + ", " + std::to_string(c + 1) + ")",
                     CombineOracle(k, p, q1, q0), Cls::kLight});
    }
  }
  return set;
}

inline constexpr int kHeavyPeriod = 20;  // 5% path / whole-relation queries

/// A client's serve-ground stream: draws from the working set, a path
/// sentence every kHeavyPeriod-th request (phase `phase`) and a hub
/// sentence otherwise. The slower path sentences are an exact 5%, so
/// p99 falls inside the path class, away from the boundary, and the
/// class mix of the mean does not move with the seed.
inline std::vector<Request> GroundStream(const std::vector<Request>& set,
                                         int hub_sentences, uint64_t seed,
                                         int n, int phase) {
  Rng rng(seed);
  const int chain_sentences = static_cast<int>(set.size()) - hub_sentences;
  std::vector<Request> stream;
  for (int i = 0; i < n; ++i) {
    const int pick = i % kHeavyPeriod == phase ? hub_sentences + rng.Below(chain_sentences)
                                               : rng.Below(hub_sentences);
    stream.push_back(set[static_cast<size_t>(pick)]);
  }
  return stream;
}

/// A client's serve-lifted stream: entity queries exists y. S(c, y) & T(y)
/// with c Zipf(1.1)-distributed over the hubs (ranks mapped to hubs by a
/// seeded affine permutation), and every kHeavyPeriod-th request (phase
/// `phase`) the whole-relation query exists x y. R(x) & S(x, y).
inline std::vector<Request> LiftedStream(const HubData& hub, double whole_answer,
                                         uint64_t seed, int n, int phase) {
  Rng rng(seed);
  const int hubs = hub.shape.hubs;
  std::vector<double> cdf(static_cast<size_t>(hubs));
  double total = 0.0;
  for (int k = 0; k < hubs; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[static_cast<size_t>(k)] = total;
  }
  int64_t a = 1 + 2 * static_cast<int64_t>(rng.Below(hubs / 2));
  while (std::gcd(a, static_cast<int64_t>(hubs)) != 1) a += 2;
  const int64_t b = rng.Below(hubs);
  std::vector<Request> stream;
  for (int i = 0; i < n; ++i) {
    if (i % kHeavyPeriod == phase) {
      stream.push_back({"hub", "exists x y. R(x) & S(x, y)", whole_answer, Cls::kHeavy});
      continue;
    }
    const double u = rng.Uniform() * total;
    const int64_t rank = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    const int c = static_cast<int>((a * rank + b) % hubs);
    stream.push_back({"hub", "exists y. S(" + std::to_string(c) + ", y) & T(y)",
                      EntityOracle(hub, c), Cls::kLight});
  }
  return stream;
}

inline void HashRequests(const std::vector<Request>& stream, StreamHash* hash) {
  for (const Request& r : stream) {
    hash->Add(r.instance);
    hash->Add(r.text);
    hash->Add(r.expected);
  }
}

/// One registered Engine with its instances and both tenants.
struct ServeSetup {
  std::unique_ptr<ipdb::server::Engine> engine;
  std::map<std::string, std::shared_ptr<const ipdb::storage::TiStore>> stores;
  /// Views of the registered stores for the single-threaded replay,
  /// built on demand outside the timed set-up (see ReplayViews).
  std::map<std::string, std::shared_ptr<const ipdb::pdb::TiPdbD>> instances;
};

/// Creates the TiPdb (timed into `create_s` when non-null), registers it.
inline bool AddInstance(ServeSetup* setup, const std::string& name,
                        ipdb::pdb::TiPdbD::FactList facts, const rel::Schema& schema,
                        std::vector<double>* create_s) {
  const int64_t t0 = NowNs();
  auto pdb = ipdb::pdb::TiPdbD::Create(schema, std::move(facts));
  if (create_s != nullptr) create_s->push_back((NowNs() - t0) * 1e-9);
  if (!pdb.ok()) return false;
  setup->stores[name] = pdb.value().store();
  return setup->engine->RegisterInstance(name, std::move(pdb).value()).ok();
}

/// The replay reads the very stores the Engine serves, through TiPdb
/// views whose fact order is the store's global numbering.
inline bool ReplayViews(ServeSetup* setup) {
  for (const auto& [name, store] : setup->stores) {
    auto view = ipdb::pdb::TiPdbD::FromStore(store);
    if (!view.ok()) return false;
    setup->instances[name] = std::make_shared<const ipdb::pdb::TiPdbD>(std::move(view).value());
  }
  return true;
}

inline bool StartEngine(ServeSetup* setup) {
  ipdb::server::EngineOptions options;
  options.threads = kEngineThreads;
  setup->engine = std::make_unique<ipdb::server::Engine>(options);
  return setup->engine->RegisterTenant("alpha", std::string(kTenantConfig)).ok() &&
         setup->engine->RegisterTenant("beta", std::string(kTenantConfig)).ok();
}

inline bool AnswerOk(const ipdb::StatusOr<ipdb::server::QueryResult>& result,
                     double expected) {
  return result.ok() && !result.value().degraded &&
         result.value().answer.quality == ipdb::pqe::AnswerQuality::kExact &&
         RelClose(result.value().answer.probability, expected);
}

/// What the closed-loop clients observed.
struct ServeLog {
  std::vector<int64_t> light_ns, heavy_ns;  // client-observed, per class
  std::vector<int64_t> queue_ns, exec_ns;   // from QueryResult
  int64_t wall_ns = 0;
  Checks checks;
};

inline void Merge(const ServeLog& from, ServeLog* into) {
  auto append = [](const std::vector<int64_t>& src, std::vector<int64_t>* dst) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  append(from.light_ns, &into->light_ns);
  append(from.heavy_ns, &into->heavy_ns);
  append(from.queue_ns, &into->queue_ns);
  append(from.exec_ns, &into->exec_ns);
  into->wall_ns += from.wall_ns;
  into->checks.Add(from.checks);
}

/// Closed loop: client c sends streams[c][offset + i] (cycling) and
/// waits for the answer before sending the next, until `deadline_ns`, or
/// once through its stream when `once`. Clients alternate the two
/// tenants.
inline ServeLog RunClients(ipdb::server::Engine* engine,
                           const std::vector<std::vector<Request>>& streams,
                           int64_t deadline_ns, bool once = false, size_t offset = 0) {
  std::vector<ServeLog> logs(streams.size());
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      const std::string tenant = c % 2 == 0 ? "alpha" : "beta";
      ServeLog& mine = logs[c];
      const std::vector<Request>& stream = streams[c];
      for (size_t i = 0; once ? i < stream.size() : NowNs() < deadline_ns; ++i) {
        const Request& req = stream[(offset + i) % stream.size()];
        const int64_t t0 = NowNs();
        auto result = engine->Query(tenant, req.instance, req.text);
        const int64_t t1 = NowNs();
        (req.cls == Cls::kHeavy ? mine.heavy_ns : mine.light_ns).push_back(t1 - t0);
        if (result.ok()) {
          mine.queue_ns.push_back(result.value().queue_ns);
          mine.exec_ns.push_back(result.value().total_ns - result.value().queue_ns);
        }
        mine.checks.Record(AnswerOk(result, req.expected), req.text);
      }
      mine.wall_ns = NowNs() - start;
    });
  }
  for (std::thread& t : threads) t.join();
  ServeLog log;
  int64_t wall = 1;
  for (const ServeLog& mine : logs) {
    wall = std::max(wall, mine.wall_ns);
    Merge(mine, &log);
  }
  log.wall_ns = wall;
  return log;
}

/// Counts the replay accumulates; they depend only on the seed.
struct ReplayCounts {
  int64_t lifted_queries = 0, lifted_lookups = 0;
  int64_t ground_queries = 0, lineage_nodes = 0;
  std::map<const void*, int64_t> artifact_nodes;  // distinct artifacts
  bool operator==(const ReplayCounts& o) const {
    return lifted_queries == o.lifted_queries && lifted_lookups == o.lifted_lookups &&
           ground_queries == o.ground_queries && lineage_nodes == o.lineage_nodes;
  }
};

/// Replays requests on one thread in the Engine's order: ParseSentence,
/// then LiftedPlan::Compile and Evaluate, or (when the plan compiler
/// rejects the sentence) GroundSentence, GetOrCompile on the global
/// artifact cache and EvaluateCircuit. With a tracer, each request's
/// calls sit under one `root` span. Returns the wall time in ns.
inline int64_t Replay(const ServeSetup& setup, const std::vector<Request>& requests,
                      Tracer* tracer, const char* root, ReplayCounts* counts,
                      Checks* checks) {
  namespace pqe = ipdb::pqe;
  const int64_t start = NowNs();
  for (const Request& req : requests) {
    const ipdb::pdb::TiPdbD& ti = *setup.instances.at(req.instance);
    if (tracer != nullptr) tracer->BeginRequest();
    Scope request(tracer, root);
    Scope parse(tracer, "logic.parse");
    auto sentence = ipdb::logic::ParseSentence(req.text, ti.schema());
    parse.Close();
    if (!sentence.ok()) {
      checks->Record(false, req.text);
      continue;
    }
    Scope compile(tracer, "pqe.lifted_compile");
    auto plan = pqe::LiftedPlan::Compile(sentence.value());
    compile.Close();
    ipdb::StatusOr<double> answer(ipdb::InternalError("unanswered"));
    if (plan.ok()) {
      pqe::SafePlanStats stats;
      pqe::LiftedOptions options;
      options.stats = &stats;
      {
        Scope eval(tracer, "pqe.lifted_eval");
        answer = plan.value().Evaluate(ti, options);
      }
      ++counts->lifted_queries;
      counts->lifted_lookups += stats.ground_lookups;
    } else {
      pqe::Lineage lineage;
      Scope ground(tracer, "pqe.ground");
      auto root_node = pqe::GroundSentence(ti, sentence.value(), &lineage);
      ground.Close();
      if (!root_node.ok()) {
        checks->Record(false, req.text);
        continue;
      }
      ++counts->ground_queries;
      counts->lineage_nodes += lineage.size();
      std::vector<double> probs;
      probs.reserve(ti.facts().size());
      for (const auto& [fact, marginal] : ti.facts()) probs.push_back(marginal);
      bool hit = false;
      Scope probe(tracer, "kc.get_or_compile");
      auto artifact =
          ipdb::kc::GlobalCompiledQueryCache().GetOrCompile(&lineage, root_node.value(), &hit);
      probe.Close(hit ? "kc.cache_probe" : "kc.compile");
      if (!artifact.ok()) {
        checks->Record(false, req.text);
        continue;
      }
      const ipdb::kc::CompiledQuery& compiled = *artifact.value();
      counts->artifact_nodes[&compiled] = compiled.circuit.size();
      Scope eval(tracer, "kc.evaluate");
      answer = ipdb::kc::EvaluateCircuit<double>(compiled.circuit, compiled.root, probs);
    }
    checks->Record(answer.ok() && RelClose(answer.value(), req.expected), req.text);
  }
  return NowNs() - start;
}

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
