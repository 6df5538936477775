// The churn-durable workload: a seeded stream of committed mutation
// batches against a durability::DurableStore, each followed by two
// pqe::PreparedQuery re-queries, with periodic checkpoints and repeated
// recovery at the end.
#ifndef PERFBENCH_CHURN_H_
#define PERFBENCH_CHURN_H_

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "durability/manager.h"
#include "kc/cache.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "oracle.h"
#include "pqe/lineage.h"
#include "pqe/prepared.h"
#include "report.h"
#include "spans.h"
#include "storage/ti_store.h"

namespace perfbench {

namespace durability = ipdb::durability;
namespace storage = ipdb::storage;

enum class Op { kUpdate, kInsert, kErase };

struct Mutation {
  Op op = Op::kUpdate;
  rel::Fact fact;
  double prob = 0.0;
};

struct Commit {
  std::vector<Mutation> mutations;
  bool structural = false;  // carries an Insert or Erase
  double circuit_expected = 0.0;
  double entity_expected = 0.0;
};

inline constexpr int kBatch = 8;            // mutations per commit
inline constexpr int kStructuralPeriod = 20;  // every 20th commit: 5%
inline constexpr int kCheckpointEvery = 64;   // commits

/// The two prepared queries: a circuit-path self-join with constants and
/// a lifted entity query.
struct ChurnQueries {
  int c1 = 0, c2 = 1, entity = 0;
  std::string circuit_text() const {
    return "exists x. R(x) & S(x, " + std::to_string(c1) + ") & S(x, " +
           std::to_string(c2) + ")";
  }
  std::string entity_text() const {
    return "exists y. S(" + std::to_string(entity) + ", y) & T(y)";
  }
};

/// c1, c2 are drawn from the values no hub uses as its anchor, so the
/// circuit query's lineage has the same expected size for every seed.
inline ChurnQueries PickChurnQueries(const HubData& hub, uint64_t seed) {
  Rng rng(seed);
  ChurnQueries q;
  const int first = hub.shape.t_size, span = HubData::kSDomain - hub.shape.t_size;
  q.c1 = first + rng.Below(span);
  do {
    q.c2 = first + rng.Below(span);
  } while (q.c2 == q.c1);
  q.entity = rng.Below(hub.shape.hubs);
  return q;
}

/// Generates `n` commits, applying them to `model` (which ends in the
/// stream's final state) and recording the oracle answers after each.
/// Most mutations are UpdateProbability on R or S facts; every
/// kStructuralPeriod-th commit swaps one update for an Insert of an
/// absent S fact or an Erase of a present non-anchor S fact.
inline std::vector<Commit> ChurnStream(HubData* model, const ChurnQueries& q,
                                       uint64_t seed, int n) {
  Rng rng(seed);
  const HubShape& shape = model->shape;
  std::vector<Commit> commits;
  commits.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Commit commit;
    commit.structural = i % kStructuralPeriod == kStructuralPeriod - 1;
    for (int m = 0; m < kBatch; ++m) {
      const int x = rng.Below(shape.hubs);
      Mutation mut;
      if (commit.structural && m == kBatch - 1) {
        const int y = rng.Below(HubData::kSDomain);
        if (model->S(x, y) > 0 && y != x % shape.t_size) {
          mut.op = Op::kErase;
          model->S(x, y) = 0.0;
        } else if (model->S(x, y) > 0) {
          // The anchor stays: insert the first absent S(x, y') instead.
          int y2 = 0;
          while (y2 < HubData::kSDomain && model->S(x, y2) > 0) ++y2;
          if (y2 == HubData::kSDomain) {
            mut.op = Op::kErase;
            y2 = (x % shape.t_size + 1) % HubData::kSDomain;
            model->S(x, y2) = 0.0;
          } else {
            mut.op = Op::kInsert;
            mut.prob = rng.Uniform(shape.s_lo, shape.s_hi);
            model->S(x, y2) = mut.prob;
          }
          mut.fact = SFact(x, y2);
          commit.mutations.push_back(mut);
          continue;
        } else {
          mut.op = Op::kInsert;
          mut.prob = rng.Uniform(shape.s_lo, shape.s_hi);
          model->S(x, y) = mut.prob;
        }
        mut.fact = SFact(x, y);
      } else if (rng.Below(2) == 0) {
        mut.fact = RFact(x);
        mut.prob = rng.Uniform(shape.r_lo, shape.r_hi);
        model->r[static_cast<size_t>(x)] = mut.prob;
      } else {
        int y = rng.Below(HubData::kSDomain);
        while (model->S(x, y) <= 0) y = (y + 1) % HubData::kSDomain;
        mut.fact = SFact(x, y);
        mut.prob = rng.Uniform(shape.s_lo, shape.s_hi);
        model->S(x, y) = mut.prob;
      }
      commit.mutations.push_back(mut);
    }
    commit.circuit_expected = SelfJoinOracle(*model, q.c1, q.c2);
    commit.entity_expected = EntityOracle(*model, q.entity);
    commits.push_back(std::move(commit));
  }
  return commits;
}

inline void HashCommits(const std::vector<Commit>& commits, StreamHash* hash) {
  for (const Commit& c : commits) {
    for (const Mutation& m : c.mutations) {
      hash->Add(static_cast<int64_t>(m.op));
      hash->Add(m.fact.ToString());
      hash->Add(m.prob);
    }
    hash->Add(c.circuit_expected);
    hash->Add(c.entity_expected);
  }
}

/// A live durable store with its two prepared handles.
struct ChurnSetup {
  std::unique_ptr<durability::Manager> manager;
  std::unique_ptr<durability::DurableStore> store;
  std::unique_ptr<ipdb::pqe::PreparedQuery> circuit, entity;
  ipdb::logic::Formula circuit_sentence, entity_sentence;
};

inline constexpr const char* kChurnInstance = "hub";

/// Builds the TiStore (`build_s`), creates its durable form in `dir`
/// (snapshot at LSN 0 plus an empty WAL) and prepares both queries.
inline bool SetUpChurn(const ipdb::pdb::TiPdbD::FactList& facts, const ChurnQueries& q,
                       const std::string& dir, ChurnSetup* out, double* build_s) {
  const int64_t t0 = NowNs();
  storage::TiStore::Builder builder(HubSchema());
  builder.Reserve(static_cast<int64_t>(facts.size()));
  for (const auto& [fact, p] : facts) builder.Add(fact, p);
  auto store = builder.Finish();
  if (build_s != nullptr) *build_s = (NowNs() - t0) * 1e-9;
  if (!store.ok()) return false;
  std::filesystem::remove_all(dir);
  out->manager = std::make_unique<durability::Manager>(dir);
  auto durable = out->manager->Create(kChurnInstance, store.value());
  if (!durable.ok()) return false;
  out->store = std::move(durable).value();
  auto circuit = ipdb::logic::ParseSentence(q.circuit_text(), HubSchema());
  auto entity = ipdb::logic::ParseSentence(q.entity_text(), HubSchema());
  if (!circuit.ok() || !entity.ok()) return false;
  out->circuit_sentence = circuit.value();
  out->entity_sentence = entity.value();
  auto pc = ipdb::pqe::PreparedQuery::Prepare(out->store->shared_store(), circuit.value());
  auto pe = ipdb::pqe::PreparedQuery::Prepare(out->store->shared_store(), entity.value());
  if (!pc.ok() || !pe.ok()) return false;
  out->circuit = std::make_unique<ipdb::pqe::PreparedQuery>(std::move(pc).value());
  out->entity = std::make_unique<ipdb::pqe::PreparedQuery>(std::move(pe).value());
  return out->entity->lifted() && !out->circuit->lifted();
}

/// What the churn pass observed.
struct ChurnLog {
  std::vector<int64_t> commit_ns;                // mutations + Flush
  std::vector<int64_t> refresh_ns, recompile_ns;  // both re-queries
  /// Refreshes of the commit right after a Checkpoint, which run with
  /// cold caches: a slow class of 1/kCheckpointEvery of the commits,
  /// kept out of refresh_ns so its p99 does not sit on that class.
  std::vector<int64_t> post_checkpoint_ns;
  std::vector<int64_t> checkpoint_ns, recover_ns;
  std::vector<int64_t> mutation_ns;  // each DurableStore mutator call
  int64_t commits = 0, mutations = 0;
  double last_circuit = 0.0, last_entity = 0.0;
  Checks checks;
};

inline void Merge(const ChurnLog& from, ChurnLog* into) {
  for (auto [src, dst] : {std::pair{&from.commit_ns, &into->commit_ns},
                          std::pair{&from.refresh_ns, &into->refresh_ns},
                          std::pair{&from.recompile_ns, &into->recompile_ns},
                          std::pair{&from.post_checkpoint_ns, &into->post_checkpoint_ns},
                          std::pair{&from.checkpoint_ns, &into->checkpoint_ns},
                          std::pair{&from.recover_ns, &into->recover_ns},
                          std::pair{&from.mutation_ns, &into->mutation_ns}}) {
    dst->insert(dst->end(), src->begin(), src->end());
  }
  into->commits += from.commits;
  into->mutations += from.mutations;
  into->checks.Add(from.checks);
}

/// Shadow calls for the traced run: after each commit, time the circuit
/// query's layers from outside on the same store state — GroundSentence,
/// a GetOrCompile miss on a private cache (the shared one is the
/// prepared handle's), and EvaluateCircuit — without touching what the
/// prepared handle does.
struct Shadow {
  ipdb::kc::CompiledQueryCache cache{4};
  std::shared_ptr<const ipdb::kc::CompiledQuery> artifact;
  int64_t lineage_nodes = 0, grounds = 0;
  std::vector<int64_t> circuit_nodes;
};

inline void ShadowQuery(const storage::TiStore& store, const ipdb::logic::Formula& sentence,
                        bool structural, Tracer* tracer, Shadow* shadow) {
  if (structural || shadow->artifact == nullptr) {
    ipdb::pqe::Lineage lineage;
    Scope ground(tracer, "pqe.ground");
    auto root = ipdb::pqe::GroundSentence(store, sentence, &lineage);
    ground.Close();
    if (!root.ok()) return;
    ++shadow->grounds;
    shadow->lineage_nodes += lineage.size();
    shadow->cache.Clear();
    bool hit = false;
    Scope compile(tracer, "kc.get_or_compile");
    auto artifact = shadow->cache.GetOrCompile(&lineage, root.value(), &hit);
    compile.Close(hit ? "kc.cache_probe" : "kc.compile");
    if (!artifact.ok()) return;
    // The same lineage probed again: a hit, which times the fingerprint
    // and lookup alone.
    Scope probe(tracer, "kc.get_or_compile");
    auto again = shadow->cache.GetOrCompile(&lineage, root.value(), &hit);
    probe.Close(hit ? "kc.cache_probe" : "kc.compile");
    shadow->artifact = artifact.value();
    shadow->circuit_nodes.push_back(shadow->artifact->circuit.size());
  }
  std::vector<double> probs(static_cast<size_t>(store.num_facts()));
  for (int64_t i = 0; i < store.num_facts(); ++i) probs[static_cast<size_t>(i)] = store.ProbAt(i);
  Scope eval(tracer, "kc.evaluate");
  (void)ipdb::kc::EvaluateCircuit<double>(shadow->artifact->circuit, shadow->artifact->root,
                                          probs);
}

inline const char* OpName(Op op, bool durable) {
  switch (op) {
    case Op::kUpdate: return durable ? "durability.update" : "storage.update";
    case Op::kInsert: return durable ? "durability.insert" : "storage.insert";
    case Op::kErase: return durable ? "durability.erase" : "storage.erase";
  }
  return "";
}

template <typename Store>
ipdb::Status Apply(Store* store, const Mutation& m) {
  switch (m.op) {
    case Op::kUpdate: return store->UpdateProbability(m.fact, m.prob);
    case Op::kInsert: return store->Insert(m.fact, m.prob).status();
    case Op::kErase: return store->Erase(m.fact);
  }
  return ipdb::InternalError("unknown op");
}

/// Applies commits [0, limit) until `deadline_ns`: each commit's
/// mutations through the DurableStore, Flush (page cache only; Sync is
/// never called), then both prepared re-queries, checked against the
/// oracle; Checkpoint every kCheckpointEvery commits. With a tracer,
/// each commit cycle is one request, and `shadow` (if set) adds the
/// circuit query's layer calls.
inline ChurnLog RunChurn(ChurnSetup* setup, const std::vector<Commit>& commits,
                         size_t limit, int64_t deadline_ns, Tracer* tracer,
                         Shadow* shadow) {
  ChurnLog log;
  durability::DurableStore& ds = *setup->store;
  for (size_t i = 0; i < std::min(limit, commits.size()) && NowNs() < deadline_ns; ++i) {
    const Commit& commit = commits[i];
    if (tracer != nullptr) tracer->BeginRequest();
    Scope cycle(tracer, "churn.commit_cycle");
    const int64_t t0 = NowNs();
    bool applied = true;
    for (const Mutation& m : commit.mutations) {
      const int64_t m0 = NowNs();
      Scope span(tracer, OpName(m.op, true));
      applied = Apply(&ds, m).ok() && applied;
      span.Close();
      log.mutation_ns.push_back(NowNs() - m0);
    }
    {
      Scope span(tracer, "durability.flush");
      applied = ds.Flush().ok() && applied;
    }
    const int64_t t1 = NowNs();
    const int64_t recompiles = setup->circuit->recompiles();
    Scope circuit_span(tracer, "pqe.prepared_query");
    auto circuit = setup->circuit->Query();
    circuit_span.Close(setup->circuit->recompiles() > recompiles ? "pqe.prepared_rebuild"
                                                                 : "pqe.prepared_refresh");
    Scope entity_span(tracer, "pqe.prepared_lifted");
    auto entity = setup->entity->Query();
    entity_span.Close();
    const int64_t t2 = NowNs();
    log.commit_ns.push_back(t1 - t0);
    (commit.structural                         ? log.recompile_ns
     : i > 0 && i % kCheckpointEvery == 0 ? log.post_checkpoint_ns
                                          : log.refresh_ns)
        .push_back(t2 - t1);
    log.checks.Record(applied, "commit " + std::to_string(i) + " failed to apply");
    log.checks.Record(circuit.ok() && RelClose(circuit.value(), commit.circuit_expected),
                      "circuit re-query after commit " + std::to_string(i));
    log.checks.Record(entity.ok() && RelClose(entity.value(), commit.entity_expected),
                      "entity re-query after commit " + std::to_string(i));
    if (circuit.ok()) log.last_circuit = circuit.value();
    if (entity.ok()) log.last_entity = entity.value();
    if (shadow != nullptr) {
      ShadowQuery(ds.store(), setup->circuit_sentence, commit.structural, tracer, shadow);
    }
    if ((i + 1) % kCheckpointEvery == 0) {
      Scope span(tracer, "durability.checkpoint");
      const int64_t c0 = NowNs();
      log.checks.Record(ds.Checkpoint().ok(), "checkpoint");
      log.checkpoint_ns.push_back(NowNs() - c0);
    }
    ++log.commits;
    log.mutations += static_cast<int64_t>(commit.mutations.size());
  }
  return log;
}

/// Replays the first `n` commits' mutations on a bare (non-durable)
/// TiStore — the storage layer's share of a commit. Returns the
/// per-mutation durations in order.
inline std::vector<int64_t> ReplayBare(storage::TiStore* store,
                                       const std::vector<Commit>& commits, int64_t n,
                                       Tracer* tracer, Checks* checks) {
  std::vector<int64_t> ns;
  for (int64_t i = 0; i < n && i < static_cast<int64_t>(commits.size()); ++i) {
    tracer->BeginRequest();
    Scope root(tracer, "storage.replay_commit");
    for (const Mutation& m : commits[static_cast<size_t>(i)].mutations) {
      const int64_t t0 = NowNs();
      Scope span(tracer, OpName(m.op, false));
      const bool ok = Apply(store, m).ok();
      span.Close();
      ns.push_back(NowNs() - t0);
      checks->Record(ok, "bare mutation");
    }
  }
  return ns;
}

/// Bytes of a file, 0 when absent.
inline int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

/// After the stream: drop the live handle and Load `reps` times (the
/// median is recover_ms); a fresh PreparedQuery on the last recovered
/// store must reproduce the pre-close answers bit for bit.
inline void Recover(ChurnSetup* setup, int reps, ChurnLog* log, Tracer* tracer,
                    int64_t* replay_records) {
  setup->store.reset();
  setup->circuit.reset();
  setup->entity.reset();
  std::unique_ptr<durability::DurableStore> loaded;
  for (int r = 0; r < reps; ++r) {
    loaded.reset();
    if (tracer != nullptr) tracer->BeginRequest();
    Scope root(tracer, "churn.recover");
    Scope span(tracer, "durability.load");
    const int64_t t0 = NowNs();
    auto result = setup->manager->Load(kChurnInstance);
    log->recover_ns.push_back(NowNs() - t0);
    span.Close();
    log->checks.Record(result.ok(), "Manager::Load");
    if (!result.ok()) return;
    loaded = std::move(result).value();
  }
  *replay_records = loaded->recovery_stats().applied;
  auto circuit = ipdb::pqe::PreparedQuery::Prepare(loaded->shared_store(), setup->circuit_sentence);
  auto entity = ipdb::pqe::PreparedQuery::Prepare(loaded->shared_store(), setup->entity_sentence);
  log->checks.Record(circuit.ok() && circuit.value().Query().ok() &&
                         circuit.value().Query().value() == log->last_circuit,
                     "circuit answer after recovery differs");
  log->checks.Record(entity.ok() && entity.value().Query().ok() &&
                         entity.value().Query().value() == log->last_entity,
                     "entity answer after recovery differs");
  setup->store = std::move(loaded);
}

}  // namespace perfbench

#endif  // PERFBENCH_CHURN_H_
