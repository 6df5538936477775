// perfbench: the ipdb query-service benchmark. One process runs one
// workload once; perfbench/run.py builds it and drives it.
//
//   perfbench --workload serve-ground|serve-lifted|churn-durable
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--git-sha SHA] [--source-hash HASH]
//   perfbench --oracle-selftest
//   perfbench --workload W --seed N --stream-hash
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that produces the per-layer metrics. The
// last line of stdout is the result object; the lines before it carry
// the run's stamp and the workload's detail metrics. See README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "churn.h"
#include "oracle.h"
#include "pqe/wmc.h"
#include "report.h"
#include "serve.h"
#include "spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_hash = "unknown";
  bool oracle_selftest = false;
  bool stream_hash = false;
};

// Workload sizes. The serve-ground hub is sized so a warm query costs
// 10-20 ms and the 48-edge chain 40-70 ms (grounding dominates both);
// serve-lifted is ~8e5 facts, churn-durable ~1e5. R marginals are scaled with the hub count
// so whole-relation answers stay near 0.5 instead of saturating.
const HubShape kGroundHub{120, 4, 0.005, 0.02};
constexpr int kChainLength = 48;
constexpr int kHubConsts = 12, kChainConsts = 4;  // 36 + 12 sentences
const HubShape kLiftedHub{160000, 4, 2e-6, 8e-6};
const HubShape kChurnHub{20000, 4, 4e-4, 2.8e-3};
constexpr int kGroundSetups = 5, kLiftedSetups = 3, kChurnSetups = 5;
constexpr int kRecoverReps = 9;
constexpr int kStreamLength = 20000;  // per client; cycled if exhausted
constexpr int kChurnCommits = 8000;
// Traced-run prefixes: fixed, so the count metrics depend on the seed only.
// kChurnTraced is not a multiple of kCheckpointEvery, so a WAL tail
// remains for recovery to replay.
constexpr int kGroundReplay = 120, kLiftedReplay = 60, kChurnTraced = 600;
constexpr int kProbeQueries = 60, kProbeCommits = 70;  // one checkpoint

/// Independent sub-seeds per input.
struct Seeds {
  uint64_t instance, chain, working_set, stream[kClients], queries, commits;
  explicit Seeds(uint64_t seed) {
    Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x1234567ULL);
    instance = rng.Next();
    chain = rng.Next();
    working_set = rng.Next();
    for (uint64_t& s : stream) s = rng.Next();
    queries = rng.Next();
    commits = rng.Next();
  }
};

/// Where each per-layer metric comes from: the workload's own stream
/// (`main`) or, for a layer that stream does not reach, a short probe
/// on the workload's instance (`probe`).
struct LayerSource {
  Tracer tracer;
  std::map<std::string, double> values;  // metrics computed directly
  int64_t replay_untraced_ns = 0, replay_traced_ns = 0;
  /// Engine execution time (p50, ms) of the replayed requests served
  /// one at a time: the denominator of trace.coverage.
  double single_exec_p50_ms = 0;
};

void SetServerLayer(const ServeLog& log, LayerSource* src) {
  src->values["server.queue_wait_p50_ms"] = Median(NsToMs(log.queue_ns));
  src->values["server.exec_p50_ms"] = Median(NsToMs(log.exec_ns));
  src->values["server.failed_share"] =
      log.checks.attempted == 0 ? 0.0
                                : static_cast<double>(log.checks.failed) / log.checks.attempted;
}

void SetReplayCounts(const ReplayCounts& counts, LayerSource* src) {
  if (counts.lifted_queries > 0) {
    src->values["pqe.lifted_lookups_per_query"] =
        static_cast<double>(counts.lifted_lookups) / counts.lifted_queries;
  }
  if (counts.ground_queries > 0) {
    src->values["pqe.lineage_nodes_per_query"] =
        static_cast<double>(counts.lineage_nodes) / counts.ground_queries;
  }
  if (!counts.artifact_nodes.empty()) {
    double total = 0;
    for (const auto& [artifact, nodes] : counts.artifact_nodes) total += nodes;
    src->values["kc.circuit_nodes_per_artifact"] = total / counts.artifact_nodes.size();
  }
}

struct CacheDelta {
  int64_t hits, misses;
  CacheDelta()
      : hits(ipdb::kc::GlobalCompiledQueryCache().hits()),
        misses(ipdb::kc::GlobalCompiledQueryCache().misses()) {}
  void SetShare(LayerSource* src) const {
    const int64_t h = ipdb::kc::GlobalCompiledQueryCache().hits() - hits;
    const int64_t m = ipdb::kc::GlobalCompiledQueryCache().misses() - misses;
    if (h + m > 0) src->values["kc.hit_share"] = static_cast<double>(h) / (h + m);
  }
};

/// The churn pass's layer counts and durability sizes.
void SetChurnLayer(const ChurnLog& log, const Shadow& shadow, const std::vector<int64_t>& bare_ns,
                   int64_t recompiles, int64_t replay_records, int64_t snapshot_bytes,
                   int64_t wal_bytes, int64_t facts, LayerSource* src) {
  src->values["pqe.prepared_recompiles"] = static_cast<double>(recompiles);
  if (shadow.grounds > 0) {
    src->values["pqe.lineage_nodes_per_query"] =
        static_cast<double>(shadow.lineage_nodes) / shadow.grounds;
    double total = 0;
    for (int64_t n : shadow.circuit_nodes) total += static_cast<double>(n);
    src->values["kc.circuit_nodes_per_artifact"] = total / shadow.circuit_nodes.size();
  }
  std::vector<double> journal;
  for (size_t i = 0; i < bare_ns.size() && i < log.mutation_ns.size(); ++i) {
    journal.push_back((log.mutation_ns[i] - bare_ns[i]) * 1e-3);
  }
  src->values["durability.journal_us"] = Median(journal);
  src->values["durability.replay_records"] = static_cast<double>(replay_records);
  src->values["durability.wal_bytes_per_mutation"] =
      replay_records > 0 ? static_cast<double>(wal_bytes) / replay_records : 0.0;
  src->values["durability.snapshot_bytes_per_fact"] =
      static_cast<double>(snapshot_bytes) / std::max<int64_t>(1, facts);
}

/// Per-layer metric name -> (span name, unit scale from ms, unit).
struct SpanMetric {
  const char* metric;
  const char* span;
  double scale;
  const char* unit;
};

const SpanMetric kSpanMetrics[] = {
    {"logic.parse_us", "logic.parse", 1e3, "us"},
    {"pqe.lifted_compile_us", "pqe.lifted_compile", 1e3, "us"},
    {"pqe.lifted_eval_ms", "pqe.lifted_eval", 1, "ms"},
    {"pqe.ground_ms", "pqe.ground", 1, "ms"},
    {"pqe.prepared_refresh_ms", "pqe.prepared_refresh", 1, "ms"},
    {"pqe.prepared_rebuild_ms", "pqe.prepared_rebuild", 1, "ms"},
    {"kc.cache_probe_ms", "kc.cache_probe", 1, "ms"},
    {"kc.compile_ms", "kc.compile", 1, "ms"},
    {"kc.evaluate_ms", "kc.evaluate", 1, "ms"},
    {"storage.build_s", "storage.build", 1e-3, "s"},
    {"storage.update_us", "storage.update", 1e3, "us"},
    {"storage.insert_us", "storage.insert", 1e3, "us"},
    {"storage.erase_us", "storage.erase", 1e3, "us"},
    {"durability.flush_ms", "durability.flush", 1, "ms"},
    {"durability.checkpoint_ms", "durability.checkpoint", 1, "ms"},
    {"durability.load_ms", "durability.load", 1, "ms"},
    {"pdb.create_s", "pdb.create", 1e-3, "s"},
};

struct ValueMetric {
  const char* metric;
  const char* unit;
};

const ValueMetric kValueMetrics[] = {
    {"server.queue_wait_p50_ms", "ms"},
    {"server.exec_p50_ms", "ms"},
    {"server.failed_share", "ratio"},
    {"pqe.lifted_lookups_per_query", "count"},
    {"pqe.lineage_nodes_per_query", "count"},
    {"pqe.prepared_recompiles", "count"},
    {"kc.hit_share", "ratio"},
    {"kc.circuit_nodes_per_artifact", "count"},
    {"storage.bytes_per_fact", "bytes"},
    {"durability.journal_us", "us"},
    {"durability.wal_bytes_per_mutation", "bytes"},
    {"durability.snapshot_bytes_per_fact", "bytes"},
    {"durability.replay_records", "count"},
};

Metrics LayerMetrics(const LayerSource& main, const LayerSource& probe,
                     std::vector<std::string>* missing) {
  Metrics out;
  const auto main_ms = main.tracer.DurationsMs();
  const auto probe_ms = probe.tracer.DurationsMs();
  auto pick_value = [&](const std::string& name, double* v) {
    for (const LayerSource* src : {&main, &probe}) {
      auto it = src->values.find(name);
      if (it != src->values.end()) {
        *v = it->second;
        return true;
      }
    }
    return false;
  };
  for (const ValueMetric& m : kValueMetrics) {
    double v = 0;
    if (!pick_value(m.metric, &v)) missing->push_back(m.metric);
    out.Set(m.metric, v, m.unit);
  }
  for (const SpanMetric& m : kSpanMetrics) {
    const std::vector<double>* samples = nullptr;
    for (const auto* durations : {&main_ms, &probe_ms}) {
      auto it = durations->find(m.span);
      if (samples == nullptr && it != durations->end()) samples = &it->second;
    }
    if (samples == nullptr) missing->push_back(m.metric);
    out.Set(m.metric, samples == nullptr ? 0.0 : Median(*samples) * m.scale, m.unit);
  }
  // Coverage: per request, the time the layer spans under the root
  // cover, against the Engine's execution time on the same stream.
  for (const LayerSource* src : {&main, &probe}) {
    const std::vector<double> covered = src->tracer.ChildCoverageMs("serve.request");
    if (covered.empty() || src->single_exec_p50_ms <= 0) continue;
    out.Set("trace.coverage", Median(covered) / src->single_exec_p50_ms, "ratio");
    out.Set("trace.overhead_share",
            static_cast<double>(src->replay_traced_ns - src->replay_untraced_ns) /
                std::max<int64_t>(1, src->replay_untraced_ns),
            "ratio");
    break;
  }
  if (!out.Has("trace.coverage")) {
    missing->push_back("trace.coverage");
    out.Set("trace.coverage", 0.0, "ratio");
    out.Set("trace.overhead_share", 0.0, "ratio");
  }
  return out;
}

/// Self time per layer (the span-name prefix before the first '.'),
/// summed over every span of the traced run.
std::string SelfTimeJson(const LayerSource& main, const LayerSource& probe) {
  std::map<std::string, double> by_layer;
  for (const LayerSource* src : {&main, &probe}) {
    for (const auto& [name, ms] : src->tracer.SelfTimeMs()) {
      by_layer[name.substr(0, name.find('.'))] += ms;
    }
  }
  Metrics m;
  for (const auto& [layer, ms] : by_layer) m.Set(layer + ".self_ms", ms, "ms");
  return m.Json();
}

struct Outcome {
  Metrics metrics;
  Metrics detail;
  Checks checks;
  std::string stream_hash;
  std::string trace_error;  // non-empty: the span trees are malformed
  std::string self_time_json = "{}";
};

/// The traced run's end: per-layer metrics, self times, the span-tree
/// check, and the Chrome traces (the stream's and the probe's).
void FinishTraced(const Args& args, const LayerSource& main, const LayerSource& probe,
                  Outcome* out) {
  std::vector<std::string> missing;
  out->metrics = LayerMetrics(main, probe, &missing);
  for (const std::string& m : missing) std::fprintf(stderr, "no samples for %s\n", m.c_str());
  out->self_time_json = SelfTimeJson(main, probe);
  std::string error;
  if (main.tracer.CheckTrees(&error) < 0 || probe.tracer.CheckTrees(&error) < 0) {
    out->trace_error = error;
  }
  const std::string stem =
      args.out_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed);
  if (!main.tracer.WriteChromeTrace(stem + ".json") ||
      !probe.tracer.WriteChromeTrace(stem + "-probe.json")) {
    out->trace_error = "cannot write the Chrome trace under " + args.out_dir;
  }
}

// ---------------------------------------------------------------- serve

/// The layer replay of `requests`, twice: each round serves them through
/// the Engine by one client (coverage's denominator), then replays them
/// untraced and traced. Replays run on a fresh thread, as the Engine's
/// queries run on its workers rather than on the thread that generated
/// the inputs; alternating the passes keeps drift between them from
/// reading as tracing overhead. The counts of every pass must agree.
void ReplayLayers(const ServeSetup& setup, const std::vector<Request>& requests,
                  LayerSource* src, Checks* checks) {
  std::vector<int64_t> exec_ns;
  ReplayCounts first;
  for (int pass = 0; pass < 4; ++pass) {
    const bool traced = pass % 2 == 1;
    if (!traced) {
      const ServeLog single = RunClients(setup.engine.get(), {requests}, 0, /*once=*/true);
      exec_ns.insert(exec_ns.end(), single.exec_ns.begin(), single.exec_ns.end());
      checks->Add(single.checks);
    }
    ReplayCounts counts;
    int64_t ns = 0;
    std::thread worker([&] {
      ns = Replay(setup, requests, traced ? &src->tracer : nullptr, "serve.request", &counts,
                  checks);
    });
    worker.join();
    (traced ? src->replay_traced_ns : src->replay_untraced_ns) += ns;
    if (pass == 0) first = counts;
    checks->Record(counts == first, "replay counts differ between passes");
  }
  src->single_exec_p50_ms = Median(NsToMs(exec_ns));
  SetReplayCounts(first, src);
}

/// A serve workload's inputs.
struct ServeInputs {
  HubData hub;
  std::vector<double> chain;
  std::vector<Request> working_set;  // serve-ground only
  std::vector<std::vector<Request>> streams;
  std::string hash;
};

ServeInputs MakeServeInputs(bool ground, uint64_t seed) {
  const Seeds seeds(seed);
  ServeInputs in;
  StreamHash hash;
  if (ground) {
    in.hub = MakeHub(kGroundHub, seeds.instance);
    in.chain = MakeChain(kChainLength, seeds.chain);
    in.working_set = GroundWorkingSet(in.hub, in.chain, seeds.working_set, kHubConsts,
                                      kChainConsts);
    HashRequests(in.working_set, &hash);
    for (int c = 0; c < kClients; ++c) {
      in.streams.push_back(
          GroundStream(in.working_set, 3 * kHubConsts, seeds.stream[c], kStreamLength,
                       c * kHeavyPeriod / kClients));
    }
  } else {
    in.hub = MakeHub(kLiftedHub, seeds.instance);
    const double whole = WholeRsOracle(in.hub);
    for (int c = 0; c < kClients; ++c) {
      in.streams.push_back(LiftedStream(in.hub, whole, seeds.stream[c], kStreamLength,
                                        c * kHeavyPeriod / kClients));
    }
  }
  for (const auto& s : in.streams) HashRequests(s, &hash);
  for (double p : in.hub.r) hash.Add(p);
  for (double p : in.hub.s) hash.Add(p);
  for (double p : in.chain) hash.Add(p);
  in.hash = hash.Hex();
  return in;
}

/// One serve set-up, replacing `setup`: TiPdb::Create of the instances,
/// a fresh Engine with both tenants, registration, and the warm-up — on
/// serve-ground the cold ground + compile of every working-set sentence
/// (each a client-observed cold Engine::Query, the heavy class), on
/// serve-lifted one query of each class.
bool SetUpServe(bool ground, const ServeInputs& in, ServeSetup* setup,
                std::vector<double>* setup_s, std::vector<int64_t>* cold_ns,
                std::vector<double>* create_s, Checks* checks) {
  *setup = ServeSetup();
  ipdb::kc::GlobalCompiledQueryCache().Clear();
  auto hub_facts = HubFacts(in.hub);
  auto chain_facts = ChainFacts(in.chain);
  const int64_t t0 = NowNs();
  if (!StartEngine(setup) ||
      !AddInstance(setup, "hub", std::move(hub_facts), HubSchema(), create_s)) {
    return false;
  }
  if (ground && !AddInstance(setup, "chain", std::move(chain_facts), ChainSchema(), nullptr)) {
    return false;
  }
  std::vector<Request> warm;
  if (ground) {
    warm = in.working_set;
  } else {
    warm.push_back(in.streams[0][1]);
    warm.push_back(in.streams[0][0]);
  }
  for (const Request& req : warm) {
    const int64_t q0 = NowNs();
    auto result = setup->engine->Query("alpha", req.instance, req.text);
    if (ground) cold_ns->push_back(NowNs() - q0);
    checks->Record(AnswerOk(result, req.expected), "warm-up " + req.text);
  }
  setup_s->push_back((NowNs() - t0) * 1e-9);
  return true;
}

/// Builds `facts` into a bare TiStore through the Builder: storage.build.
std::shared_ptr<storage::TiStore> BuildStore(const ipdb::pdb::TiPdbD::FactList& facts,
                                             const rel::Schema& schema, double* seconds) {
  const int64_t t0 = NowNs();
  storage::TiStore::Builder builder(schema);
  builder.Reserve(static_cast<int64_t>(facts.size()));
  for (const auto& [fact, p] : facts) builder.Add(fact, p);
  auto store = builder.Finish();
  *seconds = (NowNs() - t0) * 1e-9;
  return store.ok() ? store.value() : nullptr;
}

/// The churn pipeline run briefly on a copy of `hub` (a traced probe for
/// the storage, durability and prepared-query layers), or in full.
struct ChurnRun {
  ChurnLog log;
  Shadow shadow;
  std::vector<int64_t> bare_ns;
  int64_t recompiles = 0, replay_records = 0, snapshot_bytes = 0, wal_bytes = 0, facts = 0;
};

bool RunChurnTraced(const HubData& hub, uint64_t seed, int commits_n, const std::string& dir,
                    LayerSource* src, ChurnRun* run, Checks* checks) {
  const Seeds seeds(seed);
  HubData model = hub;
  const ChurnQueries q = PickChurnQueries(hub, seeds.queries);
  const auto facts = HubFacts(hub);
  const std::vector<Commit> commits = ChurnStream(&model, q, seeds.commits, commits_n);
  ChurnSetup setup;
  double build_s = 0;
  if (!SetUpChurn(facts, q, dir, &setup, &build_s)) return false;
  CacheDelta cache;
  run->log = RunChurn(&setup, commits, commits.size(), INT64_MAX, &src->tracer, &run->shadow);
  cache.SetShare(src);
  run->recompiles = setup.circuit->recompiles();
  double bare_build_s = 0;
  auto bare = BuildStore(facts, HubSchema(), &bare_build_s);
  if (bare == nullptr) return false;
  run->bare_ns = ReplayBare(bare.get(), commits, run->log.commits, &src->tracer, checks);
  checks->Record(bare->num_facts() == setup.store->store().num_facts(),
                 "bare and durable stores disagree on the fact count");
  run->facts = setup.store->store().num_facts();
  (void)setup.store->Flush();
  run->snapshot_bytes = FileBytes(setup.manager->SnapshotPath(kChurnInstance));
  run->wal_bytes = FileBytes(setup.manager->WalPath(kChurnInstance)) - 16;  // minus header
  Recover(&setup, kRecoverReps, &run->log, &src->tracer, &run->replay_records);
  SetChurnLayer(run->log, run->shadow, run->bare_ns, run->recompiles, run->replay_records,
                run->snapshot_bytes, run->wal_bytes, run->facts, src);
  std::filesystem::remove_all(dir);
  return true;
}

Outcome RunServe(const Args& args) {
  const bool ground = args.workload == "serve-ground";
  Outcome out;
  const ServeInputs in = MakeServeInputs(ground, args.seed);
  out.stream_hash = in.hash;
  ServeSetup setup;
  std::vector<double> setup_s, create_s;
  std::vector<int64_t> cold_ns;
  const int setups = ground ? kGroundSetups : kLiftedSetups;
  const int64_t seconds_ns = static_cast<int64_t>(args.seconds * 1e9);
  if (args.trace == 0) {
    // Set-ups alternate with equal slices of the timed loop, so the
    // repeated set-ups and the client samples both spread over the run.
    ServeLog log;
    for (int seg = 0; seg < setups; ++seg) {
      if (!SetUpServe(ground, in, &setup, &setup_s, &cold_ns, &create_s, &out.checks)) {
        out.checks.Record(false, "serve set-up failed");
        return out;
      }
      Merge(RunClients(setup.engine.get(), in.streams, NowNs() + seconds_ns / setups,
                       /*once=*/false, static_cast<size_t>(seg) * kStreamLength / setups),
            &log);
    }
    out.checks.Add(log.checks);
    // One stream: on serve-lifted the whole-relation queries are 5% of
    // it, so p99 falls inside the whole-relation class, away from the
    // boundary. Why p5 and not p50 for the fast class: README.md.
    const std::vector<double> light = NsToMs(log.light_ns);
    const std::vector<double> heavy = ground ? NsToMs(cold_ns) : NsToMs(log.heavy_ns);
    std::vector<double> all = light;
    if (!ground) all.insert(all.end(), heavy.begin(), heavy.end());
    out.metrics.Set("setup_s", Median(setup_s), "s");
    out.metrics.Set("query_p5_ms", Percentile(light, 0.05), "ms");
    out.metrics.Set("query_p99_ms", Percentile(all, 0.99), "ms");
    out.metrics.Set("heavy_query_p50_ms", Median(heavy), "ms");
    out.metrics.Set("correct_share", out.checks.Share(), "ratio");
    out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.detail.Set("query_p50_ms", Median(light), "ms");
    out.detail.Set("query_mean_ms", Mean(light), "ms");
    out.detail.Set("qps", static_cast<double>(log.light_ns.size() + log.heavy_ns.size()) /
                              (log.wall_ns * 1e-9), "1/s");
    out.detail.Set("query_samples", static_cast<double>(all.size()), "count");
    out.detail.Set("p99_tail_samples", static_cast<double>(TailCount(all.size(), 0.99)),
                   "count");
    out.detail.Set("heavy_samples", static_cast<double>(heavy.size()), "count");
    out.detail.Set("heavy_p99_ms", Percentile(heavy, 0.99), "ms");
    return out;
  }
  for (int rep = 0; rep < setups; ++rep) {
    if (!SetUpServe(ground, in, &setup, &setup_s, &cold_ns, &create_s, &out.checks)) {
      out.checks.Record(false, "serve set-up failed");
      return out;
    }
  }

  // Traced run. Server layer: the Engine under the same two clients.
  LayerSource main, probe;
  for (double s : create_s) {
    main.tracer.RecordRequest("pdb.create", static_cast<int64_t>(s * 1e9));
  }
  const auto hub_facts = HubFacts(in.hub);
  for (int rep = 0; rep < setups; ++rep) {
    double build_s = 0;
    auto store = BuildStore(hub_facts, HubSchema(), &build_s);
    if (store == nullptr) out.checks.Record(false, "store build failed");
    main.tracer.RecordRequest("storage.build", static_cast<int64_t>(build_s * 1e9));
  }
  const ServeLog log = RunClients(setup.engine.get(), in.streams, NowNs() + seconds_ns / 3);
  SetServerLayer(log, &main);
  out.checks.Add(log.checks);
  if (!ReplayViews(&setup)) out.checks.Record(false, "replay views");
  main.values["storage.bytes_per_fact"] =
      static_cast<double>(setup.stores.at("hub")->ApproxBytes()) /
      setup.stores.at("hub")->num_facts();

  const size_t n = ground ? kGroundReplay : kLiftedReplay;
  const std::vector<Request> prefix(in.streams[0].begin(), in.streams[0].begin() + n);
  if (ground) {
    // The working set cold, then the stream warm: kc.compile and
    // kc.cache_probe both come from the replay.
    ipdb::kc::GlobalCompiledQueryCache().Clear();
  }
  CacheDelta cache;
  if (ground) {
    ReplayCounts cold;
    Replay(setup, in.working_set, &main.tracer, "serve.cold_request", &cold, &out.checks);
  }
  ReplayLayers(setup, prefix, &main, &out.checks);
  cache.SetShare(&main);

  // Probes for the layers this stream does not reach.
  if (ground) {
    const std::vector<Request> lifted =
        LiftedStream(in.hub, WholeRsOracle(in.hub), Seeds(args.seed).stream[0], kProbeQueries, 0);
    ReplayCounts counts;
    Replay(setup, lifted, &probe.tracer, "probe.request", &counts, &out.checks);
    SetReplayCounts(counts, &probe);
  }
  ChurnRun churn;
  if (!RunChurnTraced(in.hub, args.seed, ground ? kChurnTraced : kProbeCommits,
                      args.out_dir + "/tmp-" + std::to_string(getpid()), &probe, &churn,
                      &out.checks)) {
    out.checks.Record(false, "churn probe set-up failed");
  }
  out.checks.Add(churn.log.checks);

  FinishTraced(args, main, probe, &out);
  return out;
}

// ---------------------------------------------------------------- churn

Outcome RunChurnWorkload(const Args& args) {
  Outcome out;
  const Seeds seeds(args.seed);
  const HubData hub = MakeHub(kChurnHub, seeds.instance);
  HubData model = hub;
  const ChurnQueries q = PickChurnQueries(hub, seeds.queries);
  const std::vector<Commit> commits = ChurnStream(&model, q, seeds.commits, kChurnCommits);
  StreamHash hash;
  HashCommits(commits, &hash);
  for (double p : hub.r) hash.Add(p);
  for (double p : hub.s) hash.Add(p);
  out.stream_hash = hash.Hex();
  const auto facts = HubFacts(hub);
  const std::string dir = args.out_dir + "/tmp-" + std::to_string(getpid());

  std::vector<double> setup_s, build_s;
  ChurnSetup setup;
  auto set_up = [&]() {
    setup = ChurnSetup();
    ipdb::kc::GlobalCompiledQueryCache().Clear();
    const int64_t t0 = NowNs();
    double b = 0;
    if (!SetUpChurn(facts, q, dir, &setup, &b)) return false;
    setup_s.push_back((NowNs() - t0) * 1e-9);
    build_s.push_back(b);
    return true;
  };

  if (args.trace == 0) {
    // Set-ups alternate with equal slices of the stream: each slice
    // replays the stream from its first commit on a fresh store.
    ChurnLog log;
    int64_t disk = 0, live = 1;
    for (int seg = 0; seg < kChurnSetups; ++seg) {
      if (!set_up()) {
        out.checks.Record(false, "churn set-up failed");
        return out;
      }
      ChurnLog slice = RunChurn(&setup, commits, commits.size(),
                                NowNs() + static_cast<int64_t>(args.seconds * 1e9) / kChurnSetups,
                                nullptr, nullptr);
      if (slice.commits == static_cast<int64_t>(commits.size())) {
        std::fprintf(stderr, "churn stream exhausted before the deadline\n");
      }
      if (seg == kChurnSetups - 1) {
        (void)setup.store->Flush();
        disk = FileBytes(setup.manager->SnapshotPath(kChurnInstance)) +
               FileBytes(setup.manager->WalPath(kChurnInstance));
        live = setup.store->store().num_facts();
        int64_t replay_records = 0;
        Recover(&setup, kRecoverReps, &slice, nullptr, &replay_records);
      }
      Merge(slice, &log);
    }
    std::filesystem::remove_all(dir);
    out.checks.Add(log.checks);
    const std::vector<double> refresh = NsToMs(log.refresh_ns);
    const std::vector<double> recompile = NsToMs(log.recompile_ns);
    const std::vector<double> commit = NsToMs(log.commit_ns);
    out.metrics.Set("setup_s", Median(setup_s), "s");
    out.metrics.Set("query_p5_ms", Percentile(refresh, 0.05), "ms");
    out.metrics.Set("query_p99_ms", Percentile(refresh, 0.99), "ms");
    out.metrics.Set("heavy_query_p50_ms", Median(recompile), "ms");
    out.metrics.Set("correct_share", out.checks.Share(), "ratio");
    out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.detail.Set("commit_p50_ms", Median(commit), "ms");
    out.detail.Set("commit_p99_ms", Percentile(commit, 0.99), "ms");
    out.detail.Set("refresh_p50_ms", Median(refresh), "ms");
    out.detail.Set("recompile_p50_ms", Median(recompile), "ms");
    out.detail.Set("post_checkpoint_refresh_p50_ms",
                   Median(NsToMs(log.post_checkpoint_ns)), "ms");
    out.detail.Set("checkpoint_ms", Median(NsToMs(log.checkpoint_ns)), "ms");
    out.detail.Set("recover_ms", Median(NsToMs(log.recover_ns)), "ms");
    out.detail.Set("disk_bytes_per_fact", static_cast<double>(disk) / live, "bytes");
    out.detail.Set("commits", static_cast<double>(log.commits), "count");
    out.detail.Set("refresh_samples", static_cast<double>(refresh.size()), "count");
    out.detail.Set("p99_tail_samples", static_cast<double>(TailCount(refresh.size(), 0.99)),
                   "count");
    out.detail.Set("recompile_samples", static_cast<double>(recompile.size()), "count");
    return out;
  }

  for (int rep = 0; rep < kChurnSetups; ++rep) {
    if (!set_up()) {
      out.checks.Record(false, "churn set-up failed");
      return out;
    }
  }

  // Traced run: the fixed stream prefix with shadow layer calls, the
  // bare-store replay, and recovery.
  LayerSource main, probe;
  for (double b : build_s) {
    main.tracer.RecordRequest("storage.build", static_cast<int64_t>(b * 1e9));
  }
  main.values["storage.bytes_per_fact"] =
      static_cast<double>(setup.store->store().ApproxBytes()) / setup.store->store().num_facts();
  setup = ChurnSetup();
  ChurnRun run;
  if (!RunChurnTraced(hub, args.seed, kChurnTraced, dir, &main, &run, &out.checks)) {
    out.checks.Record(false, "churn set-up failed");
  }
  out.checks.Add(run.log.checks);

  // Probe for the server and logic layers: serve the stream's final
  // state through an Engine, and replay the same queries.
  ServeSetup serve;
  std::vector<double> create_s;
  const double whole = WholeRsOracle(model);
  std::vector<std::vector<Request>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(LiftedStream(model, whole, seeds.stream[c], kProbeQueries,
                                   c * kHeavyPeriod / kClients));
  }
  if (!StartEngine(&serve) ||
      !AddInstance(&serve, "hub", HubFacts(model), HubSchema(), &create_s) ||
      !ReplayViews(&serve)) {
    out.checks.Record(false, "server probe set-up failed");
    return out;
  }
  for (double s : create_s) {
    probe.tracer.RecordRequest("pdb.create", static_cast<int64_t>(s * 1e9));
  }
  const ServeLog log = RunClients(serve.engine.get(), streams,
                                  NowNs() + static_cast<int64_t>(args.seconds * 1e9) / 4);
  SetServerLayer(log, &probe);
  out.checks.Add(log.checks);
  ReplayLayers(serve, streams[0], &probe, &out.checks);

  FinishTraced(args, main, probe, &out);
  return out;
}

// ------------------------------------------------------ oracle self-test

/// Every oracle against pqe::QueryProbabilityBruteForce on instances of
/// at most 20 facts, over several seeds.
int OracleSelfTest() {
  int checked = 0, failed = 0;
  auto check = [&](const ipdb::pdb::TiPdbD& ti, const std::string& text, double want) {
    auto sentence = ipdb::logic::ParseSentence(text, ti.schema());
    auto got = sentence.ok() ? ipdb::pqe::QueryProbabilityBruteForce(ti, sentence.value())
                             : ipdb::StatusOr<double>(sentence.status());
    ++checked;
    if (!got.ok() || !RelClose(got.value(), want)) {
      ++failed;
      std::fprintf(stderr, "oracle mismatch: %s: oracle %.17g brute force %s\n", text.c_str(),
                   want, got.ok() ? std::to_string(got.value()).c_str() : "error");
    }
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // 3 hubs x <= 4 S facts with y < 4 (kSDomain 8 would exceed 20
    // facts, so the tiny instance keeps S inside T's domain).
    HubShape shape{3, 2, 0.2, 0.8};
    HubData hub = MakeHub(shape, seed);
    for (int x = 0; x < shape.hubs; ++x) {
      for (int y = 4; y < HubData::kSDomain; ++y) hub.S(x, y) = 0.0;
    }
    const auto ti = ipdb::pdb::TiPdbD::CreateOrDie(HubSchema(), HubFacts(hub));
    if (ti.num_facts() > 20) return 2;
    const std::vector<double> chain = MakeChain(12, seed);
    const auto chain_ti = ipdb::pdb::TiPdbD::CreateOrDie(ChainSchema(), ChainFacts(chain));
    for (const Request& r : GroundWorkingSet(hub, chain, seed, 2, 2)) {
      check(r.instance == "hub" ? ti : chain_ti, r.text, r.expected);
    }
    check(ti, kH0, H0Oracle(hub, 0, hub.r[0]));
    check(chain_ti, kPath, PathOracle(chain, -1, 0.0));
    check(ti, "exists x y. R(x) & S(x, y)", WholeRsOracle(hub));
    for (int c = 0; c < shape.hubs; ++c) {
      check(ti, "exists y. S(" + std::to_string(c) + ", y) & T(y)", EntityOracle(hub, c));
    }
    for (int c1 = 0; c1 < 4; ++c1) {
      for (int c2 = c1 + 1; c2 < 4; ++c2) {
        ChurnQueries q;
        q.c1 = c1;
        q.c2 = c2;
        check(ti, q.circuit_text(), SelfJoinOracle(hub, c1, c2));
      }
    }
  }
  std::printf("oracle self-test: %d checked, %d failed\n", checked, failed);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--oracle-selftest") {
      args->oracle_selftest = true;
    } else if (flag == "--stream-hash") {
      args->stream_hash = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v);
    } else if (flag == "--out-dir") {
      args->out_dir = v;
    } else if (flag == "--git-sha") {
      args->git_sha = v;
    } else if (flag == "--source-hash") {
      args->source_hash = v;
    } else {
      return false;
    }
  }
  return args->oracle_selftest || args->workload == "serve-ground" ||
         args->workload == "serve-lifted" || args->workload == "churn-durable";
}

std::string Stamp(const Args& args, const std::string& stream_hash) {
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"source_hash\": \"%s\", \"stream_hash\": \"%s\", "
      "\"engine_threads\": %d, \"clients\": %d, \"tenants\": {\"alpha\": \"%s\", "
      "\"beta\": \"%s\"}, \"flush_policy\": \"Flush after every commit (page cache), "
      "never Sync; Checkpoint every %d commits\"}}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace, std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE, JsonEscape(args.git_sha).c_str(),
      JsonEscape(args.source_hash).c_str(), stream_hash.c_str(), kEngineThreads, kClients,
      kTenantConfig, kTenantConfig, kCheckpointEvery);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench --workload serve-ground|serve-lifted|churn-durable "
                         "--seed N --seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  if (args.oracle_selftest) return OracleSelfTest();
  if (args.stream_hash) {
    std::string hash;
    if (args.workload == "churn-durable") {
      const Seeds seeds(args.seed);
      HubData model = MakeHub(kChurnHub, seeds.instance);
      const ChurnQueries q = PickChurnQueries(model, seeds.queries);
      StreamHash h;
      HashCommits(ChurnStream(&model, q, seeds.commits, kChurnCommits), &h);
      hash = h.Hex();
    } else {
      hash = MakeServeInputs(args.workload == "serve-ground", args.seed).hash;
    }
    std::printf("%s\n", hash.c_str());
    return 0;
  }
  std::filesystem::create_directories(args.out_dir);
  Outcome out = args.workload == "churn-durable" ? RunChurnWorkload(args) : RunServe(args);
  if (out.checks.failed > 0) {
    std::fprintf(stderr, "%lld of %lld answers wrong; first: %s\n",
                 static_cast<long long>(out.checks.failed),
                 static_cast<long long>(out.checks.attempted), out.checks.first_failure.c_str());
  }
  if (!out.trace_error.empty()) {
    std::fprintf(stderr, "span trees malformed: %s\n", out.trace_error.c_str());
  }
  const bool correct = out.checks.failed == 0 && out.trace_error.empty() &&
                       out.checks.attempted > 0;
  std::printf("%s\n", Stamp(args, out.stream_hash).c_str());
  std::printf("{\"detail\": %s, \"self_time\": %s}\n", out.detail.Json().c_str(),
              out.self_time_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(out.checks.attempted),
              static_cast<long long>(out.checks.failed), out.metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
