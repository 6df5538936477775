#include "pqe/wmc.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kc/cache.h"
#include "kc/evaluate.h"
#include "logic/evaluator.h"
#include "obs/obs.h"
#include "pqe/monte_carlo.h"
#include "pqe/safe_plan.h"
#include "util/check.h"
#include "util/fault.h"

namespace ipdb {
namespace pqe {

namespace {

/// Interned `quality` label values for the pqe.answers{quality=...}
/// counter family — one cell per answer grade, so dashboards see the
/// exact/interval/failed split without parsing counter names.
[[maybe_unused]] const obs::LabelId kQualityExact =
    obs::InternLabel("exact");
[[maybe_unused]] const obs::LabelId kQualityInterval =
    obs::InternLabel("interval");
[[maybe_unused]] const obs::LabelId kQualityFailed =
    obs::InternLabel("failed");

/// Mirrors a per-query WmcStats delta into the cumulative registry
/// counters, so every path through the solver feeds the same process-
/// wide tallies the public struct reports per call.
void MirrorWmcStats([[maybe_unused]] const WmcStats& delta) {
  IPDB_OBS_COUNT("pqe.wmc.shannon_expansions", delta.shannon_expansions);
  IPDB_OBS_COUNT("pqe.wmc.decompositions", delta.decompositions);
  IPDB_OBS_COUNT("pqe.wmc.cache_hits", delta.cache_hits);
}

class WmcSolver {
 public:
  WmcSolver(Lineage* lineage, const std::vector<double>& var_probs,
            WmcStats* stats, const WmcOptions& options)
      : lineage_(*lineage),
        var_probs_(var_probs),
        stats_(stats),
        options_(options),
        max_depth_(options.budget != nullptr
                       ? options.budget->max_recursion_depth
                       : 0),
        meter_(options.budget,
               options.budget != nullptr ? options.budget->max_circuit_nodes
                                         : 0,
               "pqe.wmc node") {}

  /// OK, or the budget error that aborted solving. Once set, every
  /// further Solve returns 0.0 and unwinds without doing real work.
  const Status& error() const { return error_; }

  double Solve(NodeId id) {
    if (!error_.ok()) return 0.0;
    // Dense cache indexed by NodeId (ids are small and contiguous);
    // kUnsolved is a sentinel outside [0, 1], the range of every result.
    if (static_cast<size_t>(id) < cache_.size() && cache_[id] != kUnsolved) {
      if (stats_ != nullptr) ++stats_->cache_hits;
      return cache_[id];
    }
    double result = SolveUncached(id);
    // Never cache a placeholder computed while unwinding an abort.
    if (!error_.ok()) return 0.0;
    if (static_cast<size_t>(id) >= cache_.size()) {
      // The lineage grows during solving (Restrict/MakeAnd create
      // nodes); size up to the current node count in one step.
      cache_.resize(static_cast<size_t>(lineage_.size()), kUnsolved);
    }
    cache_[id] = result;
    return result;
  }

 private:
  double SolveUncached(NodeId id) {
    Status charge = meter_.Charge();
    if (!charge.ok()) {
      error_ = std::move(charge);
      return 0.0;
    }
    switch (lineage_.kind(id)) {
      case NodeKind::kTrue:
        return 1.0;
      case NodeKind::kFalse:
        return 0.0;
      case NodeKind::kVar:
        return var_probs_[lineage_.variable(id)];
      case NodeKind::kNot:
        return 1.0 - Solve(lineage_.children(id)[0]);
      case NodeKind::kAnd:
      case NodeKind::kOr:
        return SolveGate(id);
    }
    return 0.0;
  }

  /// Groups the gate's children into connected components by shared
  /// variables; independent components multiply (for OR via the
  /// complement). Components with more than one child (or a single
  /// complex child shared across) are resolved by Shannon expansion.
  double SolveGate(NodeId id) {
    ++depth_;
    const double result = SolveGateImpl(id);
    --depth_;
    return result;
  }

  double SolveGateImpl(NodeId id) {
    if (max_depth_ > 0 && depth_ > max_depth_) {
      error_ = ResourceExhaustedError("pqe.wmc recursion depth cap of " +
                                      std::to_string(max_depth_) +
                                      " exceeded");
      return 0.0;
    }
    const bool is_and = lineage_.kind(id) == NodeKind::kAnd;
    const std::vector<NodeId>& children = lineage_.children(id);

    // Union-find over children via shared variables (skipped entirely
    // when decomposition is ablated: one big component).
    const int n = static_cast<int>(children.size());
    if (!options_.decompose) {
      return SolveConnected(children, is_and);
    }
    std::vector<int> parent(n);
    for (int i = 0; i < n; ++i) parent[i] = i;
    std::function<int(int)> find = [&](int x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    std::map<int, int> var_owner;
    for (int i = 0; i < n; ++i) {
      for (int v : lineage_.Support(children[i])) {
        auto [it, inserted] = var_owner.emplace(v, i);
        if (!inserted) parent[find(i)] = find(it->second);
      }
    }
    std::map<int, std::vector<NodeId>> components;
    for (int i = 0; i < n; ++i) {
      components[find(i)].push_back(children[i]);
    }
    if (stats_ != nullptr && components.size() > 1) {
      ++stats_->decompositions;
    }

    // P(AND) = Π P(component-AND); P(OR) = 1 − Π (1 − P(component-OR)).
    double product = 1.0;
    for (const auto& [root, members] : components) {
      double p;
      if (members.size() == 1) {
        p = Solve(members[0]);
      } else {
        p = SolveConnected(members, is_and);
      }
      product *= is_and ? p : (1.0 - p);
    }
    return is_and ? product : 1.0 - product;
  }

  /// A variable-connected set of children of one gate: Shannon expansion
  /// on the most frequently shared variable.
  double SolveConnected(const std::vector<NodeId>& members, bool is_and) {
    // Pick the variable occurring in the most members.
    std::map<int, int> frequency;
    for (NodeId m : members) {
      for (int v : lineage_.Support(m)) ++frequency[v];
    }
    int best_var = -1;
    int best_count = 0;
    for (const auto& [v, count] : frequency) {
      if (count > best_count) {
        best_var = v;
        best_count = count;
      }
    }
    IPDB_CHECK_GE(best_var, 0);
    if (stats_ != nullptr) ++stats_->shannon_expansions;

    double p = var_probs_[best_var];
    double total = 0.0;
    for (int value = 0; value <= 1; ++value) {
      double weight = value == 1 ? p : 1.0 - p;
      if (weight == 0.0) continue;
      std::vector<NodeId> restricted;
      restricted.reserve(members.size());
      for (NodeId m : members) {
        restricted.push_back(lineage_.Restrict(m, best_var, value == 1));
      }
      NodeId gate = is_and ? lineage_.MakeAnd(std::move(restricted))
                           : lineage_.MakeOr(std::move(restricted));
      total += weight * Solve(gate);
    }
    return total;
  }

  static constexpr double kUnsolved = -1.0;

  Lineage& lineage_;
  const std::vector<double>& var_probs_;
  WmcStats* stats_;
  WmcOptions options_;
  const int64_t max_depth_;
  BudgetMeter meter_;
  int64_t depth_ = 0;
  Status error_;
  std::vector<double> cache_;
};

}  // namespace

StatusOr<double> ComputeProbability(Lineage* lineage, NodeId root,
                                    const std::vector<double>& var_probs,
                                    WmcStats* stats,
                                    const WmcOptions& options) {
  if (lineage == nullptr) return InvalidArgumentError("null lineage");
  if (root < 0 || root >= lineage->size()) {
    return InvalidArgumentError("lineage root out of range");
  }
  const std::vector<int>& support = lineage->Support(root);
  if (!support.empty() &&
      static_cast<size_t>(support.back()) >= var_probs.size()) {
    return InvalidArgumentError(
        "variable probabilities missing: lineage mentions variable " +
        std::to_string(support.back()) + " but only " +
        std::to_string(var_probs.size()) + " probabilities were given");
  }
  Status valid = kc::ValidateProbabilities(var_probs);
  if (!valid.ok()) return valid;
  IPDB_FAULT_POINT("pqe.wmc.solve");
  IPDB_OBS_SPAN("pqe.wmc_solve", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.wmc_solve_ns");
  // Always collect stats locally so the registry sees the trace even
  // when the caller passed no stats struct.
  WmcStats local;
  WmcSolver solver(lineage, var_probs, &local, options);
  const double result = solver.Solve(root);
  if (!solver.error().ok()) {
    return IPDB_STATUS_FORWARD(solver.error()) << "WMC solve aborted";
  }
  if (stats != nullptr) {
    stats->shannon_expansions += local.shannon_expansions;
    stats->decompositions += local.decompositions;
    stats->cache_hits += local.cache_hits;
  }
  IPDB_OBS_COUNT("pqe.wmc.solves", 1);
  MirrorWmcStats(local);
  return result;
}

StatusOr<double> QueryProbability(const pdb::TiPdb<double>& ti,
                                  const logic::Formula& sentence,
                                  WmcStats* stats) {
  // The ungoverned entry point is the governed one with an unlimited
  // budget: the ladder's exact rung is the whole pipeline, no budget
  // checks fire (null budget short-circuits them), and every error
  // propagates as before.
  StatusOr<QueryAnswer> answer =
      QueryProbability(ti, sentence, QueryOptions{}, stats);
  if (!answer.ok()) return answer.status();
  return answer.value().probability;
}

StatusOr<QueryAnswer> QueryProbability(const pdb::TiPdb<double>& ti,
                                       const logic::Formula& sentence,
                                       const QueryOptions& options,
                                       WmcStats* stats) {
  // The span tree below is the serving pipeline's cost breakdown:
  // pqe.query = pqe.ground + pqe.cache_probe (kc.compile nests inside on
  // a miss) + pqe.evaluate, with only branch checks in between — a
  // trace therefore attributes essentially all query wall-clock to a
  // named phase (ci.sh gates the coverage at 95%).
  IPDB_OBS_SPAN("pqe.query", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.query_ns");
  IPDB_OBS_COUNT("pqe.queries", 1);
  const ExecutionBudget* budget =
      options.budget != nullptr && options.budget->unlimited()
          ? nullptr
          : options.budget;

  // Lifted rung: hierarchical self-join-free CQs are answered by the
  // safe-plan engine without grounding or compiling anything. Queries
  // outside the class (kFailedPrecondition from the plan compiler) fall
  // through to the circuit rung; a budget trip *during* evaluation skips
  // the circuit rung too (the same deadline governs it, and grounding
  // costs strictly more than the plan walk that just tripped) and goes
  // straight to the Monte Carlo fallback.
  Status exact_error;
  bool skip_exact = false;
  if (options.lifted) {
    IPDB_OBS_SPAN("pqe.lifted", "pqe");
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
    if (plan.ok()) {
      IPDB_OBS_COUNT("pqe.lifted.queries", 1);
      SafePlanStats plan_stats;
      LiftedOptions lifted_options;
      lifted_options.budget = budget;
      lifted_options.stats = &plan_stats;
      StatusOr<double> probability =
          plan.value().Evaluate(ti, lifted_options);
      if (probability.ok()) {
        // The lifted independence steps are decompositions in the
        // WmcStats vocabulary; no Shannon expansion ever happens here.
        const int64_t decompositions =
            plan_stats.independent_joins + plan_stats.independent_projects;
        if (stats != nullptr) stats->decompositions += decompositions;
        MirrorWmcStats(WmcStats{0, decompositions, 0, 0});
        IPDB_OBS_COUNT("pqe.lifted.answers", 1);
        IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityExact, 1);
        QueryAnswer answer;
        answer.probability = probability.value();
        answer.half_width = 0.0;
        answer.confidence = 1.0;
        answer.quality = AnswerQuality::kExact;
        answer.lifted = true;
        return answer;
      }
      if (!IsBudgetError(probability.status())) {
        return probability.status();
      }
      exact_error = probability.status();
      skip_exact = true;
    } else if (plan.status().code() == StatusCode::kFailedPrecondition) {
      IPDB_OBS_COUNT("pqe.lifted.rejected", 1);
    } else {
      return plan.status();
    }
  }

  Lineage lineage;
  NodeId root = -1;
  std::vector<double> probs;
  if (!skip_exact) {
    IPDB_OBS_SPAN("pqe.ground", "pqe");
    IPDB_FAULT_POINT("pqe.ground");
    StatusOr<NodeId> grounded =
        GroundSentence(ti, sentence, &lineage, budget);
    if (grounded.ok()) {
      root = grounded.value();
      if (const storage::TiStore* store = ti.store().get()) {
        probs.reserve(static_cast<size_t>(store->num_facts()));
        for (int64_t i = 0; i < store->num_facts(); ++i) {
          probs.push_back(store->ProbAt(i));
        }
      }
    } else if (IsBudgetError(grounded.status())) {
      // A grounding that outlives the budget (an unguarded quantifier
      // enumerating a large domain) degrades like a compile trip.
      exact_error = grounded.status();
      skip_exact = true;
    } else {
      return grounded.status();
    }
  }

  // Exact rung: compile (budget-governed) through the artifact cache,
  // then evaluate (deadline polled per circuit node). Budget errors fall
  // through to the degraded rung; everything else propagates.
  do {
    if (skip_exact) break;
    if (budget != nullptr) {
      exact_error = budget->CheckTime("pqe.query");
      if (!exact_error.ok()) break;
    }
    // Compile-once / evaluate-many: structurally identical lineages
    // (the same query re-asked, or isomorphic per-tuple lineages) share
    // one compiled artifact and pay only a circuit-linear evaluation.
    bool was_hit = false;
    std::shared_ptr<const kc::CompiledQuery> artifact;
    {
      IPDB_OBS_SPAN("pqe.cache_probe", "pqe");
      kc::CompileOptions compile_options;
      compile_options.budget = budget;
      StatusOr<std::shared_ptr<const kc::CompiledQuery>> compiled =
          kc::GlobalCompiledQueryCache().GetOrCompile(
              &lineage, root, &was_hit, compile_options);
      if (!compiled.ok()) {
        if (!IsBudgetError(compiled.status())) return compiled.status();
        exact_error = compiled.status();
        break;
      }
      artifact = std::move(compiled).value();
    }

    IPDB_OBS_SPAN("pqe.evaluate", "pqe");
    if (stats != nullptr) {
      // Replay the compilation trace (from the artifact on a hit) so the
      // counters describe the query's inference structure either way.
      stats->shannon_expansions += artifact->stats.decisions;
      stats->decompositions += artifact->stats.decompositions;
      stats->cache_hits += artifact->stats.cache_hits;
      if (was_hit) ++stats->artifact_cache_hits;
    }
    // The registry's cumulative view of the same replayed trace (the
    // artifact-cache hit itself is counted inside kc::CompiledQueryCache).
    MirrorWmcStats(WmcStats{artifact->stats.decisions,
                            artifact->stats.decompositions,
                            artifact->stats.cache_hits, 0});
    BudgetMeter meter(budget, 0, "pqe.evaluate");
    StatusOr<double> probability = kc::EvaluateCircuit<double>(
        artifact->circuit, artifact->root, probs,
        budget != nullptr ? &meter : nullptr);
    if (!probability.ok()) {
      if (!IsBudgetError(probability.status())) return probability.status();
      exact_error = probability.status();
      break;
    }
    QueryAnswer answer;
    answer.probability = probability.value();
    answer.half_width = 0.0;
    answer.confidence = 1.0;
    answer.quality = AnswerQuality::kExact;
    IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityExact, 1);
    return answer;
  } while (false);

  // Degraded rung: a certified Monte Carlo interval over the same
  // TI-PDB. A bounded answer now beats an exact answer never — the
  // fallback runs under the same budget (remaining deadline, sample
  // cap), so it degrades further to kFailed rather than overrunning.
  IPDB_OBS_COUNT("pqe.fallback.queries", 1);
  if (!options.fallback) {
    return IPDB_STATUS_FORWARD(exact_error)
           << "exact inference exceeded its budget and fallback is "
              "disabled";
  }
  IPDB_FAULT_POINT("pqe.query.fallback");
  IPDB_OBS_SPAN("pqe.fallback", "pqe");
  QueryAnswer answer;
  answer.exact_error = exact_error;
  pdb::SamplingOptions sampling;
  sampling.threads = options.fallback_threads;
  sampling.budget = budget;
  Pcg32 base_rng(options.fallback_seed);
  StatusOr<MonteCarloEstimate> estimate =
      EstimateQueryProbability(ti, sentence, options.fallback_samples,
                               base_rng, sampling,
                               options.fallback_confidence);
  if (!estimate.ok()) {
    if (!IsBudgetError(estimate.status())) return estimate.status();
    // Both rungs exhausted: report the failure as a value, with the
    // exact-path error attached, so the caller still learns what was
    // attempted (and pqe.fallback.failed counts it).
    IPDB_OBS_COUNT("pqe.fallback.failed", 1);
    IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityFailed, 1);
    answer.quality = AnswerQuality::kFailed;
    exact_error.Append("fallback: " + estimate.status().message());
    answer.exact_error = std::move(exact_error);
    return answer;
  }
  answer.probability = estimate.value().estimate;
  answer.half_width = estimate.value().half_width;
  answer.confidence = options.fallback_confidence;
  answer.quality = AnswerQuality::kInterval;
  answer.samples = estimate.value().samples;
  IPDB_OBS_COUNT("pqe.fallback.interval_answers", 1);
  IPDB_OBS_COUNT("pqe.fallback.samples", estimate.value().samples);
  IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityInterval, 1);
  return answer;
}

StatusOr<double> QueryProbabilityBruteForce(const pdb::TiPdb<double>& ti,
                                            const logic::Formula& sentence) {
  if (ti.num_facts() > 20) {
    return FailedPreconditionError("brute force limited to 20 facts");
  }
  if (!sentence.FreeVariables().empty()) {
    return InvalidArgumentError("brute force requires a sentence");
  }
  double total = 0.0;
  const uint64_t count = 1ULL << ti.num_facts();
  for (uint64_t mask = 0; mask < count; ++mask) {
    std::vector<rel::Fact> chosen;
    double probability = 1.0;
    for (int64_t i = 0; i < ti.num_facts(); ++i) {
      if ((mask >> i) & 1) {
        chosen.push_back(ti.facts()[i].first);
        probability *= ti.facts()[i].second;
      } else {
        probability *= 1.0 - ti.facts()[i].second;
      }
    }
    if (probability == 0.0) continue;
    rel::Instance world(std::move(chosen));
    StatusOr<bool> holds = logic::Evaluate(world, ti.schema(), sentence);
    if (!holds.ok()) return holds.status();
    if (holds.value()) total += probability;
  }
  return total;
}

}  // namespace pqe
}  // namespace ipdb
