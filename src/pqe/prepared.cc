#include "pqe/prepared.h"

#include <utility>

#include "kc/cache.h"
#include "kc/evaluate.h"
#include "obs/obs.h"

namespace ipdb {
namespace pqe {

StatusOr<PreparedQuery> PreparedQuery::Prepare(
    std::shared_ptr<const storage::TiStore> store, logic::Formula sentence,
    const Options& options) {
  if (store == nullptr) return InvalidArgumentError("null store");
  PreparedQuery prepared;
  prepared.store_ = std::move(store);
  prepared.sentence_ = std::move(sentence);
  prepared.options_ = options;

  if (options.allow_lifted) {
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(prepared.sentence_);
    if (plan.ok()) {
      prepared.plan_ =
          std::make_unique<LiftedPlan>(std::move(plan).value());
      // Evaluate once so schema mismatches surface at Prepare time.
      LiftedOptions lifted_options;
      lifted_options.budget = options.budget;
      StatusOr<double> probability =
          prepared.plan_->Evaluate(*prepared.store_, lifted_options);
      if (!probability.ok()) return probability.status();
      return prepared;
    }
    // Outside the safe-plan class: fall through to the circuit
    // pipeline. Anything but the class rejection is a real error.
    if (plan.status().code() != StatusCode::kFailedPrecondition) {
      return plan.status();
    }
  }

  // Structural mutations on this store must reach the global artifact
  // cache; installing the evictor is idempotent.
  prepared.store_->SetArtifactEvictor([](uint64_t hi, uint64_t lo) {
    kc::GlobalCompiledQueryCache().EraseFingerprint(hi, lo);
  });
  Status cold = prepared.Rebuild();
  if (!cold.ok()) return cold;
  return prepared;
}

Status PreparedQuery::Rebuild() {
  IPDB_OBS_SPAN("pqe.prepared.rebuild", "pqe");
  lineage_ = std::make_unique<Lineage>();
  StatusOr<NodeId> root =
      GroundSentence(*store_, sentence_, lineage_.get(), options_.budget);
  if (!root.ok()) return root.status();

  kc::CompileOptions compile_options;
  compile_options.budget = options_.budget;
  StatusOr<std::shared_ptr<const kc::CompiledQuery>> compiled =
      kc::GlobalCompiledQueryCache().GetOrCompile(
          lineage_.get(), root.value(), nullptr, compile_options);
  if (!compiled.ok()) return compiled.status();
  artifact_ = std::move(compiled).value();
  fingerprint_ = kc::LineageFingerprint(*lineage_, root.value());
  store_->RegisterDependentArtifact(fingerprint_.first, fingerprint_.second);

  // Snapshot the generations *before* reading the columns: a mutation
  // racing this read makes the next Query() refresh again rather than
  // serve a stale answer.
  structure_generation_ = store_->structure_generation();
  probability_generation_ = store_->probability_generation();
  return Refresh();
}

Status PreparedQuery::Refresh() {
  const int64_t n = store_->num_facts();
  probs_.clear();
  probs_.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) probs_.push_back(store_->ProbAt(i));
  BudgetMeter meter(options_.budget, 0, "pqe.prepared");
  StatusOr<double> probability = kc::EvaluateCircuit<double>(
      artifact_->circuit, artifact_->root, probs_,
      options_.budget != nullptr ? &meter : nullptr);
  if (!probability.ok()) return probability.status();
  answer_ = probability.value();
  return Status::Ok();
}

StatusOr<double> PreparedQuery::Query() {
  if (plan_ != nullptr) {
    // Safe-plan mode is lock-free: the plan is immutable after Prepare
    // and Evaluate keeps no state on the handle, so concurrent callers
    // scan the store's columns independently.
    LiftedOptions lifted_options;
    lifted_options.budget = options_.budget;
    return plan_->Evaluate(*store_, lifted_options);
  }
  // Circuit mode mutates the memoized answer/marginals on refresh, so
  // concurrent callers serialize; whoever wins the lock performs the
  // refresh and the rest see the already-current answer.
  std::lock_guard<std::mutex> lock(*mu_);
  const uint64_t structure = store_->structure_generation();
  if (structure != structure_generation_) {
    Status cold = Rebuild();
    if (!cold.ok()) return cold;
    ++recompiles_;
    IPDB_OBS_COUNT("pqe.prepared.recompiles", 1);
    return answer_;
  }
  const uint64_t probability = store_->probability_generation();
  if (probability != probability_generation_) {
    probability_generation_ = probability;
    Status refreshed = Refresh();
    if (!refreshed.ok()) return refreshed;
    ++incremental_refreshes_;
    IPDB_OBS_COUNT("pqe.prepared.incremental_refreshes", 1);
    return answer_;
  }
  IPDB_OBS_COUNT("pqe.prepared.memoized_answers", 1);
  return answer_;
}

}  // namespace pqe
}  // namespace ipdb
