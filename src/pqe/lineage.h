#ifndef IPDB_PQE_LINEAGE_H_
#define IPDB_PQE_LINEAGE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/formula.h"
#include "pdb/ti_pdb.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// Probabilistic query evaluation (PQE) over TI-PDBs — the workhorse
/// problem that makes tuple-independence the representation of choice
/// (the paper's related-work context, [17, 51]). A boolean FO query φ
/// over a TI-PDB I grounds to a propositional *lineage*: a formula over
/// one boolean variable per fact such that I' ⊨ φ iff the assignment
/// "fact ∈ I'" satisfies the lineage. The query probability is then the
/// weighted model count of the lineage under the marginals (wmc.h).

using NodeId = int32_t;

enum class NodeKind : uint8_t { kTrue, kFalse, kVar, kNot, kAnd, kOr };

/// A hash-consed DAG of propositional formulas over integer variables.
/// Construction applies light simplification (constant folding,
/// flattening, duplicate removal, double-negation); identical structures
/// share a NodeId, so equality of ids is sound (not complete) for
/// logical equivalence.
class Lineage {
 public:
  Lineage();

  NodeId True() const { return kTrueId; }
  NodeId False() const { return kFalseId; }
  NodeId Var(int variable);
  NodeId MakeNot(NodeId operand);
  NodeId MakeAnd(std::vector<NodeId> operands);
  NodeId MakeOr(std::vector<NodeId> operands);

  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  int variable(NodeId id) const { return nodes_[id].variable; }
  const std::vector<NodeId>& children(NodeId id) const {
    return nodes_[id].children;
  }

  /// Number of live nodes.
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Sorted list of variables occurring under `id` (memoized).
  const std::vector<int>& Support(NodeId id);

  /// Evaluates under a complete assignment (variable -> bool).
  bool Evaluate(NodeId id, const std::vector<bool>& assignment) const;

  /// The node obtained by fixing `variable` to `value` and simplifying.
  NodeId Restrict(NodeId id, int variable, bool value);

  std::string ToString(NodeId id) const;

  static constexpr NodeId kTrueId = 0;
  static constexpr NodeId kFalseId = 1;

 private:
  struct Node {
    NodeKind kind;
    int variable = -1;
    std::vector<NodeId> children;
  };

  NodeId Intern(Node node);
  uint64_t NodeHashKey(const Node& node) const;

  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, std::vector<NodeId>> intern_;
  std::vector<std::vector<int>> support_cache_;
  std::vector<bool> support_cached_;
};

/// Grounds a boolean FO sentence over the fact set of a finite TI-PDB.
/// Variable i of the lineage corresponds to `ti.facts()[i]`. Quantifiers
/// follow the infinite-universe semantics of logic/evaluator.h
/// (adom(T) ∪ consts(φ) ∪ fresh elements). Delegates to the columnar
/// overload below when the TI carries a store (always, except for
/// default-constructed TIs). `budget` (null = unlimited) governs the
/// columnar grounder: its deadline and cancel token are polled as
/// bindings are made, and a trip returns the budget error.
StatusOr<NodeId> GroundSentence(const pdb::TiPdb<double>& ti,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget = nullptr);

/// Columnar grounding. Variable i of the lineage is global fact i of the
/// store. An `exists x` whose body has an atom conjunct mentioning x
/// (looking through nested `exists`) binds x only to the dictionary ids
/// that atom's matching rows carry — a join over the relation's sorted
/// run, restricted by constants and outer bindings — instead of
/// enumerating the domain; values that miss the guard only ground to
/// false. `forall` and unguarded `exists` (a negated atom never guards)
/// enumerate the domain as GroundSentenceLegacy does. The lineage is therefore the
/// same formula the legacy grounder builds: node ids may differ (nodes
/// of dropped bindings are never interned), but kc::LineageFingerprint
/// is identical, and candidates are bound in rel::Value order so the
/// lineage is built in the order the enumeration builds it.
StatusOr<NodeId> GroundSentence(const storage::TiStore& store,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget = nullptr);

/// The pre-columnar path — builds an ordered fact-index map over
/// `ti.facts()` per call and enumerates the whole domain at every
/// quantifier. Kept as the test oracle and the benchmark baseline the
/// storage and grounding gates measure against; prefer GroundSentence.
StatusOr<NodeId> GroundSentenceLegacy(const pdb::TiPdb<double>& ti,
                                      const logic::Formula& sentence,
                                      Lineage* lineage);

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_LINEAGE_H_
