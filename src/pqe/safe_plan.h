#ifndef IPDB_PQE_SAFE_PLAN_H_
#define IPDB_PQE_SAFE_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logic/formula.h"
#include "pdb/ti_pdb.h"
#include "relational/value.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/interval.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// Lifted inference for tuple-independent PDBs: the safe-plan engine
/// for *hierarchical, self-join-free* boolean conjunctive queries
/// (Dalvi & Suciu [17], the PTIME side of the PQE dichotomy — the
/// algorithmic payoff of the representations this library studies).
///
/// A boolean CQ q = ∃x̄ (a₁ ∧ … ∧ a_m) with pairwise distinct relation
/// symbols is *hierarchical* iff for any two variables x, y the atom
/// sets at(x), at(y) are nested or disjoint. Hierarchical self-join-free
/// CQs evaluate in polynomial time by alternating
///
///   independent join    P(q₁ ∧ q₂) = P(q₁) P(q₂)        (no shared vars)
///   independent project P(∃x q) = 1 − Π_a (1 − P(q[x:=a]))
///
/// where the projected variable is a *root* variable (occurring in every
/// atom of its connected component). Non-hierarchical queries are
/// rejected with kFailedPrecondition (they are #P-hard; use wmc.h).
///
/// The engine is compile-once / evaluate-many: `LiftedPlan::Compile`
/// derives an extensional plan IR (independent-project /
/// independent-join / ground-lookup nodes) from the hierarchy witness,
/// and every `Evaluate*` entry point runs it through one columnar body
/// over the instance's storage::TiStore: per-atom row tables come from
/// storage::BoundRowScan (the grounder's bound-position scan, so query
/// constants narrow the read to a prefix range of the sorted run) and
/// project buckets key on dictionary ids — no re-parse, no rel::Fact or
/// rel::Value on the hot path. Like kc::EvaluateCircuit, evaluation is
/// generic over the value semiring: `double` (numerically stable
/// complement products via log1p/expm1), exact `math::Rational`, and
/// certified `Interval` enclosures.
/// `QueryProbability(QueryOptions)` in wmc.h uses the plan as the first
/// rung of its degradation ladder (lifted → compile → Monte Carlo).

/// A parsed self-join-free CQ: the existential variables and atoms of a
/// boolean CQ sentence. Quantified variables are alpha-renamed apart, so
/// ∃x R(x) ∧ ∃x S(x) yields two distinct variables (the two scopes are
/// independent; conflating them by name would wrongly compute
/// P(∃x (R(x) ∧ S(x)))). `variables` lists each quantifier exactly once
/// under its possibly-freshened name.
struct ParsedCq {
  std::vector<logic::Formula> atoms;  // kAtom formulas
  std::vector<std::string> variables;
};

/// Extracts atoms from a boolean CQ sentence (∃-prefixed conjunction of
/// relational atoms; quantifiers may nest inside the conjunction).
/// Shadowed quantified variables are alpha-renamed apart. Fails if the
/// sentence is not of that shape, uses equality atoms, or repeats a
/// relation symbol (self-join).
StatusOr<ParsedCq> ParseSelfJoinFreeCq(const logic::Formula& sentence);

/// Decides the hierarchy property for a parsed CQ.
bool IsHierarchical(const ParsedCq& query);

/// Execution counters for the safe plan. For a compiled LiftedPlan the
/// join/project counters describe the *plan shape* (nodes in the IR) and
/// ground_lookups the lookups actually performed during evaluation.
struct SafePlanStats {
  int64_t independent_joins = 0;
  int64_t independent_projects = 0;
  int64_t ground_lookups = 0;
};

/// The extensional plan operators of the safe plan IR.
enum class PlanOp {
  /// Children range over variable-disjoint subqueries: multiply.
  kIndependentJoin,
  /// 1 − Π over the candidate values of a root variable of the
  /// complement of the child's probability.
  kIndependentProject,
  /// The marginal of one fully-ground atom (0 for a missing fact).
  kGroundLookup,
};

/// One node of the compiled plan. Nodes live in LiftedPlan::nodes() and
/// reference each other by index; the IR is a tree rooted at root().
struct PlanNode {
  PlanOp op = PlanOp::kGroundLookup;
  /// kIndependentProject: the projected variable (index into
  /// LiftedPlan::variables()); -1 otherwise.
  int project_var = -1;
  /// kGroundLookup: the atom looked up (index into atoms()); -1 otherwise.
  int atom = -1;
  /// Child node indexes (kIndependentJoin: one per component;
  /// kIndependentProject: exactly one).
  std::vector<int> children;
};

/// Evaluation knobs for LiftedPlan::Evaluate.
struct LiftedOptions {
  /// Null = unlimited. The deadline/cancel token is polled amortized per
  /// plan step; max_recursion_depth bounds the plan's project-nesting
  /// depth (checked once up front — the plan depth is static).
  const ExecutionBudget* budget = nullptr;
  /// Optional execution counters (plan shape + ground lookups).
  SafePlanStats* stats = nullptr;
};

/// A compiled safe plan for one hierarchical self-join-free boolean CQ.
/// Compilation is data-independent; one plan serves any TI-PDB whose
/// schema covers the query's relations. Evaluation over n facts costs
/// O(n log n) per query (bucketing facts by the projected variable's
/// value at every project node), versus the worst-case exponential
/// ground-then-compile path.
class LiftedPlan {
 public:
  /// Derives the plan from the hierarchy witness of `sentence`. Fails
  /// with kFailedPrecondition when the sentence is not a hierarchical
  /// self-join-free boolean CQ (not a CQ shape, self-join, or no root
  /// variable in some connected subquery).
  static StatusOr<LiftedPlan> Compile(const logic::Formula& sentence);

  /// Pr_{I~ti}(I ⊨ q) in the P-semiring, evaluated on `ti.store()`:
  /// double reads the probability column (as Evaluate(TiStore)), exact
  /// math::Rational the exact side table (as EvaluateExact). Fails with
  /// kInvalidArgument when the TI's schema does not cover the query (a
  /// default-constructed TiPdb, which has no store, covers none) and
  /// with the budget's error when `options.budget` trips.
  template <typename P>
  StatusOr<P> Evaluate(const pdb::TiPdb<P>& ti,
                       const LiftedOptions& options = {}) const;

  /// Columnar evaluation: scans the store's per-relation column tables
  /// directly — row tables hold (row index, marginal) pairs, query
  /// constants resolve to dictionary ids once per call, and project
  /// buckets key on `uint32_t` ids.
  StatusOr<double> Evaluate(const storage::TiStore& store,
                            const LiftedOptions& options = {}) const;

  /// Exact columnar evaluation from the store's exact side table. Fails
  /// with kFailedPrecondition unless every fact of every queried
  /// relation carries an exact marginal.
  StatusOr<math::Rational> EvaluateExact(
      const storage::TiStore& store, const LiftedOptions& options = {}) const;

  /// Certified enclosure of the query probability from point-interval
  /// marginals: every product and complement of the plan is widened
  /// outward by one ulp, so the interval contains the exact probability
  /// of the stored double marginals.
  StatusOr<Interval> EvaluateInterval(const pdb::TiPdb<double>& ti,
                                      const LiftedOptions& options = {}) const;

  const std::vector<logic::Formula>& atoms() const { return atoms_; }
  const std::vector<std::string>& variables() const { return variables_; }
  const std::vector<PlanNode>& nodes() const { return nodes_; }
  /// Root node index; -1 for the empty conjunction (probability 1).
  int root() const { return root_; }
  /// Maximum project-nesting depth of the plan.
  int depth() const { return depth_; }

  /// Human-readable plan, e.g.
  /// "project[x](join(lookup(R(x)), project[y](lookup(S(x, y)))))".
  std::string ToString(const rel::Schema& schema) const;

 private:
  LiftedPlan() = default;

  /// Recursive plan construction over a set of atoms (indexes into
  /// atoms_) with `bound` marking variables already projected by an
  /// enclosing node. Returns the node index, or kFailedPrecondition
  /// when a connected subquery has no root variable.
  StatusOr<int> Build(const std::vector<int>& atom_set,
                      std::vector<bool>* bound, int depth);

  /// The one evaluation body behind every entry point: T is the result
  /// semiring and `prob_at` reads a row's marginal as T from its column
  /// table.
  template <typename T, typename ProbAt>
  StatusOr<T> EvaluateStoreImpl(const storage::TiStore& store, ProbAt prob_at,
                                const LiftedOptions& options) const;

  std::string NodeToString(int node, const rel::Schema& schema) const;

  std::vector<logic::Formula> atoms_;
  std::vector<std::string> variables_;
  /// Per atom: the variable id at each argument position (-1 = constant).
  std::vector<std::vector<int>> term_vars_;
  /// Per atom: the constant at each position (meaningful where
  /// term_vars_ is -1; Null elsewhere).
  std::vector<std::vector<rel::Value>> term_consts_;
  /// Per atom: sorted distinct variable ids.
  std::vector<std::vector<int>> atom_vars_;
  /// relation id -> atom index (injective: the query is self-join-free).
  std::map<rel::RelationId, int> relation_atom_;
  std::vector<PlanNode> nodes_;
  /// Per node: the atom indexes in the node's scope (used by project
  /// nodes to bucket their component's fact tables).
  std::vector<std::vector<int>> node_atoms_;
  int root_ = -1;
  int depth_ = 0;
};

/// Evaluates Pr_{I~ti}(I ⊨ q) by a safe plan (compile + evaluate in
/// one call). Fails with kFailedPrecondition when the query is not a
/// hierarchical self-join-free CQ.
StatusOr<double> SafeQueryProbability(const pdb::TiPdb<double>& ti,
                                      const logic::Formula& sentence,
                                      SafePlanStats* stats = nullptr);

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_SAFE_PLAN_H_
