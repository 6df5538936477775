#include "pqe/safe_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "math/rational.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/fault.h"

namespace ipdb {
namespace pqe {

namespace {

using logic::Formula;
using logic::FormulaKind;
using logic::Term;

/// Variables occurring in an atom.
std::set<std::string> AtomVariables(const Formula& atom) {
  std::set<std::string> vars;
  for (const Term& t : atom.terms()) {
    if (t.is_var()) vars.insert(t.var());
  }
  return vars;
}

/// Every variable name mentioned anywhere in the formula (terms and
/// quantifiers), so alpha-renaming can pick names fresh with respect to
/// scopes not yet visited.
void AllVariableNames(const Formula& formula, std::set<std::string>* names) {
  for (const Term& t : formula.terms()) {
    if (t.is_var()) names->insert(t.var());
  }
  if (formula.kind() == FormulaKind::kExists ||
      formula.kind() == FormulaKind::kForall) {
    names->insert(formula.quantified_var());
  }
  for (const Formula& child : formula.children()) {
    AllVariableNames(child, names);
  }
}

/// Collects atoms from a ∃-prefixed conjunction tree, alpha-renaming
/// quantifiers apart: ∃x R(x) ∧ ∃x S(x) must not alias the two scopes
/// (conflating them by name would wrongly compute P(∃x (R(x) ∧ S(x)))),
/// so a re-used name gets a fresh variant before its body is visited.
/// `quantified` is the set of quantifier names already claimed, `names`
/// every name the fresh variants must avoid.
Status CollectAtoms(const Formula& formula, std::set<std::string>* quantified,
                    std::set<std::string>* names, ParsedCq* out) {
  switch (formula.kind()) {
    case FormulaKind::kAtom:
      out->atoms.push_back(formula);
      return Status::Ok();
    case FormulaKind::kTrue:
      return Status::Ok();
    case FormulaKind::kAnd:
      for (const Formula& child : formula.children()) {
        Status status = CollectAtoms(child, quantified, names, out);
        if (!status.ok()) return status;
      }
      return Status::Ok();
    case FormulaKind::kExists: {
      const std::string& name = formula.quantified_var();
      if (quantified->insert(name).second) {
        names->insert(name);
        out->variables.push_back(name);
        return CollectAtoms(formula.children()[0], quantified, names, out);
      }
      std::string fresh;
      for (int k = 1;; ++k) {
        fresh = name + "#" + std::to_string(k);
        if (names->insert(fresh).second) break;
      }
      quantified->insert(fresh);
      out->variables.push_back(fresh);
      // Substitute is capture-avoiding: a nested re-shadowing ∃name stops
      // the substitution, and that deeper scope is renamed on its own
      // visit below.
      Formula body =
          formula.children()[0].Substitute(name, Term::Var(fresh));
      return CollectAtoms(body, quantified, names, out);
    }
    default:
      return FailedPreconditionError(
          "not a pure conjunctive query (only ∃, ∧ and relational atoms "
          "are supported by the safe plan)");
  }
}

}  // namespace

StatusOr<ParsedCq> ParseSelfJoinFreeCq(const logic::Formula& sentence) {
  if (!sentence.FreeVariables().empty()) {
    return FailedPreconditionError("safe plans evaluate boolean queries");
  }
  ParsedCq parsed;
  std::set<std::string> quantified;
  std::set<std::string> names;
  AllVariableNames(sentence, &names);
  Status status = CollectAtoms(sentence, &quantified, &names, &parsed);
  if (!status.ok()) return status;
  std::set<rel::RelationId> relations;
  for (const Formula& atom : parsed.atoms) {
    if (!relations.insert(atom.relation()).second) {
      return FailedPreconditionError(
          "self-join detected (relation repeated); the dichotomy's safe "
          "plans require self-join-free queries");
    }
  }
  return parsed;
}

bool IsHierarchical(const ParsedCq& query) {
  // at(x) for every variable, as sets of atom indices.
  std::map<std::string, std::set<size_t>> at;
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    for (const std::string& v : AtomVariables(query.atoms[i])) {
      at[v].insert(i);
    }
  }
  for (const auto& [x, ax] : at) {
    for (const auto& [y, ay] : at) {
      std::set<size_t> common;
      std::set_intersection(ax.begin(), ax.end(), ay.begin(), ay.end(),
                            std::inserter(common, common.begin()));
      if (common.empty()) continue;
      bool x_in_y = std::includes(ay.begin(), ay.end(), ax.begin(),
                                  ax.end());
      bool y_in_x = std::includes(ax.begin(), ax.end(), ay.begin(),
                                  ay.end());
      if (!x_in_y && !y_in_x) return false;
    }
  }
  return true;
}

namespace {

/// Per-semiring arithmetic of the plan evaluator. Joins need the
/// product; projects need Π(1 − pᵢ), which each semiring accumulates its
/// own way — the double specialization avoids the catastrophic
/// cancellation of the naive running complement product.
template <typename T>
struct LiftedSemiring;

template <>
struct LiftedSemiring<double> {
  static double Zero() { return 0.0; }
  static double One() { return 1.0; }
  static double Mul(double a, double b) { return a * b; }
  /// Accumulates Π(1 − pᵢ) as exp(Σ log1p(−pᵢ)) and returns
  /// 1 − Π via expm1, so many small marginals keep their full relative
  /// precision instead of vanishing against a running product ≈ 1.
  class ComplementProduct {
   public:
    void MulComplement(double p) {
      if (p >= 1.0) {
        certain_ = true;
        return;
      }
      log_none_ += std::log1p(-p);
    }
    double Result() const { return certain_ ? 1.0 : -std::expm1(log_none_); }

   private:
    double log_none_ = 0.0;
    bool certain_ = false;
  };
};

template <>
struct LiftedSemiring<math::Rational> {
  static math::Rational Zero() { return math::Rational(); }
  static math::Rational One() { return math::Rational(1); }
  static math::Rational Mul(const math::Rational& a, const math::Rational& b) {
    return a * b;
  }
  class ComplementProduct {
   public:
    void MulComplement(const math::Rational& p) {
      none_ *= math::Rational(1) - p;
    }
    math::Rational Result() const { return math::Rational(1) - none_; }

   private:
    math::Rational none_ = math::Rational(1);
  };
};

/// Interval arithmetic does not round outward (util/interval.h), so each
/// product and difference here is widened by one ulp per side: under
/// round-to-nearest every operation errs by at most half an ulp, and the
/// result encloses the exact value for the given marginals.
template <>
struct LiftedSemiring<Interval> {
  static Interval Zero() { return Interval::Point(0.0); }
  static Interval One() { return Interval::Point(1.0); }
  static Interval Outward(const Interval& x) {
    return Interval(std::nextafter(x.lo(), -Interval::kInfinity),
                    std::nextafter(x.hi(), Interval::kInfinity));
  }
  static Interval Mul(const Interval& a, const Interval& b) {
    return Outward(a * b);
  }
  class ComplementProduct {
   public:
    void MulComplement(const Interval& p) {
      none_ = Mul(none_, Outward(Interval::Point(1.0) - p));
    }
    Interval Result() const {
      return Outward(Interval::Point(1.0) - none_);
    }

   private:
    Interval none_ = Interval::Point(1.0);
  };
};

}  // namespace

StatusOr<LiftedPlan> LiftedPlan::Compile(const logic::Formula& sentence) {
  StatusOr<ParsedCq> parsed = ParseSelfJoinFreeCq(sentence);
  if (!parsed.ok()) return parsed.status();
  LiftedPlan plan;
  plan.atoms_ = std::move(parsed.value().atoms);

  // Variable ids in quantifier order (alpha-renaming made them unique).
  std::map<std::string, int> var_id;
  for (const std::string& v : parsed.value().variables) {
    if (var_id.emplace(v, static_cast<int>(plan.variables_.size())).second) {
      plan.variables_.push_back(v);
    }
  }

  const size_t m = plan.atoms_.size();
  plan.term_vars_.resize(m);
  plan.term_consts_.resize(m);
  plan.atom_vars_.resize(m);
  for (size_t a = 0; a < m; ++a) {
    const Formula& atom = plan.atoms_[a];
    for (const Term& t : atom.terms()) {
      if (t.is_var()) {
        auto it = var_id.find(t.var());
        // The sentence is closed, so every term variable is quantified.
        IPDB_CHECK(it != var_id.end()) << "unquantified variable " << t.var();
        plan.term_vars_[a].push_back(it->second);
        plan.term_consts_[a].push_back(rel::Value::Null());
      } else {
        plan.term_vars_[a].push_back(-1);
        plan.term_consts_[a].push_back(t.value());
      }
    }
    std::vector<int>& vars = plan.atom_vars_[a];
    for (int v : plan.term_vars_[a]) {
      if (v >= 0) vars.push_back(v);
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    plan.relation_atom_[atom.relation()] = static_cast<int>(a);
  }

  if (m > 0) {
    std::vector<int> all(m);
    std::iota(all.begin(), all.end(), 0);
    std::vector<bool> bound(plan.variables_.size(), false);
    StatusOr<int> root = plan.Build(all, &bound, 0);
    if (!root.ok()) return root.status();
    plan.root_ = root.value();
  }
  return plan;
}

StatusOr<int> LiftedPlan::Build(const std::vector<int>& atom_set,
                                std::vector<bool>* bound, int depth) {
  // Connected components over shared *unbound* variables.
  const int n = static_cast<int>(atom_set.size());
  std::vector<int> comp(n, -1);
  int num_comp = 0;
  for (int i = 0; i < n; ++i) {
    if (comp[i] != -1) continue;
    comp[i] = num_comp;
    std::vector<int> queue = {i};
    while (!queue.empty()) {
      const int a = queue.back();
      queue.pop_back();
      const std::vector<int>& va = atom_vars_[atom_set[a]];
      for (int j = 0; j < n; ++j) {
        if (comp[j] != -1) continue;
        const std::vector<int>& vj = atom_vars_[atom_set[j]];
        bool shares = false;
        for (int v : va) {
          if ((*bound)[v]) continue;
          if (std::binary_search(vj.begin(), vj.end(), v)) {
            shares = true;
            break;
          }
        }
        if (shares) {
          comp[j] = num_comp;
          queue.push_back(j);
        }
      }
    }
    ++num_comp;
  }

  if (num_comp > 1) {
    PlanNode node;
    node.op = PlanOp::kIndependentJoin;
    for (int c = 0; c < num_comp; ++c) {
      std::vector<int> group;
      for (int i = 0; i < n; ++i) {
        if (comp[i] == c) group.push_back(atom_set[i]);
      }
      StatusOr<int> child = Build(group, bound, depth);
      if (!child.ok()) return child.status();
      node.children.push_back(child.value());
    }
    nodes_.push_back(std::move(node));
    node_atoms_.push_back(atom_set);
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Single connected component: ground atom, or independent project.
  bool has_unbound = false;
  for (int i = 0; i < n && !has_unbound; ++i) {
    for (int v : atom_vars_[atom_set[i]]) {
      if (!(*bound)[v]) {
        has_unbound = true;
        break;
      }
    }
  }
  if (!has_unbound) {
    // Atoms without shared unbound variables are singleton components.
    IPDB_CHECK_EQ(n, 1);
    PlanNode node;
    node.op = PlanOp::kGroundLookup;
    node.atom = atom_set[0];
    nodes_.push_back(std::move(node));
    node_atoms_.push_back(atom_set);
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Root variable: an unbound variable occurring in EVERY atom of the
  // component. Its absence is the hierarchy witness's failure.
  int root_var = -1;
  for (int v : atom_vars_[atom_set[0]]) {
    if ((*bound)[v]) continue;
    bool in_all = true;
    for (int i = 1; i < n && in_all; ++i) {
      const std::vector<int>& vi = atom_vars_[atom_set[i]];
      in_all = std::binary_search(vi.begin(), vi.end(), v);
    }
    if (in_all) {
      root_var = v;
      break;
    }
  }
  if (root_var == -1) {
    return FailedPreconditionError(
        "no root variable in a connected subquery — the query is not "
        "hierarchical (#P-hard; use wmc.h)");
  }
  (*bound)[root_var] = true;
  StatusOr<int> child = Build(atom_set, bound, depth + 1);
  (*bound)[root_var] = false;
  if (!child.ok()) return child.status();
  depth_ = std::max(depth_, depth + 1);
  PlanNode node;
  node.op = PlanOp::kIndependentProject;
  node.project_var = root_var;
  node.children.push_back(child.value());
  nodes_.push_back(std::move(node));
  node_atoms_.push_back(atom_set);
  return static_cast<int>(nodes_.size()) - 1;
}

template <typename T, typename ProbAt>
StatusOr<T> LiftedPlan::EvaluateStoreImpl(const storage::TiStore& store,
                                          ProbAt prob_at,
                                          const LiftedOptions& options) const {
  const rel::Schema& schema = store.schema();
  for (const Formula& atom : atoms_) {
    if (!schema.has_relation(atom.relation()) ||
        schema.arity(atom.relation()) !=
            static_cast<int>(atom.terms().size())) {
      return InvalidArgumentError("query does not match the TI schema");
    }
  }
  IPDB_FAULT_POINT("pqe.lifted.evaluate");
  IPDB_OBS_SPAN("pqe.lifted_eval", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.lifted.eval_ns");
  const ExecutionBudget* budget =
      options.budget != nullptr && options.budget->unlimited()
          ? nullptr
          : options.budget;
  if (budget != nullptr) {
    Status now = budget->CheckTime("pqe.lifted");
    if (!now.ok()) return now;
    // The plan's project-nesting depth is static: check it once here
    // instead of per recursion step.
    if (budget->max_recursion_depth > 0 &&
        depth_ > budget->max_recursion_depth) {
      return ResourceExhaustedError(
          "pqe.lifted plan depth " + std::to_string(depth_) +
          " exceeds the recursion cap of " +
          std::to_string(budget->max_recursion_depth));
    }
  }

  // Plan-shape counters; ground lookups are counted during the walk.
  SafePlanStats local;
  for (const PlanNode& node : nodes_) {
    if (node.op == PlanOp::kIndependentJoin) ++local.independent_joins;
    if (node.op == PlanOp::kIndependentProject) ++local.independent_projects;
  }

  struct Row {
    uint32_t row;
    T prob;
  };
  // Per-atom row tables straight off the columns. Query constants
  // resolve to dictionary ids once per call (a miss means the value
  // occurs nowhere in the store, so the atom's table is empty) and bind
  // their positions in the shared row scan: a constant-led atom such as
  // S(c, y) reads only c's prefix range of the sorted run. Self-join
  // freedom means each table is read by one atom.
  std::vector<std::vector<Row>> tables(atoms_.size());
  std::vector<const storage::ColumnTable*> atom_table(atoms_.size(), nullptr);
  BudgetMeter meter(budget, 0, "pqe.lifted");
  if (root_ >= 0) {
    for (const auto& [relation, a] : relation_atom_) {
      const storage::ColumnTable& table = store.table(relation);
      atom_table[a] = &table;
      const std::vector<int>& vars = term_vars_[a];
      std::vector<bool> bound(vars.size(), false);
      std::vector<uint32_t> key(vars.size(), 0);
      bool possible = true;
      for (size_t pos = 0; pos < vars.size() && possible; ++pos) {
        if (vars[pos] >= 0) continue;
        bound[pos] = true;
        key[pos] = store.dictionary().Find(term_consts_[a][pos]);
        possible = key[pos] != storage::Dictionary::kNotFound;
      }
      if (!possible) continue;
      const storage::BoundRowScan scan(table, bound, key.data());
      Status charge = meter.Charge(scan.span() + 1);
      if (!charge.ok()) return charge;
      scan.ForEach([&](int64_t r) {
        tables[a].push_back(Row{static_cast<uint32_t>(r), prob_at(table, r)});
      });
    }
  }

  // The recursive plan walk. A local struct so the recursion can carry
  // the sticky budget error without threading StatusOr through every
  // semiring operation (the WmcSolver pattern).
  struct Evaluator {
    const LiftedPlan& plan;
    std::vector<std::vector<Row>>& tables;
    const std::vector<const storage::ColumnTable*>& atom_table;
    BudgetMeter& meter;
    SafePlanStats& stats;
    Status error;

    T Eval(int id) {
      if (!error.ok()) return LiftedSemiring<T>::Zero();
      Status charge = meter.Charge();
      if (!charge.ok()) {
        error = std::move(charge);
        return LiftedSemiring<T>::Zero();
      }
      const PlanNode& node = plan.nodes_[id];
      switch (node.op) {
        case PlanOp::kGroundLookup: {
          ++stats.ground_lookups;
          // The table narrowed to the enclosing projects' candidate and
          // the atom's constants: at most one (distinct) fact remains.
          const std::vector<Row>& rows = tables[node.atom];
          return rows.empty() ? LiftedSemiring<T>::Zero()
                              : rows.front().prob;
        }
        case PlanOp::kIndependentJoin: {
          T product = LiftedSemiring<T>::One();
          for (int child : node.children) {
            product = LiftedSemiring<T>::Mul(product, Eval(child));
            if (!error.ok()) return LiftedSemiring<T>::Zero();
          }
          return product;
        }
        case PlanOp::kIndependentProject:
          return EvalProject(id, node);
      }
      return LiftedSemiring<T>::Zero();
    }

    T EvalProject(int id, const PlanNode& node) {
      const std::vector<int>& scope = plan.node_atoms_[id];
      const int var = node.project_var;
      // Bucket by the projected variable's dictionary id. Interning is
      // injective, so id equality is value equality; candidates iterate
      // in id order (deterministic, though not Value order — exact
      // results are order-independent and double products commute up to
      // rounding).
      std::vector<std::map<uint32_t, std::vector<Row>>> buckets(scope.size());
      for (size_t k = 0; k < scope.size(); ++k) {
        std::vector<Row>& rows = tables[scope[k]];
        Status charge = meter.Charge(static_cast<int64_t>(rows.size()) + 1);
        if (!charge.ok()) {
          error = std::move(charge);
          return LiftedSemiring<T>::Zero();
        }
        const std::vector<int>& vars = plan.term_vars_[scope[k]];
        const storage::ColumnTable& table = *atom_table[scope[k]];
        size_t first_pos = 0;
        while (vars[first_pos] != var) ++first_pos;  // root var: occurs
        for (Row& row : rows) {
          const uint32_t value =
              table.id(static_cast<int>(first_pos), row.row);
          bool consistent = true;
          for (size_t pos = first_pos + 1; pos < vars.size(); ++pos) {
            if (vars[pos] == var &&
                table.id(static_cast<int>(pos), row.row) != value) {
              consistent = false;
              break;
            }
          }
          if (consistent) buckets[k][value].push_back(std::move(row));
        }
      }
      size_t guard = 0;
      for (size_t k = 1; k < scope.size(); ++k) {
        if (buckets[k].size() < buckets[guard].size()) guard = k;
      }
      typename LiftedSemiring<T>::ComplementProduct complement;
      for (auto& [value, guard_rows] : buckets[guard]) {
        bool everywhere = true;
        for (size_t k = 0; k < scope.size() && everywhere; ++k) {
          if (k != guard) everywhere = buckets[k].count(value) > 0;
        }
        if (!everywhere) continue;
        for (size_t k = 0; k < scope.size(); ++k) {
          tables[scope[k]] = std::move(buckets[k][value]);
        }
        T p = Eval(node.children[0]);
        if (!error.ok()) return LiftedSemiring<T>::Zero();
        complement.MulComplement(p);
      }
      return complement.Result();
    }
  };

  T result = LiftedSemiring<T>::One();
  if (root_ >= 0) {
    Evaluator evaluator{*this, tables, atom_table, meter, local,
                        Status::Ok()};
    result = evaluator.Eval(root_);
    if (!evaluator.error.ok()) {
      return IPDB_STATUS_FORWARD(evaluator.error)
             << "lifted evaluation aborted";
    }
  }

  IPDB_OBS_COUNT("pqe.lifted.evaluations", 1);
  IPDB_OBS_COUNT("pqe.lifted.independent_joins", local.independent_joins);
  IPDB_OBS_COUNT("pqe.lifted.independent_projects",
                 local.independent_projects);
  IPDB_OBS_COUNT("pqe.lifted.ground_lookups", local.ground_lookups);
  if (options.stats != nullptr) {
    options.stats->independent_joins += local.independent_joins;
    options.stats->independent_projects += local.independent_projects;
    options.stats->ground_lookups += local.ground_lookups;
  }
  return result;
}

StatusOr<double> LiftedPlan::Evaluate(const storage::TiStore& store,
                                      const LiftedOptions& options) const {
  return EvaluateStoreImpl<double>(
      store,
      [](const storage::ColumnTable& table, int64_t row) {
        return table.prob(row);
      },
      options);
}

StatusOr<math::Rational> LiftedPlan::EvaluateExact(
    const storage::TiStore& store, const LiftedOptions& options) const {
  for (const auto& [relation, a] : relation_atom_) {
    if (!store.schema().has_relation(relation)) continue;  // caught below
    const storage::ColumnTable& table = store.table(relation);
    if (table.num_exact() != table.num_rows()) {
      return FailedPreconditionError(
          "exact lifted evaluation requires an exact marginal for every "
          "fact of every queried relation");
    }
  }
  return EvaluateStoreImpl<math::Rational>(
      store,
      [](const storage::ColumnTable& table, int64_t row) {
        return *table.ExactAt(row);
      },
      options);
}

template <typename P>
StatusOr<P> LiftedPlan::Evaluate(const pdb::TiPdb<P>& ti,
                                 const LiftedOptions& options) const {
  // Only a default-constructed TiPdb lacks a store: it has an empty
  // schema and no instance to evaluate on.
  if (ti.store() == nullptr) {
    return InvalidArgumentError("query does not match the TI schema");
  }
  if constexpr (std::is_same_v<P, math::Rational>) {
    // TiPdb<Rational> stores an exact marginal for every fact.
    return EvaluateExact(*ti.store(), options);
  } else {
    return Evaluate(*ti.store(), options);
  }
}

template StatusOr<double> LiftedPlan::Evaluate<double>(
    const pdb::TiPdb<double>&, const LiftedOptions&) const;
template StatusOr<math::Rational> LiftedPlan::Evaluate<math::Rational>(
    const pdb::TiPdb<math::Rational>&, const LiftedOptions&) const;

StatusOr<Interval> LiftedPlan::EvaluateInterval(
    const pdb::TiPdb<double>& ti, const LiftedOptions& options) const {
  if (ti.store() == nullptr) {
    return InvalidArgumentError("query does not match the TI schema");
  }
  return EvaluateStoreImpl<Interval>(
      *ti.store(),
      [](const storage::ColumnTable& table, int64_t row) {
        return Interval::Point(table.prob(row));
      },
      options);
}

std::string LiftedPlan::NodeToString(int node,
                                     const rel::Schema& schema) const {
  const PlanNode& n = nodes_[node];
  switch (n.op) {
    case PlanOp::kGroundLookup:
      return "lookup(" + atoms_[n.atom].ToString(schema) + ")";
    case PlanOp::kIndependentProject:
      return "project[" + variables_[n.project_var] + "](" +
             NodeToString(n.children[0], schema) + ")";
    case PlanOp::kIndependentJoin: {
      std::string out = "join(";
      for (size_t i = 0; i < n.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += NodeToString(n.children[i], schema);
      }
      return out + ")";
    }
  }
  return "?";
}

std::string LiftedPlan::ToString(const rel::Schema& schema) const {
  if (root_ < 0) return "true";
  return NodeToString(root_, schema);
}

StatusOr<double> SafeQueryProbability(const pdb::TiPdb<double>& ti,
                                      const logic::Formula& sentence,
                                      SafePlanStats* stats) {
  StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
  if (!plan.ok()) return plan.status();
  LiftedOptions options;
  options.stats = stats;
  return plan.value().Evaluate(ti, options);
}

}  // namespace pqe
}  // namespace ipdb
