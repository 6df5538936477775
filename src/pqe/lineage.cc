#include "pqe/lineage.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "logic/evaluator.h"
#include "relational/fact.h"
#include "util/check.h"

namespace ipdb {
namespace pqe {

Lineage::Lineage() {
  nodes_.push_back({NodeKind::kTrue, -1, {}});
  nodes_.push_back({NodeKind::kFalse, -1, {}});
  support_cache_.resize(2);
  support_cached_.resize(2, true);
}

uint64_t Lineage::NodeHashKey(const Node& node) const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(node.kind));
  mix(static_cast<uint64_t>(node.variable) + 0x9e3779b9u);
  for (NodeId c : node.children) mix(static_cast<uint64_t>(c));
  return h;
}

NodeId Lineage::Intern(Node node) {
  uint64_t key = NodeHashKey(node);
  auto& bucket = intern_[key];
  for (NodeId id : bucket) {
    const Node& existing = nodes_[id];
    if (existing.kind == node.kind && existing.variable == node.variable &&
        existing.children == node.children) {
      return id;
    }
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  support_cache_.emplace_back();
  support_cached_.push_back(false);
  bucket.push_back(id);
  return id;
}

NodeId Lineage::Var(int variable) {
  IPDB_CHECK_GE(variable, 0);
  return Intern({NodeKind::kVar, variable, {}});
}

NodeId Lineage::MakeNot(NodeId operand) {
  if (operand == kTrueId) return kFalseId;
  if (operand == kFalseId) return kTrueId;
  if (nodes_[operand].kind == NodeKind::kNot) {
    return nodes_[operand].children[0];
  }
  return Intern({NodeKind::kNot, -1, {operand}});
}

NodeId Lineage::MakeAnd(std::vector<NodeId> operands) {
  std::vector<NodeId> flat;
  for (NodeId id : operands) {
    if (id == kFalseId) return kFalseId;
    if (id == kTrueId) continue;
    if (nodes_[id].kind == NodeKind::kAnd) {
      for (NodeId c : nodes_[id].children) flat.push_back(c);
    } else {
      flat.push_back(id);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  if (flat.empty()) return kTrueId;
  if (flat.size() == 1) return flat[0];
  // x ∧ ¬x = false.
  for (NodeId id : flat) {
    if (nodes_[id].kind == NodeKind::kNot &&
        std::binary_search(flat.begin(), flat.end(),
                           nodes_[id].children[0])) {
      return kFalseId;
    }
  }
  return Intern({NodeKind::kAnd, -1, std::move(flat)});
}

NodeId Lineage::MakeOr(std::vector<NodeId> operands) {
  std::vector<NodeId> flat;
  for (NodeId id : operands) {
    if (id == kTrueId) return kTrueId;
    if (id == kFalseId) continue;
    if (nodes_[id].kind == NodeKind::kOr) {
      for (NodeId c : nodes_[id].children) flat.push_back(c);
    } else {
      flat.push_back(id);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  if (flat.empty()) return kFalseId;
  if (flat.size() == 1) return flat[0];
  for (NodeId id : flat) {
    if (nodes_[id].kind == NodeKind::kNot &&
        std::binary_search(flat.begin(), flat.end(),
                           nodes_[id].children[0])) {
      return kTrueId;
    }
  }
  return Intern({NodeKind::kOr, -1, std::move(flat)});
}

const std::vector<int>& Lineage::Support(NodeId id) {
  if (support_cached_[id]) return support_cache_[id];
  std::set<int> vars;
  const Node& node = nodes_[id];
  if (node.kind == NodeKind::kVar) {
    vars.insert(node.variable);
  } else {
    for (NodeId c : node.children) {
      const std::vector<int>& sub = Support(c);
      vars.insert(sub.begin(), sub.end());
    }
  }
  support_cache_[id].assign(vars.begin(), vars.end());
  support_cached_[id] = true;
  return support_cache_[id];
}

bool Lineage::Evaluate(NodeId id, const std::vector<bool>& assignment) const {
  const Node& node = nodes_[id];
  switch (node.kind) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kFalse:
      return false;
    case NodeKind::kVar:
      IPDB_CHECK_LT(static_cast<size_t>(node.variable), assignment.size());
      return assignment[node.variable];
    case NodeKind::kNot:
      return !Evaluate(node.children[0], assignment);
    case NodeKind::kAnd:
      for (NodeId c : node.children) {
        if (!Evaluate(c, assignment)) return false;
      }
      return true;
    case NodeKind::kOr:
      for (NodeId c : node.children) {
        if (Evaluate(c, assignment)) return true;
      }
      return false;
  }
  return false;
}

NodeId Lineage::Restrict(NodeId id, int variable, bool value) {
  // Memo local to one (variable, value) restriction pass.
  std::unordered_map<NodeId, NodeId> memo;
  struct Walker {
    Lineage* lineage;
    int variable;
    bool value;
    std::unordered_map<NodeId, NodeId>* memo;
    NodeId Walk(NodeId id) {
      auto it = memo->find(id);
      if (it != memo->end()) return it->second;
      // Copy the node's payload: recursive Walk calls can grow nodes_
      // and invalidate references.
      NodeKind kind = lineage->nodes_[id].kind;
      int node_variable = lineage->nodes_[id].variable;
      std::vector<NodeId> original = lineage->nodes_[id].children;
      NodeId result = id;
      switch (kind) {
        case NodeKind::kTrue:
        case NodeKind::kFalse:
          break;
        case NodeKind::kVar:
          if (node_variable == variable) {
            result = value ? kTrueId : kFalseId;
          }
          break;
        case NodeKind::kNot:
          result = lineage->MakeNot(Walk(original[0]));
          break;
        case NodeKind::kAnd:
        case NodeKind::kOr: {
          std::vector<NodeId> children;
          children.reserve(original.size());
          for (NodeId c : original) children.push_back(Walk(c));
          result = kind == NodeKind::kAnd
                       ? lineage->MakeAnd(std::move(children))
                       : lineage->MakeOr(std::move(children));
          break;
        }
      }
      (*memo)[id] = result;
      return result;
    }
  };
  Walker walker{this, variable, value, &memo};
  return walker.Walk(id);
}

std::string Lineage::ToString(NodeId id) const {
  const Node& node = nodes_[id];
  switch (node.kind) {
    case NodeKind::kTrue:
      return "T";
    case NodeKind::kFalse:
      return "F";
    case NodeKind::kVar:
      return "x" + std::to_string(node.variable);
    case NodeKind::kNot:
      return "!" + ToString(node.children[0]);
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += node.kind == NodeKind::kAnd ? " & " : " | ";
        out += ToString(node.children[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

using logic::Formula;
using logic::FormulaKind;
using logic::Term;

// --- Legacy grounder: the oracle -------------------------------------
// A std::map<Fact, int> index over the fact list and, at every
// quantifier, the whole sorted domain. Kept independent of the columnar
// grounder below so differential tests compare two implementations.

struct LegacyContext {
  Lineage* lineage;
  std::map<rel::Fact, int> fact_index;
  std::vector<rel::Value> domain;
};

StatusOr<rel::Value> ResolveTerm(const Term& term,
                                 const logic::Assignment& assignment) {
  if (term.is_const()) return term.value();
  auto it = assignment.find(term.var());
  if (it == assignment.end()) {
    return InvalidArgumentError("unbound variable in grounding: " +
                                term.var());
  }
  return it->second;
}

StatusOr<NodeId> GroundLegacy(LegacyContext& context, const Formula& formula,
                              logic::Assignment* assignment) {
  Lineage& lineage = *context.lineage;
  switch (formula.kind()) {
    case FormulaKind::kTrue:
      return lineage.True();
    case FormulaKind::kFalse:
      return lineage.False();
    case FormulaKind::kAtom: {
      std::vector<rel::Value> args;
      for (const Term& t : formula.terms()) {
        StatusOr<rel::Value> v = ResolveTerm(t, *assignment);
        if (!v.ok()) return v.status();
        args.push_back(std::move(v).value());
      }
      rel::Fact fact(formula.relation(), std::move(args));
      // Closed-world over the fact set: facts outside T(I) never occur.
      auto it = context.fact_index.find(fact);
      if (it == context.fact_index.end()) return lineage.False();
      return lineage.Var(it->second);
    }
    case FormulaKind::kEquals: {
      StatusOr<rel::Value> lhs = ResolveTerm(formula.terms()[0], *assignment);
      if (!lhs.ok()) return lhs.status();
      StatusOr<rel::Value> rhs = ResolveTerm(formula.terms()[1], *assignment);
      if (!rhs.ok()) return rhs.status();
      return lhs.value() == rhs.value() ? lineage.True() : lineage.False();
    }
    case FormulaKind::kNot: {
      StatusOr<NodeId> inner =
          GroundLegacy(context, formula.children()[0], assignment);
      if (!inner.ok()) return inner.status();
      return lineage.MakeNot(inner.value());
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<NodeId> children;
      for (const Formula& child : formula.children()) {
        StatusOr<NodeId> c = GroundLegacy(context, child, assignment);
        if (!c.ok()) return c.status();
        children.push_back(c.value());
        // Short-circuit on constants.
        if (formula.kind() == FormulaKind::kAnd &&
            c.value() == Lineage::kFalseId) {
          return lineage.False();
        }
        if (formula.kind() == FormulaKind::kOr &&
            c.value() == Lineage::kTrueId) {
          return lineage.True();
        }
      }
      return formula.kind() == FormulaKind::kAnd
                 ? lineage.MakeAnd(std::move(children))
                 : lineage.MakeOr(std::move(children));
    }
    case FormulaKind::kImplies: {
      StatusOr<NodeId> premise =
          GroundLegacy(context, formula.children()[0], assignment);
      if (!premise.ok()) return premise.status();
      StatusOr<NodeId> conclusion =
          GroundLegacy(context, formula.children()[1], assignment);
      if (!conclusion.ok()) return conclusion.status();
      return lineage.MakeOr({lineage.MakeNot(premise.value()),
                             conclusion.value()});
    }
    case FormulaKind::kIff: {
      StatusOr<NodeId> lhs =
          GroundLegacy(context, formula.children()[0], assignment);
      if (!lhs.ok()) return lhs.status();
      StatusOr<NodeId> rhs =
          GroundLegacy(context, formula.children()[1], assignment);
      if (!rhs.ok()) return rhs.status();
      NodeId both = lineage.MakeAnd({lhs.value(), rhs.value()});
      NodeId neither = lineage.MakeAnd({lineage.MakeNot(lhs.value()),
                                        lineage.MakeNot(rhs.value())});
      return lineage.MakeOr({both, neither});
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      const bool is_exists = formula.kind() == FormulaKind::kExists;
      const std::string& var = formula.quantified_var();
      auto outer = assignment->find(var);
      bool had_outer = outer != assignment->end();
      rel::Value saved = had_outer ? outer->second : rel::Value();
      std::vector<NodeId> children;
      for (const rel::Value& candidate : context.domain) {
        (*assignment)[var] = candidate;
        StatusOr<NodeId> c =
            GroundLegacy(context, formula.children()[0], assignment);
        if (!c.ok()) return c.status();
        children.push_back(c.value());
      }
      if (had_outer) {
        (*assignment)[var] = saved;
      } else {
        assignment->erase(var);
      }
      return is_exists ? lineage.MakeOr(std::move(children))
                       : lineage.MakeAnd(std::move(children));
    }
  }
  return InternalError("unhandled formula kind in grounding");
}

// --- Columnar grounder ------------------------------------------------

constexpr uint32_t kNoId = storage::Dictionary::kNotFound;

/// A value bound to a variable or named by a constant. `id` is its
/// dictionary id, or kNoId for a value outside the dictionary (an absent
/// constant, a $fresh witness): no stored fact mentions such a value, so
/// every atom it reaches is false and only `=` reads `value`.
struct Binding {
  uint32_t id = kNoId;
  const rel::Value* value = nullptr;
};

/// An atom or equality argument: the slot of the quantifier that binds
/// the variable, or (slot < 0) a constant.
struct PlanTerm {
  int slot = -1;
  Binding constant;
};

/// What a guard atom's argument position contributes when the guarded
/// variable's candidates are drawn.
enum class GuardRole : uint8_t {
  kSelf,   // the guarded variable: candidates are read from this column
  kBound,  // a constant or an outer variable: fixes the column's id
  kFree,   // a variable of a nested exists, unbound at that point
};

/// An atom conjunct of an `exists` body that mentions its variable.
struct Guard {
  int atom = -1;  // plan index of the atom
  std::vector<GuardRole> roles;
  std::vector<bool> bound;  // roles[p] == kBound, the row scan's mask
};

/// The sentence compiled for one grounding call: variables resolved to
/// per-quantifier slots (so shadowing needs no name lookups), constants
/// to dictionary ids, and each `exists` annotated with its guards.
struct PlanNode {
  FormulaKind kind = FormulaKind::kTrue;
  rel::RelationId relation = 0;  // kAtom
  std::vector<PlanTerm> terms;   // kAtom, kEquals
  std::vector<int> children;     // plan indices
  int slot = -1;                 // kExists, kForall
  std::vector<Guard> guards;     // kExists; empty = enumerate the domain
};

/// One element of the enumeration domain with its binding; `binding.value`
/// points at `value`, so entries are not moved once built.
struct DomainEntry {
  rel::Value value;
  Binding binding;
};

/// Quantifiers enclosing the formula being compiled, innermost last:
/// (variable name, slot).
using Scope = std::vector<std::pair<const std::string*, int>>;

class ColumnarGrounder {
 public:
  ColumnarGrounder(const storage::TiStore& store, const Formula& sentence,
                   Lineage* lineage, const ExecutionBudget* budget)
      : store_(store),
        sentence_(sentence),
        lineage_(*lineage),
        meter_(budget, 0, "pqe.ground") {}

  StatusOr<NodeId> Run() {
    Scope scope;
    const int root = Compile(sentence_, &scope);
    return Ground(root);
  }

 private:
  int Compile(const Formula& formula, Scope* scope);
  PlanTerm CompileTerm(const Term& term, const Scope& scope) const;
  void CollectGuards(int index, int slot, std::vector<Guard>* guards) const;

  Binding Resolve(const PlanTerm& term) const {
    return term.slot < 0 ? term.constant
                         : slots_[static_cast<size_t>(term.slot)];
  }

  StatusOr<NodeId> Ground(int index);
  NodeId GroundAtom(const PlanNode& node);
  StatusOr<NodeId> GroundGuarded(const PlanNode& node);
  StatusOr<NodeId> GroundEnumerated(const PlanNode& node);
  std::vector<uint32_t> Candidates(const PlanNode& node);
  const std::vector<DomainEntry>& Domain();

  const storage::TiStore& store_;
  const Formula& sentence_;
  Lineage& lineage_;
  BudgetMeter meter_;
  std::vector<PlanNode> plan_;
  /// Current binding per quantifier slot.
  std::vector<Binding> slots_;
  /// Scratch rows for atom probes and guard keys (sized to the widest
  /// atom); Candidates and GroundAtom finish before recursing.
  std::vector<uint32_t> atom_ids_;
  std::vector<uint32_t> key_;
  std::vector<uint32_t> best_key_;
  /// Built on first use by an enumerating quantifier.
  std::vector<DomainEntry> domain_;
  bool domain_built_ = false;
};

int ColumnarGrounder::Compile(const Formula& formula, Scope* scope) {
  PlanNode node;
  node.kind = formula.kind();
  switch (formula.kind()) {
    case FormulaKind::kAtom:
      node.relation = formula.relation();
      [[fallthrough]];
    case FormulaKind::kEquals:
      for (const Term& t : formula.terms()) {
        node.terms.push_back(CompileTerm(t, *scope));
      }
      if (node.terms.size() > atom_ids_.size()) {
        atom_ids_.resize(node.terms.size());
        key_.resize(node.terms.size());
        best_key_.resize(node.terms.size());
      }
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      node.slot = static_cast<int>(slots_.size());
      slots_.emplace_back();
      scope->emplace_back(&formula.quantified_var(), node.slot);
      node.children.push_back(Compile(formula.children()[0], scope));
      scope->pop_back();
      if (node.kind == FormulaKind::kExists) {
        CollectGuards(node.children[0], node.slot, &node.guards);
      }
      break;
    }
    default:
      for (const Formula& child : formula.children()) {
        node.children.push_back(Compile(child, scope));
      }
      break;
  }
  plan_.push_back(std::move(node));
  return static_cast<int>(plan_.size()) - 1;
}

PlanTerm ColumnarGrounder::CompileTerm(const Term& term,
                                       const Scope& scope) const {
  PlanTerm out;
  if (term.is_const()) {
    out.constant = {store_.dictionary().Find(term.value()), &term.value()};
    return out;
  }
  for (auto it = scope.rbegin(); it != scope.rend(); ++it) {
    if (*it->first == term.var()) {
      out.slot = it->second;
      return out;
    }
  }
  // GroundSentence rejects formulas with free variables before compiling.
  IPDB_CHECK(false) << "unbound variable in grounding: " << term.var();
  return out;
}

void ColumnarGrounder::CollectGuards(int index, int slot,
                                     std::vector<Guard>* guards) const {
  const PlanNode& node = plan_[static_cast<size_t>(index)];
  switch (node.kind) {
    case FormulaKind::kAtom: {
      Guard guard;
      guard.atom = index;
      bool mentions = false;
      for (const PlanTerm& t : node.terms) {
        if (t.slot == slot) {
          guard.roles.push_back(GuardRole::kSelf);
          mentions = true;
        } else if (t.slot > slot) {
          // Slots are numbered in pre-order, so a higher slot seen on an
          // ∧/∃ path below `slot` is a nested exists.
          guard.roles.push_back(GuardRole::kFree);
        } else {
          guard.roles.push_back(GuardRole::kBound);
        }
        guard.bound.push_back(guard.roles.back() == GuardRole::kBound);
      }
      if (mentions) guards->push_back(std::move(guard));
      return;
    }
    case FormulaKind::kAnd:
      for (int child : node.children) CollectGuards(child, slot, guards);
      return;
    case FormulaKind::kExists:
      // A nested exists re-binding the same name got its own slot, so
      // shadowed occurrences never match `slot`.
      CollectGuards(node.children[0], slot, guards);
      return;
    default:
      return;
  }
}

StatusOr<NodeId> ColumnarGrounder::Ground(int index) {
  const PlanNode& node = plan_[static_cast<size_t>(index)];
  switch (node.kind) {
    case FormulaKind::kTrue:
      return lineage_.True();
    case FormulaKind::kFalse:
      return lineage_.False();
    case FormulaKind::kAtom:
      return GroundAtom(node);
    case FormulaKind::kEquals: {
      const Binding lhs = Resolve(node.terms[0]);
      const Binding rhs = Resolve(node.terms[1]);
      bool equal = false;
      if (lhs.id != kNoId || rhs.id != kNoId) {
        equal = lhs.id == rhs.id;
      } else {
        equal = *lhs.value == *rhs.value;
      }
      return equal ? lineage_.True() : lineage_.False();
    }
    case FormulaKind::kNot: {
      StatusOr<NodeId> inner = Ground(node.children[0]);
      if (!inner.ok()) return inner.status();
      return lineage_.MakeNot(inner.value());
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      const bool is_and = node.kind == FormulaKind::kAnd;
      std::vector<NodeId> children;
      for (int child : node.children) {
        StatusOr<NodeId> c = Ground(child);
        if (!c.ok()) return c.status();
        if (is_and && c.value() == Lineage::kFalseId) return lineage_.False();
        if (!is_and && c.value() == Lineage::kTrueId) return lineage_.True();
        children.push_back(c.value());
      }
      return is_and ? lineage_.MakeAnd(std::move(children))
                    : lineage_.MakeOr(std::move(children));
    }
    case FormulaKind::kImplies: {
      StatusOr<NodeId> premise = Ground(node.children[0]);
      if (!premise.ok()) return premise.status();
      StatusOr<NodeId> conclusion = Ground(node.children[1]);
      if (!conclusion.ok()) return conclusion.status();
      return lineage_.MakeOr(
          {lineage_.MakeNot(premise.value()), conclusion.value()});
    }
    case FormulaKind::kIff: {
      StatusOr<NodeId> lhs = Ground(node.children[0]);
      if (!lhs.ok()) return lhs.status();
      StatusOr<NodeId> rhs = Ground(node.children[1]);
      if (!rhs.ok()) return rhs.status();
      NodeId both = lineage_.MakeAnd({lhs.value(), rhs.value()});
      NodeId neither = lineage_.MakeAnd(
          {lineage_.MakeNot(lhs.value()), lineage_.MakeNot(rhs.value())});
      return lineage_.MakeOr({both, neither});
    }
    case FormulaKind::kExists:
      return node.guards.empty() ? GroundEnumerated(node)
                                 : GroundGuarded(node);
    case FormulaKind::kForall:
      return GroundEnumerated(node);
  }
  return InternalError("unhandled formula kind in grounding");
}

NodeId ColumnarGrounder::GroundAtom(const PlanNode& node) {
  // Closed-world over the fact set: facts outside T(I) never occur.
  for (size_t p = 0; p < node.terms.size(); ++p) {
    const uint32_t id = Resolve(node.terms[p]).id;
    if (id == kNoId) return lineage_.False();
    atom_ids_[p] = id;
  }
  const int64_t row = store_.table(node.relation).FindRow(atom_ids_.data());
  if (row < 0) return lineage_.False();
  return lineage_.Var(static_cast<int>(store_.global_index(node.relation, row)));
}

StatusOr<NodeId> ColumnarGrounder::GroundGuarded(const PlanNode& node) {
  // Candidates that miss the guard would only add false disjuncts, which
  // MakeOr drops: the result is the legacy enumeration's.
  std::vector<NodeId> children;
  for (uint32_t id : Candidates(node)) {
    IPDB_RETURN_IF_ERROR(meter_.Charge());
    slots_[static_cast<size_t>(node.slot)] = Binding{id, nullptr};
    StatusOr<NodeId> c = Ground(node.children[0]);
    if (!c.ok()) return c.status();
    if (c.value() == Lineage::kTrueId) return lineage_.True();
    if (c.value() != Lineage::kFalseId) children.push_back(c.value());
  }
  return lineage_.MakeOr(std::move(children));
}

StatusOr<NodeId> ColumnarGrounder::GroundEnumerated(const PlanNode& node) {
  const bool is_exists = node.kind == FormulaKind::kExists;
  // The absorbing constant of the connective ends the loop early; the
  // legacy enumeration reaches the same constant after every binding.
  const NodeId absorbing = is_exists ? Lineage::kTrueId : Lineage::kFalseId;
  std::vector<NodeId> children;
  for (const DomainEntry& entry : Domain()) {
    IPDB_RETURN_IF_ERROR(meter_.Charge());
    slots_[static_cast<size_t>(node.slot)] = entry.binding;
    StatusOr<NodeId> c = Ground(node.children[0]);
    if (!c.ok()) return c.status();
    if (c.value() == absorbing) return absorbing;
    children.push_back(c.value());
  }
  return is_exists ? lineage_.MakeOr(std::move(children))
                   : lineage_.MakeAnd(std::move(children));
}

std::vector<uint32_t> ColumnarGrounder::Candidates(const PlanNode& node) {
  // Choose the guard with the fewest rows to scan: the prefix range of
  // its leading bound positions, or the whole table when position 0 is
  // not bound.
  const Guard* best = nullptr;
  std::optional<storage::BoundRowScan> best_scan;
  for (const Guard& guard : node.guards) {
    const PlanNode& atom = plan_[static_cast<size_t>(guard.atom)];
    for (size_t p = 0; p < guard.roles.size(); ++p) {
      if (!guard.bound[p]) continue;
      const uint32_t id = Resolve(atom.terms[p]).id;
      // A bound value outside the dictionary matches no row.
      if (id == kNoId) return {};
      key_[p] = id;
    }
    const storage::BoundRowScan scan(store_.table(atom.relation), guard.bound,
                                     key_.data());
    if (scan.span() == 0) return {};
    if (best == nullptr || scan.span() < best_scan->span()) {
      best = &guard;
      best_scan = scan;
      // The scan borrows the key buffer; vector::swap moves no elements,
      // so it follows the buffer into best_key_ and the next guard fills
      // the other one.
      key_.swap(best_key_);
    }
  }

  const storage::ColumnTable& table =
      store_.table(plan_[static_cast<size_t>(best->atom)].relation);
  const std::vector<GuardRole>& roles = best->roles;
  const int arity = static_cast<int>(roles.size());
  const int self = static_cast<int>(
      std::find(roles.begin(), roles.end(), GuardRole::kSelf) - roles.begin());
  // Inside a prefix range the sorted run orders the next column, so when
  // the variable sits right after the prefix its ids arrive sorted.
  const bool arrives_sorted = self == best_scan->prefix();
  std::vector<uint32_t> ids;
  best_scan->ForEach([&](int64_t row) {
    const uint32_t id = table.id(self, row);
    for (int p = self + 1; p < arity; ++p) {
      if (roles[static_cast<size_t>(p)] == GuardRole::kSelf &&
          table.id(p, row) != id) {
        return;
      }
    }
    if (arrives_sorted && !ids.empty() && ids.back() == id) return;
    ids.push_back(id);
  });
  if (!arrives_sorted) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  // Bind in rel::Value order, as the domain enumeration does, so the
  // lineage is built in the order the enumeration builds it.
  if (ids.size() > 1) {
    const storage::Dictionary& dict = store_.dictionary();
    std::vector<std::pair<rel::Value, uint32_t>> keyed;
    keyed.reserve(ids.size());
    for (uint32_t id : ids) keyed.emplace_back(dict.ValueAt(id), id);
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = keyed[i].second;
  }
  return ids;
}

const std::vector<DomainEntry>& ColumnarGrounder::Domain() {
  if (domain_built_) return domain_;
  domain_built_ = true;
  // The store's values, the sentence's constants and QuantifierRank
  // fresh witnesses, sorted and deduplicated: the legacy domain.
  const storage::Dictionary& dict = store_.dictionary();
  for (uint32_t id = 0; id < static_cast<uint32_t>(dict.size()); ++id) {
    domain_.push_back({dict.ValueAt(id), {id, nullptr}});
  }
  for (rel::Value& v : sentence_.Constants()) {
    const uint32_t id = dict.Find(v);
    domain_.push_back({std::move(v), {id, nullptr}});
  }
  const int rank = sentence_.QuantifierRank();
  for (int i = 0; i < rank; ++i) {
    rel::Value fresh = rel::Value::Symbol("$fresh" + std::to_string(i));
    const uint32_t id = dict.Find(fresh);
    domain_.push_back({std::move(fresh), {id, nullptr}});
  }
  std::sort(domain_.begin(), domain_.end(),
            [](const DomainEntry& a, const DomainEntry& b) {
              return a.value < b.value;
            });
  domain_.erase(std::unique(domain_.begin(), domain_.end(),
                            [](const DomainEntry& a, const DomainEntry& b) {
                              return a.value == b.value;
                            }),
                domain_.end());
  for (DomainEntry& entry : domain_) entry.binding.value = &entry.value;
  return domain_;
}

}  // namespace

StatusOr<NodeId> GroundSentence(const pdb::TiPdb<double>& ti,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget) {
  // Global store index i is exactly facts()[i], so the columnar path
  // yields the same variable numbering.
  if (ti.store() != nullptr) {
    return GroundSentence(*ti.store(), sentence, lineage, budget);
  }
  return GroundSentenceLegacy(ti, sentence, lineage);
}

StatusOr<NodeId> GroundSentence(const storage::TiStore& store,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget) {
  if (!sentence.FreeVariables().empty()) {
    return InvalidArgumentError("grounding requires a sentence");
  }
  if (!sentence.MatchesSchema(store.schema())) {
    return InvalidArgumentError("sentence does not match the TI schema");
  }
  if (store.num_facts() > std::numeric_limits<NodeId>::max()) {
    return InvalidArgumentError(
        "lineage variables are 32-bit: the store has too many facts to "
        "ground");
  }
  ColumnarGrounder grounder(store, sentence, lineage, budget);
  return grounder.Run();
}

StatusOr<NodeId> GroundSentenceLegacy(const pdb::TiPdb<double>& ti,
                                      const logic::Formula& sentence,
                                      Lineage* lineage) {
  if (!sentence.FreeVariables().empty()) {
    return InvalidArgumentError("grounding requires a sentence");
  }
  if (!sentence.MatchesSchema(ti.schema())) {
    return InvalidArgumentError("sentence does not match the TI schema");
  }
  LegacyContext context;
  context.lineage = lineage;
  std::set<rel::Value> domain;
  for (size_t i = 0; i < ti.facts().size(); ++i) {
    context.fact_index[ti.facts()[i].first] = static_cast<int>(i);
    for (const rel::Value& v : ti.facts()[i].first.args()) {
      domain.insert(v);
    }
  }
  for (const rel::Value& v : sentence.Constants()) domain.insert(v);
  int rank = sentence.QuantifierRank();
  for (int i = 0; i < rank; ++i) {
    domain.insert(rel::Value::Symbol("$fresh" + std::to_string(i)));
  }
  context.domain.assign(domain.begin(), domain.end());
  logic::Assignment assignment;
  return GroundLegacy(context, sentence, &assignment);
}

}  // namespace pqe
}  // namespace ipdb
