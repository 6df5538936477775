// Seeded instance generators and closed-form oracles for the benchmark.
//
// Every answer the benchmark checks is computed here from the facts the
// benchmark generated itself, never by a second ipdb engine, so a change
// to an engine cannot move the oracle. The oracles are cross-checked
// against pqe::QueryProbabilityBruteForce on instances of at most 20
// facts by `perfbench --oracle-selftest`.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pdb/ti_pdb.h"
#include "relational/fact.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace perfbench {

namespace rel = ipdb::rel;

/// splitmix64: the benchmark's own generator, so the seed -> input map
/// does not depend on the library's RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

/// Marginal ranges of a hub instance, per relation.
struct HubShape {
  int hubs = 0;
  int t_size = 4;  // |T| <= 4, so the oracle conditions on <= 16 worlds
  double r_lo = 0, r_hi = 0;
  double s_lo = 0.1, s_hi = 0.6;
  double t_lo = 0.3, t_hi = 0.7;
};

/// R(x), S(x, y), T(y) over x in [0, hubs) and y in [0, kSDomain).
/// A probability of 0 marks an absent fact. Every hub x carries the
/// anchor fact S(x, x % t_size), which the churn stream never erases, so
/// no entity answer is 0, plus exactly kExtraS other S facts: the
/// instance's size does not depend on the seed.
struct HubData {
  static constexpr int kSDomain = 8;
  static constexpr int kExtraS = 3;
  HubShape shape;
  std::vector<double> r;  // r[x]
  std::vector<double> s;  // s[x * kSDomain + y]
  std::vector<double> t;  // t[y], y < t_size

  double S(int x, int y) const { return s[static_cast<size_t>(x) * kSDomain + y]; }
  double& S(int x, int y) { return s[static_cast<size_t>(x) * kSDomain + y]; }
  int64_t NumFacts() const {
    int64_t n = static_cast<int64_t>(t.size());
    for (double p : r) n += p > 0;
    for (double p : s) n += p > 0;
    return n;
  }
};

inline HubData MakeHub(const HubShape& shape, uint64_t seed) {
  Rng rng(seed);
  HubData hub;
  hub.shape = shape;
  hub.r.resize(static_cast<size_t>(shape.hubs));
  hub.s.assign(static_cast<size_t>(shape.hubs) * HubData::kSDomain, 0.0);
  for (int x = 0; x < shape.hubs; ++x) {
    hub.r[static_cast<size_t>(x)] = rng.Uniform(shape.r_lo, shape.r_hi);
    const int anchor = x % shape.t_size;
    hub.S(x, anchor) = rng.Uniform(shape.s_lo, shape.s_hi);
    int others[HubData::kSDomain - 1];
    for (int y = 0, k = 0; y < HubData::kSDomain; ++y) {
      if (y != anchor) others[k++] = y;
    }
    for (int k = 0; k < HubData::kExtraS; ++k) {  // partial Fisher-Yates
      std::swap(others[k], others[k + rng.Below(HubData::kSDomain - 1 - k)]);
      hub.S(x, others[k]) = rng.Uniform(shape.s_lo, shape.s_hi);
    }
  }
  for (int y = 0; y < shape.t_size; ++y) {
    hub.t.push_back(rng.Uniform(shape.t_lo, shape.t_hi));
  }
  return hub;
}

inline rel::Schema HubSchema() { return rel::Schema({{"R", 1}, {"S", 2}, {"T", 1}}); }
inline rel::Fact RFact(int x) { return rel::Fact(0, {rel::Value::Int(x)}); }
inline rel::Fact SFact(int x, int y) {
  return rel::Fact(1, {rel::Value::Int(x), rel::Value::Int(y)});
}
inline rel::Fact TFact(int y) { return rel::Fact(2, {rel::Value::Int(y)}); }

inline ipdb::pdb::TiPdbD::FactList HubFacts(const HubData& hub) {
  ipdb::pdb::TiPdbD::FactList facts;
  facts.reserve(static_cast<size_t>(hub.NumFacts()));
  for (int x = 0; x < hub.shape.hubs; ++x) {
    const double p = hub.r[static_cast<size_t>(x)];
    if (p > 0) facts.emplace_back(RFact(x), p);
  }
  for (int x = 0; x < hub.shape.hubs; ++x) {
    for (int y = 0; y < HubData::kSDomain; ++y) {
      if (hub.S(x, y) > 0) facts.emplace_back(SFact(x, y), hub.S(x, y));
    }
  }
  for (int y = 0; y < hub.shape.t_size; ++y) {
    facts.emplace_back(TFact(y), hub.t[static_cast<size_t>(y)]);
  }
  return facts;
}

/// 1 - prod(1 - q_i), accumulated as -expm1(sum log1p(-q_i)) so that
/// long products of factors near 1 keep their relative precision.
class NoisyOr {
 public:
  void Add(double q) { log_miss_ += std::log1p(-q); }
  double Value() const { return -std::expm1(log_miss_); }

 private:
  double log_miss_ = 0.0;
};

/// exists y. S(c, y) & T(y)
inline double EntityOracle(const HubData& hub, int c) {
  NoisyOr any;
  for (int y = 0; y < hub.shape.t_size; ++y) any.Add(hub.S(c, y) * hub.t[static_cast<size_t>(y)]);
  return any.Value();
}

/// exists x y. R(x) & S(x, y): independence per x.
inline double WholeRsOracle(const HubData& hub) {
  NoisyOr any;
  for (int x = 0; x < hub.shape.hubs; ++x) {
    NoisyOr some_s;
    for (int y = 0; y < HubData::kSDomain; ++y) some_s.Add(hub.S(x, y));
    any.Add(hub.r[static_cast<size_t>(x)] * some_s.Value());
  }
  return any.Value();
}

/// exists x. R(x) & S(x, c1) & S(x, c2): a self-join with constants,
/// independent per x.
inline double SelfJoinOracle(const HubData& hub, int c1, int c2) {
  NoisyOr any;
  for (int x = 0; x < hub.shape.hubs; ++x) {
    const double q = hub.r[static_cast<size_t>(x)] * hub.S(x, c1) * hub.S(x, c2);
    if (q > 0) any.Add(q);
  }
  return any.Value();
}

/// exists x y. R(x) & S(x, y) & T(y) with R(c) forced to `rc` (pass
/// hub.r[c] for no override): conditions on the <= 2^4 worlds of T, and
/// within a world the query is a noisy-or over independent hubs.
inline double H0Oracle(const HubData& hub, int c, double rc) {
  const int k = hub.shape.t_size;
  double total = 0.0;
  for (int world = 0; world < (1 << k); ++world) {
    double weight = 1.0;
    for (int y = 0; y < k; ++y) {
      const double p = hub.t[static_cast<size_t>(y)];
      weight *= (world >> y & 1) ? p : 1.0 - p;
    }
    NoisyOr any;
    for (int x = 0; x < hub.shape.hubs; ++x) {
      NoisyOr some_s;
      for (int y = 0; y < k; ++y) {
        if (world >> y & 1) some_s.Add(hub.S(x, y));
      }
      const double rx = x == c ? rc : hub.r[static_cast<size_t>(x)];
      any.Add(rx * some_s.Value());
    }
    total += weight * any.Value();
  }
  return total;
}

/// The chain E(i, i+1), i < n, and exists x y z. E(x, y) & E(y, z):
/// true iff two consecutive edges are present. DP over the edges on
/// "no two consecutive so far, last edge present / absent".
inline double PathOracle(const std::vector<double>& edges, int c, double pc) {
  double last_absent = 1.0, last_present = 0.0;
  for (size_t i = 0; i < edges.size(); ++i) {
    const double p = static_cast<int>(i) == c ? pc : edges[i];
    const double ok = last_absent + last_present;
    last_present = last_absent * p;
    last_absent = ok * (1.0 - p);
  }
  return 1.0 - (last_absent + last_present);
}

inline std::vector<double> MakeChain(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> edges;
  for (int i = 0; i < n; ++i) edges.push_back(rng.Uniform(0.15, 0.45));
  return edges;
}

inline rel::Schema ChainSchema() { return rel::Schema({{"E", 2}}); }

inline ipdb::pdb::TiPdbD::FactList ChainFacts(const std::vector<double>& edges) {
  ipdb::pdb::TiPdbD::FactList facts;
  for (size_t i = 0; i < edges.size(); ++i) {
    const int64_t a = static_cast<int64_t>(i);
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(a), rel::Value::Int(a + 1)}), edges[i]);
  }
  return facts;
}

/// How a circuit-path template combines a base query Q with one ground
/// literal L of marginal p: Q & L, Q | L, Q & !L. The oracle conditions
/// Q on L's value.
enum class Combine { kAnd, kOr, kAndNot };

inline const char* CombineOp(Combine combine) {
  switch (combine) {
    case Combine::kAnd: return " & ";
    case Combine::kOr: return " | ";
    case Combine::kAndNot: return " & !";
  }
  return "";
}

/// p = Pr(L); q1 = Pr(Q | L), q0 = Pr(Q | !L).
inline double CombineOracle(Combine combine, double p, double q1, double q0) {
  switch (combine) {
    case Combine::kAnd: return p * q1;
    case Combine::kOr: return 1.0 - (1.0 - p) * (1.0 - q0);
    case Combine::kAndNot: return (1.0 - p) * q0;
  }
  return 0.0;
}

inline bool RelClose(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::fabs(want);
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
