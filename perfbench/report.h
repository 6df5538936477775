// Sample statistics and the result printer.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, q in (0, 1]. 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// Arithmetic mean. 0 for an empty sample.
inline double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Samples strictly beyond the nearest-rank q-percentile.
inline int64_t TailCount(size_t n, double q) {
  return static_cast<int64_t>(n) -
         static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
}

inline std::vector<double> NsToMs(const std::vector<int64_t>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (int64_t v : ns) ms.push_back(static_cast<double>(v) * 1e-6);
  return ms;
}

/// VmHWM of this process in MB.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// An ordered set of named metrics with units.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < order_.size(); ++i) {
      const auto& [value, unit] = values_.at(order_[i]);
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
      out += (i == 0 ? "\"" : ", \"") + order_[i] + "\": {\"value\": " + buf +
             ", \"unit\": \"" + unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// FNV-1a over the serialized inputs: the stream fingerprint the
/// determinism self-test compares.
class StreamHash {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  void Add(const std::string& s) { Add(s.data(), s.size() + 1); }
  void Add(double v) { Add(&v, sizeof v); }
  void Add(int64_t v) { Add(&v, sizeof v); }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Tally of checked answers.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;
  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      if (failed == 0) first_failure = what;
      ++failed;
    }
  }
  void Add(const Checks& other) {
    if (other.failed > 0 && failed == 0) first_failure = other.first_failure;
    attempted += other.attempted;
    failed += other.failed;
  }
  double Share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
