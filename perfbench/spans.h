// In-memory span recorder for the traced run. Spans are opened only by
// the benchmark's own code, around calls into ipdb's public functions;
// they stay in memory and are written out once, as Chrome-trace JSON,
// when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = a request's root
  uint32_t request = 0;
};

/// Single-threaded: the traced replays run on one thread.
class Tracer {
 public:
  /// Opens a request: the next span opened is its root.
  void BeginRequest() { ++request_; }

  void Open(const std::string& name) {
    Span span;
    span.name = name;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.request = request_;
    spans_.push_back(span);
    stack_.push_back(span.id);
    spans_.back().start_ns = NowNs();
  }

  /// Closes the innermost open span, optionally renaming it (for calls
  /// whose kind is known only afterwards, such as a cache hit or miss).
  void Close(const char* rename = nullptr) {
    const int64_t end = NowNs();
    Span& span = spans_[stack_.back() - 1];
    stack_.pop_back();
    span.end_ns = end;
    if (rename != nullptr) span.name = rename;
  }

  /// Adds a finished one-span request of the given duration, for a
  /// phase timed before spans could be opened (the repeated set-ups).
  void RecordRequest(const std::string& name, int64_t duration_ns) {
    BeginRequest();
    Open(name);
    Close();
    spans_.back().end_ns = spans_.back().start_ns + duration_ns;
  }

  /// Per span name, the durations in ms.
  std::map<std::string, std::vector<double>> DurationsMs() const {
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans_) out[s.name].push_back((s.end_ns - s.start_ns) * 1e-6);
    return out;
  }

  /// Per request root, the time its child spans cover (ms), in request
  /// order, restricted to roots named `root_name`.
  std::vector<double> ChildCoverageMs(const std::string& root_name) const {
    std::map<uint32_t, int64_t> covered;
    for (const Span& s : spans_) {
      if (s.parent != 0 && spans_[s.parent - 1].parent == 0 &&
          spans_[s.parent - 1].name == root_name) {
        covered[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::vector<double> out;
    for (const auto& [root, ns] : covered) out.push_back(ns * 1e-6);
    return out;
  }

  /// Self time per span name (ms): duration minus the time its children
  /// cover. Children of one span run sequentially on one thread, so
  /// their durations do not overlap.
  std::map<std::string, double> SelfTimeMs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += (spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) * 1e-6;
    }
    return out;
  }

  /// Every request's spans must form one tree under one root: exactly
  /// one parentless span per request, each parent in the same request,
  /// and each child's interval inside its parent's. Returns the number
  /// of requests checked, or -1 with `error` set.
  int64_t CheckTrees(std::string* error) const {
    if (!stack_.empty()) {
      *error = "spans still open";
      return -1;
    }
    std::map<uint32_t, int> roots;
    for (const Span& s : spans_) {
      if (s.parent == 0) {
        if (++roots[s.request] > 1) {
          *error = "request " + std::to_string(s.request) + " has two roots";
          return -1;
        }
        continue;
      }
      const Span& p = spans_[s.parent - 1];
      if (p.request != s.request) {
        *error = "span " + s.name + " crosses requests";
        return -1;
      }
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        *error = "span " + s.name + " escapes its parent " + p.name;
        return -1;
      }
    }
    for (const Span& s : spans_) {
      if (roots.count(s.request) == 0) {
        *error = "request " + std::to_string(s.request) + " has no root";
        return -1;
      }
    }
    return static_cast<int64_t>(roots.size());
  }

  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                   "\"request\":%u}}",
                   i == 0 ? "" : ",", s.name.c_str(), (s.start_ns - t0) * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3, s.id, s.parent, s.request);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  uint32_t request_ = 0;
};

/// Opens a span on `tracer` for the scope when tracing; a no-op when
/// `tracer` is null (the untraced replay).
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Open(name);
  }
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Close(const char* rename = nullptr) {
    if (tracer_ != nullptr) tracer_->Close(rename);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
