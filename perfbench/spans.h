// In-memory span log for the benchmark's traced runs.
//
// A span brackets one call from the benchmark into a simulator layer: its
// name, start and end (host ns since the log was created), the span that
// caused it, and the id of the simulation run it belongs to. Spans stay in
// memory while the benchmark measures and are written out once at the end,
// so recording costs one clock read and one vector append per boundary.
#ifndef FRAGVISOR_PERFBENCH_SPANS_H_
#define FRAGVISOR_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fvbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = a root span
    uint64_t run = 0;     // simulation run the span belongs to
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  // Starts a span and returns its id; `name` must outlive the log.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t run) {
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.run = run;
    s.start_ns = Now();
    spans_.push_back(s);
    return s.id;
  }

  void End(uint64_t id) { spans_[id - 1].end_ns = Now(); }

  size_t size() const { return spans_.size(); }

  // Writes every span as one JSON array; returns false if the file cannot be
  // written.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"run\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.run), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// Records one span for the enclosing scope; a null log records nothing, which
// is how untraced runs skip tracing entirely.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent, uint64_t run)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, run) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

}  // namespace fvbench

#endif  // FRAGVISOR_PERFBENCH_SPANS_H_
