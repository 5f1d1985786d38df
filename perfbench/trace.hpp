// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by hmis_perfbench around its own calls into the library
// (name, start, end, parent span, request id), kept in memory, and written
// out once as Chrome trace-event JSON when the run ends.  Untraced runs never
// touch a Tracer, so their timings carry none of this cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = kNoParent;
    std::uint64_t request = 0;
    int process = 0;  ///< 0 = benchmark/server, 1 = serve_mix client
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  int begin(std::string name, int parent, std::uint64_t request) {
    spans_.push_back({std::move(name), now_us(), 0.0, parent, request, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

  /// A span measured elsewhere (the serve_mix client's request records).
  void add(Span span) { spans_.push_back(std::move(span)); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span called `name`, in milliseconds.
  [[nodiscard]] double total_ms(const std::string& name) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) us += s.end_us - s.start_us;
    }
    return us / 1e3;
  }

  /// Chrome trace-event JSON ("X" complete events); `meta` is a JSON object
  /// stored under "otherData".  False if the file cannot be written.
  bool write(const std::string& path, const std::string& meta) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"otherData\":%s,\"traceEvents\":[", meta.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%llu}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.process, s.start_us,
                   s.end_us - s.start_us, i, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent,
             std::uint64_t request)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), parent, request)
                   : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
