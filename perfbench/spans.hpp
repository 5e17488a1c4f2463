// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// the library's public functions (see workloads.cpp).  Each span has a name,
// a start, an end and a parent; spans nest strictly because everything they
// wrap runs on the calling thread (exec pool workers are never traced).  A
// layer's self time is its spans' duration minus the part their children
// cover.  Nothing is written out until the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = nullptr;  ///< static string; spans compare names by value
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Pre-sizes the span store so recording does not allocate mid-run.
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Opens a span as a child of the innermost open span; returns its id.
  std::int32_t begin(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of spans named `name`, seconds.
  double total(std::string_view name) const;
  /// Summed self time (duration minus child-covered time) of spans named
  /// `name`, seconds.
  double self(std::string_view name) const;
  /// Share of the duration of spans named `name` that their children cover.
  double child_coverage(std::string_view name) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  /// Per-span summed duration of direct children.
  std::vector<std::int64_t> child_time() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Opens a span for the enclosing scope; a null recorder records nothing, so
/// untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t id_;
};

}  // namespace perfbench
