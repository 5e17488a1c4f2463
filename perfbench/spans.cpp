#include "spans.hpp"

#include <cassert>

namespace perfbench {

std::int32_t SpanRecorder::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), -1, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int32_t id) {
  assert(!open_.empty() && open_.back() == id);
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::child_time() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return covered;
}

double SpanRecorder::total(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name && s.end_ns >= 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanRecorder::self(std::string_view name) const {
  const std::vector<std::int64_t> covered = child_time();
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name && s.end_ns >= 0) ns += s.end_ns - s.start_ns - covered[i];
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanRecorder::child_coverage(std::string_view name) const {
  const std::vector<std::int64_t> covered = child_time();
  std::int64_t span_ns = 0;
  std::int64_t child_ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name && s.end_ns >= 0) {
      span_ns += s.end_ns - s.start_ns;
      child_ns += covered[i];
    }
  }
  return span_ns > 0 ? static_cast<double>(child_ns) / static_cast<double>(span_ns) : 0.0;
}

}  // namespace perfbench
