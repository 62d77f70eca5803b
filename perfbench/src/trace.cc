#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <tuple>
#include <utility>

namespace perfbench {

std::int64_t SpanClockNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanRecorder::Open(std::int64_t request, const char* layer,
                                std::int32_t parent) {
  const std::int64_t now = SpanClockNs();
  return Add({request, layer, now, now, parent});
}

void SpanRecorder::Close(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = SpanClockNs();
}

std::int32_t SpanRecorder::Add(const Span& span) {
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> self = SelfTimesNs(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"request\":" << s.request << ",\"layer\":\""
        << s.layer << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"self_ns\":" << self[i]
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  // (parent, start, end) of every child interval clipped to its parent,
  // sorted so each parent's children are adjacent and in start order.
  std::vector<std::tuple<std::int32_t, std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t b = std::max(s.start_ns, p.start_ns);
    const std::int64_t e = std::min(s.end_ns, p.end_ns);
    if (b < e) kids.emplace_back(s.parent, b, e);
  }
  std::sort(kids.begin(), kids.end());
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].DurationNs();
  }
  std::int32_t parent = -1;
  std::int64_t reach = 0;
  for (const auto& [p, b, e] : kids) {
    if (p != parent) {
      parent = p;
      reach = b;
    }
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      self[static_cast<std::size_t>(p)] -= e - from;
      reach = e;
    }
  }
  return self;
}

bool ChildrenNest(const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) return false;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.request != p.request || s.start_ns < p.start_ns ||
        s.end_ns > p.end_ns || s.start_ns > s.end_ns) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
