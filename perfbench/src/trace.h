// Spans recorded around the calls the traced run makes into each layer.
// Spans live in a preallocated buffer and are written out when the run
// ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call. `parent` indexes the span it ran inside, -1 for a root.
struct Span {
  std::int64_t request = 0;
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;

  std::int64_t DurationNs() const { return end_ns - start_ns; }
};

std::int64_t SpanClockNs();  ///< steady clock, nanoseconds

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span now and returns its index.
  std::int32_t Open(std::int64_t request, const char* layer,
                    std::int32_t parent = -1);
  void Close(std::int32_t span);
  /// Records a finished span.
  std::int32_t Add(const Span& span);
  void Clear() { spans_.clear(); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per line; false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Each span's duration minus the part of it its children cover (the
/// union of the children's intervals, clipped to the span).
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// True iff every child lies inside its parent and shares its request.
bool ChildrenNest(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
