// In-memory span recorder for the traced pass.
//
// The benchmark times every call it makes into a layer from outside: a
// span is (name, start, end, parent), kept in memory while the unit runs
// and written out when the benchmark ends. A layer's self time is the
// span's duration minus the part of that interval its child spans cover.

#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder's spans, -1 = root
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  /// Opens a span as a child of the innermost open span; returns its index.
  int Open(const char* name);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name)
      : rec_(rec), index_(rec.Open(name)) {}
  ~Scoped() { rec_.Close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Sums per span name: total duration (ns) and the number of spans.
struct NameTotals {
  int64_t total_ns = 0;
  int64_t count = 0;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes the spans as one JSON array of {name, start_ns, end_ns, parent}.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
