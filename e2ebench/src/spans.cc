#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2ebench {

int SpanRecorder::Open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_[index].start_ns = NowNs();
  return index;
}

void SpanRecorder::Close(int index) {
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order (RAII); tolerate a caller closing an outer
  // span first by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;  // end of the union covered so far
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, NameTotals> out;
  for (const Span& s : spans) {
    NameTotals& t = out[s.name];
    t.total_ns += s.end_ns - s.start_ns;
    ++t.count;
  }
  return out;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d}%s\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
