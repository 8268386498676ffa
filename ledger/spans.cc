#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace hermes::ledger {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(std::string name, int parent) {
  const int64_t now = WallNs();
  return Add(std::move(name), parent, now, now);
}

void SpanRecorder::End(int id) { spans_[id].end_ns = WallNs(); }

int SpanRecorder::Add(std::string name, int parent, int64_t start_ns,
                      int64_t end_ns) {
  spans_.push_back(Span{std::move(name), parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_intervals[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = child_intervals[i];
    std::sort(iv.begin(), iv.end());
    // Union of the child intervals clipped to the parent's own interval.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [lo, hi] : iv) {
      const int64_t from = std::max(lo, cursor);
      const int64_t to = std::min(hi, s.end_ns);
      if (to > from) covered += to - from;
      cursor = std::max(cursor, std::min(hi, s.end_ns));
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes();
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<double>(self[i]) / 1e3);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace hermes::ledger
