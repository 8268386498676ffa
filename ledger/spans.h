#ifndef HERMES_LEDGER_SPANS_H_
#define HERMES_LEDGER_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hermes::ledger {

/// Monotonic wall clock in nanoseconds since an arbitrary origin.
int64_t WallNs();

/// Bench-side spans around calls into the layers, kept in memory and
/// written out when the run ends. A span's self time is its duration minus
/// the part of its interval covered by its child spans.
class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span starting now; returns its id.
  int Begin(std::string name, int parent);
  /// Closes span `id` now.
  void End(int id);
  /// Records a finished span with explicit bounds (aggregated spans, such
  /// as the generator's summed time inside the run).
  int Add(std::string name, int parent, int64_t start_ns, int64_t end_ns);

  /// Writes the spans as Chrome trace_event JSON (Perfetto-loadable), each
  /// with its self time; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Self time of every span, indexed by span id.
  std::vector<int64_t> SelfTimes() const;

  std::vector<Span> spans_;
};

}  // namespace hermes::ledger

#endif  // HERMES_LEDGER_SPANS_H_
