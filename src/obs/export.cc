#include "obs/export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace hermes::obs {

namespace {

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

/// True for lifecycle kinds drawn on a per-transaction worker lane;
/// system events (migrations, faults, evictions) stay on tid 0.
bool OnWorkerLane(EventKind kind) {
  switch (kind) {
    case EventKind::kPhaseSequence:
    case EventKind::kPhaseLockWait:
    case EventKind::kPhaseRemoteWait:
    case EventKind::kPhaseExecute:
    case EventKind::kTxnDispatch:
    case EventKind::kTxnCommit:
    case EventKind::kTxnAbort:
      return true;
    default:
      return false;
  }
}

void AppendEvent(std::string* out, const TraceEvent& e, uint64_t pid,
                 int lanes, bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  const uint64_t tid =
      OnWorkerLane(e.kind) && e.txn != kInvalidTxn
          ? 1 + e.txn % static_cast<uint64_t>(lanes > 0 ? lanes : 1)
          : 0;
  Append(out,
         "{\"name\":\"%s\",\"cat\":\"hermes\",\"pid\":%" PRIu64
         ",\"tid\":%" PRIu64 ",\"ts\":%" PRIu64,
         EventKindName(e.kind), pid, tid, e.when);
  if (IsSpan(e.kind)) {
    Append(out, ",\"ph\":\"X\",\"dur\":%" PRIu64, e.dur);
  } else {
    out->append(",\"ph\":\"i\",\"s\":\"t\"");
  }
  Append(out,
         ",\"args\":{\"txn\":%" PRIu64 ",\"key\":%" PRIu64 ",\"arg\":%" PRIu64
         ",\"seq\":%" PRIu64 "}}",
         e.txn, e.key, e.arg, e.seq);
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer, int lanes) {
  std::string out;
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  // Process-name metadata, one per ring, so Perfetto labels the tracks.
  for (size_t i = 0; i < tracer.num_rings(); ++i) {
    if (!first) out.append(",\n");
    first = false;
    if (i == 0) {
      Append(&out,
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
             "\"args\":{\"name\":\"cluster\"}}");
    } else {
      Append(&out,
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,\"tid\":0,"
             "\"args\":{\"name\":\"node %zu\"}}",
             i, i - 1);
    }
  }
  for (size_t i = 0; i < tracer.num_rings(); ++i) {
    for (const TraceEvent& e : tracer.ring(i).InOrder()) {
      AppendEvent(&out, e, static_cast<uint64_t>(i), lanes, &first);
    }
  }
  Append(&out,
         "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
         "\"trace_digest\":\"%016" PRIx64 "\",\"events\":%" PRIu64
         ",\"dropped\":%" PRIu64 "}}\n",
         tracer.digest().value(), tracer.total_recorded(),
         tracer.total_dropped());
  return out;
}

}  // namespace hermes::obs
