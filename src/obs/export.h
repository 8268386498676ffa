#ifndef HERMES_OBS_EXPORT_H_
#define HERMES_OBS_EXPORT_H_

#include <string>

#include "obs/trace.h"

namespace hermes::obs {

/// Renders the tracer's rings as Chrome trace_event JSON
/// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
/// loadable in Perfetto / chrome://tracing.
///
/// Layout: pid 0 is the cluster scope (ring 0), pid i+1 is node i. Within
/// a node, phase spans land on tid `1 + txn % lanes` (a deterministic
/// worker-lane assignment — the simulator has no real threads) and system
/// events on tid 0. Every field is an integer and events are written in
/// ring order, so the output is byte-identical across reruns and
/// HERMES_HASH_SALT values whenever the trace digest matches.
std::string ChromeTraceJson(const Tracer& tracer, int lanes = 4);

}  // namespace hermes::obs

#endif  // HERMES_OBS_EXPORT_H_
