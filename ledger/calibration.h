#ifndef HERMES_LEDGER_CALIBRATION_H_
#define HERMES_LEDGER_CALIBRATION_H_

namespace hermes::ledger {

/// Runs the reference kernel once and returns its wall seconds.
///
/// The kernel is fixed code that never changes with the simulator: a hash
/// table several times larger than the last-level cache with inserts,
/// lookups and erases, a binary-heap event queue, heap-allocated 48-byte
/// closures run in batches, and small vectors allocated and freed at
/// random — the same kinds of work that dominate a simulator run. On a
/// shared host, neighbours slow both down by similar factors, so a run's
/// wall time divided by the kernel time measured next to it varies far
/// less than the raw wall time does.
double ReferenceKernelSeconds();

/// Reference-kernel wall seconds on the idle host the baseline was taken
/// on. Normalised times are raw times scaled by this over the kernel time
/// measured next to them, so on an idle host of that type they read as
/// plain wall seconds.
inline constexpr double kReferenceKernelIdleSeconds = 0.134;

}  // namespace hermes::ledger

#endif  // HERMES_LEDGER_CALIBRATION_H_
