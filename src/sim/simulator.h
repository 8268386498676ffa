#ifndef HERMES_SIM_SIMULATOR_H_
#define HERMES_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/digest.h"
#include "common/types.h"
#include "sim/callback.h"
#include "sim/event_queue.h"

namespace hermes::sim {

/// Lane index for work that runs in the exclusive slice of every epoch:
/// sequencing, routing, shared bookkeeping.
inline constexpr int kControlLane = -1;

/// Discrete-event simulation driver: a virtual clock plus per-lane event
/// queues. Components schedule closures at relative or absolute simulated
/// times; Run*() advances the clock epoch by epoch.
///
/// Epoch schedule: events are partitioned into one *control* lane plus one
/// lane per simulated node. Each distinct virtual timestamp T is an epoch,
/// executed in three steps:
///
///   1. Control slice — every control event at T runs, exclusively (it may
///      touch any state).
///   2. Lane slice — every node lane with events at T drains them, in
///      ascending lane order and in the lane's own (time, seq) order. Lane
///      events may touch only their node's state; pushes to other lanes
///      and Defer()red closures are *staged*, not applied.
///   3. Barrier — the lanes' pop transcripts are folded into the decision
///      digest and their staged operations applied, both in ascending lane
///      order, then step 1 re-enters while events remain at T.
///
/// Everything runs on the calling thread. The staging fixes the total
/// order every digest pins: a lane's cross-node effects land at the
/// barrier, never in the middle of a sibling lane's slice.
class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time: the executing event's epoch inside a handler.
  SimTime Now() const { return now_; }

  /// Declares `num_lanes` node lanes. Call before scheduling lane work; may
  /// be called again only to grow the lane count or keep it equal.
  /// `threads` is a compatibility stub for callers written when lanes could
  /// run on OS threads; its only legal value is 0 (asserted).
  void ConfigureLanes(int num_lanes, int threads = 0);

  /// Grows the lane count (dynamic provisioning). Exclusive context only.
  void EnsureLanes(int num_lanes);

  int num_lanes() const { return static_cast<int>(lanes_.size()); }

  /// Schedules `fn` to run `delay` microseconds from now, on the lane the
  /// caller is executing on (the control lane outside any event).
  void Schedule(SimTime delay, Callback fn);

  /// Schedules `fn` at absolute time `when`; times in the past fire "now"
  /// — clamped to the caller's epoch (the queue never rewinds any lane's
  /// clock).
  void ScheduleAt(SimTime when, Callback fn);

  /// Schedules `fn` on a specific lane (kControlLane, or a node lane; out
  /// of range falls back to the control lane, so un-partitioned setups
  /// degenerate to one queue).
  void ScheduleOnLane(int lane, SimTime delay, Callback fn);
  void ScheduleOnLaneAt(int lane, SimTime when, Callback fn);

  /// Runs `fn` in exclusive context: immediately when the caller already
  /// is exclusive (control slice, barrier, or outside a run), otherwise
  /// staged to this epoch's barrier. Lane code uses this for the few
  /// cross-node effects (shared bookkeeping, metrics) that must land after
  /// every sibling lane's slice.
  void Defer(Callback fn);

  /// Lane an event of this simulator is currently executing on, or
  /// kControlLane when exclusive.
  int current_lane() const { return lane_; }

  /// True while the caller runs inside a node-lane event of this
  /// simulator.
  bool in_lane_context() const { return lane_ != kControlLane; }

  /// Runs events until the queues are empty or the next event is later
  /// than `deadline`; the clock ends at min(deadline, last event time).
  void RunUntil(SimTime deadline);

  /// Runs until no events remain.
  void RunAll();

  /// Number of events executed so far (diagnostics).
  uint64_t events_executed() const { return events_executed_; }

  /// Feeds every event pop's (time, lane, seq) into `digest`: the full
  /// firing order.
  void set_decision_digest(DecisionDigest* digest) { digest_ = digest; }

  bool idle() const;

 private:
  /// One staged operation from a lane event: either a push to another
  /// lane's queue or a Defer()red exclusive closure.
  struct StagedOp {
    bool is_effect;
    int lane;      // destination lane (pushes only)
    SimTime when;  // firing time (pushes only)
    Callback fn;
  };

  /// A node lane: its event queue plus the per-epoch buffers its slice
  /// fills (read back at the barrier).
  struct Lane {
    EventQueue queue;
    std::vector<uint64_t> popped_seqs;
    std::vector<StagedOp> staged;
  };

  void RunLoop(SimTime deadline, bool run_all);
  /// Drains lane `i`'s events at epoch `t`.
  void ExecuteLane(int i, SimTime t);
  /// Mixes one pop into the decision digest; lane kControlLane tags 0.
  void MixPop(SimTime when, int lane, uint64_t seq);
  /// Direct push into a lane queue (exclusive context only).
  void PushDirect(int lane, SimTime when, Callback fn);

  EventQueue control_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  SimTime now_ = 0;
  /// Lane of the executing event; kControlLane when exclusive. Kept per
  /// simulator, so a second simulator run inside an event (the replay
  /// oracles do this) has its own context.
  int lane_ = kControlLane;
  uint64_t events_executed_ = 0;
  DecisionDigest* digest_ = nullptr;
  std::vector<int> active_lanes_;  // scratch for RunLoop
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_SIMULATOR_H_
