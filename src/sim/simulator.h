#ifndef HERMES_SIM_SIMULATOR_H_
#define HERMES_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/digest.h"
#include "common/types.h"
#include "sim/callback.h"

namespace hermes::sim {

/// Lane index for work that runs in the exclusive slice of every epoch:
/// sequencing, routing, shared bookkeeping.
inline constexpr int kControlLane = -1;

/// Discrete-event simulation driver: a virtual clock plus one event queue.
/// Components schedule closures at relative or absolute simulated times;
/// Run*() advances the clock epoch by epoch.
///
/// Epoch schedule: every event is tagged with a lane — the *control* lane
/// or one lane per simulated node — and takes the next sequence number of
/// that lane. The queue pops in (time, lane, seq) order with the control
/// lane first, so each distinct virtual timestamp T runs in rounds of:
///
///   1. Control slice — every control event at T, exclusively (it may
///      touch any state).
///   2. Lane slice — every node lane's events at T, in ascending lane
///      order and in the lane's own seq order. Lane events may touch only
///      their node's state; pushes to other lanes and Defer()red closures
///      are *staged*, not applied.
///   3. Barrier — once no event at T is left, the staged operations apply
///      exclusively in staging order (which is ascending lane order); any
///      staged push at T starts the next round.
///
/// No round number is needed in the key: while T drains, nothing pushed
/// can sort before the running event. Control events push to control (a
/// larger seq) or to a lane (a larger lane tag); lane events push directly
/// only to their own lane (a larger seq). Each pop is mixed into the
/// decision digest as it runs; lane events never mix that digest
/// themselves, so the mix order is the (time, lane, seq) order.
///
/// The queue is a timing wheel (Varghese & Lauck, SOSP 1987). Each pending
/// event is a slab node whose closure is moved in once at push and out
/// once at pop (only the slab's amortised growth relocates it); freed
/// slots are recycled through a free list. A push lands in one of three
/// places:
///
///   - at the current time: the *due* heap, keyed by the packed
///     (lane, seq) order alone;
///   - within (now, now + kWheelSpan): the wheel bucket `when %
///     kWheelSpan`, found through a two-level occupancy bitmap;
///   - later: the *far* heap of (when, order, slot) keys.
///
/// Invariant: every wheel node lies in [now, now + kWheelSpan), so a
/// bucket holds a single timestamp. Reaching time T moves T's bucket and
/// the far-heap entries at T into the due heap, and pushes at T join it
/// while T drains, so a burst of k same-time events costs O(k log k). A
/// wheel push is O(1), finding the next time reads at most the four
/// summary words and two bitmap words, and a far push or collection costs
/// O(log f) in the f events more than a span ahead.
///
/// Everything runs on the calling thread. The staging fixes the total
/// order every digest pins: a lane's cross-node effects land at the
/// barrier, never in the middle of a sibling lane's slice.
class Simulator {
 public:
  Simulator() = default;
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

  int num_lanes() const { return static_cast<int>(next_seq_.size()) - 1; }

  /// Schedules `fn` to run `delay` microseconds from now, on the lane the
  /// caller is executing on (the control lane outside any event).
  void Schedule(SimTime delay, Callback fn);

  /// Schedules `fn` at absolute time `when`; times in the past fire "now"
  /// — clamped to the caller's epoch (the clock never rewinds).
  void ScheduleAt(SimTime when, Callback fn);

  /// Schedules `fn` on a specific lane (kControlLane, or a node lane; out
  /// of range falls back to the control lane, so un-partitioned setups
  /// degenerate to one lane).
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

  /// Runs events until the queue is empty or the next event is later than
  /// `deadline`; the clock ends at min(deadline, last event time).
  void RunUntil(SimTime deadline);

  /// Runs until no events remain.
  void RunAll();

  /// Number of events executed so far (diagnostics).
  uint64_t events_executed() const { return events_executed_; }

  /// Feeds every event pop's (time, lane, seq) into `digest`: the full
  /// firing order.
  void set_decision_digest(DecisionDigest* digest) { digest_ = digest; }

  bool idle() const { return pending_ == 0; }

  /// Width of the timing wheel in microseconds: pushes due within
  /// (now, now + kWheelSpan) take a wheel bucket, later ones the far heap.
  static constexpr SimTime kWheelSpan = SimTime{1} << 14;

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  static constexpr size_t kWheelWords = kWheelSpan / 64;
  static constexpr size_t kSummaryWords = (kWheelWords + 63) / 64;

  /// One pending event. `order` packs the rest of its key as
  /// (lane + 1) << 48 | seq, so the control lane sorts first; `next` links
  /// the node into its wheel bucket or the free list.
  struct Node {
    Callback fn;
    uint64_t order = 0;
    uint32_t next = kNoSlot;
  };
  /// A due-heap entry: every due event is at the current time.
  struct DueKey {
    uint64_t order;
    uint32_t slot;
  };
  /// A far-heap entry.
  struct FarKey {
    SimTime when;
    uint64_t order;
    uint32_t slot;
  };

  /// One staged operation from a lane event: either a push to another
  /// lane or a Defer()red exclusive closure.
  struct StagedOp {
    bool is_effect;
    int lane;      // destination lane (pushes only)
    SimTime when;  // firing time (pushes only)
    Callback fn;
  };

  void RunLoop(SimTime deadline, bool run_all);
  /// Mixes one pop into the decision digest; lane kControlLane tags 0.
  void MixPop(SimTime when, int lane, uint64_t seq);
  /// Clamps, falls back to control, and stages or queues: the body of
  /// every Schedule* call.
  void Push(int lane, SimTime when, Callback&& fn);
  /// Queues `fn` with the lane's next seq (no staging). `when` >= now_.
  void PushDirect(int lane, SimTime when, Callback&& fn);
  /// Earliest pending time after now_ in the wheel and far heap, or
  /// kSimTimeMax when both are empty.
  SimTime NextTime() const;
  /// First occupied wheel bucket at index >= `from`, or kWheelSpan.
  size_t FindBucket(size_t from) const;
  /// Moves now_'s wheel bucket and far-heap entries into the due heap.
  void CollectDue();
  void PushDue(uint64_t order, uint32_t slot);

  /// Event slab; free slots chain through Node::next from free_.
  std::vector<Node> nodes_;
  uint32_t free_ = kNoSlot;
  /// Live events: due, wheel and far together.
  size_t pending_ = 0;
  /// Min-heap on order of the events at now_.
  std::vector<DueKey> due_;
  /// Head slot of each wheel bucket; meaningful only where the bucket's
  /// occupancy bit is set.
  std::vector<uint32_t> buckets_ = std::vector<uint32_t>(kWheelSpan);
  /// Occupancy: bit i of words_ marks bucket i, bit w of summary_ marks a
  /// non-zero words_[w].
  uint64_t words_[kWheelWords] = {};
  uint64_t summary_[kSummaryWords] = {};
  /// Min-heap on when of the events beyond the wheel at push time.
  std::vector<FarKey> far_;
  /// Next seq per lane, indexed lane + 1 (control at 0).
  std::vector<uint64_t> next_seq_ = std::vector<uint64_t>(1, 0);
  /// The running round's staged operations, in staging order.
  std::vector<StagedOp> staged_;
  SimTime now_ = 0;
  /// Lane of the executing event; kControlLane when exclusive. Kept per
  /// simulator, so a second simulator run inside an event (the replay
  /// oracles do this) has its own context.
  int lane_ = kControlLane;
  uint64_t events_executed_ = 0;
  DecisionDigest* digest_ = nullptr;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_SIMULATOR_H_
