// The event queue of the LogP discrete-event engine.
//
// The engine pops events in (time, phase, seq) order: time steps ascend,
// the three phases within a step run Delivery -> Processor -> Accept, and
// ties inside a phase break FIFO by push order. Handlers may push new
// events at the *current* step (even into an earlier phase of it, e.g. a
// processor resumed during the Accept phase immediately issuing a
// same-step RecvCheck), but never into the past.
//
// Storage is SoA: the queue orders 12-byte records (proc, payload slot,
// kind) — time is implicit in the wheel position, phase in the lane — and
// the one event kind that carries data (Delivery) indexes a Message in a
// free-listed payload pool owned by EventQueue. Wheel scans and lane
// drains touch only the hot ordering words; a 40-byte Message is written
// once at push and read once at delivery, never copied through the queue.
//
// EventQueue is a calendar/timing-wheel queue: per-step buckets holding
// three append-only phase lanes (appends arrive in push order, so a lane
// IS its sorted order), a 64-bit occupancy bitmap for O(1) advance to the
// next non-empty step, and a single sorted flat overflow buffer
// (binary-search insert, batch migration — no node allocations) for events
// beyond the wheel horizon. Push and pop are O(1) amortized; no comparator
// runs in the hot loop. tests/logp/event_queue_test.cpp checks its pop
// order against a binary-heap oracle on random streams.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/core/contracts.h"
#include "src/core/types.h"

namespace bsplogp::logp::detail {

// Event phases within one time step: deliveries free capacity slots before
// processor actions, and acceptance (the Stalling Rule) runs after all
// submissions of the step are in.
enum class Phase : std::uint8_t { Delivery = 0, Processor = 1, Accept = 2 };

enum class EventKind : std::uint8_t {
  Start,
  Resume,
  Delivery,
  Submit,
  RecvCheck,
  Acquire,
  Accept,
};

/// Payload-pool slot index; kNoPayload for the kinds that carry none.
using PayloadSlot = std::int32_t;
inline constexpr PayloadSlot kNoPayload = -1;

/// What the engine loop consumes: when, what, who, and (for Delivery) the
/// payload-pool slot of the message. Phase and FIFO order are scheduling
/// concerns resolved inside the queue; the loop never reads them.
struct Event {
  Time t;
  ProcId proc;  // acting processor, or destination for Delivery/Accept
  PayloadSlot payload;
  EventKind kind;
};

/// The hot ordering record stored in wheel lanes: 12 bytes. Time is the
/// wheel position, phase is the lane.
struct LaneRec {
  ProcId proc;
  PayloadSlot payload;
  EventKind kind;
};

/// The engine's event queue: a timing wheel of per-step buckets with an
/// occupancy bitmap, spilling events beyond the horizon into a sorted flat
/// buffer, plus the pool of Delivery payloads.
class EventQueue {
 public:
  EventQueue() { cur_slot_ = &wheel_[0]; }

  void reset() {
    for (Slot& s : wheel_) s.reset();
    for (std::uint64_t& w : occupied_) w = 0;
    overflow_.clear();
    overflow_head_ = 0;
    cur_ = 0;
    cur_slot_ = &wheel_[0];
    wheel_count_ = 0;
    pool_.clear();       // keeps capacity
    pool_free_.clear();  // keeps capacity
  }

  /// Schedules a payload-free event.
  void push(Time t, Phase phase, EventKind kind, ProcId proc) {
    push_rec(t, phase, LaneRec{proc, kNoPayload, kind});
  }

  /// Schedules an event carrying a Message (Delivery): the message is
  /// written once into a pooled slot; the queue orders only the slot index.
  void push_msg(Time t, Phase phase, EventKind kind, ProcId proc,
                const Message& msg) {
    push_rec(t, phase, LaneRec{proc, alloc_payload(msg), kind});
  }

  // Derived, not a third counter: a total decremented beside wheel_count_
  // in pop() gets fused with it into one 16-byte load that straddles
  // push()'s two 8-byte stores and stalls on store forwarding.
  [[nodiscard]] bool empty() const {
    return wheel_count_ == 0 && overflow_size() == 0;
  }

  Event pop() {
    BSPLOGP_ASSERT(!empty());
    Slot* slot = cur_slot_;
    if (slot->remaining == 0) {
      advance();
      slot = cur_slot_;
    }
    // Lowest phase with unconsumed events. min_lane is a sound hint: every
    // lane below it is exhausted, and a handler pushing into an earlier
    // phase of this step lowers it again — so the scan usually starts at
    // the hit instead of walking empty Delivery/Processor lanes for every
    // Accept event.
    for (std::uint32_t ph = slot->min_lane; ph < 3; ++ph) {
      auto& lane = slot->lanes[static_cast<std::size_t>(ph)];
      auto& taken = slot->taken[static_cast<std::size_t>(ph)];
      if (taken < lane.size()) {
        const LaneRec rec = lane[taken];
        taken += 1;
        slot->min_lane = ph;
        slot->remaining -= 1;
        wheel_count_ -= 1;
        if (slot->remaining == 0) {
          slot->reset();
          clear_bit(cur_);
        }
        return Event{cur_, rec.proc, rec.payload, rec.kind};
      }
    }
    BSPLOGP_ASSERT(false && "corrupt bucket: remaining > 0 but lanes empty");
    return Event{};
  }

  /// The message parked in `slot`. The reference stays valid until the
  /// next push_msg (the pool vector may grow) — consume before pushing.
  [[nodiscard]] const Message& payload(PayloadSlot slot) const {
    BSPLOGP_ASSERT(slot >= 0 &&
                   static_cast<std::size_t>(slot) < pool_.size());
    return pool_[static_cast<std::size_t>(slot)];
  }

  /// Recycles a consumed payload slot.
  void release(PayloadSlot slot) {
    BSPLOGP_ASSERT(slot >= 0 &&
                   static_cast<std::size_t>(slot) < pool_.size());
    pool_free_.push_back(slot);
  }

 private:
  static constexpr int kWheelBits = 10;
  static constexpr Time kWheelSize = Time{1} << kWheelBits;
  static constexpr std::uint64_t kMask = kWheelSize - 1;
  static constexpr std::size_t kWords = kWheelSize / 64;

  struct Slot {
    std::vector<LaneRec> lanes[3];  // one append-only lane per phase
    std::uint32_t taken[3] = {0, 0, 0};
    std::uint32_t remaining = 0;
    std::uint32_t min_lane = 3;  // no lane can have unconsumed events
    void reset() {
      for (auto& lane : lanes) lane.clear();  // keeps capacity for reuse
      taken[0] = taken[1] = taken[2] = 0;
      remaining = 0;
      min_lane = 3;
    }
  };

  /// A beyond-horizon event parked in the flat overflow buffer: the full
  /// ordering key (t, phase) plus the lane record, 24 bytes. FIFO order
  /// within equal (t, phase) is the buffer's insertion order (stable
  /// upper_bound insert).
  struct OverflowRec {
    Time t;
    LaneRec rec;
    Phase phase;
  };

  void push_rec(Time t, Phase phase, LaneRec rec) {
    BSPLOGP_ASSERT(t >= cur_);  // the engine never schedules the past
    if (t < cur_ + kWheelSize) {
      push_wheel(t, phase, rec);
    } else {
      push_overflow(t, phase, rec);
    }
  }

  static std::size_t index_of(Time t) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t) & kMask);
  }

  void set_bit(Time t) {
    const std::size_t i = index_of(t);
    occupied_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_bit(Time t) {
    const std::size_t i = index_of(t);
    occupied_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void push_wheel(Time t, Phase phase, LaneRec rec) {
    Slot& slot = wheel_[index_of(t)];
    if (slot.remaining == 0) set_bit(t);
    slot.lanes[static_cast<std::size_t>(phase)].push_back(rec);
    slot.remaining += 1;
    slot.min_lane = std::min(slot.min_lane,
                             static_cast<std::uint32_t>(phase));
    wheel_count_ += 1;
  }

  /// Sorted insert by t alone: upper_bound places a new entry after every
  /// existing entry of the same t, so insertion order — which is push
  /// order, which is FIFO order — is preserved among equal times, and
  /// migration can replay the range in buffer order. Overflow pushes are
  /// rare (an event lands here only when scheduled > 1024 steps out, e.g.
  /// huge compute blocks), so the O(n) vector insert is paid where the
  /// old std::map paid a node allocation plus rebalancing.
  void push_overflow(Time t, Phase phase, LaneRec rec) {
    const auto it = std::upper_bound(
        overflow_.begin() + static_cast<std::ptrdiff_t>(overflow_head_),
        overflow_.end(), t,
        [](Time lhs, const OverflowRec& r) { return lhs < r.t; });
    overflow_.insert(it, OverflowRec{t, rec, phase});
  }

  [[nodiscard]] std::size_t overflow_size() const {
    return overflow_.size() - overflow_head_;
  }

  /// Pulls overflow entries that now fall inside the wheel horizon. An
  /// overflow entry for time t is always migrated before any direct wheel
  /// push at t can happen (pushes at t require t < cur + W, and migration
  /// runs on every cursor advance), so lane FIFO order is preserved. The
  /// consumed prefix advances by index; storage compacts (capacity kept)
  /// once the live tail is smaller than the dead prefix.
  void migrate() {
    const Time horizon = cur_ + kWheelSize;
    std::size_t head = overflow_head_;
    while (head < overflow_.size() && overflow_[head].t < horizon) {
      const OverflowRec& o = overflow_[head];
      push_wheel(o.t, o.phase, o.rec);
      head += 1;
    }
    overflow_head_ = head;
    if (overflow_head_ == overflow_.size()) {
      overflow_.clear();
      overflow_head_ = 0;
    } else if (overflow_head_ > overflow_.size() - overflow_head_) {
      overflow_.erase(overflow_.begin(),
                      overflow_.begin() +
                          static_cast<std::ptrdiff_t>(overflow_head_));
      overflow_head_ = 0;
    }
  }

  /// Moves the cursor to the next time step with events. All wheel events
  /// live in [cur_, cur_ + W), so the bitmap scan starting at the cursor's
  /// slot finds the minimum wheel time; after migrate(), any remaining
  /// overflow time is beyond the horizon and therefore later.
  void advance() {
    cur_ += 1;
    migrate();
    if (wheel_count_ == 0) {
      BSPLOGP_ASSERT(overflow_head_ < overflow_.size());
      cur_ = overflow_[overflow_head_].t;  // jump to the overflow min time
      migrate();
    }
    BSPLOGP_ASSERT(wheel_count_ > 0);
    cur_ = scan_from(cur_);
    // The scan can move the cursor — and with it the horizon — many steps
    // at once. Migrate again at the final cursor so every overflow entry
    // now inside [cur_, cur_ + W) enters its lane before any handler at
    // cur_ can push to the same step directly; otherwise a direct push
    // would order ahead of an earlier-pushed overflow entry, breaking
    // FIFO. (Migrated entries all lie at t >= the pre-scan horizon > cur_,
    // so the minimum found by the scan is unaffected.)
    migrate();
    cur_slot_ = &wheel_[index_of(cur_)];
  }

  /// Smallest t' in [t, t + W) whose slot is occupied.
  [[nodiscard]] Time scan_from(Time t) const {
    const std::size_t start = index_of(t);
    std::size_t word = start >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t i = 0; i <= kWords; ++i) {
      if (bits != 0) {
        const auto idx =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        return t + static_cast<Time>((idx - start) & kMask);
      }
      word = (word + 1) & (kWords - 1);
      bits = occupied_[word];
    }
    BSPLOGP_ASSERT(false && "occupancy bitmap empty despite wheel_count_ > 0");
    return t;
  }

  PayloadSlot alloc_payload(const Message& msg) {
    if (!pool_free_.empty()) {
      const PayloadSlot slot = pool_free_.back();
      pool_free_.pop_back();
      pool_[static_cast<std::size_t>(slot)] = msg;
      return slot;
    }
    const auto slot = static_cast<PayloadSlot>(pool_.size());
    pool_.push_back(msg);
    return slot;
  }

  std::vector<Slot> wheel_{static_cast<std::size_t>(kWheelSize)};
  std::uint64_t occupied_[kWords] = {};
  // Flat sorted overflow: [overflow_head_, size) is live, ascending by t,
  // FIFO within t. The prefix [0, overflow_head_) is already migrated.
  std::vector<OverflowRec> overflow_;
  std::size_t overflow_head_ = 0;
  Time cur_ = 0;
  Slot* cur_slot_ = nullptr;  // == &wheel_[index_of(cur_)]; wheel_ is fixed
  std::size_t wheel_count_ = 0;
  // Message payload pool: in-flight Delivery payloads live here, indexed
  // by PayloadSlot, recycled through a free list. Steady state allocates
  // nothing.
  std::vector<Message> pool_;
  std::vector<PayloadSlot> pool_free_;
};

}  // namespace bsplogp::logp::detail


