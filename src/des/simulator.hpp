// Discrete-event simulation kernel.
//
// Single-threaded by design: one Simulator = one replication.  Parallelism
// happens one level up (util::ParallelFor over replications, each with a
// jump-separated RNG stream), which keeps the kernel free of locks and the
// results bit-reproducible for a given (seed, replication) pair.
//
// Event storage is a generation-checked slab: each pending event occupies
// one slot of a free-list-recycled vector, its callback embedded inline
// via the small-buffer-optimized InlineAction — so the schedule/fire/cancel
// cycle performs no per-event heap allocation and no hashing.  An EventId
// packs (sequence << kEventSlotBits) | slot: the sequence keeps ids
// strictly monotone (the queue's FIFO tie-break), while the full-id
// equality check against the slot's current occupant makes Cancel O(1)
// and generation-safe — a handle from a previous occupant of a reused
// slot can never cancel (or observe) its successor.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "des/action.hpp"
#include "des/event_queue.hpp"

namespace wsn::des {

class Simulator {
 public:
  using Action = InlineAction;

  /// Current simulation time.
  double Now() const noexcept { return now_; }

  /// Schedule `action` at absolute time `time` (>= Now()).
  EventId ScheduleAt(double time, Action action);

  /// Schedule `action` after `delay` (>= 0) from Now().
  EventId ScheduleAfter(double delay, Action action);

  /// Cancel a pending event.  Returns false if it already fired or was
  /// already cancelled (including when its slot has been reused by a
  /// later event).
  bool Cancel(EventId id);

  /// Fire the next event.  Returns false when no events remain.
  bool Step();

  /// Run until the event queue drains or the next event is later than
  /// `until`; Now() is clamped to `until` at exit so time-weighted
  /// statistics can be finalized at the horizon.
  void RunUntil(double until);

  /// Run until the queue drains completely.
  void RunToCompletion();

  /// Number of events fired so far.
  std::uint64_t ProcessedEvents() const noexcept { return processed_; }

  /// Live (pending, uncancelled) events.  Counted by the kernel itself,
  /// so the number is exact even while the lazy-deletion queue still holds
  /// cancelled-but-unpopped entries.
  std::size_t PendingEvents() const noexcept { return live_; }

  /// High-water slot count of the event-record slab (diagnostics: the
  /// peak number of simultaneously pending events this kernel has seen).
  std::size_t SlabSlots() const noexcept { return slab_.size(); }

  /// Kernel counters for the obs metrics layer.  All maintained as plain
  /// unconditional increments on fields the hot path already touches, so
  /// they cost the same whether or not anyone reads them.
  struct KernelStats {
    std::uint64_t scheduled = 0;    ///< events ever scheduled
    std::uint64_t fired = 0;        ///< events fired
    std::uint64_t cancelled = 0;    ///< events cancelled before firing
    std::uint64_t slab_reuses = 0;  ///< slot acquisitions served by the
                                    ///< free list (vs slab growth)
    std::uint64_t live_hwm = 0;     ///< peak simultaneously pending events
    std::uint64_t slab_slots = 0;   ///< event-record slab size
  };

  KernelStats Stats() const noexcept {
    return {next_seq_ - 1, processed_, cancelled_,
            slab_reuses_,  live_hwm_,  slab_.size()};
  }

 private:
  struct EventRecord {
    InlineAction action;
    EventId id = 0;  ///< full id of the occupant; 0 while on the free list
    std::uint32_t next_free = kNoFreeSlot;
  };

  static constexpr std::uint32_t kNoFreeSlot =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot);

  EventQueue queue_;
  std::vector<EventRecord> slab_;
  std::uint32_t free_head_ = kNoFreeSlot;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t slab_reuses_ = 0;
  std::uint64_t live_hwm_ = 0;
};

}  // namespace wsn::des
