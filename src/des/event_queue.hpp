// The DES kernel's pending-event set: a two-tier lazy-deletion heap.
//
// The kernel needs: insert (time, payload), extract-min by (time, id),
// and cancellation.  Ties break FIFO via a monotone id so simultaneous
// events (immediate chains, zero delays) process in schedule order — a
// documented, deterministic semantics.
//
// Two binary heaps share the work.  An event due within kNearBand of the
// last popped time goes to the small *near* heap; every other event goes
// to the *far* heap.  PeekMin/PopMin take the smaller of the two tops by
// (time, id), so the order of pops never depends on which tier an event
// landed in — the split only decides how much sifting each push and pop
// pays.  Netsim's hot loop (TX completions a few ms ahead) then sifts a
// heap of the in-flight transmissions only, while far-future arrivals and
// death reschedules wait in the far heap (see docs/performance.md).
//
// Cancellation is lazy and O(1): a slot-indexed liveness vector (no
// hashing — see the EventId layout notes below) is cleared now, and the
// stale entry is skipped when it reaches the top of either heap.  Once
// the far heap's stale entries outnumber the live events by a wide
// margin it is compacted in one linear pass, so cancelled reschedules
// cannot pile up.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace wsn::des {

using EventId = std::uint64_t;

/// EventId bit layout (shared contract between the kernel and the
/// queue): the low kEventSlotBits address the kernel's event-record
/// slab slot, the high bits carry a monotonically increasing schedule
/// sequence number.  Two consequences the queue relies on:
///   * ids are strictly increasing in schedule order (FIFO tie-break
///     stays a plain integer comparison), and
///   * at any instant, no two *live* ids share the same low-bit slot —
///     which lets the queue keep an O(1), hash-free cancellation index
///     addressed by slot (stale entries from a reused slot fail the
///     full-id equality check).
/// Standalone users of the queue (tests, microbenchmarks) satisfy the
/// slot rule automatically as long as their ids are unique, nonzero (0 is
/// the reserved "no event" id) and below 2^24.
inline constexpr unsigned kEventSlotBits = 24;
inline constexpr EventId kEventSlotMask = (EventId{1} << kEventSlotBits) - 1;

/// Slab slot addressed by an id.
constexpr std::size_t EventSlotOf(EventId id) noexcept {
  return static_cast<std::size_t>(id & kEventSlotMask);
}

/// One scheduled entry as seen by the kernel.
struct QueuedEvent {
  double time = 0.0;
  EventId id = 0;
};

/// The kernel's pending-event set (see the file comment).
class EventQueue {
 public:
  /// Width of the near tier, in simulated time after the last pop.  Any
  /// value gives the same pop order; this one keeps netsim's TX
  /// completions (ms ahead) near and its arrivals and death reschedules
  /// (tens to hundreds of s ahead) far.
  static constexpr double kNearBand = 1.0;

  /// Insert an event; `id` is unique per insert and encodes FIFO order
  /// (the kernel hands out monotonically increasing ids).
  void Push(double time, EventId id) {
    const std::size_t slot = EventSlotOf(id);
    if (slot >= live_by_slot_.size()) live_by_slot_.resize(slot + 1, 0);
    live_by_slot_[slot] = id;
    ++size_;
    if (time < near_end_) {
      PushHeap(near_, {time, id});
    } else {
      PushHeap(far_, {time, id});
      // Stale far entries only surface when simulated time reaches them;
      // drop them in bulk once they dwarf the live set.
      if (far_.size() > 2 * size_ + kCompactSlack) Compact(far_);
    }
  }

  /// True if no live events remain.
  bool Empty() const noexcept { return size_ == 0; }

  /// Number of live events.
  std::size_t Size() const noexcept { return size_; }

  /// Heap entries held, live plus not yet dropped cancelled ones
  /// (diagnostics: the lazy-deletion overhead).
  std::size_t StoredEntries() const noexcept {
    return near_.size() + far_.size();
  }

  /// Remove and return the earliest live event.  Precondition: !Empty().
  QueuedEvent PopMin() {
    util::Require(size_ > 0, "PopMin on empty event queue");
    std::vector<QueuedEvent>& heap = MinTier();
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const QueuedEvent e = heap.back();
    heap.pop_back();
    live_by_slot_[EventSlotOf(e.id)] = 0;
    --size_;
    near_end_ = e.time + kNearBand;
    return e;
  }

  /// Earliest live event without removing it.  Precondition: !Empty().
  QueuedEvent PeekMin() {
    util::Require(size_ > 0, "PeekMin on empty event queue");
    return MinTier().front();
  }

  /// Cancel by id.  Returns false when the id is not live (already fired
  /// or already cancelled).
  bool Cancel(EventId id) {
    // Clear the slot-addressed liveness mark now; the stale heap entry is
    // skipped when it surfaces.  A reused slot holds a different full
    // id, so stale entries from earlier occupants never read as live.
    if (!IsLive(id)) return false;
    live_by_slot_[EventSlotOf(id)] = 0;
    --size_;
    return true;
  }

 private:
  // Heap order for a min-heap under std::*_heap: earliest time first,
  // then lowest id (FIFO).
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  // Entries a heap may hold beyond twice the live count before Compact.
  static constexpr std::size_t kCompactSlack = 4096;

  static void PushHeap(std::vector<QueuedEvent>& heap, QueuedEvent e) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), Later{});
  }

  bool IsLive(EventId id) const noexcept {
    if (id == 0) return false;  // 0 doubles as the empty-slot marker
    const std::size_t slot = EventSlotOf(id);
    return slot < live_by_slot_.size() && live_by_slot_[slot] == id;
  }

  void SkipCancelled(std::vector<QueuedEvent>& heap) {
    while (!heap.empty() && !IsLive(heap.front().id)) {
      std::pop_heap(heap.begin(), heap.end(), Later{});
      heap.pop_back();
    }
  }

  // The tier whose top is the earliest live event.  Precondition: a live
  // event exists, so after the skips at least one tier is non-empty.
  std::vector<QueuedEvent>& MinTier() {
    SkipCancelled(near_);
    SkipCancelled(far_);
    if (near_.empty()) return far_;
    if (far_.empty() || !Later{}(near_.front(), far_.front())) return near_;
    return far_;
  }

  // Drop every stale entry and re-heapify: O(n), amortised over the
  // cancellations that made at least half the heap stale.
  void Compact(std::vector<QueuedEvent>& heap) {
    std::erase_if(heap, [this](const QueuedEvent& e) { return !IsLive(e.id); });
    std::make_heap(heap.begin(), heap.end(), Later{});
  }

  std::vector<QueuedEvent> near_;
  std::vector<QueuedEvent> far_;
  double near_end_ = kNearBand;  // last popped time + kNearBand
  // Indexed by EventSlotOf(id): the live id occupying that slot, or 0.
  std::vector<EventId> live_by_slot_;
  std::size_t size_ = 0;
};

}  // namespace wsn::des
