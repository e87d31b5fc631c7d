#include "des/simulator.hpp"

#include "util/error.hpp"

namespace wsn::des {

using util::Require;

namespace {

// The sequence field occupies the bits above the slot; leaving headroom
// of one bit keeps (seq << kEventSlotBits) from ever overflowing.
constexpr std::uint64_t kMaxSequence =
    (std::uint64_t{1} << (64 - kEventSlotBits - 1)) - 1;

}  // namespace

std::uint32_t Simulator::AcquireSlot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    ++slab_reuses_;
    return slot;
  }
  Require(slab_.size() < kEventSlotMask,
          "event slab exhausted (too many simultaneously pending events)");
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::ReleaseSlot(std::uint32_t slot) {
  EventRecord& rec = slab_[slot];
  rec.action.Reset();
  rec.id = 0;
  rec.next_free = free_head_;
  free_head_ = slot;
}

EventId Simulator::ScheduleAt(double time, Action action) {
  Require(time >= now_, "cannot schedule into the past");
  Require(static_cast<bool>(action), "event action must be callable");
  Require(next_seq_ <= kMaxSequence, "event sequence space exhausted");
  const std::uint32_t slot = AcquireSlot();
  const EventId id = (next_seq_++ << kEventSlotBits) | slot;
  EventRecord& rec = slab_[slot];
  rec.id = id;
  rec.action = std::move(action);
  queue_.Push(time, id);
  ++live_;
  if (live_ > live_hwm_) live_hwm_ = live_;
  return id;
}

EventId Simulator::ScheduleAfter(double delay, Action action) {
  Require(delay >= 0.0, "delay must be >= 0");
  return ScheduleAt(now_ + delay, std::move(action));
}

bool Simulator::Cancel(EventId id) {
  // id 0 is the reserved "no event" handle; without this guard it would
  // compare equal to a freed record's cleared id field.
  if (id == 0) return false;
  const std::size_t slot = EventSlotOf(id);
  if (slot >= slab_.size() || slab_[slot].id != id) return false;
  queue_.Cancel(id);
  ReleaseSlot(static_cast<std::uint32_t>(slot));
  --live_;
  ++cancelled_;
  return true;
}

bool Simulator::Step() {
  if (live_ == 0) return false;
  const QueuedEvent e = queue_.PopMin();
  now_ = e.time;
  const std::size_t slot = EventSlotOf(e.id);
  Require(slot < slab_.size() && slab_[slot].id == e.id,
          "internal: stale event surfaced from the queue");
  // Move the action out and recycle the slot *before* invoking, so the
  // callback can schedule (possibly into this very slot) and the new
  // occupant's id — with a fresh sequence — can never alias the old one.
  Action action = std::move(slab_[slot].action);
  ReleaseSlot(static_cast<std::uint32_t>(slot));
  --live_;
  ++processed_;
  action();
  return true;
}

void Simulator::RunUntil(double until) {
  Require(until >= now_, "horizon is in the past");
  while (live_ > 0 && queue_.PeekMin().time <= until) {
    Step();
  }
  now_ = until;
}

void Simulator::RunToCompletion() {
  while (Step()) {
  }
}

}  // namespace wsn::des
