// The kernel's two-tier event queue: ordering, FIFO tie-breaks,
// cancellation, the near/far band edge, and a differential against an
// ordered-set reference model on netsim's mix of event times.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::des {
namespace {

constexpr double kBand = EventQueue::kNearBand;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.Push(3.0, 1);
  q.Push(1.0, 2);
  q.Push(2.0, 3);
  EXPECT_EQ(q.PopMin().id, 2u);
  EXPECT_EQ(q.PopMin().id, 3u);
  EXPECT_EQ(q.PopMin().id, 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, FifoTieBreakByInsertionId) {
  EventQueue q;
  q.Push(5.0, 10);
  q.Push(5.0, 11);
  q.Push(5.0, 12);
  EXPECT_EQ(q.PopMin().id, 10u);
  EXPECT_EQ(q.PopMin().id, 11u);
  EXPECT_EQ(q.PopMin().id, 12u);
}

TEST(EventQueue, PeekDoesNotRemove) {
  EventQueue q;
  q.Push(1.0, 1);
  EXPECT_EQ(q.PeekMin().id, 1u);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PopMin().id, 1u);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  q.Push(1.0, 1);
  q.Push(2.0, 2);
  EXPECT_TRUE(q.Cancel(1));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PopMin().id, 2u);
}

TEST(EventQueue, CancelUnknownReturnsFalse) {
  EventQueue q;
  q.Push(1.0, 1);
  EXPECT_FALSE(q.Cancel(99));
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueue, CancelReservedNullIdReturnsFalse) {
  EventQueue q;
  q.Push(1.0, 1);
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PopMin().id, 1u);
  EXPECT_FALSE(q.Cancel(0));  // nor after the slot's occupant is gone
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  q.Push(1.0, 1);
  EXPECT_TRUE(q.Cancel(1));
  EXPECT_FALSE(q.Cancel(1));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.PopMin(), util::InvalidArgument);
  EXPECT_THROW(q.PeekMin(), util::InvalidArgument);
}

TEST(EventQueue, LargeRandomWorkloadStaysSorted) {
  EventQueue q;
  util::Rng rng(31);
  EventId next_id = 1;
  for (int i = 0; i < 5000; ++i) {
    q.Push(util::UniformDouble(rng) * 1000.0, next_id++);
  }
  double last = -1.0;
  while (!q.Empty()) {
    const QueuedEvent e = q.PopMin();
    ASSERT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, EqualTimesSplitAcrossTiersPopInIdOrder) {
  // Ids 1-2 are pushed while t=3 is beyond the band (far tier); after a
  // pop at t=2.5 the same time falls inside it, so ids 4-5 go near.
  EventQueue q;
  q.Push(3.0, 1);
  q.Push(3.0, 2);
  q.Push(2.5, 3);
  EXPECT_EQ(q.PopMin().id, 3u);
  q.Push(3.0, 4);
  q.Push(3.0, 5);
  for (EventId want : {1u, 2u, 4u, 5u}) {
    EXPECT_EQ(q.PeekMin().id, want);
    EXPECT_EQ(q.PopMin().id, want);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelledFarEntryNeverSurfaces) {
  EventQueue q;
  q.Push(100.0, 1);
  q.Push(100.0, 2);
  q.Push(0.5, 3);
  EXPECT_TRUE(q.Cancel(1));
  // A later occupant of id 1's slot (fresh sequence bits) is live, but
  // the stale entry for id 1 must still read as cancelled.
  const EventId reused = (EventId{1} << kEventSlotBits) | 1;
  q.Push(200.0, reused);
  EXPECT_EQ(q.PopMin().id, 3u);
  EXPECT_EQ(q.PeekMin().id, 2u);
  EXPECT_EQ(q.PopMin().id, 2u);
  EXPECT_EQ(q.PopMin().id, reused);
  EXPECT_TRUE(q.Empty());

  q.Push(300.0, 4);
  EXPECT_TRUE(q.Cancel(4));
  EXPECT_THROW(q.PeekMin(), util::InvalidArgument);
  EXPECT_THROW(q.PopMin(), util::InvalidArgument);
}

TEST(EventQueue, PeekAndPopAgreeAtTheBandEdge) {
  EventQueue q;
  q.Push(0.5, 1);                              // near: < 0 + band
  q.Push(0.5 + kBand, 2);                      // far
  EXPECT_EQ(q.PopMin().id, 1u);                // band now ends at 0.5+band
  q.Push(0.5 + kBand, 3);                      // exactly at the edge: far
  q.Push(std::nextafter(0.5 + kBand, 0.0), 4);  // just inside: near
  q.Push(0.5 + kBand, 5);                      // far again
  for (EventId want : {4u, 2u, 3u, 5u}) {
    const QueuedEvent peek = q.PeekMin();
    const QueuedEvent pop = q.PopMin();
    EXPECT_EQ(peek.id, want);
    EXPECT_EQ(pop.id, want);
    EXPECT_EQ(peek.time, pop.time);
  }
  EXPECT_TRUE(q.Empty());
}

// The obviously-correct model: an ordered set of live (time, id) pairs
// with eager cancellation.
class ReferenceQueue {
 public:
  void Push(double time, EventId id) {
    set_.insert({time, id});
    time_of_[id] = time;
  }
  bool Empty() const { return set_.empty(); }
  std::size_t Size() const { return set_.size(); }
  QueuedEvent PeekMin() const {
    return {set_.begin()->first, set_.begin()->second};
  }
  QueuedEvent PopMin() {
    const QueuedEvent e = PeekMin();
    set_.erase(set_.begin());
    time_of_.erase(e.id);
    return e;
  }
  bool Cancel(EventId id) {
    const auto it = time_of_.find(id);
    if (it == time_of_.end()) return false;
    set_.erase({it->second, id});
    time_of_.erase(it);
    return true;
  }

 private:
  std::set<std::pair<double, EventId>> set_;
  std::unordered_map<EventId, double> time_of_;
};

TEST(EventQueue, MatchesReferenceOnNetsimTimeMix) {
  // Netsim's shape: 20 chains re-arm 0-5 ms ahead (TX completions), 100
  // arrival timers re-arm 1-30 s ahead, and 100 death timers sit 100-110
  // s ahead; a third of the steps cancel a random death timer and re-arm
  // it (a death reschedule).  Times sit on a 1 ms grid, so ties are
  // common, across the two tiers too, and the cancelled death timers
  // trigger compactions.
  constexpr std::size_t kChains = 20;
  constexpr std::size_t kArrivals = 100;
  constexpr std::size_t kTimers = 200;  // arrivals, then death timers
  EventQueue q;
  ReferenceQueue ref;
  util::Rng rng(17);
  EventId next_id = 1;
  double now = 0.0;
  std::vector<EventId> timer_id(kTimers);
  std::unordered_map<EventId, std::size_t> timer_of;  // live timer ids
  int compactions = 0;
  const auto push = [&](double delay) {
    const double t = std::ceil((now + delay) * 1000.0) / 1000.0;
    const EventId id = next_id++;
    const std::size_t stored = q.StoredEntries();
    q.Push(t, id);
    ref.Push(t, id);
    if (q.StoredEntries() <= stored) ++compactions;  // only Compact shrinks
    return id;
  };
  const auto arm_timer = [&](std::size_t k) {
    const double u = util::UniformDouble(rng);
    timer_id[k] = push(k < kArrivals ? 1.0 + u * 29.0 : 100.0 + u * 10.0);
    timer_of[timer_id[k]] = k;
  };
  for (std::size_t c = 0; c < kChains; ++c) {
    push(util::UniformDouble(rng) * 0.005);
  }
  for (std::size_t k = 0; k < kTimers; ++k) arm_timer(k);
  EventId last_popped = 0;
  for (int step = 0; step < 200000; ++step) {
    const double op = util::UniformDouble(rng);
    if (op < 0.3) {
      const std::size_t k =
          kArrivals + util::UniformBelow(rng, kTimers - kArrivals);
      ASSERT_TRUE(q.Cancel(timer_id[k])) << "step " << step;
      ASSERT_TRUE(ref.Cancel(timer_id[k]));
      timer_of.erase(timer_id[k]);
      arm_timer(k);
    } else if (op < 0.32) {
      ASSERT_FALSE(q.Cancel(last_popped)) << "step " << step;
    } else {
      ASSERT_EQ(q.PeekMin().id, ref.PeekMin().id) << "step " << step;
      const QueuedEvent got = q.PopMin();
      const QueuedEvent want = ref.PopMin();
      ASSERT_EQ(got.id, want.id) << "step " << step;
      ASSERT_EQ(got.time, want.time) << "step " << step;
      now = got.time;
      last_popped = got.id;
      const auto timer = timer_of.find(got.id);
      if (timer == timer_of.end()) {
        push(util::UniformDouble(rng) * 0.005);
      } else {
        const std::size_t k = timer->second;
        timer_of.erase(timer);
        arm_timer(k);
      }
    }
    ASSERT_EQ(q.Size(), ref.Size()) << "step " << step;
  }
  while (!ref.Empty()) {
    ASSERT_EQ(q.PopMin().id, ref.PopMin().id);
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_GT(compactions, 0);  // the mix exercised the stale-entry sweep
}

TEST(EventQueue, CancelledReschedulesDoNotPileUp) {
  // 1,000 far timers, each cancelled and rescheduled 100 times with no
  // pop in between: without compaction the heaps would hold 101,000
  // entries, 1,000 of them live.
  EventQueue q;
  EventId next_id = 1;
  std::vector<EventId> timers;
  for (int i = 0; i < 1000; ++i) {
    timers.push_back(next_id);
    q.Push(100.0 + i, next_id++);
  }
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(q.Cancel(timers[i]));
      timers[i] = next_id;
      q.Push(100.0 + i, next_id++);
    }
  }
  EXPECT_EQ(q.Size(), 1000u);
  EXPECT_LT(q.StoredEntries(), 10000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(q.PopMin().id, timers[i]);
  }
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace wsn::des
