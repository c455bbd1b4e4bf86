// Unit tests for the simulation substrate: RNG determinism, mailbox BSP
// semantics, fault schedules, statistics, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/sim/fault_schedule.h"
#include "src/sim/mailbox.h"
#include "src/sim/rng.h"
#include "src/sim/statistics.h"
#include "src/sim/thread_pool.h"

namespace lgfi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkStreamsDiffer) {
  Rng base(7);
  Rng f0 = base.fork(0);
  Rng f1 = base.fork(1);
  int differing = 0;
  for (int i = 0; i < 64; ++i)
    if (f0.next_u64() != f1.next_u64()) ++differing;
  EXPECT_GT(differing, 60);
}

TEST(Rng, UniformIntInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(11);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 4000; ++i) ++seen[static_cast<size_t>(r.uniform_int(0, 3))];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng r(5);
  const auto s = r.sample_without_replacement(10, 6);
  ASSERT_EQ(s.size(), 6u);
  auto copy = s;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(std::unique(copy.begin(), copy.end()), copy.end());
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(Mailbox, MessagesVisibleOnlyAfterFlip) {
  MailboxSystem<int> mb(3);
  mb.send(1, 42);
  EXPECT_TRUE(mb.inbox(1).empty()) << "delivery must wait for the round boundary";
  mb.flip();
  ASSERT_EQ(mb.inbox(1).size(), 1u);
  EXPECT_EQ(mb.inbox(1)[0], 42);
  mb.flip();
  EXPECT_TRUE(mb.inbox(1).empty()) << "messages last exactly one round";
}

TEST(Mailbox, DeterministicDeliveryOrder) {
  MailboxSystem<int> mb(2);
  mb.send(0, 1);
  mb.send(0, 2);
  mb.send(0, 3);
  mb.flip();
  const auto inbox = mb.inbox(0);
  EXPECT_EQ(std::vector<int>(inbox.begin(), inbox.end()), (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, PendingAndStats) {
  MailboxSystem<int> mb(2);
  EXPECT_TRUE(mb.next_round_empty());
  mb.send(0, 9);
  EXPECT_EQ(mb.pending(), 1);
  EXPECT_FALSE(mb.next_round_empty());
  mb.flip();
  EXPECT_EQ(mb.stats().messages_sent, 1);
  EXPECT_EQ(mb.stats().rounds_flipped, 1);
}

TEST(Mailbox, RandomRoundsDeliverEachInboxInSendOrder) {
  // The BSP contract against a per-node reference, over many rounds of
  // random sends: active() is strictly ascending, every inbox is exactly
  // that node's sends in send order, mail sent while an inbox is being read
  // arrives next round, and pending()/stats() agree with the reference.
  constexpr int kNodes = 40;
  MailboxSystem<int> mb(kNodes);
  Rng rng(17);
  std::vector<std::vector<int>> expect(kNodes);  // reference: delivered this round
  std::vector<std::vector<int>> sent(kNodes);    // reference: sent this round
  long long total_sent = 0;
  long long pending = 0;
  int next_value = 0;
  const auto send = [&](NodeId to) {
    mb.send(to, next_value);
    sent[static_cast<size_t>(to)].push_back(next_value++);
    ++total_sent;
    ++pending;
  };
  for (int round = 1; round <= 300; ++round) {
    // Bursts may hit one node often; every tenth round reads without
    // replying, so the round after it is empty.
    const bool replies = round % 10 != 0;
    const int sends = round % 10 == 1 ? 0 : rng.uniform_int(0, 3 * kNodes);
    for (int i = 0; i < sends; ++i)
      send(rng.uniform_int(0, 2) == 0 ? NodeId{5} : NodeId{rng.uniform_int(0, kNodes - 1)});
    ASSERT_EQ(mb.pending(), pending);
    ASSERT_EQ(mb.next_round_empty(), pending == 0);

    mb.flip();
    pending = 0;
    expect.swap(sent);
    for (auto& box : sent) box.clear();
    ASSERT_EQ(mb.stats().rounds_flipped, round);
    ASSERT_EQ(mb.stats().messages_sent, total_sent);
    ASSERT_EQ(mb.pending(), 0);

    std::vector<NodeId> want_active;
    for (NodeId id = 0; id < kNodes; ++id)
      if (!expect[static_cast<size_t>(id)].empty()) want_active.push_back(id);
    ASSERT_EQ(mb.active(), want_active) << "round " << round;
    for (NodeId id = 0; id < kNodes; ++id) {
      const auto inbox = mb.inbox(id);
      ASSERT_EQ(std::vector<int>(inbox.begin(), inbox.end()), expect[static_cast<size_t>(id)])
          << "round " << round << " node " << id;
      // Replies sent while reading (to self and to a random node) must not
      // disturb this round's inboxes.
      for (const int msg : inbox) {
        if (!replies) break;
        if (msg % 3 == 0) send(id);
        if (msg % 5 == 0) send(rng.uniform_int(0, kNodes - 1));
      }
    }
    for (NodeId id = 0; id < kNodes; ++id) {
      const auto inbox = mb.inbox(id);
      ASSERT_EQ(std::vector<int>(inbox.begin(), inbox.end()), expect[static_cast<size_t>(id)]);
    }
  }
  mb.clear();
  EXPECT_TRUE(mb.next_round_empty());
  EXPECT_TRUE(mb.active().empty());
  mb.flip();
  for (NodeId id = 0; id < kNodes; ++id) EXPECT_TRUE(mb.inbox(id).empty());
}

TEST(FaultSchedule, SortedAndQueryable) {
  FaultSchedule s;
  s.add_fail(10, Coord{1, 1});
  s.add_fail(5, Coord{2, 2});
  s.add_recover(10, Coord{3, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].step, 5);
  EXPECT_EQ(s.events_at(10).size(), 2u);
  EXPECT_EQ(s.last_step(), 10);
  EXPECT_EQ(s.occurrence_times(), (std::vector<long long>{5, 10}));
}

TEST(FaultSchedule, RandomPlacementAvoidsSurfaceAndDuplicates) {
  const MeshTopology m(3, 8);
  Rng rng(1);
  const auto faults = random_fault_placement(m, 30, rng);
  EXPECT_EQ(faults.size(), 30u);
  std::vector<Coord> sorted = faults;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const auto& c : faults) EXPECT_FALSE(m.on_outer_surface(c));
}

TEST(FaultSchedule, PlacementHonoursForbiddenList) {
  const MeshTopology m(2, 8);
  Rng rng(2);
  const std::vector<Coord> forbidden{Coord{3, 3}, Coord{4, 4}};
  for (int trial = 0; trial < 20; ++trial) {
    const auto faults = random_fault_placement(m, 20, rng, {}, forbidden);
    for (const auto& c : faults) {
      EXPECT_NE(c, forbidden[0]);
      EXPECT_NE(c, forbidden[1]);
    }
  }
}

TEST(FaultSchedule, ClusteredPlacementIsConnected) {
  const MeshTopology m(3, 10);
  Rng rng(3);
  const auto faults = clustered_fault_placement(m, 12, rng);
  ASSERT_EQ(faults.size(), 12u);
  // Connectivity: every fault after the first is adjacent to an earlier one.
  for (size_t i = 1; i < faults.size(); ++i) {
    bool adjacent = false;
    for (size_t j = 0; j < i; ++j)
      if (manhattan_distance(faults[i], faults[j]) == 1) adjacent = true;
    EXPECT_TRUE(adjacent) << "fault " << faults[i].to_string() << " disconnected";
  }
}

TEST(FaultSchedule, BoxPlacementFillsInterior) {
  const MeshTopology m(2, 8);
  const auto faults = box_fault_placement(m, Box(Coord{2, 2}, Coord{4, 3}));
  EXPECT_EQ(faults.size(), 6u);
}

TEST(FaultSchedule, PeriodicScheduleHasRequestedIntervals) {
  const MeshTopology m(3, 8);
  Rng rng(4);
  const auto s = periodic_random_schedule(m, 5, 2, 10, 20, rng);
  const auto times = s.occurrence_times();
  ASSERT_EQ(times.size(), 5u);
  for (size_t i = 1; i < times.size(); ++i) EXPECT_EQ(times[i] - times[i - 1], 20);
}

TEST(Statistics, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(s.count(), 4);
}

TEST(Statistics, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform_double() * 10;
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Statistics, HistogramPercentiles) {
  IntHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(0.99), 99);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Statistics, HistogramPercentileRejectsOutOfRangeQ) {
  // These used to be assert-only, so NDEBUG builds silently returned 0 for
  // q <= 0 and max() for q > 1.
  IntHistogram h;
  h.add(3);
  h.add(7);
  EXPECT_THROW((void)h.percentile(0.0), std::invalid_argument);
  EXPECT_THROW((void)h.percentile(-0.5), std::invalid_argument);
  EXPECT_THROW((void)h.percentile(1.5), std::invalid_argument);
  EXPECT_THROW((void)h.percentile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(h.percentile(1.0), 7) << "q = 1 stays valid (the maximum)";
  // The empty histogram still answers 0 for valid q.
  EXPECT_EQ(IntHistogram{}.percentile(0.5), 0);
}

TEST(Statistics, HistogramAddRejectsNegativeValues) {
  IntHistogram h;
  EXPECT_THROW(h.add(-1), std::invalid_argument);
  EXPECT_THROW(h.add(std::numeric_limits<long long>::min()), std::invalid_argument);
  EXPECT_EQ(h.count(), 0) << "a rejected add must not corrupt the totals";
  h.add(0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // Forked RNG per index makes the reduction order-independent.
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> out(64);
    pool.parallel_for(64, [&](int64_t i) {
      Rng r = Rng(99).fork(static_cast<uint64_t>(i));
      out[static_cast<size_t>(i)] = r.next_u64();
    });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int64_t> sum{0};
    pool.parallel_for(100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
  }
}

}  // namespace
}  // namespace lgfi
