// Tests for LinkArbiter: one message per directed channel per step,
// deterministic round-robin among contenders, grant-for-grant agreement with
// the stable-sort reference arbiter, and the contention behaviour of the
// arbitrated advance phase in DynamicSimulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/core/dynamic_simulation.h"
#include "src/sim/link_arbiter.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

TEST(LinkArbiter, SingleRequesterAlwaysGranted) {
  const MeshTopology mesh(2, 4);
  LinkArbiter arb(mesh);
  for (int step = 0; step < 5; ++step) {
    arb.begin_step();
    const int t = arb.request(0, Direction(0, true));
    arb.arbitrate();
    EXPECT_TRUE(arb.granted(t));
    EXPECT_EQ(arb.stalled_this_step(), 0);
  }
  EXPECT_EQ(arb.total_stalled(), 0);
}

TEST(LinkArbiter, ContendedChannelGrantsExactlyOne) {
  const MeshTopology mesh(2, 4);
  LinkArbiter arb(mesh);
  arb.begin_step();
  const int a = arb.request(0, Direction(0, true));
  const int b = arb.request(0, Direction(0, true));
  const int c = arb.request(0, Direction(0, true));
  arb.arbitrate();
  EXPECT_EQ((arb.granted(a) ? 1 : 0) + (arb.granted(b) ? 1 : 0) + (arb.granted(c) ? 1 : 0), 1);
  EXPECT_EQ(arb.stalled_this_step(), 2);
  EXPECT_EQ(arb.total_stalled(), 2);
}

TEST(LinkArbiter, DistinctChannelsDoNotContend) {
  const MeshTopology mesh(2, 4);
  LinkArbiter arb(mesh);
  arb.begin_step();
  // Same node, different directions; and the opposite directed channel of a
  // neighbouring node: all distinct channels.
  const int a = arb.request(5, Direction(0, true));
  const int b = arb.request(5, Direction(1, true));
  const int c = arb.request(6, Direction(0, false));
  arb.arbitrate();
  EXPECT_TRUE(arb.granted(a));
  EXPECT_TRUE(arb.granted(b));
  EXPECT_TRUE(arb.granted(c));
  EXPECT_EQ(arb.stalled_this_step(), 0);
}

TEST(LinkArbiter, RoundRobinRotatesAmongPersistentContenders) {
  const MeshTopology mesh(2, 4);
  LinkArbiter arb(mesh);
  // Two requesters contending for the same channel every step: the winner
  // position must alternate (round-robin), so over two steps both win once.
  int wins_first = 0, wins_second = 0;
  for (int step = 0; step < 4; ++step) {
    arb.begin_step();
    const int a = arb.request(0, Direction(1, true));
    const int b = arb.request(0, Direction(1, true));
    arb.arbitrate();
    ASSERT_NE(arb.granted(a), arb.granted(b));
    wins_first += arb.granted(a) ? 1 : 0;
    wins_second += arb.granted(b) ? 1 : 0;
  }
  EXPECT_EQ(wins_first, 2);
  EXPECT_EQ(wins_second, 2);
}

TEST(LinkArbiter, GrantSequenceIsDeterministic) {
  const MeshTopology mesh(3, 4);
  const auto run = [&mesh] {
    LinkArbiter arb(mesh);
    std::vector<bool> grants;
    for (int step = 0; step < 6; ++step) {
      arb.begin_step();
      std::vector<int> tickets;
      for (int r = 0; r < 3; ++r) tickets.push_back(arb.request(7, Direction(2, false)));
      tickets.push_back(arb.request(9, Direction(0, true)));
      arb.arbitrate();
      for (const int t : tickets) grants.push_back(arb.granted(t));
    }
    return grants;
  };
  EXPECT_EQ(run(), run());
}

/// LinkArbiter::arbitrate() as it stood before packed-key grouping: a
/// stable sort of ticket indices by channel.  The reference the production
/// arbiter must match grant for grant.
class StableSortArbiter {
 public:
  explicit StableSortArbiter(const Topology& mesh)
      : dirs_(mesh.direction_count()),
        cursor_(static_cast<size_t>(mesh.node_count()) * static_cast<size_t>(dirs_), 0) {}

  void set_link_faults(const LinkFaultMask* links) { links_ = links; }

  void begin_step() {
    request_channel_.clear();
    granted_.clear();
    stalled_this_step_ = 0;
  }

  int request(NodeId from, Direction dir) {
    const int ticket = static_cast<int>(request_channel_.size());
    request_channel_.push_back(static_cast<int32_t>(from * dirs_ + dir.index()));
    granted_.push_back(0);
    return ticket;
  }

  void arbitrate() {
    const size_t n = request_channel_.size();
    if (n == 0) return;
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
      return request_channel_[static_cast<size_t>(a)] < request_channel_[static_cast<size_t>(b)];
    });
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      const int32_t channel = request_channel_[static_cast<size_t>(order[i])];
      while (j < n && request_channel_[static_cast<size_t>(order[j])] == channel) ++j;
      const size_t contenders = j - i;
      if (links_ != nullptr && links_->any() &&
          links_->faulty(static_cast<NodeId>(channel / dirs_),
                         Direction::from_index(channel % dirs_))) {
        stalled_this_step_ += static_cast<long long>(contenders);
        i = j;
        continue;
      }
      const size_t winner = i + cursor_[static_cast<size_t>(channel)] % contenders;
      granted_[static_cast<size_t>(order[winner])] = 1;
      if (contenders > 1) {
        ++cursor_[static_cast<size_t>(channel)];
        stalled_this_step_ += static_cast<long long>(contenders - 1);
      }
      i = j;
    }
    total_stalled_ += stalled_this_step_;
  }

  [[nodiscard]] bool granted(int ticket) const {
    return granted_[static_cast<size_t>(ticket)] != 0;
  }
  [[nodiscard]] long long stalled_this_step() const { return stalled_this_step_; }
  [[nodiscard]] long long total_stalled() const { return total_stalled_; }

 private:
  int dirs_;
  const LinkFaultMask* links_ = nullptr;
  std::vector<uint32_t> cursor_;
  std::vector<int32_t> request_channel_;
  std::vector<uint8_t> granted_;
  long long stalled_this_step_ = 0;
  long long total_stalled_ = 0;
};

TEST(LinkArbiter, MatchesStableSortReferenceOnRandomStreams) {
  // Seeded random request streams, dense enough that most channels see
  // several contenders, with directed links failing and repairing under
  // the run: every grant, every per-step stall count and the running total
  // must equal the reference's.
  const MeshTopology mesh(2, 4);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    LinkFaultMask links(mesh);
    LinkArbiter arb(mesh);
    StableSortArbiter ref(mesh);
    arb.set_link_faults(&links);
    ref.set_link_faults(&links);
    for (int step = 0; step < 400; ++step) {
      for (int k = 0; k < 2; ++k) {
        const auto node = static_cast<NodeId>(rng.next_below(mesh.node_count()));
        const Direction dir = Direction::from_index(static_cast<int>(rng.next_below(4)));
        if (rng.bernoulli(0.5)) {
          links.fail(node, dir);
        } else {
          links.repair(node, dir);
        }
      }
      arb.begin_step();
      ref.begin_step();
      const int requests = static_cast<int>(rng.next_below(80));
      for (int r = 0; r < requests; ++r) {
        // A narrow band of source nodes concentrates the contention.
        const auto node = static_cast<NodeId>(rng.next_below(6));
        const Direction dir = Direction::from_index(static_cast<int>(rng.next_below(4)));
        ASSERT_EQ(arb.request(node, dir), ref.request(node, dir));
      }
      ASSERT_EQ(arb.requests_this_step(), requests);
      arb.arbitrate();
      ref.arbitrate();
      for (int t = 0; t < requests; ++t)
        ASSERT_EQ(arb.granted(t), ref.granted(t)) << "seed " << seed << " step " << step;
      ASSERT_EQ(arb.stalled_this_step(), ref.stalled_this_step()) << "step " << step;
      ASSERT_EQ(arb.total_stalled(), ref.total_stalled()) << "step " << step;
    }
    EXPECT_GT(arb.total_stalled(), 0);
  }
}

TEST(DynamicSimulationArbitration, ColocatedMessagesShareAChannel) {
  // Two messages launched at the same source toward the same destination
  // want the same channel every step: with arbitration one of them stalls
  // each step, without arbitration both advance in lockstep.
  const MeshTopology mesh(2, 10);
  DynamicSimulationOptions opts;
  opts.link_arbitration = true;
  DynamicSimulation sim(mesh, FaultSchedule{}, opts);
  const int a = sim.launch_message(Coord{0, 0}, Coord{0, 6});
  const int b = sim.launch_message(Coord{0, 0}, Coord{0, 6});
  for (int s = 0; s < 200 && !sim.all_messages_done(); ++s) {
    sim.step();
    ASSERT_NO_THROW(sim.switching().validate()) << "step " << s;
  }

  EXPECT_TRUE(sim.message(a).delivered);
  EXPECT_TRUE(sim.message(b).delivered);
  // Both take the minimal 6 hops; contention shows up as stalls, not moves.
  EXPECT_EQ(sim.message(a).header.total_steps(), 6);
  EXPECT_EQ(sim.message(b).header.total_steps(), 6);
  EXPECT_GT(sim.total_stalls(), 0);
  const int total_stalls = sim.message(a).stall_steps + sim.message(b).stall_steps;
  EXPECT_EQ(total_stalls, static_cast<int>(sim.total_stalls()));
  // Latency = moves + stalls.
  for (const int id : {a, b}) {
    const auto& m = sim.message(id);
    EXPECT_EQ(m.end_step - m.start_step, m.header.total_steps() + m.stall_steps);
  }

  DynamicSimulation free_sim(mesh, FaultSchedule{});
  const int c = free_sim.launch_message(Coord{0, 0}, Coord{0, 6});
  const int d = free_sim.launch_message(Coord{0, 0}, Coord{0, 6});
  free_sim.run(200);
  EXPECT_EQ(free_sim.message(c).end_step, free_sim.message(d).end_step)
      << "the Figure 7 idealization has no contention";
  EXPECT_EQ(free_sim.total_stalls(), 0);
}

TEST(DynamicSimulationArbitration, SingleMessageMatchesContentionFreeExactly) {
  // The thin-wrapper guarantee: with one message in flight, arbitration is
  // a no-op and the historical results are byte-identical.
  const MeshTopology mesh(2, 12);
  FaultSchedule schedule;
  for (const auto& c : box_fault_placement(mesh, Box(Coord{5, 5}, Coord{7, 6})))
    schedule.add_fail(4, c);

  const auto run_with = [&](bool arbitration) {
    DynamicSimulationOptions opts;
    opts.link_arbitration = arbitration;
    DynamicSimulation sim(mesh, schedule, opts);
    const int id = sim.launch_message(Coord{6, 0}, Coord{6, 11});
    sim.run(2000);
    return sim.message(id);
  };
  const MessageProgress with = run_with(true);
  const MessageProgress without = run_with(false);
  EXPECT_EQ(with.delivered, without.delivered);
  EXPECT_EQ(with.end_step, without.end_step);
  EXPECT_EQ(with.header.total_steps(), without.header.total_steps());
  EXPECT_EQ(with.header.backtrack_steps(), without.header.backtrack_steps());
  EXPECT_EQ(with.stall_steps, 0);
}

TEST(DynamicSimulationArbitration, PhasesComposeLikeStep) {
  // Driving the phases manually through a StepContext reproduces step().
  const MeshTopology mesh(2, 8);
  FaultSchedule schedule;
  schedule.add_fail(1, Coord{4, 4});

  DynamicSimulationOptions opts;
  opts.link_arbitration = true;
  DynamicSimulation manual(mesh, schedule, opts);
  DynamicSimulation composed(mesh, schedule, opts);
  const int m1 = manual.launch_message(Coord{1, 1}, Coord{6, 6});
  const int m2 = composed.launch_message(Coord{1, 1}, Coord{6, 6});

  for (int s = 0; s < 40; ++s) {
    StepContext ctx = manual.begin_step();
    EXPECT_EQ(ctx.step, manual.now());
    manual.apply_fault_events(ctx);
    if (s == 1) {
      ASSERT_EQ(ctx.events.size(), 1u);
      EXPECT_TRUE(ctx.occurrence_opened);
    }
    manual.run_information_rounds(ctx);
    manual.arbitrate_and_advance(ctx);
    manual.end_step(ctx);
    composed.step();
  }
  EXPECT_EQ(manual.message(m1).delivered, composed.message(m2).delivered);
  EXPECT_EQ(manual.message(m1).end_step, composed.message(m2).end_step);
  EXPECT_EQ(manual.now(), composed.now());
}

}  // namespace
}  // namespace lgfi
