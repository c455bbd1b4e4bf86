// Tests for the Section 5 step model: routing proceeding hand-in-hand with
// the information constructions, Theorem 1 (recoveries don't hurt optimal
// routing), the Theorem 3/4 instrumentation, and the per-message state held
// only while a message is in flight.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/dynamic_simulation.h"
#include "src/core/experiment_runner.h"
#include "src/core/network.h"
#include "src/core/scenario.h"
#include "src/fault/safety.h"
#include "src/sim/fault_timeline.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

TEST(DynamicSimulation, FaultFreeMessageTakesMinimalPath) {
  const MeshTopology mesh(2, 10);
  DynamicSimulation sim(mesh, FaultSchedule{});
  const int id = sim.launch_message(Coord{0, 0}, Coord{7, 5});
  sim.run();
  const auto& msg = sim.message(id);
  EXPECT_TRUE(msg.delivered);
  EXPECT_EQ(msg.header.total_steps(), 12);
  EXPECT_EQ(msg.detours(), 0);
  EXPECT_EQ(msg.end_step, 12) << "one hop per step, launched at step 0";
}

TEST(DynamicSimulation, StaticFaultsConvergeThenRouteMinimallyIfSafe) {
  // Faults occur before the routing starts (p >= 1); after convergence a
  // safe-source message is minimal, as in the static world.
  const MeshTopology mesh(2, 12);
  FaultSchedule schedule;
  for (const auto& c : box_fault_placement(mesh, Box(Coord{8, 8}, Coord{9, 9})))
    schedule.add_fail(0, c);
  DynamicSimulation sim(mesh, schedule);
  for (int i = 0; i < 60; ++i) sim.step();  // let everything converge

  const int id = sim.launch_message(Coord{0, 0}, Coord{6, 6});
  sim.run();
  const auto& msg = sim.message(id);
  EXPECT_TRUE(msg.delivered);
  EXPECT_EQ(msg.detours(), 0);
}

TEST(DynamicSimulation, OccurrenceRecordsMeasureConvergence) {
  const MeshTopology mesh(3, 8);
  FaultSchedule schedule;
  for (const auto& c : figure1_faults()) schedule.add_fail(2, c);
  DynamicSimulation sim(mesh, schedule);
  sim.run(200);
  ASSERT_EQ(sim.occurrences().size(), 1u);
  const auto& rec = sim.occurrences()[0];
  EXPECT_EQ(rec.step, 2);
  EXPECT_GT(rec.rounds_labeling, 0);
  EXPECT_LE(rec.rounds_labeling, 6);
  EXPECT_GT(rec.rounds_identification, rec.rounds_labeling);
  EXPECT_GE(rec.rounds_boundary, rec.rounds_identification - 2);
  EXPECT_EQ(rec.e_max_after, 3);
  EXPECT_TRUE(rec.stabilized_before_next);
}

TEST(DynamicSimulation, LambdaSpeedsUpConvergenceInSteps) {
  // With lambda rounds per step, stabilization takes ~1/lambda as many steps.
  auto steps_to_converge = [](int lambda) {
    const MeshTopology mesh(3, 8);
    FaultSchedule schedule;
    for (const auto& c : figure1_faults()) schedule.add_fail(0, c);
    DynamicSimulationOptions opts;
    opts.lambda = lambda;
    DynamicSimulation sim(mesh, schedule, opts);
    sim.run(2000);
    const auto& rec = sim.occurrences()[0];
    return (rec.rounds_boundary + lambda - 1) / lambda;
  };
  const int steps1 = steps_to_converge(1);
  const int steps4 = steps_to_converge(4);
  EXPECT_LT(steps4, steps1);
  EXPECT_LE(steps4, steps1 / 2);
}

TEST(DynamicSimulation, MessageSurvivesMidRouteFault) {
  // A block appears right in the message's path while it travels.
  const MeshTopology mesh(2, 16);
  FaultSchedule schedule;
  for (const auto& c : box_fault_placement(mesh, Box(Coord{7, 8}, Coord{10, 9})))
    schedule.add_fail(4, c);
  DynamicSimulation sim(mesh, schedule);
  const int id = sim.launch_message(Coord{8, 1}, Coord{8, 14});
  sim.run(4000);
  const auto& msg = sim.message(id);
  EXPECT_TRUE(msg.delivered) << "dynamic fault must not kill the route";
  EXPECT_GT(msg.detours(), 0) << "the new block forces a detour";
  ASSERT_EQ(sim.occurrences().size(), 1u);
  EXPECT_LE(msg.distance_at(0), msg.initial_distance);
}

TEST(DynamicSimulation, Theorem1RecoveryDoesNotHurtOptimality) {
  // Recover a fault before launching: once constructions stabilize, a path
  // through the recovered area is minimal again (Theorem 1's spirit).
  const MeshTopology mesh(2, 12);
  FaultSchedule schedule;
  for (const auto& c : box_fault_placement(mesh, Box(Coord{5, 5}, Coord{6, 6})))
    schedule.add_fail(0, c);
  for (const auto& c : box_fault_placement(mesh, Box(Coord{5, 5}, Coord{6, 6})))
    schedule.add_recover(30, c);
  DynamicSimulation sim(mesh, schedule);
  for (int i = 0; i < 90; ++i) sim.step();

  const int id = sim.launch_message(Coord{5, 0}, Coord{5, 11});
  sim.run(4000);
  const auto& msg = sim.message(id);
  EXPECT_TRUE(msg.delivered);
  EXPECT_EQ(msg.detours(), 0) << "stale boundary info must not cause detours";
}

TEST(DynamicSimulation, TimelineFeedsTheoremBounds) {
  const MeshTopology mesh(2, 14);
  FaultSchedule schedule;
  schedule.add_fail(0, Coord{4, 4});
  schedule.add_fail(40, Coord{9, 9});
  schedule.add_fail(80, Coord{4, 9});
  DynamicSimulation sim(mesh, schedule);
  const int id = sim.launch_message(Coord{0, 0}, Coord{12, 12});
  sim.run(4000);
  EXPECT_TRUE(sim.message(id).delivered);

  const auto tl = sim.timeline(0);
  ASSERT_EQ(tl.t.size(), 3u);
  EXPECT_EQ(tl.t[0], 0);
  EXPECT_EQ(tl.t[1], 40);
  EXPECT_GT(tl.e_max, 0);
  const auto bound = theorem4_bound(tl, sim.message(id).initial_distance);
  EXPECT_EQ(bound.max_extra_steps, 2 * bound.max_detours);
  EXPECT_GE(bound.max_extra_steps, sim.message(id).detours())
      << "Theorem 4 must bound the measured extra steps";
}

TEST(DynamicSimulation, InfoModesAllDeliver) {
  for (const InfoMode mode : {InfoMode::kLimitedGlobal, InfoMode::kNone,
                              InfoMode::kInstantGlobal, InfoMode::kDelayedGlobal}) {
    const MeshTopology mesh(2, 12);
    FaultSchedule schedule;
    for (const auto& c : box_fault_placement(mesh, Box(Coord{4, 5}, Coord{7, 6})))
      schedule.add_fail(0, c);
    DynamicSimulationOptions opts;
    opts.info_mode = mode;
    DynamicSimulation sim(mesh, schedule, opts);
    for (int i = 0; i < 60; ++i) sim.step();
    const int id = sim.launch_message(Coord{5, 1}, Coord{5, 10});
    sim.run(4000);
    EXPECT_TRUE(sim.message(id).delivered) << "mode " << static_cast<int>(mode);
  }
}

TEST(DynamicSimulation, StepBudgetExhaustionTerminatesTheMessage) {
  // A fault-free route of distance 12 with a budget of 5: the message must
  // stop as budget_exhausted (not delivered, not unreachable), and the run
  // loop must terminate promptly via the active-message counter.
  const MeshTopology mesh(2, 10);
  DynamicSimulationOptions opts;
  opts.step_budget_per_message = 5;
  DynamicSimulation sim(mesh, FaultSchedule{}, opts);
  const int id = sim.launch_message(Coord{0, 0}, Coord{7, 5});
  EXPECT_EQ(sim.active_messages(), 1);
  sim.run(1000);
  const auto& msg = sim.message(id);
  EXPECT_TRUE(msg.budget_exhausted);
  EXPECT_FALSE(msg.delivered);
  EXPECT_FALSE(msg.unreachable);
  EXPECT_EQ(msg.header.total_steps(), 5);
  EXPECT_EQ(msg.end_step, 4) << "the budget-exhausting hop happens at step 5 - 1";
  EXPECT_TRUE(sim.all_messages_done());
  EXPECT_EQ(sim.active_messages(), 0);
  EXPECT_LE(sim.now(), 6) << "run() must stop at the counter, not the step cap";
}

TEST(DynamicSimulation, StepBudgetExhaustionUnderArbitration) {
  // The arbitrated advance phase enforces the same budget.
  const MeshTopology mesh(2, 10);
  DynamicSimulationOptions opts;
  opts.step_budget_per_message = 5;
  opts.link_arbitration = true;
  DynamicSimulation sim(mesh, FaultSchedule{}, opts);
  const int id = sim.launch_message(Coord{0, 0}, Coord{7, 5});
  sim.run(1000);
  EXPECT_TRUE(sim.message(id).budget_exhausted);
  EXPECT_EQ(sim.message(id).header.total_steps(), 5);
  EXPECT_TRUE(sim.all_messages_done());
}

TEST(DynamicSimulation, ActiveMessageCounterTracksEveryOutcome) {
  const MeshTopology mesh(2, 10);
  FaultSchedule schedule;
  // Wall off a destination so one message becomes unreachable.
  for (int x = 3; x <= 5; ++x)
    for (int y = 3; y <= 5; ++y)
      if (!(x == 4 && y == 4)) schedule.add_fail(0, Coord{x, y});
  DynamicSimulationOptions opts;
  opts.persistent_marks = true;  // detects unreachability (DESIGN.md §6.7)
  DynamicSimulation sim(mesh, schedule, opts);
  for (int i = 0; i < 40; ++i) sim.step();

  const int delivered = sim.launch_message(Coord{0, 0}, Coord{9, 9});
  const int walled = sim.launch_message(Coord{0, 0}, Coord{4, 4});
  EXPECT_EQ(sim.active_messages(), 2);
  sim.run(100000);
  EXPECT_TRUE(sim.message(delivered).delivered);
  EXPECT_TRUE(sim.message(walled).unreachable);
  EXPECT_EQ(sim.active_messages(), 0);
}

TEST(DynamicSimulation, DelayedGlobalPublishesFromTheFaultSite) {
  // The routing-table baseline spreads the new snapshot from the site of
  // the change, one hop per step.  On an asymmetric mesh, a node next to
  // the fault must learn of it long before a node next to mesh origin 0 —
  // the regression guards against broadcasting from coord_of(0) instead.
  const MeshTopology mesh(std::vector<int>{17, 5});
  FaultSchedule schedule;
  schedule.add_fail(0, Coord{13, 2});
  DynamicSimulationOptions opts;
  opts.info_mode = InfoMode::kDelayedGlobal;
  DynamicSimulation sim(mesh, schedule, opts);

  // Step until the occurrence stabilizes and the snapshot is published.
  for (int i = 0; i < 60 && !(sim.occurrences().size() == 1 &&
                              sim.occurrences()[0].e_max_after > 0);
       ++i)
    sim.step();
  ASSERT_EQ(sim.occurrences().size(), 1u);
  EXPECT_EQ(sim.occurrences()[0].origin, (Coord{13, 2}));

  const auto* provider = sim.delayed_provider();
  ASSERT_NE(provider, nullptr);
  // One more step: visibility radius >= 1 around the fault site.
  sim.step();
  EXPECT_FALSE(provider->info_at(mesh.index_of(Coord{12, 2})).empty())
      << "a neighbour of the fault site must see the snapshot first";
  EXPECT_TRUE(provider->info_at(mesh.index_of(Coord{1, 1})).empty())
      << "a node near mesh origin 0 is ~12 hops from the change and cannot "
         "know yet (the old bug broadcast from node 0)";

  // After enough steps, the wave reaches everyone.
  for (int i = 0; i < 25; ++i) sim.step();
  EXPECT_FALSE(provider->info_at(mesh.index_of(Coord{1, 1})).empty());
}

// --- In-flight state (DESIGN.md §7) ----------------------------------------
// D(i) is stored only while a message is in flight, and a finished message's
// path stack goes to a pool.  The references below share neither piece of
// that bookkeeping.

/// D(i) per message at every occurrence, recorded eagerly: whenever an
/// occurrence opens, every message launched so far gets one entry, and a
/// message launched since the previous record first gets D for each
/// occurrence before its launch.
class EagerDistances {
 public:
  void record(const DynamicSimulation& sim) {
    const size_t earlier = sim.occurrences().size() - 1;
    rows_.resize(sim.messages().size());
    for (const MessageProgress& msg : sim.messages()) {
      std::vector<int>& row = rows_[static_cast<size_t>(msg.id)];
      row.resize(earlier, msg.initial_distance);
      // The eager rule, over every message launched so far.
      const int d = (msg.delivered || msg.unreachable)
                        ? 0
                        : sim.mesh().min_hops(msg.header.current(), msg.header.destination());
      row.push_back(d);
    }
  }

  /// D(i) of `msg`; messages launched after the last record are at their
  /// source for every occurrence.
  [[nodiscard]] int at(const MessageProgress& msg, size_t i) const {
    const auto id = static_cast<size_t>(msg.id);
    if (id >= rows_.size() || i >= rows_[id].size()) return msg.initial_distance;
    return rows_[id][i];
  }

 private:
  std::vector<std::vector<int>> rows_;
};

/// Node-fault lifecycle churn over [0, horizon]: a fault every ~3 steps,
/// most of them repaired, so occurrences keep opening while traffic runs.
FaultTimeline node_churn(const Topology& mesh, uint64_t seed, long long horizon) {
  Config cfg = experiment_config();
  cfg.set_str("fault_model", "lifecycle");
  cfg.set_double("fault_arrival_rate", 0.3);
  cfg.set_double("repair_rate", 0.05);
  cfg.set_double("transient_frac", 0.3);
  Rng rng(seed);
  return build_lifecycle_timeline(mesh, cfg, rng, horizon);
}

/// Seeded traffic for a phase-stepped run.  Open loop: every enabled node
/// launches toward a random enabled node with probability `rate` per
/// step.  Closed loop: a node with no pair in flight launches a request the
/// same way; a delivered request launches the reply back, and the pair ends
/// when the reply finishes or cannot launch.  Every launch checks the pool
/// bound: released plus held stacks never exceed the peak in flight.
class PhasedTraffic {
 public:
  PhasedTraffic(DynamicSimulation& sim, bool closed_loop, double rate, uint64_t seed)
      : sim_(&sim),
        closed_loop_(closed_loop),
        rate_(rate),
        rng_(seed),
        pair_msg_(static_cast<size_t>(sim.mesh().node_count()), -1),
        pair_reply_(pair_msg_.size(), false) {}

  /// Closed-loop bookkeeping, then (if `inject`) one injection sweep.
  void tick(bool inject) {
    const Topology& mesh = sim_->mesh();
    const StatusField& field = sim_->model().field();
    const auto nodes = static_cast<NodeId>(mesh.node_count());
    for (NodeId node = 0; closed_loop_ && node < nodes; ++node) {
      const int id = pair_msg_[static_cast<size_t>(node)];
      if (id < 0 || !sim_->message(id).done()) continue;
      pair_msg_[static_cast<size_t>(node)] = -1;
      const MessageProgress& msg = sim_->message(id);
      if (pair_reply_[static_cast<size_t>(node)] || !msg.delivered) continue;
      const Coord replier = msg.header.destination();
      const Coord origin = msg.header.source();
      if (field.at(replier) != NodeStatus::kEnabled || field.at(origin) != NodeStatus::kEnabled)
        continue;
      pair_msg_[static_cast<size_t>(node)] = launch(replier, origin);
      pair_reply_[static_cast<size_t>(node)] = true;
    }
    if (!inject) return;
    for (NodeId node = 0; node < nodes; ++node) {
      if (closed_loop_ && pair_msg_[static_cast<size_t>(node)] >= 0) continue;
      if (!rng_.bernoulli(rate_) || field.at(node) != NodeStatus::kEnabled) continue;
      const auto dest = static_cast<NodeId>(rng_.uniform_int(0, static_cast<int>(nodes) - 1));
      if (dest == node || field.at(dest) != NodeStatus::kEnabled) continue;
      const int id = launch(mesh.coord_of(node), mesh.coord_of(dest));
      if (closed_loop_) {
        pair_msg_[static_cast<size_t>(node)] = id;
        pair_reply_[static_cast<size_t>(node)] = false;
      }
    }
  }

  int launch(const Coord& source, const Coord& dest) {
    const int id = sim_->launch_message(source, dest);
    check_pool();
    return id;
  }

  /// Every stack is held by a message in flight or sits in the pool, and a
  /// stack is only created by a launch that finds the pool empty.
  void check_pool() {
    peak_in_flight_ = std::max(peak_in_flight_, sim_->active_messages());
    const auto pooled = static_cast<long long>(sim_->pooled_path_stacks());
    EXPECT_LE(pooled + sim_->active_messages(), peak_in_flight_) << "step " << sim_->now();
  }

  [[nodiscard]] long long peak_in_flight() const { return peak_in_flight_; }

 private:
  DynamicSimulation* sim_;
  bool closed_loop_;
  double rate_;
  Rng rng_;
  std::vector<int> pair_msg_;     ///< closed loop: per node, the pair's message or -1
  std::vector<bool> pair_reply_;  ///< ... and whether it is the reply
  long long peak_in_flight_ = 0;
};

/// Steps `sim` through the public phases for `steps` steps, injecting for
/// the first `inject_steps`.  Traffic launches before the fault phase on
/// even steps and right after it on odd ones; `eager` records every
/// occurrence as it opens.
void run_phased(DynamicSimulation& sim, PhasedTraffic& traffic, long long steps,
                long long inject_steps, EagerDistances& eager) {
  for (long long s = 0; s < steps; ++s) {
    const bool before_faults = s % 2 == 0;
    if (before_faults) traffic.tick(s < inject_steps);
    StepContext ctx = sim.begin_step();
    sim.apply_fault_events(ctx);
    if (ctx.occurrence_opened) eager.record(sim);
    if (!before_faults) traffic.tick(s < inject_steps);
    sim.run_information_rounds(ctx);
    sim.arbitrate_and_advance(ctx);
    sim.end_step(ctx);
    traffic.check_pool();
  }
}

struct DistanceScenario {
  const char* name;
  bool closed_loop;
  bool persistent_marks;
  bool arbitration;
};

TEST(InFlightState, DistanceAtMatchesTheEagerReferenceUnderChurn) {
  // Faults churn over steps [0, 160]; traffic runs until the cap at step
  // 230, so the last launches are still in flight.  A 10-move budget
  // exhausts the longer routes, well before later occurrences.
  const MeshTopology mesh(2, 10);
  const DistanceScenario scenarios[] = {
      {"open loop", false, false, false},
      {"closed loop", true, false, true},
      {"closed loop, persistent marks", true, true, true},
  };
  for (const DistanceScenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    DynamicSimulationOptions opts;
    opts.step_budget_per_message = 10;
    opts.persistent_marks = sc.persistent_marks;
    opts.link_arbitration = sc.arbitration;
    DynamicSimulation sim(mesh, node_churn(mesh, 31, 160), opts);
    PhasedTraffic traffic(sim, sc.closed_loop, sc.closed_loop ? 0.2 : 0.03, 57);
    EagerDistances eager;
    run_phased(sim, traffic, 230, 230, eager);

    const size_t occurrences = sim.occurrences().size();
    ASSERT_GT(occurrences, 5u);
    long long fates[4] = {0, 0, 0, 0};  // delivered, unreachable, exhausted, in flight
    long long before_first = 0, after_last = 0, settled_exhausted = 0;
    for (const MessageProgress& msg : sim.messages()) {
      fates[0] += msg.delivered;
      fates[1] += msg.unreachable;
      fates[2] += msg.budget_exhausted;
      fates[3] += !msg.done();
      before_first += msg.first_occurrence == 0;
      after_last += msg.first_occurrence == occurrences;
      for (size_t i = 0; i < occurrences; ++i) {
        ASSERT_EQ(msg.distance_at(i), eager.at(msg, i))
            << "message " << msg.id << ", occurrence " << i;
        // An exhausted message that is still short of its destination at a
        // later occurrence: a settled value of 0 would fail the line above.
        const bool settled = msg.budget_exhausted && msg.end_step < sim.occurrences()[i].step;
        if (settled && eager.at(msg, i) > 0) ++settled_exhausted;
      }
    }
    EXPECT_GT(before_first, 0);
    EXPECT_GT(after_last, 0);
    EXPECT_GT(settled_exhausted, 0);
    EXPECT_GT(fates[0], 0) << "delivered";
    EXPECT_GT(fates[1], 0) << "unreachable";
    EXPECT_GT(fates[2], 0) << "budget exhausted";
    EXPECT_GT(fates[3], 0) << "in flight at the cap";
  }
}

/// The header accessors that outlive the path stack.
struct HeaderView {
  explicit HeaderView(const RoutingHeader& h)
      : source(h.source()),
        destination(h.destination()),
        current(h.current()),
        total(h.total_steps()),
        forward(h.forward_steps()),
        backtrack(h.backtrack_steps()),
        detour(h.detour_forward_steps()) {}
  bool operator==(const HeaderView&) const = default;

  Coord source;
  Coord destination;
  Coord current;
  int total;
  int forward;
  int backtrack;
  int detour;
};

/// A header still holding its stack must answer from it.
void expect_matches_stack(const RoutingHeader& h) {
  ASSERT_FALSE(h.path().empty());
  EXPECT_EQ(h.source(), h.path().front().node);
  EXPECT_EQ(h.current(), h.path().back().node);
}

/// Steps until message `id` finishes; returns its view at the end of the
/// last step it was in flight.  Delivery and unreachability are decided
/// without a move, so that is also its view at the moment of finishing.
HeaderView step_until_finished(DynamicSimulation& sim, int id) {
  HeaderView last(sim.message(id).header);
  for (int s = 0; s < 4000 && !sim.message(id).done(); ++s) {
    expect_matches_stack(sim.message(id).header);
    last = HeaderView(sim.message(id).header);
    sim.step();
  }
  EXPECT_TRUE(sim.message(id).done());
  return last;
}

TEST(InFlightState, FinishedHeadersKeepEndpointsPositionAndCounters) {
  {
    SCOPED_TRACE("delivered");
    const MeshTopology mesh(2, 10);
    DynamicSimulation sim(mesh, FaultSchedule{});
    const int id = sim.launch_message(Coord{0, 0}, Coord{7, 5});
    const HeaderView last = step_until_finished(sim, id);
    const MessageProgress& msg = sim.message(id);
    ASSERT_TRUE(msg.delivered);
    EXPECT_TRUE(msg.header.path().empty()) << "the stack went to the pool";
    EXPECT_EQ(HeaderView(msg.header), last);
    EXPECT_EQ(msg.header.current(), (Coord{7, 5}));
    EXPECT_EQ(msg.detours(), 0);

    // The next launch builds on the pooled stack: 13 entries deep before,
    // where a fresh stack would hold capacity for one.
    ASSERT_EQ(sim.pooled_path_stacks(), 1u);
    const int next = sim.launch_message(Coord{1, 1}, Coord{2, 2});
    EXPECT_EQ(sim.pooled_path_stacks(), 0u);
    EXPECT_GE(sim.message(next).header.path().capacity(), 13u);
    expect_matches_stack(sim.message(next).header);
  }
  {
    SCOPED_TRACE("unreachable");
    const MeshTopology mesh(2, 10);
    FaultSchedule schedule;
    for (int x = 3; x <= 5; ++x)
      for (int y = 3; y <= 5; ++y)
        if (!(x == 4 && y == 4)) schedule.add_fail(0, Coord{x, y});
    DynamicSimulationOptions opts;
    opts.persistent_marks = true;
    DynamicSimulation sim(mesh, schedule, opts);
    for (int i = 0; i < 40; ++i) sim.step();
    const int id = sim.launch_message(Coord{0, 0}, Coord{4, 4});
    const HeaderView last = step_until_finished(sim, id);
    const MessageProgress& msg = sim.message(id);
    ASSERT_TRUE(msg.unreachable);
    EXPECT_EQ(HeaderView(msg.header), last);
    EXPECT_EQ(msg.header.current(), (Coord{0, 0})) << "declared unreachable at its source";
    EXPECT_GT(msg.header.backtrack_steps(), 0);
  }
  {
    SCOPED_TRACE("budget exhausted");
    // The walled destination again, with a budget shorter than the search
    // that proves it unreachable.  A twin with the default budget makes the
    // same moves step for step and still holds its stack when the budget
    // ends the first one.
    const MeshTopology mesh(2, 10);
    FaultSchedule schedule;
    for (int x = 3; x <= 5; ++x)
      for (int y = 3; y <= 5; ++y)
        if (!(x == 4 && y == 4)) schedule.add_fail(0, Coord{x, y});
    DynamicSimulationOptions opts;
    opts.persistent_marks = true;
    DynamicSimulationOptions twin_opts = opts;
    opts.step_budget_per_message = 200;
    DynamicSimulation sim(mesh, schedule, opts);
    DynamicSimulation twin(mesh, schedule, twin_opts);
    const int id = sim.launch_message(Coord{0, 0}, Coord{4, 4});
    const int twin_id = twin.launch_message(Coord{0, 0}, Coord{4, 4});
    for (int s = 0; s < 1000 && !sim.message(id).done(); ++s) {
      sim.step();
      twin.step();
    }
    const MessageProgress& msg = sim.message(id);
    ASSERT_TRUE(msg.budget_exhausted);
    const RoutingHeader& held = twin.message(twin_id).header;
    ASSERT_FALSE(twin.message(twin_id).done());
    expect_matches_stack(held);
    EXPECT_EQ(HeaderView(msg.header), HeaderView(held));
    EXPECT_EQ(msg.header.total_steps(), 200);
    EXPECT_GT(msg.header.backtrack_steps(), 0);
    EXPECT_EQ(msg.settled_distance, mesh.min_hops(held.current(), held.destination()));
  }
  {
    SCOPED_TRACE("in flight at the cap");
    const MeshTopology mesh(2, 10);
    DynamicSimulation sim(mesh, FaultSchedule{});
    const int id = sim.launch_message(Coord{0, 0}, Coord{7, 5});
    sim.run(5);
    const MessageProgress& msg = sim.message(id);
    ASSERT_FALSE(msg.done());
    expect_matches_stack(msg.header);
    EXPECT_EQ(msg.header.total_steps(), 5);
    EXPECT_EQ(sim.pooled_path_stacks(), 0u);
  }
}

TEST(InFlightState, PathPoolStaysWithinPeakInFlightUnderClosedLoopChurn) {
  const MeshTopology mesh(2, 10);
  DynamicSimulationOptions opts;
  opts.link_arbitration = true;
  DynamicSimulation sim(mesh, node_churn(mesh, 7, 300), opts);
  PhasedTraffic traffic(sim, /*closed_loop=*/true, 0.3, 11);
  EagerDistances eager;
  run_phased(sim, traffic, 400, 300, eager);  // checks the bound at every launch and step
  EXPECT_GT(sim.messages().size(), 1000u);
  EXPECT_GT(sim.pooled_path_stacks(), 0u);
  EXPECT_LE(static_cast<long long>(sim.pooled_path_stacks()), traffic.peak_in_flight());
  EXPECT_LT(traffic.peak_in_flight(), static_cast<long long>(sim.messages().size()) / 10)
      << "the pool is bounded by concurrency, not history";
}

TEST(Network, QuickstartFacade) {
  Network net(MeshTopology(3, 8));
  for (const auto& c : figure1_faults()) net.inject_fault(c);
  net.stabilize();
  const auto blocks = net.blocks();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].box, figure1_block());

  const auto r = net.route(Coord{0, 0, 0}, Coord{7, 7, 7});
  EXPECT_TRUE(r.delivered);
}

}  // namespace
}  // namespace lgfi
