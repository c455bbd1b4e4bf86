// Static-environment routing tests: Algorithm 3 semantics, direction
// classification, P5 (safe source => minimal delivery), P6 (termination /
// completeness with persistent marks), and baseline router behaviour.

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/fault/block_analyzer.h"
#include "src/fault/boundary_model.h"
#include "src/fault/labeling.h"
#include "src/fault/safety.h"
#include "src/routing/direction_policy.h"
#include "src/routing/global_table_router.h"
#include "src/routing/oracle_router.h"
#include "src/routing/route_walker.h"
#include "src/routing/router_registry.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

struct StaticWorld {
  MeshTopology mesh;
  StatusField field;
  std::vector<Box> blocks;
  InformationPlacement placement;
  StoreInfoProvider provider;
  RoutingContext ctx;

  StaticWorld(int dims, int radix, const std::vector<Coord>& faults)
      : mesh(dims, radix),
        field(stabilized_field(mesh, faults)),
        blocks(block_boxes(field)),
        placement(compute_information_placement(mesh, blocks)),
        provider(placement.store) {
    ctx.mesh = &mesh;
    ctx.field = &field;
    ctx.info = &provider;
  }
};

TEST(RoutingHeader, ForwardAndBacktrackMaintainStack) {
  RoutingHeader h(Coord{0, 0}, Coord{3, 3});
  EXPECT_TRUE(h.at_source());
  h.forward(Direction(0, true));
  EXPECT_EQ(h.current(), (Coord{1, 0}));
  EXPECT_EQ(h.path_hops(), 1);
  EXPECT_TRUE(h.path()[0].used.contains(Direction(0, true)));
  h.forward(Direction(1, true));
  EXPECT_EQ(h.current(), (Coord{1, 1}));
  h.backtrack();
  EXPECT_EQ(h.current(), (Coord{1, 0}));
  EXPECT_EQ(h.forward_steps(), 2);
  EXPECT_EQ(h.backtrack_steps(), 1);
  EXPECT_EQ(h.total_steps(), 3);
}

TEST(RoutingHeader, PoppedNodesLoseMarksByDefault) {
  RoutingHeader h(Coord{0, 0}, Coord{3, 3});
  h.forward(Direction(0, true));
  h.forward(Direction(1, true));
  h.backtrack();
  h.backtrack();
  h.forward(Direction(0, true));  // revisit (1,0)
  EXPECT_TRUE(h.top().used.empty()) << "paper semantics: marks live on the path only";
}

TEST(RoutingHeader, PersistentMarksSurviveBacktrack) {
  RoutingHeader h(Coord{0, 0}, Coord{3, 3});
  h.enable_persistent_marks();
  h.forward(Direction(0, true));
  h.forward(Direction(1, true));
  h.backtrack();  // pops (1,1)
  h.backtrack();  // pops (1,0), whose used = {+d1}
  h.forward(Direction(0, true));  // revisit (1,0)
  EXPECT_TRUE(h.top().used.contains(Direction(1, true)));
}

TEST(DirectionPolicy, ClassifiesPreferredAndSpare) {
  StaticWorld w(2, 8, {});
  const Coord u{4, 4};
  const Coord d{6, 4};
  DirectionPolicyOptions opts;
  EXPECT_EQ(classify_direction(w.ctx, u, d, Direction(0, true), {}, opts),
            DirectionClass::kPreferred);
  EXPECT_EQ(classify_direction(w.ctx, u, d, Direction(0, false), {}, opts),
            DirectionClass::kSpare);
  EXPECT_EQ(classify_direction(w.ctx, u, d, Direction(1, true), {}, opts),
            DirectionClass::kSpare);
}

TEST(DirectionPolicy, UsedAndBlockedAreExcluded) {
  StaticWorld w(2, 8, {Coord{5, 4}});
  const Coord u{4, 4};
  const Coord d{6, 4};
  DirectionPolicyOptions opts;
  DirectionSet used;
  used.insert(Direction(1, true));
  EXPECT_EQ(classify_direction(w.ctx, u, d, Direction(1, true), used, opts),
            DirectionClass::kExcluded);
  EXPECT_EQ(classify_direction(w.ctx, u, d, Direction(0, true), {}, opts),
            DirectionClass::kExcluded)
      << "direction into a faulty node is excluded";
}

TEST(DirectionPolicy, SpareAlongBlockOutranksPlainSpare) {
  // Block to the east of u; a spare that slides along it (y moves) ranks
  // above the spare moving away from everything (-x).
  StaticWorld w(2, 10, {Coord{5, 4}, Coord{5, 5}, Coord{5, 3}});
  const Coord u{4, 4};  // west of the fault column
  const Coord d{7, 4};  // east of it: +x preferred but faulty
  const auto cands = ordered_candidates(w.ctx, u, d, {}, Direction::none(), {});
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(cands.front().cls, DirectionClass::kSpareAlongBlock);
  EXPECT_EQ(cands.front().dir.dim(), 1) << "slide along the block in y";
}

TEST(DirectionPolicy, DetourPreferredDemotedBelowSpares) {
  // u sits below a block that cuts all minimal paths to d; the preferred +y
  // becomes preferred-but-detour and must rank below the lateral spares.
  const MeshTopology mesh(2, 12);
  StatusField field(mesh);  // keep everything enabled; info alone drives it
  InfoStore store(mesh);
  const Box block(Coord{3, 6}, Coord{7, 7});
  const Coord u{5, 4};
  store.deposit(mesh.index_of(u), BlockInfo{block, 0});
  StoreInfoProvider provider(store);
  RoutingContext ctx{&mesh, &field, &provider};
  const Coord d{5, 10};

  const auto cands = ordered_candidates(ctx, u, d, {}, Direction::none(), {});
  ASSERT_FALSE(cands.empty());
  bool found_detour = false;
  for (const auto& c : cands) {
    if (c.dir == Direction(1, true)) {
      EXPECT_EQ(c.cls, DirectionClass::kPreferredDetour);
      found_detour = true;
    }
  }
  EXPECT_TRUE(found_detour);
  EXPECT_NE(cands.front().cls, DirectionClass::kPreferredDetour)
      << "something else must outrank the detour direction";
}

// --- best_candidate against its reference, ordered_candidates(...).front() --

/// Checks one decision and tallies the class chosen (index = DirectionClass).
void expect_best_is_front(const RoutingContext& ctx, const Coord& u, const Coord& dest,
                          const DirectionSet& used, Direction incoming,
                          const DirectionPolicyOptions& opts, std::array<int, 5>& seen) {
  const auto ref = ordered_candidates(ctx, u, dest, used, incoming, opts);
  const ClassifiedDirection best = best_candidate(ctx, u, dest, used, incoming, opts);
  const std::string where = ctx.mesh->name() + " u=" + u.to_string() + " d=" + dest.to_string() +
                            " in=" + incoming.to_string() + " used=" + std::to_string(used.raw());
  if (ref.empty()) {
    EXPECT_EQ(best.cls, DirectionClass::kExcluded) << where;
    EXPECT_TRUE(best.dir.is_none()) << where;
  } else {
    EXPECT_EQ(best.dir, ref.front().dir) << where;
    EXPECT_EQ(best.cls, ref.front().cls) << where;
  }
  ++seen[static_cast<size_t>(best.cls)];
}

DirectionSet random_used(const Topology& mesh, Rng& rng) {
  DirectionSet used;
  for (int i = 0; i < mesh.direction_count(); ++i)
    if (rng.bernoulli(0.25)) used.insert(Direction::from_index(i));
  return used;
}

Direction random_incoming(const Topology& mesh, Rng& rng) {
  if (rng.bernoulli(0.2)) return Direction::none();
  return Direction::from_index(static_cast<int>(rng.next_below(mesh.direction_count())));
}

Coord random_node(const Topology& mesh, Rng& rng) {
  return mesh.coord_of(static_cast<NodeId>(rng.next_below(mesh.node_count())));
}

TEST(DirectionPolicy, BestCandidateMatchesReferenceOnRandomFields) {
  // Every input drawn at random: all four node statuses, directed link
  // faults, random boxes deposited as block info, used sets, incoming
  // directions and all three policy switches.  Extent-1 and wrapped
  // extent-2 dimensions exercise the missing- and doubled-neighbour cases.
  std::vector<std::unique_ptr<Topology>> topologies;
  topologies.push_back(std::make_unique<MeshTopology>(3, 5));
  topologies.push_back(std::make_unique<MeshTopology>(std::vector<int>{4, 1, 3}));
  topologies.push_back(std::make_unique<TorusTopology>(std::vector<int>{2, 5, 3}));
  topologies.push_back(std::make_unique<TorusTopology>(std::vector<int>{2, 2, 1}));
  topologies.push_back(std::make_unique<CMeshTopology>(std::vector<int>{6, 4}, 4));
  std::array<int, 5> seen{};
  for (const auto& topology : topologies) {
    const Topology& mesh = *topology;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed * 7919 + static_cast<uint64_t>(mesh.node_count()));
      StatusField field(mesh);
      LinkFaultMask links(mesh);
      InfoStore store(mesh);
      for (NodeId id = 0; id < mesh.node_count(); ++id) {
        const double r = rng.uniform_double();
        if (r < 0.35)
          field.set(id, r < 0.15  ? NodeStatus::kFaulty
                        : r < 0.3 ? NodeStatus::kDisabled
                                  : NodeStatus::kClean);
        for (int i = 0; i < mesh.direction_count(); ++i)
          if (rng.bernoulli(0.1)) links.fail(id, Direction::from_index(i));
        if (rng.bernoulli(0.3))
          store.deposit(id, BlockInfo{Box(random_node(mesh, rng), random_node(mesh, rng)), 0});
      }
      StoreInfoProvider provider(store);
      const RoutingContext ctx{&mesh, &field, &provider, seed % 2 == 0 ? &links : nullptr};
      for (int trial = 0; trial < 300; ++trial) {
        DirectionPolicyOptions opts;
        opts.avoid_faulty_neighbors = rng.bernoulli(0.8);
        opts.avoid_disabled_neighbors = rng.bernoulli(0.8);
        opts.use_block_info = rng.bernoulli(0.7);
        const Coord u = random_node(mesh, rng);
        const Coord dest = random_node(mesh, rng);
        expect_best_is_front(ctx, u, dest, random_used(mesh, rng), random_incoming(mesh, rng),
                             opts, seen);
      }
    }
  }
  for (size_t c = 0; c < seen.size(); ++c)
    EXPECT_GT(seen[c], 0) << "no decision of class " << to_string(static_cast<DirectionClass>(c));
}

TEST(DirectionPolicy, BestCandidateMatchesReferenceOnStabilizedModel) {
  // Block info placed by the paper's model over a stabilized field, so
  // preferred-but-detour arises the way it does in a run; used sets and
  // incoming directions random, block info on and off.
  const MeshTopology mesh(3, 8);
  std::array<int, 5> seen{};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const StatusField field = stabilized_field(mesh, clustered_fault_placement(mesh, 14, rng));
    const InformationPlacement placement =
        compute_information_placement(mesh, block_boxes(field));
    StoreInfoProvider provider(placement.store);
    const RoutingContext ctx{&mesh, &field, &provider};
    for (NodeId id = 0; id < mesh.node_count(); ++id) {
      if (field.at(id) != NodeStatus::kEnabled) continue;
      const Coord u = mesh.coord_of(id);
      for (int trial = 0; trial < 6; ++trial) {
        DirectionPolicyOptions opts;
        opts.use_block_info = trial % 3 != 0;
        const DirectionSet used = trial < 2 ? DirectionSet{} : random_used(mesh, rng);
        expect_best_is_front(ctx, u, random_node(mesh, rng), used, random_incoming(mesh, rng),
                             opts, seen);
      }
    }
  }
  EXPECT_GT(seen[static_cast<size_t>(DirectionClass::kPreferredDetour)], 0);
  EXPECT_GT(seen[static_cast<size_t>(DirectionClass::kSpareAlongBlock)], 0);
}

TEST(Routing, FaultFreeDeliversMinimal) {
  StaticWorld w(3, 8, {});
  const auto router = make_router("fault_info");
  const auto r = run_static_route(w.ctx, *router, Coord{0, 0, 0}, Coord{7, 7, 7});
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.total_steps, 21);
  EXPECT_EQ(r.detours(), 0);
  EXPECT_EQ(r.final_path_hops, 21);
}

TEST(Routing, SourceEqualsDestination) {
  StaticWorld w(2, 8, {});
  const auto router = make_router("fault_info");
  const auto r = run_static_route(w.ctx, *router, Coord{3, 3}, Coord{3, 3});
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.total_steps, 0);
}

TEST(Routing, SafeSourceDeliversMinimal) {
  // P5: safe source (Theorem 2) => delivery in exactly D steps.
  const MeshTopology mesh(3, 8);
  Rng rng(0x5AFE2);
  int tested = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Rng t = rng.fork(static_cast<uint64_t>(trial));
    const auto faults = clustered_fault_placement(mesh, 8, t);
    StaticWorld w(3, 8, faults);
    const auto router = make_router("fault_info");
    for (int pair = 0; pair < 10; ++pair) {
      Coord s(3), d(3);
      for (int i = 0; i < 3; ++i) {
        s[i] = t.uniform_int(0, 7);
        d[i] = t.uniform_int(0, 7);
      }
      if (w.field.at(s) != NodeStatus::kEnabled || w.field.at(d) != NodeStatus::kEnabled)
        continue;
      if (!is_safe_source(w.blocks, s, d)) continue;
      const auto r = run_static_route(w.ctx, *router, s, d);
      EXPECT_TRUE(r.delivered) << s.to_string() << " -> " << d.to_string();
      EXPECT_EQ(r.total_steps, manhattan_distance(s, d))
          << s.to_string() << " -> " << d.to_string();
      ++tested;
    }
  }
  EXPECT_GT(tested, 50) << "sample size sanity";
}

TEST(Routing, InformedAvoidsDangerousPrism) {
  // Classic trap: wide block [4:11, 8:9]; the dangerous prism for +y
  // crossings is x in [4,11], y < 8.  A route from WEST of the prism to a
  // destination above the block crosses the wall at x = 3 and must turn
  // north there instead of entering; the walk stays minimal.
  StaticWorld w(2, 16, box_fault_placement(MeshTopology(2, 16), Box(Coord{4, 8}, Coord{11, 9})));
  ASSERT_EQ(w.blocks.size(), 1u);
  const auto informed = make_router("fault_info");
  const Coord s{1, 2}, d{7, 14};
  const auto r = run_static_route(w.ctx, *informed, s, d);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.backtrack_steps, 0) << "boundary info should prevent dead-ends";
  EXPECT_EQ(r.total_steps, manhattan_distance(s, d))
      << "turning at the wall keeps the route minimal";

  // The info-free router walks into the prism, hits the block surface and
  // must crawl around it — strictly more steps.
  const auto blind = make_router("no_info");
  EmptyInfoProvider empty;
  RoutingContext blind_ctx = w.ctx;
  blind_ctx.info = &empty;
  const auto rb = run_static_route(blind_ctx, *blind, s, d);
  EXPECT_TRUE(rb.delivered);
  EXPECT_GT(rb.total_steps, r.total_steps) << "information must help";
}

TEST(Routing, SourceInsidePrismStillDelivers) {
  // A source already inside the dangerous area (an unsafe source in
  // Theorem 5's sense) gets no early warning — walls only guard entry — but
  // the route still delivers after learning at the block's envelope.
  StaticWorld w(2, 16, box_fault_placement(MeshTopology(2, 16), Box(Coord{4, 8}, Coord{11, 9})));
  const auto informed = make_router("fault_info");
  const auto r = run_static_route(w.ctx, *informed, Coord{7, 2}, Coord{8, 14});
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.backtrack_steps, 0);
  EXPECT_GT(r.total_steps, manhattan_distance(Coord{7, 2}, Coord{8, 14}))
      << "a detour around the block is unavoidable from inside the prism";
}

TEST(Routing, PersistentMarksCompleteness) {
  // P6: with persistent marks, routing always terminates with the correct
  // verdict on random connected fields.
  const MeshTopology mesh(3, 8);
  Rng rng(0x7E57);
  for (int trial = 0; trial < 15; ++trial) {
    Rng t = rng.fork(static_cast<uint64_t>(trial));
    const auto faults = random_fault_placement(mesh, 30, t);
    StaticWorld w(3, 8, faults);
    const auto router = make_router("fault_info");
    for (int pair = 0; pair < 6; ++pair) {
      Coord s(3), d(3);
      for (int i = 0; i < 3; ++i) {
        s[i] = t.uniform_int(0, 7);
        d[i] = t.uniform_int(0, 7);
      }
      if (w.field.at(s) != NodeStatus::kEnabled || w.field.at(d) != NodeStatus::kEnabled)
        continue;
      RoutingHeader header(s, d);
      header.enable_persistent_marks();
      // drive manually so we can use the persistent header
      RouteResult r;
      r.min_distance = manhattan_distance(s, d);
      for (long long step = 0; step < 100000; ++step) {
        const RouteDecision dec = router->decide(w.ctx, header);
        if (dec.action == RouteAction::kDelivered) {
          r.delivered = true;
          break;
        }
        if (dec.action == RouteAction::kUnreachable) {
          r.unreachable = true;
          break;
        }
        if (dec.action == RouteAction::kForward) header.forward(dec.direction);
        else header.backtrack();
      }
      EXPECT_TRUE(r.delivered || r.unreachable);
      // Enabled regions of interior-fault fields are connected, and with
      // avoid-disabled routing the enabled subgraph is what matters: if the
      // oracle finds a path, so must the persistent DFS.
      const auto oracle = oracle_path_length(mesh, w.field, s, d, OracleAvoid::kBlockMembers);
      if (oracle.has_value()) {
        EXPECT_TRUE(r.delivered) << s.to_string() << " -> " << d.to_string();
      } else {
        EXPECT_TRUE(r.unreachable);
      }
    }
  }
}

TEST(Routing, PaperModeTerminatesWithinBudget) {
  // Paper-faithful marks (path-local): must still terminate inside the
  // safety budget on random fields.
  const MeshTopology mesh(2, 12);
  Rng rng(0xF00D);
  for (int trial = 0; trial < 20; ++trial) {
    Rng t = rng.fork(static_cast<uint64_t>(trial));
    const auto faults = random_fault_placement(mesh, 20, t);
    StaticWorld w(2, 12, faults);
    const auto router = make_router("fault_info");
    Coord s(2), d(2);
    for (int i = 0; i < 2; ++i) {
      s[i] = t.uniform_int(0, 11);
      d[i] = t.uniform_int(0, 11);
    }
    if (w.field.at(s) != NodeStatus::kEnabled || w.field.at(d) != NodeStatus::kEnabled)
      continue;
    const auto r = run_static_route(w.ctx, *router, s, d);
    EXPECT_TRUE(r.delivered || r.unreachable) << "budget exhausted at trial " << trial;
  }
}

TEST(Routing, UnreachableDestinationNeedsPersistentMarks) {
  // Destination enclosed by a fault ring becomes a disabled block member —
  // unreachable.  The paper assumes an enabled destination and a connected
  // enabled region, and with path-local used sets (the literal header
  // semantics) the probe orbits the block forever: spare-along-block keeps
  // it circling and fresh path entries never accumulate marks.  We document
  // that livelock here and show the persistent-marks variant detects
  // unreachability correctly (see DESIGN.md §6.7).
  const MeshTopology mesh(2, 10);
  std::vector<Coord> ring;
  for (int x = 3; x <= 5; ++x)
    for (int y = 3; y <= 5; ++y)
      if (!(x == 4 && y == 4)) ring.push_back(Coord{x, y});
  StaticWorld w(2, 10, ring);
  ASSERT_EQ(w.field.at(Coord{4, 4}), NodeStatus::kDisabled)
      << "the walled-in node is absorbed into the block";
  const auto router = make_router("fault_info");

  // Paper-literal mode: the safety budget is what terminates the walk.
  const auto r = run_static_route(w.ctx, *router, Coord{0, 0}, Coord{4, 4});
  EXPECT_TRUE(r.budget_exhausted) << "literal Algorithm 3 livelocks on unreachable dests";

  // Persistent-marks mode: every (node, direction) pair is tried at most
  // once, so the DFS exhausts and reports unreachable.
  RoutingHeader header(Coord{0, 0}, Coord{4, 4});
  header.enable_persistent_marks();
  bool unreachable = false;
  for (int step = 0; step < 100000; ++step) {
    const RouteDecision dec = router->decide(w.ctx, header);
    ASSERT_NE(dec.action, RouteAction::kDelivered);
    if (dec.action == RouteAction::kUnreachable) {
      unreachable = true;
      break;
    }
    if (dec.action == RouteAction::kForward) header.forward(dec.direction);
    else header.backtrack();
  }
  EXPECT_TRUE(unreachable);
}

TEST(Routing, OracleMatchesBfsLength) {
  StaticWorld w(2, 12, box_fault_placement(MeshTopology(2, 12), Box(Coord{4, 4}, Coord{7, 7})));
  const auto oracle = make_router("oracle");
  const Coord s{2, 5}, d{10, 6};
  const auto len = oracle_path_length(w.mesh, w.field, s, d);
  ASSERT_TRUE(len.has_value());
  const auto r = run_static_route(w.ctx, *oracle, s, d);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.total_steps, *len);
  EXPECT_EQ(r.backtrack_steps, 0);
}

TEST(Routing, OracleFaultyOnlyCanCrossDisabled) {
  // A disabled (but non-faulty) corridor: block-avoiding oracle detours,
  // faulty-only oracle may pass straight through.
  const MeshTopology mesh(2, 12);
  const std::vector<Coord> faults{Coord{4, 4}, Coord{6, 4}, Coord{4, 6}, Coord{6, 6},
                                  Coord{5, 5}};
  StaticWorld w(2, 12, faults);
  const Coord s{5, 1}, d{5, 10};
  const auto strict = oracle_path_length(mesh, w.field, s, d, OracleAvoid::kBlockMembers);
  const auto lax = oracle_path_length(mesh, w.field, s, d, OracleAvoid::kFaultyOnly);
  ASSERT_TRUE(strict.has_value());
  ASSERT_TRUE(lax.has_value());
  EXPECT_LE(*lax, *strict);
}

TEST(Routing, DimensionOrderFailsAtBlocks) {
  StaticWorld w(2, 10, box_fault_placement(MeshTopology(2, 10), Box(Coord{4, 2}, Coord{5, 7})));
  const auto ecube = make_router("dimension_order");
  // Path 0->x first: runs straight into the wall.
  const auto r = run_static_route(w.ctx, *ecube, Coord{1, 4}, Coord{8, 4});
  EXPECT_TRUE(r.unreachable);
  // An unobstructed pair works and is minimal.
  const auto ok = run_static_route(w.ctx, *ecube, Coord{0, 0}, Coord{8, 1});
  EXPECT_TRUE(ok.delivered);
  EXPECT_EQ(ok.total_steps, 9);
}

TEST(Routing, GlobalTableEqualsLimitedInfoOnStaticFields) {
  // With stable information both schemes hold the same boxes wherever the
  // route consults them, so the paths coincide on these scenarios.
  const MeshTopology mesh(2, 14);
  const auto faults = box_fault_placement(mesh, Box(Coord{5, 6}, Coord{9, 8}));
  StaticWorld w(2, 14, faults);

  GlobalInfoProvider global_provider(
      [&] {
        std::vector<BlockInfo> v;
        for (const auto& b : w.blocks) v.push_back(BlockInfo{b, 0});
        return v;
      }());
  RoutingContext global_ctx = w.ctx;
  global_ctx.info = &global_provider;

  const auto limited = make_router("fault_info");
  const auto global = make_router("global_table");
  const Coord s{7, 2}, d{7, 12};
  const auto rl = run_static_route(w.ctx, *limited, s, d);
  const auto rg = run_static_route(global_ctx, *global, s, d);
  EXPECT_TRUE(rl.delivered);
  EXPECT_TRUE(rg.delivered);
  EXPECT_EQ(rl.total_steps, rg.total_steps);
}

TEST(Routing, DetourForwardStepsCounted) {
  // Force the route to take a detour-preferred direction: destination above
  // a block, source inside the prism, surrounded by used-up options... the
  // simplest observable: routing from inside the prism still delivers.
  StaticWorld w(2, 16, box_fault_placement(MeshTopology(2, 16), Box(Coord{4, 8}, Coord{11, 9})));
  const auto router = make_router("fault_info");
  const auto r = run_static_route(w.ctx, *router, Coord{7, 5}, Coord{7, 13});
  EXPECT_TRUE(r.delivered);
  EXPECT_GT(r.total_steps, manhattan_distance(Coord{7, 5}, Coord{7, 13}));
}

}  // namespace
}  // namespace lgfi
