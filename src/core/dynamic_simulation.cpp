#include "src/core/dynamic_simulation.h"

#include <algorithm>
#include <cassert>

#include "src/fault/block_analyzer.h"
#include "src/fault/labeling.h"
#include "src/routing/router_registry.h"

namespace lgfi {

DynamicSimulation::DynamicSimulation(const Topology& mesh, const FaultSchedule& schedule,
                                     DynamicSimulationOptions options)
    : DynamicSimulation(mesh, timeline_from_schedule(schedule), options) {}

DynamicSimulation::DynamicSimulation(const Topology& mesh, FaultTimeline timeline,
                                     DynamicSimulationOptions options)
    : mesh_(&mesh),
      timeline_(std::move(timeline)),
      link_faults_(mesh),
      options_(options),
      model_(mesh, options.model),
      limited_provider_(model_.info()) {
  assert(options_.lambda >= 1);
  if (options_.info_mode == InfoMode::kDelayedGlobal)
    delayed_provider_ = std::make_unique<DelayedGlobalInfoProvider>(mesh);

  SwitchingOptions sopts;
  sopts.link_arbitration = options_.link_arbitration;
  sopts.num_vcs = options_.num_vcs;
  sopts.vc_buffer_depth = options_.vc_buffer_depth;
  sopts.flits_per_packet = options_.flits_per_packet;
  switching_ = make_switching_model(options_.switching, mesh, sopts);
  if (switching_->arbitrated()) {
    arbiter_ = std::make_unique<LinkArbiter>(mesh);
    arbiter_->set_link_faults(&link_faults_);
  }

  // The per-message step budget depends only on construction-time values;
  // computing it here keeps it out of the per-step hot path.
  step_budget_ = options_.step_budget_per_message > 0
                     ? options_.step_budget_per_message
                     : 4ll * mesh_->direction_count() * mesh_->node_count();

  router_ = make_router(options_.router == "auto" ? router_name_for(options_.info_mode)
                                                  : options_.router,
                        options_.router_config);
}

RoutingContext DynamicSimulation::context() const {
  RoutingContext ctx;
  ctx.mesh = mesh_;
  ctx.field = &model_.field();
  ctx.links = &link_faults_;
  switch (options_.info_mode) {
    case InfoMode::kLimitedGlobal: ctx.info = &limited_provider_; break;
    case InfoMode::kNone: ctx.info = &empty_provider_; break;
    case InfoMode::kInstantGlobal: ctx.info = &instant_provider_; break;
    case InfoMode::kDelayedGlobal: ctx.info = delayed_provider_.get(); break;
  }
  return ctx;
}

int DynamicSimulation::launch_message(const Coord& source, const Coord& dest) {
  std::vector<PathEntry> storage;
  if (!path_pool_.empty()) {
    storage = std::move(path_pool_.back());
    path_pool_.pop_back();
  }
  MessageProgress msg(static_cast<int>(messages_.size()), source, dest,
                      mesh_->min_hops(source, dest), std::move(storage));
  msg.start_step = now_;
  if (options_.persistent_marks) msg.header.enable_persistent_marks();
  // Occurrences that already happened have D(i) = D (message at source).
  msg.first_occurrence = occurrences_.size();
  messages_.push_back(std::move(msg));
  ++active_messages_;
  // Between occurrences, drop finished ids once they are half the list, so
  // it stays O(in flight) at amortized O(1) per launch.
  if (unsettled_.size() >= 2 * static_cast<size_t>(active_messages_))
    std::erase_if(unsettled_, [this](int id) { return message(id).done(); });
  unsettled_.push_back(messages_.back().id);
  switching_->add_packet(messages_.back().id, mesh_->index_of(source));
  return messages_.back().id;
}

StepContext DynamicSimulation::begin_step() {
  StepContext ctx;
  ctx.step = now_;
  return ctx;
}

void DynamicSimulation::end_step(StepContext&) { ++now_; }

void DynamicSimulation::apply_fault_events(StepContext& ctx) {
  // O(1) peek against the timeline heap; a step with no due events costs
  // nothing regardless of how many are still pending.
  if (!timeline_.has_events_at(now_)) return;
  ctx.events = timeline_.pop_events_at(now_);

  bool node_change = false;
  Coord origin;
  for (const auto& e : ctx.events) {
    if (e.is_link()) {
      // Link faults live in the per-channel mask only: routing and
      // arbitration consult it, the protocol stack never does (a node is
      // faulty-for-labeling only when node-dead, DESIGN.md §17).
      if (e.is_down_edge())
        link_faults_.fail(mesh_->index_of(e.node), e.link);
      else
        link_faults_.repair(mesh_->index_of(e.node), e.link);
      continue;
    }
    if (e.is_down_edge()) {
      if (model_.field().at(e.node) != NodeStatus::kFaulty) model_.inject_fault(e.node);
    } else {
      if (model_.field().at(e.node) == NodeStatus::kFaulty) model_.recover(e.node);
    }
    if (!node_change) {
      node_change = true;
      origin = e.node;
    }
  }

  // A link-only batch changes no protocol state — no occurrence record, no
  // D(i) snapshots, no oracle republish.
  if (!node_change) return;

  // Open a new occurrence record (simultaneous events form one occurrence,
  // matching the paper's "only one new block in each interval" reading).
  if (converging_ >= 0)
    occurrences_[static_cast<size_t>(converging_)].stabilized_before_next = false;
  OccurrenceRecord rec;
  rec.step = now_;
  rec.origin = origin;
  occurrences_.push_back(rec);
  converging_ = static_cast<int>(occurrences_.size()) - 1;
  ctx.occurrence_opened = true;

  // Record D(i) for every in-flight message at this occurrence; a message
  // seen finished leaves the list, its D(i) settled from here on.
  size_t keep = 0;
  for (const int id : unsettled_) {
    MessageProgress& msg = messages_[static_cast<size_t>(id)];
    if (msg.done()) continue;
    msg.distance_at_occurrence.push_back(
        mesh_->min_hops(msg.header.current(), msg.header.destination()));
    unsettled_[keep++] = id;
  }
  unsettled_.resize(keep);

  if (options_.info_mode == InfoMode::kInstantGlobal) {
    // The oracle baseline sees the *final* blocks of this change instantly.
    StatusField copy = model_.field();
    stabilize_labeling(copy);
    std::vector<BlockInfo> infos;
    for (const auto& b : block_boxes(copy)) infos.push_back(BlockInfo{b, model_.epoch()});
    instant_provider_.set_blocks(std::move(infos));
  }
}

void DynamicSimulation::run_information_rounds(StepContext& ctx) {
  for (int r = 0; r < options_.lambda; ++r) {
    const bool active = model_.run_round();
    if (converging_ >= 0) {
      auto& rec = occurrences_[static_cast<size_t>(converging_)];
      const auto& act = model_.last_activity();
      const int round_in_occurrence =
          static_cast<int>((now_ - rec.step) * options_.lambda) + r + 1;
      if (act.labeling) rec.rounds_labeling = round_in_occurrence;
      if (act.levels || act.identification) rec.rounds_identification = round_in_occurrence;
      if (act.envelope || act.boundary || act.cancel) rec.rounds_boundary = round_in_occurrence;
      if (!active) {
        rec.e_max_after = max_block_extent(block_boxes(model_.field()));
        if (options_.info_mode == InfoMode::kDelayedGlobal) {
          // The routing-table baseline publishes the new global snapshot
          // from the site of the change once stabilized; it spreads one hop
          // per step.
          std::vector<BlockInfo> infos;
          for (const auto& b : block_boxes(model_.field()))
            infos.push_back(BlockInfo{b, model_.epoch()});
          delayed_provider_->publish(infos, rec.origin, now_);
        }
        converging_ = -1;
        ctx.stabilized = true;
      }
    }
  }
  // Skip the provider's O(N) reveal sweep entirely while no snapshot wave is
  // spreading — the common case once the network has stabilized.
  if (options_.info_mode == InfoMode::kDelayedGlobal && delayed_provider_->wave_in_flight())
    delayed_provider_->advance(now_);
}

void DynamicSimulation::finish_message(MessageProgress& msg, StepContext& ctx) {
  msg.end_step = now_;
  msg.settled_distance = (msg.delivered || msg.unreachable)
                             ? 0
                             : mesh_->min_hops(msg.header.current(), msg.header.destination());
  path_pool_.push_back(msg.header.release_path());
  --active_messages_;
  ++ctx.finished;
}

// --- SwitchingHost --------------------------------------------------------
// The model sequences these callbacks during arbitrate_and_advance; all
// header mutation, budget enforcement and per-message accounting stays here.

SwitchDecision DynamicSimulation::decide(int id) {
  MessageProgress& msg = messages_[static_cast<size_t>(id)];
  const RouteDecision d = router_->decide(step_ctx_->routing, msg.header);
  SwitchDecision out;
  switch (d.action) {
    case RouteAction::kDelivered: out.action = SwitchAction::kDeliver; break;
    case RouteAction::kUnreachable: out.action = SwitchAction::kUnreachable; break;
    case RouteAction::kForward: out.action = SwitchAction::kForward; break;
    case RouteAction::kBacktrack: out.action = SwitchAction::kBacktrack; break;
  }
  out.direction = d.direction;
  out.detour_preferred = d.detour_preferred;
  // The channel a backtrack would traverse — supplied on every decision so
  // flit-level models can issue resource-releasing backtracks of their own.
  if (!msg.header.at_source() && !msg.header.top().incoming.is_none())
    out.back = msg.header.top().incoming.opposite();
  return out;
}

MoveResult DynamicSimulation::commit_move(int id, const SwitchDecision& decision) {
  MessageProgress& msg = messages_[static_cast<size_t>(id)];
  if (decision.action == SwitchAction::kForward) {
    msg.header.forward(decision.direction,
                       mesh_->step(msg.header.current(), decision.direction));
    if (decision.detour_preferred) ++msg.detour_preferred_taken;
  } else {
    msg.header.backtrack();
    if (decision.unmark_on_backtrack) msg.header.unmark(decision.back.opposite());
  }
  ++step_ctx_->moved;
  MoveResult r;
  r.node = mesh_->index_of(msg.header.current());
  if (msg.header.total_steps() >= step_budget_ && !msg.delivered && !msg.unreachable) {
    msg.budget_exhausted = true;
    finish_message(msg, *step_ctx_);
    r.finished = true;
  }
  return r;
}

void DynamicSimulation::finish(int id, PacketOutcome outcome) {
  MessageProgress& msg = messages_[static_cast<size_t>(id)];
  switch (outcome) {
    case PacketOutcome::kDelivered:
      msg.delivered = true;
      ++step_ctx_->delivered;
      break;
    case PacketOutcome::kUnreachable:
      msg.unreachable = true;
      if (first_unreachable_step_ < 0) first_unreachable_step_ = now_;
      break;
    case PacketOutcome::kBudgetExhausted: msg.budget_exhausted = true; break;
  }
  finish_message(msg, *step_ctx_);
}

void DynamicSimulation::count_stall(int id) {
  ++messages_[static_cast<size_t>(id)].stall_steps;
  ++step_ctx_->stalled;
}

void DynamicSimulation::record_head_arrival(int id) {
  messages_[static_cast<size_t>(id)].head_arrival_step = now_;
}

void DynamicSimulation::count_flit_moves(int n) { step_ctx_->flits_moved += n; }

bool DynamicSimulation::node_faulty(NodeId node) const {
  return model_.field().at(node) == NodeStatus::kFaulty;
}

bool DynamicSimulation::link_faulty(NodeId from, Direction dir) const {
  return link_faults_.faulty(from, dir);
}

uint64_t DynamicSimulation::field_version() const {
  // Sum of two monotone counters: strictly increases on any node *or* link
  // change, so version-caching consumers (oracle BFS trees, wormhole stream
  // teardown scans) react to both without a wider interface.
  return model_.field().version() + link_faults_.version();
}

void DynamicSimulation::arbitrate_and_advance(StepContext& ctx) {
  ctx.routing = context();
  step_ctx_ = &ctx;
  switching_->advance_step(*this, arbiter_.get());
  step_ctx_ = nullptr;
}

void DynamicSimulation::step() {
  StepContext ctx = begin_step();
  apply_fault_events(ctx);       // fault detection phase
  run_information_rounds(ctx);   // lambda rounds of the three constructions
  arbitrate_and_advance(ctx);    // message reception + routing decision + send
  end_step(ctx);
}

void DynamicSimulation::run(long long max_steps) {
  for (long long i = 0; i < max_steps; ++i) {
    const bool schedule_done = timeline_.empty();
    if (schedule_done && all_messages_done() && converging_ < 0) return;
    step();
  }
}

DynamicFaultTimeline DynamicSimulation::timeline(long long route_start) const {
  DynamicFaultTimeline tl;
  tl.route_start = route_start;
  int e_max = 0;
  for (const auto& rec : occurrences_) {
    tl.t.push_back(rec.step);
    // a_i in steps: each step runs lambda rounds.
    tl.a.push_back((rec.rounds_labeling + options_.lambda - 1) / options_.lambda);
    e_max = std::max(e_max, rec.e_max_after);
  }
  tl.e_max = e_max;
  return tl;
}

}  // namespace lgfi
