#include "src/core/traffic_workload.h"

#include <utility>

#include "src/core/scenario.h"

namespace lgfi {

TrafficWorkload::TrafficWorkload(DynamicSimulation& sim, TrafficPattern& pattern,
                                 TrafficWorkloadOptions options, Rng& rng)
    : sim_(&sim),
      pattern_(&pattern),
      options_(std::move(options)),
      rng_(&rng),
      owned_process_(make_bernoulli_injection(options_.injection_rate)),
      process_(owned_process_.get()) {}

TrafficWorkload::TrafficWorkload(DynamicSimulation& sim, TrafficPattern& pattern,
                                 InjectionProcess& process, TrafficWorkloadOptions options,
                                 Rng& rng)
    : sim_(&sim),
      pattern_(&pattern),
      options_(std::move(options)),
      rng_(&rng),
      process_(&process) {}

void TrafficWorkload::inject(bool measured, TrafficResult& result) {
  const Topology& mesh = sim_->mesh();
  const StatusField& field = sim_->model().field();
  const NodeId nodes = static_cast<NodeId>(mesh.node_count());
  InjectionStepView view;
  view.step = sim_->now();
  view.active_messages = sim_->active_messages();
  process_->begin_step(view);
  int slot = 0;
  for (NodeId node = 0; node < nodes; ++node) {
    // Every terminal on the router consults the process in ascending slot
    // order; under bernoulli that is one coin per slot, the historical RNG
    // stream exactly.
    for (int t = 0; t < mesh.concentration(); ++t, ++slot) {
      if (!process_->fire(slot, *rng_)) continue;
      if (measured) ++result.offered;
      // Only enabled nodes inject; a source absorbed into a block has no
      // functional injection port this step.
      if (field.at(node) != NodeStatus::kEnabled) continue;
      const Coord source = mesh.coord_of(node);
      Coord dest;
      if (!process_->replay_destination(slot, dest)) {
        dest = pattern_->destination(source, *rng_);
      }
      // dest == source: the pattern's fixed points do not inject.  A block-
      // member destination is retired at injection (standard practice:
      // traffic to a dead endpoint cannot be delivered, and routing it to
      // exhaustion would measure the budget, not the network).
      if (dest == source) continue;
      if (is_block_member(field.at(dest))) continue;
      const int id = sim_->launch_message(source, dest);
      ++result.injected;
      process_->on_inject(slot, id);
      if (trace_ != nullptr) {
        trace_->add(view.step, slot, mesh.index_of(dest), options_.trace_packet_size);
      }
      if (measured) {
        ++result.measured;
        result.measured_ids.push_back(id);
      }
      if (process_->closed_loop()) {
        PairState pair;
        pair.msg_id = id;
        pair.slot = slot;
        pair.measured = measured;
        pair.start_step = view.step;
        pairs_.push_back(pair);
      }
    }
  }
}

void TrafficWorkload::fail_pair(const PairState& pair, const MessageProgress* msg,
                                TrafficResult& result) {
  process_->on_slot_released(pair.slot);
  if (!pair.measured) return;
  if (msg != nullptr && msg->budget_exhausted) {
    ++result.measured_exhausted;
  } else {
    ++result.measured_unreachable;
  }
}

void TrafficWorkload::post_step(TrafficResult& result) {
  if (!process_->closed_loop() || pairs_.empty()) return;
  const StatusField& field = sim_->model().field();
  size_t keep = 0;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    PairState pair = pairs_[i];
    const MessageProgress& msg = sim_->message(pair.msg_id);
    if (!msg.done()) {
      pairs_[keep++] = pair;
      continue;
    }
    if (!msg.delivered) {
      fail_pair(pair, &msg, result);
      continue;
    }
    if (!pair.reply) {
      // Copy everything out of the request's record before launching the
      // reply: launch_message may reallocate the message table.
      const Coord reply_src = msg.header.destination();
      const Coord reply_dst = msg.header.source();
      pair.request_stalls = msg.stall_steps;
      // Request delivered: the destination answers.  If the replier died or
      // the original source was absorbed into a block since, the pair fails
      // the same way an injection toward a dead endpoint is retired.
      if (field.at(reply_src) != NodeStatus::kEnabled || is_block_member(field.at(reply_dst))) {
        fail_pair(pair, nullptr, result);
        continue;
      }
      pair.msg_id = sim_->launch_message(reply_src, reply_dst);
      pair.reply = true;
      ++result.injected;
      pairs_[keep++] = pair;
      continue;
    }
    process_->on_slot_released(pair.slot);
    if (pair.measured) {
      ++result.measured_delivered;
      // Pair latency: request launch to reply delivery — what a terminal
      // actually waits for.  Stalls sum both halves.
      result.latency.add(msg.end_step - pair.start_step);
      result.stall_steps += pair.request_stalls + msg.stall_steps;
    }
  }
  pairs_.resize(keep);
}

TrafficResult TrafficWorkload::run() {
  TrafficResult result;
  const Topology& mesh = sim_->mesh();
  if (!options_.trace_record.empty()) {
    trace_ = std::make_unique<TraceWriter>(options_.trace_record, mesh);
  }

  // Warmup: fill the network; nothing injected here is measured.
  for (long long s = 0; s < options_.warmup_steps; ++s) {
    inject(/*measured=*/false, result);
    sim_->step();
    ++result.steps_run;
    post_step(result);
  }

  // Probes: the historical single-message experiment, riding on whatever
  // background load the injection process creates.
  for (int p = 0; p < options_.probes; ++p) {
    const Pair pair = random_enabled_pair(mesh, sim_->model().field(), *rng_,
                                          options_.min_probe_distance);
    result.probe_ids.push_back(sim_->launch_message(pair.source, pair.dest));
  }

  // Measurement window.
  for (long long s = 0; s < options_.measure_steps; ++s) {
    inject(/*measured=*/true, result);
    sim_->step();
    ++result.steps_run;
    post_step(result);
  }

  // Drain: no new primary injections; run until every message (tagged or
  // not, probes and closed-loop replies included) finished, capped by
  // drain_steps.  Pairs completing here still count.
  long long cap = options_.drain_steps > 0
                      ? options_.drain_steps
                      : 4ll * mesh.direction_count() * mesh.node_count();
  while (!sim_->all_messages_done() && cap-- > 0) {
    sim_->step();
    ++result.steps_run;
    post_step(result);
  }

  if (process_->closed_loop()) {
    // The measurement population is pairs; anything still holding a window
    // entry at the cap is unfinished.
    for (const PairState& pair : pairs_) {
      if (pair.measured) ++result.measured_unfinished;
    }
  } else {
    for (const int id : result.measured_ids) {
      const MessageProgress& msg = sim_->message(id);
      result.stall_steps += msg.stall_steps;
      if (msg.delivered) {
        ++result.measured_delivered;
        result.latency.add(msg.end_step - msg.start_step);
        if (msg.head_arrival_step >= 0) {
          // Flit-level switching: split the tail latency into path setup
          // (head) and flit streaming (serialization).
          result.head_latency.add(msg.head_arrival_step - msg.start_step);
          result.serialization.add(msg.end_step - msg.head_arrival_step);
        }
      } else if (msg.unreachable) {
        ++result.measured_unreachable;
      } else if (msg.budget_exhausted) {
        ++result.measured_exhausted;
      } else {
        ++result.measured_unfinished;
      }
    }
  }

  if (trace_ != nullptr) {
    trace_->close();
    trace_.reset();
  }

  // Loads normalize per injection endpoint: terminal_count() terminals, not
  // routers (they coincide except on the concentrated mesh).
  const double window =
      static_cast<double>(options_.measure_steps) * static_cast<double>(mesh.terminal_count());
  if (window > 0) {
    result.offered_load = static_cast<double>(result.offered) / window;
    result.accepted_throughput = static_cast<double>(result.measured_delivered) / window;
  }
  return result;
}

}  // namespace lgfi
