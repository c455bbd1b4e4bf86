#include "src/sim/wormhole_switching.h"

#include <stdexcept>
#include <utility>

#include "src/sim/link_arbiter.h"

namespace lgfi {

namespace {
void check_range(const char* key, int value, int lo, int hi) {
  if (value < lo || value > hi)
    throw ConfigError(std::string(key) + "=" + std::to_string(value) + " out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
}
}  // namespace

WormholeSwitching::WormholeSwitching(const Topology& mesh, const SwitchingOptions& options)
    : mesh_(&mesh), options_(options), dirs_(mesh.direction_count()), probes_(mesh.node_count()) {
  check_range("num_vcs", options_.num_vcs, 1, 64);
  check_range("vc_buffer_depth", options_.vc_buffer_depth, 1, 4096);
  check_range("flits_per_packet", options_.flits_per_packet, 1, 4096);
  check_range("vc_stall_limit", options_.vc_stall_limit, 1, 1 << 20);
  vc_owner_.assign(static_cast<size_t>(mesh.node_count()) * static_cast<size_t>(dirs_) *
                       static_cast<size_t>(options_.num_vcs),
                   -1);
  credit_stalls_vc_.assign(static_cast<size_t>(options_.num_vcs), 0);
  switch_stalls_vc_.assign(static_cast<size_t>(options_.num_vcs), 0);
}

int WormholeSwitching::free_vc(int32_t channel) const {
  const size_t base = static_cast<size_t>(channel) * static_cast<size_t>(options_.num_vcs);
  for (int v = 0; v < options_.num_vcs; ++v)
    if (vc_owner_[base + static_cast<size_t>(v)] < 0) return v;
  return -1;
}

void WormholeSwitching::reserve(Hop& hop, int vc, int id) {
  hop.vc = static_cast<int16_t>(vc);
  vc_owner_[static_cast<size_t>(hop.channel) * static_cast<size_t>(options_.num_vcs) +
            static_cast<size_t>(vc)] = id;
}

void WormholeSwitching::release_hop(Hop& hop) {
  vc_owner_[static_cast<size_t>(hop.channel) * static_cast<size_t>(options_.num_vcs) +
            static_cast<size_t>(hop.vc)] = -1;
  hop.vc = -1;
}

void WormholeSwitching::release_all(Worm& w) {
  if (w.streaming) {
    for (int i = w.tail; i < w.frontier; ++i) {
      Hop& hop = w.path[static_cast<size_t>(i)];
      release_hop(hop);
      // Only a deadlock-recovery drop releases buffers that still hold
      // flits; the dropped worm's flits are discarded with the circuit.
      hop.occupancy = 0;
    }
    w.tail = w.frontier;
  } else {
    for (size_t i = static_cast<size_t>(w.held_from); i < w.path.size(); ++i)
      release_hop(w.path[i]);
    w.held_from = static_cast<int>(w.path.size());
  }
}

void WormholeSwitching::add_packet(int id, NodeId source) {
  if (id != static_cast<int>(worms_.size()))
    throw std::logic_error("wormhole: packet ids must be dense and launch-ordered");
  Worm w;
  w.node = source;
  w.at_source = options_.flits_per_packet - 1;  // the head flit is the probe
  worms_.push_back(std::move(w));
  probes_.push(source, id);
}

void WormholeSwitching::advance_step(SwitchingHost& host, LinkArbiter* arbiter) {
  LinkArbiter& arb = *arbiter;
  arb.begin_step();

  // Phase 0: ejection — the destination sinks one flit per streaming worm
  // per step.  Runs first so "start-of-step occupancy" below is
  // post-ejection: the frontmost buffer always drains before new arrivals
  // are considered, which is what makes full pipelining possible at
  // vc_buffer_depth >= 2.
  for (const int id : streams_) {
    Worm& w = worms_[static_cast<size_t>(id)];
    if (w.path.empty()) {
      // Degenerate source == destination packet: flits eject directly.
      if (w.at_source > 0) {
        --w.at_source;
        ++w.ejected;
      }
    } else if (w.frontier == static_cast<int>(w.path.size()) && w.path.back().occupancy > 0) {
      --w.path.back().occupancy;
      ++w.ejected;
    }
  }

  // Phase 1: probe decisions (nodes ascending, per-node FIFO order — the §8
  // service order), producing switch requests.  Decisions are pure w.r.t.
  // the header, so a blocked probe simply re-decides next step.
  // The step's scratch lives in members, cleared here and reused so its
  // capacity carries across steps.
  std::vector<Req>& reqs = reqs_;
  std::vector<std::pair<NodeId, int>>& leaving_fifo = leaving_fifo_;
  std::vector<int>& new_streams = new_streams_;
  reqs.clear();
  leaving_fifo.clear();
  new_streams.clear();
  for (NodeId node = probes_.next_occupied(-1); node != kInvalidNode;
       node = probes_.next_occupied(node)) {
    for (const int id : probes_.at(node)) {
      Worm& w = worms_[static_cast<size_t>(id)];
      const SwitchDecision d = host.decide(id);
      switch (d.action) {
        case SwitchAction::kDeliver:
          // Head arrival: the probe ejects as the packet's first flit and
          // sheds its setup holds; the body streams as a data worm from the
          // next step on.
          host.record_head_arrival(id);
          release_all(w);
          ++w.ejected;
          if (w.at_source == 0) {
            // Single-flit packet: the head is also the tail.
            host.finish(id, PacketOutcome::kDelivered);
            w.done = true;
          } else {
            w.streaming = true;
            w.tail = 0;
            w.frontier = 0;
            new_streams.push_back(id);
          }
          leaving_fifo.emplace_back(node, id);
          break;
        case SwitchAction::kUnreachable:
          release_all(w);
          host.finish(id, PacketOutcome::kUnreachable);
          w.done = true;
          leaving_fifo.emplace_back(node, id);
          break;
        case SwitchAction::kForward: {
          // A link-faulted outgoing channel can accept no probe: treat it
          // exactly like VC starvation (stall, then the §10 escape) — the
          // router's next decision sees the mask and steers elsewhere.
          const auto channel = static_cast<int32_t>(channel_of(node, d.direction));
          if (!host.link_faulty(node, d.direction) && free_vc(channel) >= 0) {
            reqs.push_back({arb.request(node, d.direction), id, ReqKind::kProbeForward, d, -1,
                            -1, false});
          } else {
            // VC allocation failed.  After vc_stall_limit consecutive
            // failures a holding probe backtracks to shed its newest
            // reservation (the §10 escape); with nothing to shed it waits.
            ++vc_alloc_stalls_;
            ++w.vc_stall;
            if (w.vc_stall >= options_.vc_stall_limit && !d.back.is_none()) {
              SwitchDecision escape;
              escape.action = SwitchAction::kBacktrack;
              escape.back = d.back;
              // The abandoned channel is healthy (VC-starved, not faulty):
              // un-mark it so the escape never exhausts the routing search.
              escape.unmark_on_backtrack = true;
              reqs.push_back({arb.request(node, d.back), id, ReqKind::kProbeBacktrack, escape,
                              -1, -1, true});
            } else {
              host.count_stall(id);
            }
          }
          break;
        }
        case SwitchAction::kBacktrack:
          // A backtrack traverses the reverse channel out of the current
          // node; it contends for the switch like any other traversal.
          reqs.push_back(
              {arb.request(node, d.back), id, ReqKind::kProbeBacktrack, d, -1, -1, false});
          break;
      }
    }
  }
  for (const auto& [node, id] : leaving_fifo) probes_.remove(node, id);

  // Phase 2: data-flit requests along recorded paths (streaming worms in
  // head-arrival order), against start-of-step occupancies.  Flits occupy
  // the held hop range [tail, frontier); the lead flit extends the frontier
  // by acquiring the next hop's VC — the worm slides along its path like
  // wormhole data, never holding more than its own span.
  const auto request_channel = [&](int32_t channel) {
    return arb.request(static_cast<NodeId>(channel / dirs_),
                       Direction::from_index(channel % dirs_));
  };
  const int depth = options_.vc_buffer_depth;
  for (const int id : streams_) {
    Worm& w = worms_[static_cast<size_t>(id)];
    if (w.done || w.path.empty()) continue;
    const int len = static_cast<int>(w.path.size());
    bool acquisition_blocked = false;
    if (w.at_source > 0) {
      Hop& hop0 = w.path[0];
      if (w.frontier == 0) {
        const int vc = free_vc(hop0.channel);
        if (vc >= 0) {
          reqs.push_back({request_channel(hop0.channel), id, ReqKind::kAcquireFlit,
                          SwitchDecision{}, 0, vc, false});
        } else {
          acquisition_blocked = true;
        }
      } else if (hop0.occupancy < depth) {
        reqs.push_back({request_channel(hop0.channel), id, ReqKind::kFlit, SwitchDecision{},
                        0, -1, false});
      } else {
        ++credit_stalls_vc_[static_cast<size_t>(hop0.vc)];
      }
    }
    for (int i = w.tail + 1; i < len; ++i) {
      if (i - 1 >= w.frontier) break;  // no flits live beyond the frontier
      if (w.path[static_cast<size_t>(i - 1)].occupancy == 0) continue;
      Hop& hop = w.path[static_cast<size_t>(i)];
      if (i < w.frontier) {
        if (hop.occupancy < depth) {
          reqs.push_back({request_channel(hop.channel), id, ReqKind::kFlit, SwitchDecision{},
                          i, -1, false});
        } else {
          ++credit_stalls_vc_[static_cast<size_t>(hop.vc)];
        }
      } else {  // i == frontier: the lead flit extends the worm
        const int vc = free_vc(hop.channel);
        if (vc >= 0) {
          reqs.push_back({request_channel(hop.channel), id, ReqKind::kAcquireFlit,
                          SwitchDecision{}, i, vc, false});
        } else {
          acquisition_blocked = true;
        }
      }
    }
    if (acquisition_blocked) {
      ++vc_alloc_stalls_;
      ++w.stream_stall;  // the Phase 4 drop rule watches this
    }
  }

  arb.arbitrate();

  // Phase 3: commit in submission order.  Probe winners move their header
  // one hop (reserving / releasing VCs); flit winners move one flit between
  // adjacent buffers.  All feasibility checks were taken on start-of-step
  // state, and each channel grants at most once, so commit order cannot
  // invalidate them.
  int flit_moves_this_step = 0;
  const int window = options_.flits_per_packet;  // the worm's physical extent
  for (const Req& r : reqs) {
    Worm& w = worms_[static_cast<size_t>(r.id)];
    if (!arb.granted(r.ticket)) {
      if (r.kind == ReqKind::kProbeForward || r.kind == ReqKind::kProbeBacktrack) {
        host.count_stall(r.id);
      } else {
        const Hop& hop = w.path[static_cast<size_t>(r.hop)];
        const int vc = hop.vc >= 0 ? hop.vc : r.vc_hint;
        ++switch_stalls_vc_[static_cast<size_t>(vc)];
      }
      continue;
    }
    switch (r.kind) {
      case ReqKind::kProbeForward: {
        // One grant per channel, so a VC seen free at request time is still
        // free here (earlier commits can only have *released* VCs on this
        // channel).
        const auto channel = static_cast<int32_t>(channel_of(w.node, r.decision.direction));
        const int vc = free_vc(channel);
        if (vc < 0) {  // defensive; unreachable by the argument above
          host.count_stall(r.id);
          break;
        }
        const MoveResult m = host.commit_move(r.id, r.decision);
        w.vc_stall = 0;
        Hop hop;
        hop.channel = channel;
        hop.to_node = m.node;
        w.path.push_back(hop);
        reserve(w.path.back(), vc, r.id);
        // Slide the setup window: the probe holds at most `window` hops.
        if (static_cast<int>(w.path.size()) - w.held_from > window) {
          release_hop(w.path[static_cast<size_t>(w.held_from)]);
          ++w.held_from;
        }
        probes_.remove(w.node, r.id);
        w.node = m.node;
        if (m.finished) {
          release_all(w);
          w.done = true;
        } else {
          probes_.push(m.node, r.id);
        }
        break;
      }
      case ReqKind::kProbeBacktrack: {
        if (r.forced) ++forced_backtracks_;
        const MoveResult m = host.commit_move(r.id, r.decision);
        w.vc_stall = 0;
        if (static_cast<int>(w.path.size()) - 1 >= w.held_from) release_hop(w.path.back());
        w.path.pop_back();
        if (w.held_from > static_cast<int>(w.path.size()))
          w.held_from = static_cast<int>(w.path.size());
        probes_.remove(w.node, r.id);
        w.node = m.node;
        if (m.finished) {
          release_all(w);
          w.done = true;
        } else {
          probes_.push(m.node, r.id);
        }
        break;
      }
      case ReqKind::kAcquireFlit: {
        Hop& hop = w.path[static_cast<size_t>(r.hop)];
        const int vc = free_vc(hop.channel);
        if (vc < 0) {  // defensive; see kProbeForward
          ++switch_stalls_vc_[static_cast<size_t>(r.vc_hint)];
          break;
        }
        reserve(hop, vc, r.id);
        w.frontier = r.hop + 1;
        w.stream_stall = 0;
        if (r.hop == 0) {
          --w.at_source;
        } else {
          --w.path[static_cast<size_t>(r.hop) - 1].occupancy;
        }
        ++hop.occupancy;
        ++flit_moves_this_step;
        break;
      }
      case ReqKind::kFlit:
        if (r.hop == 0) {
          --w.at_source;
        } else {
          --w.path[static_cast<size_t>(r.hop) - 1].occupancy;
        }
        ++w.path[static_cast<size_t>(r.hop)].occupancy;
        ++flit_moves_this_step;
        break;
    }
  }
  if (flit_moves_this_step > 0) {
    flit_moves_ += flit_moves_this_step;
    host.count_flit_moves(flit_moves_this_step);
  }

  // Phase 4: per-worm maintenance — fault teardown, deadlock-recovery drop,
  // circuit teardown behind the tail, and delivery once the tail flit has
  // ejected.
  const auto stream_hit_by_fault = [&](const Worm& w) {
    // Setup probes re-decide against the live field every step; an
    // established circuit must notice for itself when a node it still
    // needs — the source (flits waiting), any remaining hop's receiving
    // node, or the degenerate src==dst node — dies mid-stream.
    if (w.path.empty()) return w.at_source > 0 && host.node_faulty(w.node);
    if (w.at_source > 0 &&
        host.node_faulty(static_cast<NodeId>(w.path[0].channel / dirs_)))
      return true;
    for (size_t i = static_cast<size_t>(w.tail); i < w.path.size(); ++i) {
      if (host.node_faulty(w.path[i].to_node)) return true;
      // A link fault severs an established circuit exactly like a node
      // death: the channel can carry no further flits of this worm.
      if (host.link_faulty(static_cast<NodeId>(w.path[i].channel / dirs_),
                           Direction::from_index(w.path[i].channel % dirs_)))
        return true;
    }
    return false;
  };
  // The scan is O(remaining path) per worm, so gate it on the field version:
  // a worm is scanned on its first streaming step (its path may predate a
  // change) and again whenever the field actually changes.
  const uint64_t field_version = host.field_version();
  const bool field_changed = field_version != seen_field_version_;
  seen_field_version_ = field_version;
  size_t keep = 0;
  for (size_t s = 0; s < streams_.size(); ++s) {
    const int id = streams_[s];
    Worm& w = worms_[static_cast<size_t>(id)];
    if (w.done) continue;
    const bool scan = field_changed || !w.fault_checked;
    w.fault_checked = true;
    if (scan && stream_hit_by_fault(w)) {
      // The worm's flits are lost with the dead node: tear the circuit down
      // and report the packet unreachable (DESIGN.md §10).
      ++fault_drops_;
      release_all(w);
      host.finish(id, PacketOutcome::kUnreachable);
      w.done = true;
      continue;
    }
    if (w.stream_stall >= 4 * options_.vc_stall_limit) {
      // The lead flit has been VC-starved long enough to assume a resource
      // cycle: drop the packet and free everything it holds (DESIGN.md §10;
      // reported as budget exhaustion).
      ++deadlock_drops_;
      release_all(w);
      host.finish(id, PacketOutcome::kBudgetExhausted);
      w.done = true;
      continue;
    }
    while (w.at_source == 0 && w.tail < w.frontier &&
           w.path[static_cast<size_t>(w.tail)].occupancy == 0) {
      release_hop(w.path[static_cast<size_t>(w.tail)]);
      ++w.tail;
    }
    if (w.ejected == options_.flits_per_packet) {
      host.finish(id, PacketOutcome::kDelivered);
      w.done = true;
      continue;
    }
    streams_[keep++] = id;
  }
  streams_.resize(keep);
  streams_.insert(streams_.end(), new_streams.begin(), new_streams.end());
}

std::vector<std::pair<std::string, double>> WormholeSwitching::metrics() const {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("flit_moves", static_cast<double>(flit_moves_));
  out.emplace_back("vc_alloc_stalls", static_cast<double>(vc_alloc_stalls_));
  out.emplace_back("forced_backtracks", static_cast<double>(forced_backtracks_));
  out.emplace_back("deadlock_drops", static_cast<double>(deadlock_drops_));
  out.emplace_back("fault_drops", static_cast<double>(fault_drops_));
  for (int v = 0; v < options_.num_vcs; ++v) {
    out.emplace_back("credit_stalls_vc" + std::to_string(v),
                     static_cast<double>(credit_stalls_vc_[static_cast<size_t>(v)]));
    out.emplace_back("switch_stalls_vc" + std::to_string(v),
                     static_cast<double>(switch_stalls_vc_[static_cast<size_t>(v)]));
  }
  return out;
}

int WormholeSwitching::reserved_vc_count() const {
  int n = 0;
  for (const int32_t owner : vc_owner_)
    if (owner >= 0) ++n;
  return n;
}

WormholeSwitching::WormView WormholeSwitching::worm(int id) const {
  const Worm& w = worms_.at(static_cast<size_t>(id));
  WormView v;
  v.streaming = w.streaming;
  v.done = w.done;
  v.flits_at_source = w.at_source;
  v.flits_ejected = w.ejected;
  for (const Hop& hop : w.path) {
    if (hop.vc >= 0) ++v.held_vcs;
    v.buffered_flits += hop.occupancy;
  }
  return v;
}

void WormholeSwitching::validate() const {
  const auto fail = [](const std::string& what) { throw std::logic_error("wormhole: " + what); };
  std::vector<long long> owned(worms_.size(), 0);
  for (size_t slot = 0; slot < vc_owner_.size(); ++slot) {
    const int32_t owner = vc_owner_[slot];
    if (owner < 0) continue;
    if (owner >= static_cast<int32_t>(worms_.size())) fail("reservation by unknown worm");
    ++owned[static_cast<size_t>(owner)];
  }
  for (size_t id = 0; id < worms_.size(); ++id) {
    const Worm& w = worms_[id];
    const int len = static_cast<int>(w.path.size());
    long long buffered = 0;
    long long held = 0;
    for (int i = 0; i < len; ++i) {
      const Hop& hop = w.path[static_cast<size_t>(i)];
      if (hop.occupancy < 0) fail("credit underflow (negative occupancy)");
      if (hop.occupancy > options_.vc_buffer_depth)
        fail("credit overflow (occupancy beyond vc_buffer_depth)");
      const bool should_hold = w.done ? false
                               : w.streaming ? (i >= w.tail && i < w.frontier)
                                             : i >= w.held_from;
      if (should_hold != (hop.vc >= 0))
        fail(should_hold ? "hop inside the held range has no VC"
                         : "hop outside the held range still holds a VC");
      if (hop.vc >= 0) {
        ++held;
        const size_t slot =
            static_cast<size_t>(hop.channel) * static_cast<size_t>(options_.num_vcs) +
            static_cast<size_t>(hop.vc);
        if (vc_owner_[slot] != static_cast<int32_t>(id))
          fail("reserved hop not owned by its worm");
      }
      if (hop.occupancy > 0 && hop.vc < 0) fail("flits buffered on an unheld hop");
      buffered += hop.occupancy;
    }
    if (owned[id] != held) fail("reservation count does not match held hops");
    if (w.done) continue;
    if (!w.streaming && buffered != 0) fail("setup worm has flits in buffers");
    // Flit conservation: setup worms hold F-1 flits at the source (the head
    // is the probe); streaming worms account for every flit exactly once.
    const long long total = w.at_source + buffered + w.ejected;
    const long long expect =
        w.streaming ? options_.flits_per_packet : options_.flits_per_packet - 1;
    if (total != expect) fail("flit conservation violated");
  }
  // Every active setup worm sits in exactly one node FIFO, at its node, and
  // the occupancy bitmap marks exactly the non-empty FIFOs.
  probes_.validate();
  std::vector<int> residency(worms_.size(), 0);
  for (NodeId node = probes_.next_occupied(-1); node != kInvalidNode;
       node = probes_.next_occupied(node)) {
    for (const int id : probes_.at(node)) {
      ++residency[static_cast<size_t>(id)];
      if (worms_[static_cast<size_t>(id)].node != node)
        fail("fifo residency disagrees with worm node");
    }
  }
  for (size_t id = 0; id < worms_.size(); ++id) {
    const Worm& w = worms_[id];
    const int expect = (w.done || w.streaming) ? 0 : 1;
    if (residency[id] != expect) fail("fifo residency count wrong");
  }
}

}  // namespace lgfi
