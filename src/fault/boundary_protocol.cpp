// Boundary construction (Definition 3) and the deletion process.
//
// Wall messages start at surface-edge ring nodes (spawned when the envelope
// flood deposits block info there) and walk away from the block, one hop per
// round, depositing the info until the outmost mesh surface — or another
// block, onto which the info merges (a merge flood over that block's
// envelope, whose ring nodes continue the wall on the far side).
//
// The deletion process mirrors the same geometry with cancel messages.  It
// is triggered the way the paper specifies — "when an n-level corner of the
// old block finds that its existing condition cannot be satisfied" — plus
// optional eager local invalidation rules (DESIGN.md §6 note 8).

#include <algorithm>
#include <cstdio>

#include "src/fault/corner_taxonomy.h"
#include "src/fault/distributed_messages.h"

namespace lgfi {

void DistributedFaultModel::spawn_walls_if_ring(NodeId node, const BlockInfo& info) {
  const Coord c = mesh_->coord_of(node);
  const EnvelopeClass cls = classify_against_block(c, info.box);
  if (!cls.on_envelope || cls.out_dims != 2) return;

  // A ring node is out in two dims; it lies on the boundary ring of surface
  // S_{j,s} for each out dim j, where s is the side OPPOSITE the node's
  // position (the wall for S_{j,+} hangs below the block).
  for (int idx = 0; idx < 2; ++idx) {
    const int j = cls.out_dim_list[static_cast<size_t>(idx)];
    const bool out_positive = cls.out_side_positive[static_cast<size_t>(idx)];
    WallMessage w;
    w.info = info;
    w.dim = static_cast<int8_t>(j);
    w.positive = out_positive ? 0 : 1;  // at lo-1 -> guards +j crossings
    w.ttl = static_cast<int16_t>(default_ttl());
    const Coord next = c.shifted(j, out_positive ? +1 : -1);  // away from the block
    if (!mesh_->in_bounds(next)) continue;
    if (is_member(next)) {
      // Immediate merge: the wall's very first hop is another block.  Route
      // the message through ourselves with the waiting flag so the handler's
      // merge logic runs even though we already hold the info.
      w.waiting = 1;
      wall_mail_->send(node, w);
      continue;
    }
    wall_mail_->send(mesh_->index_of(next), w);
  }
}

void DistributedFaultModel::handle_wall_message(NodeId node, const WallMessage& msg) {
  WallMessage m = msg;
  if (--m.ttl <= 0) return;
  const Coord c = mesh_->coord_of(node);
  if (is_member(c)) return;  // raced with a growing block; discard

  // Deposit and keep walking even when the info is already present: a node
  // may have learned it from a merge flood while the nodes further out have
  // not (stopping here would leave a hole the centralized fixpoint covers).
  Provenance prov;
  prov.via = InfoVia::kWall;
  prov.dim = m.dim;
  prov.positive = m.positive;
  if (deposit_info(node, m.info, prov)) ++wall_deposits_;

  const int dir = m.positive ? -1 : +1;  // S_{j,+} walls extend toward -j
  const Coord next = c.shifted(m.dim, dir);
  if (!mesh_->in_bounds(next)) return;  // outmost surface: the wall ends

  if (!is_member(next)) {
    m.waiting = 0;
    wall_mail_->send(mesh_->index_of(next), m);
    return;
  }

  // The wall ran into another block: merge.  We are its adjacent node, so
  // once that block is identified we hold its info and can flood ours over
  // its envelope; until then, wait here (TTL-bounded).
  for (const auto& held : info_.at(node)) {
    if (held.box.contains(next)) {
      InfoMessage flood;
      flood.info = m.info;
      flood.carrier = held.box;
      flood.surface_dim = m.dim;
      flood.surface_positive = m.positive;
      flood.ttl = static_cast<int16_t>(default_ttl());
      info_mail_->send(node, flood);
      return;
    }
  }
  m.waiting = 1;
  wall_mail_->send(node, m);  // carrier not yet identified: wait a round
}

bool DistributedFaultModel::round_boundary() {
  wall_mail_->flip();
  bool any = false;
  const std::vector<NodeId>& active = wall_mail_->active();
  for (size_t k = 0; k < active.size(); ++k) {
    ++protocol_node_visits_;
    for (const auto& msg : wall_mail_->inbox_at(k)) {
      any = true;
      handle_wall_message(active[k], msg);
    }
  }
  return any || wall_mail_->pending() > 0;
}

// ---------------------------------------------------------------- deletion

void DistributedFaultModel::start_cancel(NodeId origin, const Box& box, uint32_t epoch) {
  // Deliver the wave to ourselves first: the origin then runs the full
  // kind-0 logic — forwarding over the envelope AND spawning the wall
  // cancels if it happens to be a surface-edge ring node itself.
  CancelMessage m;
  m.box = box;
  m.epoch = epoch;
  m.kind = 0;
  m.ttl = static_cast<int16_t>(default_ttl());
  m.force = 1;
  cancel_mail_->send(origin, std::move(m));
}

void DistributedFaultModel::handle_cancel_message(NodeId node, const CancelMessage& msg) {
  CancelMessage m = msg;
  if (--m.ttl <= 0) return;
  const Coord c = mesh_->coord_of(node);

  if (m.kind == 1) {
    // Wall cancel: walk the old wall, removing as we go.  The walk must be
    // more tenacious than the wall itself was: the old wall may have been
    // deposited when the space was free and a block may sit there now, or
    // vice versa.  Disabled members are alive processors and relay the
    // cancel; a faulty blocker forces the merge-undo path (waiting for the
    // blocking block's identity if necessary, TTL-bounded).
    (void)remove_info(node, m.box, m.epoch);
    const int dir = m.positive ? -1 : +1;
    const Coord next = c.shifted(m.dim, dir);
    if (!mesh_->in_bounds(next)) return;
    if (field_.at(next) == NodeStatus::kFaulty) {
      // Undo the merge onto the blocking block (its envelope carries our
      // box's info plus the continuation walls beyond it).  Never treat the
      // cancelled block itself as a carrier: a cancel that wandered back to
      // its own block must not erase the block's live information.
      for (const auto& held : info_.at(node)) {
        if (held.box.contains(next) && !(held.box == m.box)) {
          CancelMessage flood = m;
          flood.kind = 0;
          flood.carrier = held.box;
          cancel_mail_->send(node, flood);
          return;
        }
      }
      if (!m.box.contains(next))
        cancel_mail_->send(node, m);  // blocker not yet identified: wait a round
      return;
    }
    cancel_mail_->send(mesh_->index_of(next), m);
    // If the next node is a disabled member, ALSO undo the merge onto its
    // block when we know it — the lateral merge deposits are not on the
    // straight walk.
    if (is_member(next)) {
      for (const auto& held : info_.at(node)) {
        if (held.box.contains(next) && !(held.box == m.box)) {
          CancelMessage flood = m;
          flood.kind = 0;
          flood.carrier = held.box;
          cancel_mail_->send(node, flood);
          break;
        }
      }
    }
    return;
  }

  // Envelope cancel flood (own envelope, or a carrier's when undoing merges).
  const Box& shell = m.carrier.empty() ? m.box : m.carrier;
  if (corner_level(c, shell) == 0 && !m.force) return;
  (void)remove_info(node, m.box, m.epoch);
  if (!m.carrier.empty()) {
    merge_seen_.erase(node, merge_key(m.box, m.carrier, m.dim, m.positive != 0));
  }
  // Dedup by wave identity, not by removal success: a node that already lost
  // the entry (eager invalidation) must still relay the wave so the ring
  // nodes beyond it cancel their walls.
  const uint64_t wave_key =
      merge_key(m.box, m.carrier, m.dim, m.positive != 0) ^
      (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(m.epoch) + 1));
  auto& seen_count = cancel_seen_count_[static_cast<size_t>(node)];
  if (seen_count > 512) {  // bounded memory; keys are epoch-scoped
    cancel_seen_.erase_node(node);
    seen_count = 0;
  }
  const bool inserted = cancel_seen_.try_emplace(node, wave_key).second;
  if (inserted) ++seen_count;
  if (!inserted && !m.force) return;
  m.force = 0;

  // Sweep away everything this box was CARRYING (merged deposits): when the
  // carrier dies, the foreign info's justification dies with it, and the
  // node — if it is one of the carrier's surface-edge ring positions —
  // retraces the continuation wall it once spawned for the foreign info.
  if (m.carrier.empty()) sweep_carried_info(node, m.box, m.ttl);

  CancelMessage fwd = m;
  mesh_->for_each_grid_neighbor(c, [&](Direction, const Coord& nb) {
    if (corner_level(nb, shell) == 0) return;
    cancel_mail_->send(mesh_->index_of(nb), fwd);
  });

  // Ring positions spawn wall cancels, mirroring the wall spawning rules:
  // an own-envelope cancel (carrier empty) retraces the block's walls on
  // every surface, but a merge-undo flood retraces ONLY the continuation of
  // the wave's own surface — exactly like the forward merge continuation.
  // Spawning all directions here would launch cancels marching back toward
  // the (live) cancelled box and eventually erase it (self-cancellation).
  const EnvelopeClass cls = classify_against_block(c, shell);
  if (cls.on_envelope && cls.out_dims == 2) {
    for (int idx = 0; idx < 2; ++idx) {
      const int j = cls.out_dim_list[static_cast<size_t>(idx)];
      const bool out_positive = cls.out_side_positive[static_cast<size_t>(idx)];
      const bool guards_positive = !out_positive;
      if (!m.carrier.empty() &&
          (j != m.dim || (guards_positive ? 1 : 0) != m.positive))
        continue;  // merge-undo: same-surface continuation only
      CancelMessage w = m;
      w.kind = 1;
      w.carrier = Box();
      w.dim = static_cast<int8_t>(j);
      w.positive = guards_positive ? 1 : 0;
      const Coord next = c.shifted(j, out_positive ? +1 : -1);
      if (mesh_->in_bounds(next) && !is_member(next))
        cancel_mail_->send(mesh_->index_of(next), w);
    }
  }
}

void DistributedFaultModel::sweep_carried_info(NodeId node, const Box& dead_carrier, int ttl) {
  const Coord c = mesh_->coord_of(node);
  // Snapshot: cancelling mutates the store.
  auto& carried = carried_scratch_;
  carried.clear();
  {
    const auto infos = info_.at(node);
    const auto provs = info_.provenance_at(node);
    for (size_t i = 0; i < infos.size(); ++i) {
      if (infos[i].box == dead_carrier) continue;
      if (provs[i].via == InfoVia::kMerged && provs[i].carrier == dead_carrier)
        carried.emplace_back(infos[i], provs[i]);
    }
    // Deliberate under-coverage: straight walls that were blocked by the
    // dead carrier are NOT re-extended through the freed space (re-walking
    // can resurrect entries of blocks dying in the same window).  Missing
    // wall info is conservative — the probe learns of the block at its
    // envelope instead, at the cost of a longer detour (Theorem 5 regime);
    // the next identification epoch restores full coverage.  DESIGN.md §6
    // note 11.
  }
  for (const auto& [f, prov] : carried) {
    remove_info(node, f.box, f.epoch);
    merge_seen_.erase(node, merge_key(f.box, dead_carrier, prov.dim, prov.positive != 0));
    // Self-optimizing re-assertion: with the carrier gone, the foreign
    // block's straight wall can extend through the freed space again.  A
    // swept node sitting on that wall column re-walks it downward (the wall
    // handler deposits and continues hop by hop); the information is true as
    // long as the foreign block exists, so re-placement is always safe.
    if (prov.dim >= 0 && !is_member(c) &&
        on_wall_column(c, f.box, prov.dim, prov.positive != 0)) {
      WallMessage rewalk;
      rewalk.info = f;
      rewalk.dim = prov.dim;
      rewalk.positive = prov.positive;
      rewalk.ttl = static_cast<int16_t>(default_ttl());
      rewalk.waiting = 1;  // process at ourselves first (re-deposit + continue)
      wall_mail_->send(node, rewalk);
    }
    // A ring node of the dead carrier once spawned the continuation wall for
    // this foreign info; retrace it with a wall cancel.
    const EnvelopeClass cls = classify_against_block(c, dead_carrier);
    if (cls.on_envelope && cls.out_dims == 2 && prov.dim >= 0) {
      const int ring_coord = prov.positive != 0 ? dead_carrier.lo(prov.dim) - 1
                                                : dead_carrier.hi(prov.dim) + 1;
      if (c[prov.dim] == ring_coord) {
        CancelMessage w;
        w.box = f.box;
        w.epoch = f.epoch;
        w.kind = 1;
        w.dim = prov.dim;
        w.positive = prov.positive;
        w.ttl = static_cast<int16_t>(ttl);
        const Coord next = c.shifted(prov.dim, prov.positive != 0 ? -1 : +1);
        if (mesh_->in_bounds(next) && !is_member(next))
          cancel_mail_->send(mesh_->index_of(next), w);
      }
    }
  }
}

bool DistributedFaultModel::check_eager_invalidation(NodeId node) {
  const Coord c = mesh_->coord_of(node);
  if (field_.at(node) == NodeStatus::kFaulty) return false;
  bool fired = false;
  // Copy: start_cancel mutates the store, and rule (e) reads the entries as
  // they were before any removal.
  const auto held_span = info_.at(node);
  auto& held = held_scratch_;
  held.assign(held_span.begin(), held_span.end());
  for (const auto& b : held) {
    // (b) the node was swallowed by a grown block: the old info of the box
    // it now sits in is necessarily stale only if the box excludes it —
    // a node inside b.box would be a member of that very block, so holding
    // info for a box containing ourselves while we are NOT a member means
    // the block shrank away.
    if (b.box.contains(c) && !is_member(c)) {
      if (options_.trace)
        std::fprintf(stderr, "[cancel r%d] eager-b at %s box=%s\n", rounds_run_,
                     c.to_string().c_str(), b.box.to_string().c_str());
      start_cancel(node, b.box, b.epoch);
      fired = true;
      continue;
    }
    // (c) adjacent (out-by-one) holder whose expected member neighbour is no
    // longer a member: the block shrank or split.
    const EnvelopeClass cls = classify_against_block(c, b.box);
    if (cls.on_envelope && cls.out_dims == 1) {
      const Coord inward = c.shifted(cls.out_dim_list[0], cls.out_side_positive[0] ? -1 : +1);
      if (mesh_->in_bounds(inward) && !is_member(inward)) {
        if (options_.trace)
          std::fprintf(stderr, "[cancel r%d] eager-c at %s box=%s inward=%s\n", rounds_run_,
                       c.to_string().c_str(), b.box.to_string().c_str(),
                       inward.to_string().c_str());
        start_cancel(node, b.box, b.epoch);
        fired = true;
      }
    }
  }
  // (e) subsumed duplicates: keep only the newest covering box.
  for (const auto& small : held) {
    for (const auto& big : held) {
      if (small.box == big.box) continue;
      if (big.box.contains(small.box) && big.epoch >= small.epoch)
        if (remove_info(node, small.box, small.epoch)) fired = true;
    }
  }
  return fired;
}

bool DistributedFaultModel::check_formed_corners(NodeId id) {
  // Corner-triggered deletion (the paper's rule): a corner that formed block
  // info whose corner condition no longer holds cancels it.
  auto& formed = formed_at_corner_[static_cast<size_t>(id)];
  if (formed.empty()) return false;
  bool any = false;
  const int n = mesh_->dims();
  const Coord c = mesh_->coord_of(id);
  for (size_t i = 0; i < formed.size();) {
    const BlockInfo f = formed[i];
    if (!info_.holds(id, f.box)) {
      // The corner's own copy vanished (e.g. a local eager invalidation):
      // its deletion duty still stands — stale replicas may survive
      // elsewhere.  Fire the wave once, then drop the bookkeeping.
      start_cancel(id, f.box, f.epoch);
      any = true;
      formed.erase(formed.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    bool condition_holds = false;
    if (field_.at(id) == NodeStatus::kEnabled && corner_level(c, f.box) == n) {
      // Still the opposite corner: must retain a level-n entry anchored at
      // the diagonal member inside the old box.
      for (const auto& e : levels_[static_cast<size_t>(id)])
        if (e.level == n && f.box.contains(e.anchor)) condition_holds = true;
    }
    if (condition_holds) {
      ++i;
    } else {
      if (options_.trace)
        std::fprintf(stderr, "[cancel r%d] corner-d at %s box=%s\n", rounds_run_,
                     mesh_->coord_of(id).to_string().c_str(), f.box.to_string().c_str());
      formed.erase(formed.begin() + static_cast<std::ptrdiff_t>(i));
      start_cancel(id, f.box, f.epoch);
      any = true;
    }
  }
  return any;
}

bool DistributedFaultModel::round_cancel() {
  cancel_mail_->flip();
  bool any = false;

  // Consume the dirty worklist up front: marks made while processing (info
  // removals, status fallout) belong to NEXT round's checks.  Within the
  // round, all corner checks run first, then all eager checks, then the
  // inbox deliveries.
  auto& cur = cancel_cur_;
  cur.clear();
  cur.swap(cancel_queue_);
  for (NodeId id : cur) cancel_marked_[static_cast<size_t>(id)] = 0;
  std::sort(cur.begin(), cur.end());
  for (NodeId id : cur) {
    ++protocol_node_visits_;
    if (check_formed_corners(id)) any = true;
  }
  if (options_.eager_invalidation) {
    for (NodeId id : cur) {
      ++protocol_node_visits_;
      // A condition that persists (the wave needs a round to come back and
      // remove the entry) must re-fire next round, as it would with every
      // node evaluated.
      if (check_eager_invalidation(id)) mark_cancel(id);
    }
  }
  const std::vector<NodeId>& active = cancel_mail_->active();
  for (size_t k = 0; k < active.size(); ++k) {
    ++protocol_node_visits_;
    for (const auto& msg : cancel_mail_->inbox_at(k)) {
      any = true;
      handle_cancel_message(active[k], msg);
    }
  }
  return any || cancel_mail_->pending() > 0;
}

}  // namespace lgfi
