// Envelope propagation of identified block information (Algorithm 2 step 4)
// and the merge floods of the Definition 3 boundary rule.
//
// From the corner where the block information formed, the info floods the
// block's envelope: every enabled envelope node deposits it and forwards it
// to envelope neighbours that do not yet hold it — one hop per round, so the
// whole envelope learns within its graph diameter, matching the paper's
// structured back-propagation timing.  Each deposit at a surface-edge ring
// position also spawns the boundary wall for that surface
// (boundary_protocol.cpp).
//
// A merge flood (non-empty carrier) distributes a *foreign* block's info
// over a second block's envelope after a boundary wall ran into it; ring
// positions of the carrier then continue the foreign info's wall on the far
// side ("it will merge into the boundary for S_i of the second block").

#include "src/fault/corner_taxonomy.h"
#include "src/fault/distributed_messages.h"

namespace lgfi {

void DistributedFaultModel::start_info_flood(NodeId origin, const BlockInfo& info) {
  const Coord c = mesh_->coord_of(origin);
  InfoMessage m;
  m.info = info;
  m.ttl = static_cast<int16_t>(default_ttl());
  mesh_->for_each_grid_neighbor(c, [&](Direction, const Coord& nb) {
    if (corner_level(nb, info.box) == 0) return;  // not on the envelope
    info_mail_->send(mesh_->index_of(nb), m);
  });
}

void DistributedFaultModel::handle_info_message(NodeId node, const InfoMessage& m) {
  if (field_.at(node) == NodeStatus::kFaulty) return;
  // Members of (diagonally touching) blocks are not information carriers:
  // Definition 2 restricts the envelope roles to enabled nodes.
  if (is_member(mesh_->coord_of(node))) return;
  const Coord c = mesh_->coord_of(node);
  const bool merge_flood = !m.carrier.empty();
  const Box& shell = merge_flood ? m.carrier : m.info.box;
  const int level = corner_level(c, shell);
  if (level == 0) return;  // off the envelope (or inside the block)
  if (!merge_flood && level == 1 && options_.eager_invalidation) {
    // An adjacent node whose inward neighbour is no longer a member neither
    // deposits nor forwards: eager check (c) would cancel the entry at once,
    // and a flood that re-deposits behind each cancel respawns the walls.
    for (int d = 0; d < mesh_->dims(); ++d) {
      const int inward = c[d] < shell.lo(d) ? 1 : c[d] > shell.hi(d) ? -1 : 0;
      if (inward != 0 && !is_member(c.shifted(d, inward))) return;
    }
  }

  bool fresh;
  if (merge_flood) {
    const uint64_t key =
        merge_key(m.info.box, m.carrier, m.surface_dim, m.surface_positive != 0);
    fresh = merge_seen_.try_emplace(node, key).second;
    Provenance prov;
    prov.via = InfoVia::kMerged;
    prov.carrier = m.carrier;
    prov.dim = m.surface_dim;
    prov.positive = m.surface_positive;
    if (deposit_info(node, m.info, prov)) ++envelope_deposits_;
  } else {
    fresh = deposit_info(node, m.info, Provenance{});
    if (fresh) ++envelope_deposits_;
  }
  if (!fresh) return;

  if (m.ttl <= 1) return;
  InfoMessage fwd = m;
  fwd.ttl = static_cast<int16_t>(m.ttl - 1);
  mesh_->for_each_grid_neighbor(c, [&](Direction, const Coord& nb) {
    if (corner_level(nb, shell) == 0) return;
    if (field_.at(nb) == NodeStatus::kFaulty) return;
    info_mail_->send(mesh_->index_of(nb), fwd);
  });

  if (merge_flood) {
    // Continuation below the carrier: the carrier's own surface-edge ring
    // nodes for the same surface push the foreign info onward.
    const Surface s{m.surface_dim, m.surface_positive != 0};
    const int ring_coord =
        s.positive ? m.carrier.lo(s.dim) - 1 : m.carrier.hi(s.dim) + 1;
    const EnvelopeClass cls = classify_against_block(c, m.carrier);
    if (cls.on_envelope && cls.out_dims == 2 && c[s.dim] == ring_coord) {
      WallMessage w;
      w.info = m.info;
      w.dim = static_cast<int8_t>(s.dim);
      w.positive = s.positive ? 1 : 0;
      w.ttl = static_cast<int16_t>(default_ttl());
      const Coord below = c.shifted(s.dim, s.positive ? -1 : +1);
      if (mesh_->in_bounds(below)) wall_mail_->send(mesh_->index_of(below), w);
    }
    // "This propagation may also incur a deletion of out of date
    // boundaries": if the foreign block's OLD straight wall column passes
    // through here (deposited before the carrier block appeared), the
    // segment beyond the carrier is superseded by the merge structure and
    // must be retracted.  The far face of the carrier detects it locally.
    const int far_coord =
        s.positive ? m.carrier.lo(s.dim) - 1 : m.carrier.hi(s.dim) + 1;
    if (c[s.dim] == far_coord && on_wall_column(c, m.info.box, s.dim, s.positive)) {
      CancelMessage cancel;
      cancel.box = m.info.box;
      cancel.epoch = m.info.epoch;
      cancel.kind = 1;
      cancel.dim = static_cast<int8_t>(s.dim);
      cancel.positive = s.positive ? 1 : 0;
      cancel.ttl = static_cast<int16_t>(default_ttl());
      const Coord below = c.shifted(s.dim, s.positive ? -1 : +1);
      if (mesh_->in_bounds(below)) cancel_mail_->send(mesh_->index_of(below), cancel);
    }
  } else {
    spawn_walls_if_ring(node, m.info);
    // "...and update the boundaries of other blocks": a NEW block can form
    // across an already-standing wall of another block.  No wall message is
    // in flight to trigger the merge, so the envelope node detects it
    // locally: it holds a foreign wall entry whose column continues into the
    // new block's body — start the merge flood, which also retracts the
    // out-of-date straight segment beyond the new block (above).
    const auto held = info_.at(node);
    const auto provs = info_.provenance_at(node);
    for (size_t i = 0; i < held.size(); ++i) {
      if (held[i].box == m.info.box) continue;
      if (provs[i].via != InfoVia::kWall || provs[i].dim < 0) continue;
      if (!on_wall_column(c, held[i].box, provs[i].dim, provs[i].positive != 0)) continue;
      const Coord next = c.shifted(provs[i].dim, provs[i].positive != 0 ? -1 : +1);
      if (!mesh_->in_bounds(next) || !m.info.box.contains(next)) continue;
      InfoMessage merge;
      merge.info = held[i];
      merge.carrier = m.info.box;
      merge.surface_dim = provs[i].dim;
      merge.surface_positive = provs[i].positive;
      merge.ttl = static_cast<int16_t>(default_ttl());
      info_mail_->send(node, merge);
    }
  }
}

bool DistributedFaultModel::round_envelope() {
  info_mail_->flip();
  bool any = false;
  const std::vector<NodeId>& active = info_mail_->active();
  for (size_t k = 0; k < active.size(); ++k) {
    ++protocol_node_visits_;
    for (const auto& msg : info_mail_->inbox_at(k)) {
      any = true;
      handle_info_message(active[k], msg);
    }
  }
  return any || info_mail_->pending() > 0;
}

}  // namespace lgfi
