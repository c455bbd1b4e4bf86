// DistributedFaultModel: construction, the round driver, Algorithm 1 status
// exchange, and Definition-2 level detection with anchors.
//
// Every round phase evaluates a dirty-node worklist, seeded from fault events,
// inbox deliveries and prior-round state changes, in ascending NodeId order
// (DESIGN.md §14).  With options.active_set = false, run_round() marks every
// node in every worklist first: the mark-all reference the tests compare the
// seeded worklists against, byte-identical and O(N) per round.

#include <algorithm>
#include <cassert>

#include "src/fault/distributed_messages.h"
#include "src/fault/labeling.h"

namespace lgfi {

DistributedFaultModel::DistributedFaultModel(const Topology& mesh,
                                             DistributedModelOptions options)
    : mesh_(&mesh),
      options_(options),
      field_(mesh),
      freshly_clean_(static_cast<size_t>(mesh.node_count()), 0),
      levels_(static_cast<size_t>(mesh.node_count())),
      levels_prev_(static_cast<size_t>(mesh.node_count())),
      levels_prev_round_(static_cast<size_t>(mesh.node_count()), -1),
      info_(mesh),
      box_packing_(mesh),
      slice_results_(mesh.node_count()),
      corner_collect_(mesh.node_count()),
      launch_book_(mesh.node_count()),
      formed_at_corner_(static_cast<size_t>(mesh.node_count())),
      merge_seen_(mesh.node_count()),
      cancel_seen_(mesh.node_count()),
      cancel_seen_count_(static_cast<size_t>(mesh.node_count()), 0),
      levels_marked_(static_cast<size_t>(mesh.node_count()), 0),
      cancel_marked_(static_cast<size_t>(mesh.node_count()), 0),
      has_corner_(static_cast<size_t>(mesh.node_count()), 0),
      corner_pending_marked_(static_cast<size_t>(mesh.node_count()), 0) {
  // Identification messages are the bulk of an n-D convergence's mail; their
  // parent chains take one 32-bit field (distributed_messages.h).
  static_assert(sizeof(IdentMessage) == 48);
  labeling_wl_.init(mesh.node_count());
  ident_mail_ = std::make_unique<MailboxSystem<IdentMessage>>(mesh.node_count());
  info_mail_ = std::make_unique<MailboxSystem<InfoMessage>>(mesh.node_count());
  wall_mail_ = std::make_unique<MailboxSystem<WallMessage>>(mesh.node_count());
  cancel_mail_ = std::make_unique<MailboxSystem<CancelMessage>>(mesh.node_count());
}

DistributedFaultModel::~DistributedFaultModel() = default;

MailboxSystem<DistributedFaultModel::IdentMessage>* DistributedFaultModel::ident_mail() {
  return ident_mail_.get();
}
MailboxSystem<DistributedFaultModel::InfoMessage>* DistributedFaultModel::info_mail() {
  return info_mail_.get();
}
MailboxSystem<DistributedFaultModel::WallMessage>* DistributedFaultModel::wall_mail() {
  return wall_mail_.get();
}
MailboxSystem<DistributedFaultModel::CancelMessage>* DistributedFaultModel::cancel_mail() {
  return cancel_mail_.get();
}

int DistributedFaultModel::default_ttl() const {
  if (options_.message_ttl > 0) return options_.message_ttl;
  int sum = 0;
  for (int i = 0; i < mesh_->dims(); ++i) sum += mesh_->extent(i);
  return 4 * sum + 16;
}

void DistributedFaultModel::mark_levels_neighborhood(NodeId id) {
  mark_levels(id);
  mesh_->for_each_grid_neighbor(mesh_->coord_of(id), [&](Direction, const Coord& nb) {
    mark_levels(mesh_->index_of(nb));
  });
}

void DistributedFaultModel::mark_cancel_neighborhood(NodeId id) {
  mark_cancel(id);
  mesh_->for_each_grid_neighbor(mesh_->coord_of(id), [&](Direction, const Coord& nb) {
    mark_cancel(mesh_->index_of(nb));
  });
}

bool DistributedFaultModel::deposit_info(NodeId node, const BlockInfo& info,
                                         const Provenance& prov) {
  const bool fresh = info_.deposit(node, info, prov);
  // An information change can flip this node's eager-invalidation and
  // corner-deletion predicates: re-check exactly the changed nodes.
  if (fresh) mark_cancel(node);
  return fresh;
}

bool DistributedFaultModel::remove_info(NodeId node, const Box& box, uint32_t epoch) {
  const bool removed = info_.cancel(node, box, epoch);
  if (removed) {
    mark_cancel(node);
    // A corner whose covering info vanished must re-trigger identification.
    if (has_corner_[static_cast<size_t>(node)] == 1) mark_corner_pending(node);
  }
  return removed;
}

void DistributedFaultModel::wipe_node_memory(NodeId node) {
  info_.clear_node(node);
  levels_[static_cast<size_t>(node)].clear();
  levels_prev_[static_cast<size_t>(node)].clear();
  levels_prev_round_[static_cast<size_t>(node)] = -1;
  if (has_corner_[static_cast<size_t>(node)] == 1)
    has_corner_[static_cast<size_t>(node)] = 2;  // stays in corner_nodes_; compacted lazily
  slice_results_.erase_node(node);
  corner_collect_.erase_node(node);
  launch_book_.erase_node(node);
  merge_seen_.erase_node(node);
  cancel_seen_.erase_node(node);
  cancel_seen_count_[static_cast<size_t>(node)] = 0;
  formed_at_corner_[static_cast<size_t>(node)].clear();
}

void DistributedFaultModel::on_status_event(NodeId node) {
  labeling_wl_.mark_event(field_, node);
  mark_levels_neighborhood(node);
  mark_cancel_neighborhood(node);
  // New epoch: abandoned identifications get a fresh chance — re-arm every
  // known corner node, compacting stale list entries in the same pass.
  size_t keep = 0;
  for (NodeId id : corner_nodes_) {
    if (has_corner_[static_cast<size_t>(id)] != 1) {
      has_corner_[static_cast<size_t>(id)] = 0;  // left the list; reset for re-insertion
      continue;
    }
    corner_nodes_[keep++] = id;
    mark_corner_pending(id);
  }
  corner_nodes_.resize(keep);
}

void DistributedFaultModel::inject_fault(const Coord& c) {
  field_.inject_fault(c);
  const NodeId node = mesh_->index_of(c);
  // The failed node's memory is gone with it.
  wipe_node_memory(node);
  // New epoch: abandoned identifications get a fresh chance.
  ++epoch_;
  on_status_event(node);
}

void DistributedFaultModel::recover(const Coord& c) {
  field_.recover(c);
  const NodeId node = mesh_->index_of(c);
  // A recovered node boots with empty memory (rule 5 gives it clean status
  // only; everything else it must relearn).
  wipe_node_memory(node);
  freshly_clean_[static_cast<size_t>(node)] = 1;
  ++epoch_;
  on_status_event(node);
}

bool DistributedFaultModel::on_wall_column(const Coord& p, const Box& box, int dim,
                                           bool positive) {
  int lateral_out = 0;
  for (int d = 0; d < box.dims(); ++d) {
    if (d == dim) continue;
    if (p[d] == box.lo(d) - 1 || p[d] == box.hi(d) + 1) ++lateral_out;
    else if (p[d] < box.lo(d) || p[d] > box.hi(d)) return false;
  }
  if (lateral_out != 1) return false;
  return positive ? p[dim] < box.lo(dim) : p[dim] > box.hi(dim);
}

Coord DistributedFaultModel::anchor_of(const Coord& c, const std::vector<int>& out_dims,
                                       const std::vector<int>& out_signs) {
  Coord a = c;
  for (size_t i = 0; i < out_dims.size(); ++i)
    a = a.shifted(out_dims[i], -out_signs[i]);
  return a;
}

bool DistributedFaultModel::has_level_entry(NodeId node, const Coord& anchor,
                                            int level) const {
  for (const auto& e : levels_[static_cast<size_t>(node)])
    if (e.level == level && e.anchor == anchor) return true;
  return false;
}

std::optional<LevelEntry> DistributedFaultModel::entry_with_anchor(NodeId node,
                                                                   const Coord& anchor) const {
  for (const auto& e : levels_[static_cast<size_t>(node)])
    if (e.anchor == anchor) return e;
  return std::nullopt;
}

bool DistributedFaultModel::round_labeling() {
  const long long changes =
      labeling_round(field_, freshly_clean_, labeling_wl_, &protocol_node_visits_);
  // A status change is an input change for the same round's Definition-2
  // pass and for the cancel-phase predicates of the one-hop neighbourhood.
  for (NodeId id : labeling_wl_.changed) {
    mark_levels_neighborhood(id);
    mark_cancel_neighborhood(id);
  }
  return changes != 0;
}

bool DistributedFaultModel::visit_levels(NodeId id) {
  ++protocol_node_visits_;
  auto& out = levels_scratch_;
  out.clear();
  if (field_.at(id) == NodeStatus::kEnabled) {
    const Coord c = mesh_->coord_of(id);

    // Level 1: a member neighbour's coordinate is the anchor.
    mesh_->for_each_grid_neighbor(c, [&](Direction, const Coord& nb) {
      if (is_member(nb)) out.push_back(LevelEntry{nb, 1});
    });

    // Level m >= 2: an anchor w seen at level m-1 by the inward neighbour in
    // every dimension where w differs from c (all offsets +-1).
    auto& candidates = candidate_scratch_;
    candidates.clear();
    mesh_->for_each_grid_neighbor(c, [&](Direction, const Coord& nb) {
      for (const auto& e : levels_before(mesh_->index_of(nb))) {
        if (std::find(candidates.begin(), candidates.end(), e.anchor) == candidates.end())
          candidates.push_back(e.anchor);
      }
    });
    for (const Coord& w : candidates) {
      int m = 0;
      bool plausible = true;
      for (int d = 0; d < mesh_->dims() && plausible; ++d) {
        const int off = w[d] - c[d];
        if (off == 0) continue;
        if (off != 1 && off != -1) plausible = false;
        ++m;
      }
      if (!plausible || m < 2) continue;
      bool all_dims_confirm = true;
      for (int d = 0; d < mesh_->dims() && all_dims_confirm; ++d) {
        const int off = w[d] - c[d];
        if (off == 0) continue;
        const Coord nb = c.shifted(d, off);
        bool found = false;
        for (const auto& e : levels_before(mesh_->index_of(nb)))
          if (e.anchor == w && e.level == m - 1) found = true;
        if (!found) all_dims_confirm = false;
      }
      if (all_dims_confirm) out.push_back(LevelEntry{w, static_cast<int8_t>(m)});
    }

    // Canonical order: the entry SET is what matters; without sorting, nodes
    // holding entries for two blocks can oscillate between two orderings
    // forever (the candidates inherit the neighbours' changing order) and
    // quiescence is never reached.
    std::sort(out.begin(), out.end(), [](const LevelEntry& a, const LevelEntry& b) {
      if (a.level != b.level) return a.level < b.level;
      return a.anchor < b.anchor;
    });
  }

  auto& live = levels_[static_cast<size_t>(id)];
  if (out == live) return false;

  // Snapshot-on-write double buffering: neighbours evaluated later this
  // round read the pre-round entries through levels_before().
  levels_prev_[static_cast<size_t>(id)].swap(live);
  levels_prev_round_[static_cast<size_t>(id)] = levels_round_;
  live.assign(out.begin(), out.end());

  // Changed entries are next-round inputs for the one-hop neighbourhood and
  // same-round inputs for the cancel-phase corner predicates.
  mark_levels_neighborhood(id);
  mark_cancel(id);
  const int n = mesh_->dims();
  bool has_n = false;
  for (const auto& e : live)
    if (e.level == n) has_n = true;
  auto& flag = has_corner_[static_cast<size_t>(id)];
  if (has_n) {
    if (flag == 0) corner_nodes_.push_back(id);
    flag = 1;
    mark_corner_pending(id);
  } else if (flag == 1) {
    flag = 2;  // stays in corner_nodes_ until the next compaction
  }
  return true;
}

bool DistributedFaultModel::round_levels() {
  // One synchronous re-evaluation of Definition 2: a node reads its
  // neighbours' previous-round entries (levels advance one hop per round,
  // giving the n-1 extra rounds the recursive definition needs).
  ++levels_round_;
  bool changed = false;
  auto& cur = levels_cur_;
  cur.clear();
  cur.swap(levels_queue_);
  for (NodeId id : cur) levels_marked_[static_cast<size_t>(id)] = 0;
  std::sort(cur.begin(), cur.end());
  for (NodeId id : cur)
    if (visit_levels(id)) changed = true;
  return changed;
}

bool DistributedFaultModel::run_round() {
  if (!options_.active_set) {
    // The mark-all reference: every node is evaluated in every worklist
    // phase this round.  Mail delivery needs no seeding (an empty inbox
    // delivers nothing).
    const long long count = field_.node_count();
    labeling_wl_.mark_all(count);
    for (NodeId id = 0; id < count; ++id) {
      mark_levels(id);
      mark_cancel(id);
      mark_corner_pending(id);
    }
  }
  RoundActivity act;
  act.labeling = round_labeling();
  act.levels = round_levels();
  act.identification = round_identification();
  act.envelope = round_envelope();
  act.boundary = round_boundary();
  act.cancel = round_cancel();
  last_activity_ = act;
  ++rounds_run_;
  messages_sent_ = ident_mail_->stats().messages_sent + info_mail_->stats().messages_sent +
                   wall_mail_->stats().messages_sent + cancel_mail_->stats().messages_sent;
  return act.any();
}

ConstructionRounds DistributedFaultModel::stabilize(int max_rounds) {
  ConstructionRounds r;
  for (int round = 1; round <= max_rounds; ++round) {
    if (!run_round()) break;
    r.total = round;
    if (last_activity_.labeling) r.labeling = round;
    if (last_activity_.levels || last_activity_.identification) r.identification = round;
    if (last_activity_.envelope || last_activity_.boundary || last_activity_.cancel)
      r.boundary = round;
  }
  return r;
}

long long DistributedFaultModel::memory_bytes() const {
  auto vec_bytes = [](const auto& v, size_t elem) {
    return static_cast<long long>(v.capacity() * elem);
  };
  long long bytes = 0;
  bytes += field_.node_count();  // status array
  bytes += vec_bytes(freshly_clean_, 1) + vec_bytes(levels_prev_round_, sizeof(int));
  bytes += vec_bytes(levels_marked_, 1) + vec_bytes(cancel_marked_, 1) +
           vec_bytes(has_corner_, 1) + vec_bytes(corner_pending_marked_, 1) +
           vec_bytes(cancel_seen_count_, sizeof(uint16_t));
  bytes += vec_bytes(levels_queue_, sizeof(NodeId)) + vec_bytes(cancel_queue_, sizeof(NodeId)) +
           vec_bytes(levels_cur_, sizeof(NodeId)) + vec_bytes(cancel_cur_, sizeof(NodeId)) +
           vec_bytes(corner_nodes_, sizeof(NodeId)) +
           vec_bytes(corner_pending_, sizeof(NodeId)) + vec_bytes(corner_cur_, sizeof(NodeId));
  bytes += vec_bytes(held_scratch_, sizeof(BlockInfo)) +
           vec_bytes(carried_scratch_, sizeof(std::pair<BlockInfo, Provenance>));
  bytes += vec_bytes(labeling_wl_.marked, 1) + vec_bytes(labeling_wl_.queue, sizeof(NodeId));
  for (const auto& v : levels_) bytes += sizeof(v) + vec_bytes(v, sizeof(LevelEntry));
  for (const auto& v : levels_prev_) bytes += sizeof(v) + vec_bytes(v, sizeof(LevelEntry));
  for (const auto& v : formed_at_corner_) bytes += sizeof(v) + vec_bytes(v, sizeof(BlockInfo));
  bytes += info_.memory_bytes();
  bytes += slice_results_.memory_bytes() + corner_collect_.memory_bytes() +
           launch_book_.memory_bytes() + merge_seen_.memory_bytes() + cancel_seen_.memory_bytes();
  bytes += vec_bytes(chain_pool_, sizeof(ParentChain)) + vec_bytes(chain_sets_, sizeof(ChainSet)) +
           vec_bytes(node_launches_, sizeof(SectionLaunch)) +
           vec_bytes(launch_links_, sizeof(LaunchLink)) +
           vec_bytes(chain_scratch_, sizeof(ParentChain)) +
           vec_bytes(completed_, sizeof(ParentChain));
  bytes += ident_mail_->memory_bytes() + info_mail_->memory_bytes() +
           wall_mail_->memory_bytes() + cancel_mail_->memory_bytes();
  return bytes;
}

}  // namespace lgfi
