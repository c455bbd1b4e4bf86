#include "src/fault/labeling.h"

#include <algorithm>
#include <cassert>

namespace lgfi {

bool rule1_applies(const StatusField& field, NodeId id) {
  assert(field.at(id) == NodeStatus::kEnabled);
  return field.dims_with_neighbor(id, [](NodeStatus s) { return is_block_member(s); }) >= 2;
}

bool rule2_applies(const StatusField& field, NodeId id) {
  assert(field.at(id) == NodeStatus::kDisabled);
  if (!field.has_neighbor_with_status(id, NodeStatus::kClean)) return false;
  return field.dims_with_neighbor(id, [](NodeStatus s) { return s == NodeStatus::kFaulty; }) < 2;
}

bool rule3_applies(const StatusField& field, NodeId id) {
  assert(field.at(id) == NodeStatus::kClean);
  return field.dims_with_neighbor(id, [](NodeStatus s) { return s == NodeStatus::kFaulty; }) >= 2;
}

bool rule4_applies(const StatusField& field, NodeId id) {
  assert(field.at(id) == NodeStatus::kClean);
  return !rule3_applies(field, id);
}

void LabelingWorklist::mark_event(const StatusField& field, NodeId id) {
  mark(id);
  field.mesh().for_each_grid_neighbor(field.mesh().coord_of(id),
                                      [&](Direction, const Coord& nb) {
                                        mark(field.mesh().index_of(nb));
                                      });
}

long long labeling_round(StatusField& field, std::vector<uint8_t>& freshly_clean,
                         LabelingWorklist& wl, long long* visits) {
  assert(static_cast<long long>(freshly_clean.size()) == field.node_count());
  assert(static_cast<long long>(wl.marked.size()) == field.node_count());

  // Consume this round's worklist; marks made below build the next round's.
  std::vector<NodeId> cur;
  cur.swap(wl.queue);
  for (NodeId id : cur) wl.marked[static_cast<size_t>(id)] = 0;
  std::sort(cur.begin(), cur.end());
  wl.changed.clear();
  if (visits != nullptr) *visits += static_cast<long long>(cur.size());

  // Phase 1: decide from the unmodified field, so every decision reads the
  // previous round's statuses (the double-buffered read of the round model).
  std::vector<NodeStatus> decision(cur.size());
  for (size_t i = 0; i < cur.size(); ++i) {
    const NodeId id = cur[i];
    const NodeStatus status = field.at(id);
    NodeStatus out = status;
    switch (status) {
      case NodeStatus::kFaulty:
        break;  // rule 5 is an external event, not a round action
      case NodeStatus::kEnabled:
        if (rule1_applies(field, id)) out = NodeStatus::kDisabled;
        break;
      case NodeStatus::kDisabled:
        if (rule2_applies(field, id)) out = NodeStatus::kClean;
        break;
      case NodeStatus::kClean:
        if (freshly_clean[static_cast<size_t>(id)]) {
          out = NodeStatus::kClean;  // visible only this round; rules 3/4 next
        } else if (rule3_applies(field, id)) {
          out = NodeStatus::kDisabled;
        } else {
          out = NodeStatus::kEnabled;  // rule 4
        }
        break;
    }
    decision[i] = out;
  }

  // Phase 2: apply, count changes, and re-mark the one-hop neighbourhood of
  // every transition for next round.
  long long changes = 0;
  for (size_t i = 0; i < cur.size(); ++i) {
    const NodeId id = cur[i];
    const NodeStatus status = field.at(id);
    const NodeStatus out = decision[i];
    const bool was_fresh =
        status == NodeStatus::kClean && freshly_clean[static_cast<size_t>(id)] != 0;
    if (out != status) {
      field.set(id, out);
      ++changes;
      wl.changed.push_back(id);
      wl.mark_event(field, id);
      if (status == NodeStatus::kDisabled && out == NodeStatus::kClean)
        freshly_clean[static_cast<size_t>(id)] = 1;
    }
    if (was_fresh) {
      // The clean label is now published; the node must be re-evaluated next
      // round (rules 3/4 fire then), and staying clean still counts as
      // activity so convergence isn't declared early.
      freshly_clean[static_cast<size_t>(id)] = 0;
      wl.mark(id);
      if (out == status) ++changes;
    }
  }
  return changes;
}

LabelingResult stabilize_labeling(StatusField& field, int max_rounds,
                                  const std::vector<Coord>& new_clean) {
  std::vector<uint8_t> fresh(static_cast<size_t>(field.node_count()), 0);
  for (const auto& c : new_clean) {
    assert(field.at(c) == NodeStatus::kClean);
    fresh[static_cast<size_t>(field.mesh().index_of(c))] = 1;
  }

  // Cold start: every node is dirty for round 1; after that the worklist
  // shrinks to the advancing wavefront, so stabilization costs
  // O(N + sum of per-round active nodes) instead of O(N * rounds).
  LabelingWorklist wl;
  wl.init(field.node_count());
  wl.mark_all(field.node_count());

  LabelingResult r;
  for (int round = 0; round < max_rounds; ++round) {
    const long long changes = labeling_round(field, fresh, wl);
    if (changes == 0) {
      r.converged = true;
      return r;
    }
    r.status_changes += changes;
    ++r.rounds;
  }
  return r;
}

StatusField stabilized_field(const Topology& mesh, const std::vector<Coord>& faults,
                             LabelingResult* result) {
  StatusField field = make_field_with_faults(mesh, faults);
  LabelingResult r = stabilize_labeling(field);
  if (result != nullptr) *result = r;
  return field;
}

}  // namespace lgfi
