#pragma once
// Synchronous block-construction labeling (Definition 1, Definition 4,
// Algorithm 1) — centralized reference implementation.
//
// One round = one simultaneous application of the rules at every non-faulty
// node, using the statuses visible at the end of the previous round.  This is
// exactly the paper's model: "every non-faulty node u exchanges its status
// with that of its neighbors ... until there is no status change", with
// status propagation advancing one hop per round (Section 5).  The returned
// round count is the paper's a_i for the change that preceded the call.
//
// Rule set (Algorithm 1):
//   rule 1: enabled  -> disabled  if >= 2 disabled-or-faulty neighbours in
//                                 different dimensions
//   rule 2: disabled -> clean     if some clean neighbour and NOT >= 2 faulty
//                                 neighbours in different dimensions
//   rule 3: clean    -> disabled  if >= 2 faulty neighbours in different dims
//   rule 4: clean    -> enabled   otherwise
//   rule 5: faulty   -> clean     on recovery (event injection, not a round)
//
// Timing nuance for rules 3/4: Definition 4 says a clean node is relabeled
// "once all its neighbors know its clean status", i.e. its clean label must
// have been visible for one full round before rules 3/4 fire.  We model that
// with a freshly-clean flag: a node that became clean in round r broadcasts
// in round r (visible r+1) and transitions by rule 3/4 in round r+1.  This
// reproduces the paper's Figure 4 walkthrough exactly (see tests).

#include <vector>

#include "src/fault/node_status.h"

namespace lgfi {

struct LabelingResult {
  int rounds = 0;       ///< rounds in which at least one status changed (a_i)
  bool converged = false;
  long long status_changes = 0;  ///< total individual node transitions
};

/// Dirty-node worklist for one synchronous labeling round (DESIGN.md §14).
/// Soundness rests on the BSP one-hop rule: rules 1-4 read only a node's own
/// status and its grid neighbours' statuses, so a node whose inputs did not
/// change since its last evaluation cannot transition.  The worklist holds
/// every node with a changed input: labeling_round() re-marks the one-hop
/// neighbourhood of every transition, and external events (fault injection,
/// recovery) must be marked by the caller via mark_event().  A worklist with
/// every node marked is one round of the rules over the whole field.
struct LabelingWorklist {
  std::vector<uint8_t> marked;  ///< membership flags for `queue`
  std::vector<NodeId> queue;    ///< nodes to evaluate next round (deduped)
  std::vector<NodeId> changed;  ///< status transitions of the last round

  void init(long long node_count) {
    marked.assign(static_cast<size_t>(node_count), 0);
    queue.clear();
    changed.clear();
  }
  void mark(NodeId id) {
    if (marked[static_cast<size_t>(id)]) return;
    marked[static_cast<size_t>(id)] = 1;
    queue.push_back(id);
  }
  /// Marks a node and its grid neighbours (the read set of its neighbours'
  /// rules) — the seeding step for an external status event at `id`.
  void mark_event(const StatusField& field, NodeId id);
  /// Marks every node: a cold start, or the mark-all reference round.
  void mark_all(long long node_count) {
    for (NodeId id = 0; id < node_count; ++id) mark(id);
  }
};

/// One synchronous round over the worklist: evaluates the queued nodes in
/// ascending NodeId order, deciding every transition from the statuses
/// visible at the end of the previous round (double-buffered), applies them,
/// rebuilds the worklist for the next round and records the transitions in
/// `wl.changed`.  `freshly_clean` marks nodes whose clean status is not yet
/// known to neighbours; it is updated in place.  Returns the number of
/// nodes that changed status, plus one per freshly-clean node that stayed
/// clean while publishing its label (the wave is still moving).  `visits`,
/// when non-null, is incremented once per node evaluated.
long long labeling_round(StatusField& field, std::vector<uint8_t>& freshly_clean,
                         LabelingWorklist& wl, long long* visits = nullptr);

/// Runs rounds until no status changes (or max_rounds).  The field is
/// updated in place.  A fresh recovery must already be marked kClean (via
/// StatusField::recover) before calling; pass its node in `new_clean` so the
/// one-round visibility delay applies to it.
LabelingResult stabilize_labeling(StatusField& field, int max_rounds = 1 << 20,
                                  const std::vector<Coord>& new_clean = {});

/// Convenience: build a field from scratch with `faults` injected and
/// stabilize it (the static-fault case every block starts from).
StatusField stabilized_field(const Topology& mesh, const std::vector<Coord>& faults,
                             LabelingResult* result = nullptr);

/// Rule predicates, exposed for unit tests and for the distributed protocol
/// (which must apply the identical logic node-locally).
bool rule1_applies(const StatusField& field, NodeId id);  // enabled -> disabled
bool rule2_applies(const StatusField& field, NodeId id);  // disabled -> clean
bool rule3_applies(const StatusField& field, NodeId id);  // clean -> disabled
bool rule4_applies(const StatusField& field, NodeId id);  // clean -> enabled

}  // namespace lgfi
