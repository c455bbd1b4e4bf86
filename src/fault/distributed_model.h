#pragma once
// The distributed fault-information machinery (Sections 3 and 5).
//
// DistributedFaultModel is the per-node protocol stack of the paper run over
// the synchronous round model: within every round, each construction's
// message advances one hop —
//
//   1. status exchange      (Algorithm 1: rules 1-5; measures a_i)
//   2. level detection      (Definition 2: adjacent nodes and all levels of
//                            edge nodes and corners, via anchor-tagged
//                            announcements)
//   3. identification       (Algorithm 2 step 3: the recursive k-level
//                            process — edge walks, ring walks, collectors,
//                            TTL discard on instability; measures b_i)
//   4. envelope propagation (Algorithm 2 step 4: identified info floods the
//                            whole envelope)
//   5. boundary construction(Definition 3: wall messages from surface-edge
//                            rings, merging onto other blocks; measures c_i)
//   6. cancellation         (deletion process: stale info waves)
//
// All decisions are node-local: a node sees its own state, its neighbours'
// previous-round state (the BSP one-hop rule), and the messages delivered
// this round.  The centralized references in labeling.h / boundary_model.h
// predict the fixpoints; integration tests assert convergence to them.
//
// Anchors.  A node out-by-one in m dimensions of a block has a unique
// diagonal member node w (its *anchor*) inside the block.  Level-m entries
// carry their anchor, which gives an exact, local same-block test even when
// two blocks touch diagonally (possible for n >= 3; see block_analyzer.h).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/block_registry.h"
#include "src/fault/labeling.h"
#include "src/fault/node_status.h"
#include "src/fault/node_table.h"
#include "src/fault/packed_box.h"
#include "src/sim/mailbox.h"

namespace lgfi {

struct DistributedModelOptions {
  /// Base TTL for identification messages; 0 derives 4 * (sum of extents) + 16.
  int message_ttl = 0;
  /// Eager invalidation: any node holding info contradicted by a neighbour's
  /// member status starts a cancel wave (besides the corner-triggered
  /// deletion).  Ablatable; see DESIGN.md §6 note 8.
  bool eager_invalidation = true;
  /// Worklist seeding (DESIGN.md §14).  Every round phase iterates a
  /// dirty-node worklist; true seeds it from fault events, inbox deliveries
  /// and prior-round state changes, which the BSP one-hop rule makes sound (a
  /// node with no mail and no neighbour change cannot act).  False seeds
  /// every worklist with every node each round: O(N) per round, the same
  /// bytes, and the reference the engine-equivalence tests compare against.
  bool active_set = true;
  /// Prints identification message events to stderr (debugging aid).
  bool trace = false;
};

/// One (anchor, level) classification a node holds (Definition 2).
struct LevelEntry {
  Coord anchor;     ///< the diagonal block-member node
  int8_t level = 0; ///< m: out-by-m dimensions
  friend bool operator==(const LevelEntry& a, const LevelEntry& b) {
    return a.anchor == b.anchor && a.level == b.level;
  }
};

/// Per-round activity counters, used to derive a_i / b_i / c_i.
struct RoundActivity {
  bool labeling = false;
  bool levels = false;
  bool identification = false;
  bool envelope = false;
  bool boundary = false;
  bool cancel = false;
  [[nodiscard]] bool any() const {
    return labeling || levels || identification || envelope || boundary || cancel;
  }
};

struct ConstructionRounds {
  int labeling = 0;        ///< a_i: last round (1-based) with a status change
  int identification = 0;  ///< b_i: last round with level/identification activity
  int boundary = 0;        ///< c_i: last round with envelope/wall/cancel activity
  int total = 0;
};

class DistributedFaultModel final {
 public:
  explicit DistributedFaultModel(const Topology& mesh,
                                 DistributedModelOptions options = {});
  // Out-of-line: the mailbox unique_ptrs hold types completed only in the
  // implementation files.
  ~DistributedFaultModel();

  // --- environment events (the fault-detection phase of a step) ---
  void inject_fault(const Coord& c);
  void recover(const Coord& c);

  // --- protocol execution ---
  /// Executes one synchronous round: deliver last round's messages, let every
  /// node act, queue this round's messages.  Returns false once a round does
  /// nothing (the protocol is quiescent).
  bool run_round();

  /// Runs rounds to quiescence; returns per-construction round counts for
  /// the change since the previous stabilization.
  ConstructionRounds stabilize(int max_rounds = 1 << 20);

  // --- observable state ---
  [[nodiscard]] const Topology& mesh() const { return *mesh_; }
  [[nodiscard]] const StatusField& field() const { return field_; }
  [[nodiscard]] const InfoStore& info() const { return info_; }
  [[nodiscard]] const std::vector<LevelEntry>& levels_at(NodeId id) const {
    return levels_[static_cast<size_t>(id)];
  }
  [[nodiscard]] long long messages_sent() const { return messages_sent_; }
  [[nodiscard]] int rounds_run() const { return rounds_run_; }
  /// Per-node protocol evaluations performed so far, across all six round
  /// phases.  A fully quiescent round performs zero visits with seeded
  /// worklists and 5N with every node marked (pinned by tests).
  [[nodiscard]] long long protocol_node_visits() const { return protocol_node_visits_; }
  /// Estimated resident bytes of the model's per-node state (SoA arrays,
  /// consolidated bookkeeping tables, mailboxes).  The bytes/node headline
  /// metric of the scale benches.
  [[nodiscard]] long long memory_bytes() const;
  /// Activity flags of the most recent round (used by the dynamic step model
  /// to attribute convergence rounds to a_i / b_i / c_i).
  [[nodiscard]] const RoundActivity& last_activity() const { return last_activity_; }

  /// Geometric helper: the anchor of position `c` if it is out-by-m (m >= 1)
  /// of a block with the given member test; exposed for tests.
  [[nodiscard]] static Coord anchor_of(const Coord& c, const std::vector<int>& out_dims,
                                       const std::vector<int>& out_signs);

 private:
  // ---- message types (definitions in distributed_messages.h) ----
  struct ParentChain;
  struct IdentMessage;
  struct InfoMessage;
  struct WallMessage;
  struct CancelMessage;

  // Round phases; each returns true if anything happened.
  bool round_labeling();
  bool round_levels();
  bool round_identification();
  bool round_envelope();
  bool round_boundary();
  bool round_cancel();

  // identification.cpp helpers
  /// Evaluates the pending corner nodes; returns true while some level-n
  /// corner lacks covering block info.
  bool trigger_identifications();
  /// Per-corner-node launch logic; returns true if the node still has an
  /// uncovered, non-abandoned level-n corner (= it must stay pending).
  bool evaluate_corner_node(NodeId id, int retry);
  [[nodiscard]] int launch_retry_interval() const;
  void age_identification_bookkeeping();
  void handle_ident_message(NodeId node, const IdentMessage& m);
  void launch_process(NodeId corner, const LevelEntry& entry);
  void launch_subprocess(const Coord& at, int level, uint8_t free_mask,
                         std::array<int8_t, kMaxDims> out_signs, const IdentMessage& parent,
                         int parent_walk_dim, int parent_walk_sign);
  /// The processes of `m` that `done` names (chains of `m`) finished at
  /// `node`, an opposite corner whose anchor is `corner_anchor`, with the
  /// section box `m.partial`: either the top-level process forms block info,
  /// or each chain records a slice result and may self-start its parent's
  /// collector.
  void process_complete(NodeId node, const IdentMessage& m, const Coord& corner_anchor,
                        std::span<const ParentChain> done);
  /// Identity of a process instance under one of its chains (the key of the
  /// per-chain bookkeeping; see identification.cpp).
  [[nodiscard]] static uint64_t instance_key(uint64_t pid, int level, uint8_t free_mask,
                                             ParentChain chain);
  /// The parent chains `m` serves: its inline chain, or its pooled set.  The
  /// span is valid until the next pooled set is made.
  [[nodiscard]] std::span<const ParentChain> chains_of(const IdentMessage& m) const;
  /// A message's chains field for `chains` (not a span into the pool): the
  /// chain itself for one, a new pooled set for more.
  ParentChain chains_field(std::span<const ParentChain> chains);
  /// Gives each merged launch of the node just handled its pooled chain set.
  void finish_node_launches();
  /// Drops the pooled chain sets no pending message refers to.
  void recycle_chain_sets();
  [[nodiscard]] bool has_level_entry(NodeId node, const Coord& anchor, int level) const;
  [[nodiscard]] std::optional<LevelEntry> entry_with_anchor(NodeId node,
                                                            const Coord& anchor) const;

  // envelope_propagation.cpp helpers
  void start_info_flood(NodeId origin, const BlockInfo& info);
  void handle_info_message(NodeId node, const InfoMessage& m);

  // boundary_protocol.cpp helpers
  void spawn_walls_if_ring(NodeId node, const BlockInfo& info);
  void handle_wall_message(NodeId node, const WallMessage& m);

  // cancel (boundary_protocol.cpp)
  void start_cancel(NodeId origin, const Box& box, uint32_t epoch);
  void handle_cancel_message(NodeId node, const CancelMessage& m);
  /// Returns true if it fired anything (a cancel wave or a local removal);
  /// round_cancel re-marks such nodes so a persisting condition re-fires
  /// next round.
  bool check_eager_invalidation(NodeId node);
  /// The corner-triggered deletion check for one node (the paper's rule);
  /// returns true if a cancel wave was started.
  bool check_formed_corners(NodeId node);
  /// Drops every entry whose provenance names `dead_carrier` as its merge
  /// carrier and retraces its continuation walls from the carrier's rings.
  void sweep_carried_info(NodeId node, const Box& dead_carrier, int ttl);

  [[nodiscard]] int default_ttl() const;
  [[nodiscard]] bool is_member(const Coord& c) const {
    return is_block_member(field_.at(c));
  }
  /// Physical memory loss: a node that fails (or comes back) has no stored
  /// information or protocol bookkeeping left.
  void wipe_node_memory(NodeId node);
  /// Shared event seeding for inject_fault / recover: marks the one-hop
  /// neighbourhood of `node` dirty in every phase worklist and resets the
  /// per-epoch launch bookkeeping.
  void on_status_event(NodeId node);

  // All InfoStore mutation goes through these wrappers so the cancel-phase
  // and identification worklists learn about every information change.
  bool deposit_info(NodeId node, const BlockInfo& info, const Provenance& prov = {});
  bool remove_info(NodeId node, const Box& box, uint32_t epoch);

  // ---- worklist plumbing ----
  void mark_levels(NodeId id) {
    if (levels_marked_[static_cast<size_t>(id)]) return;
    levels_marked_[static_cast<size_t>(id)] = 1;
    levels_queue_.push_back(id);
  }
  void mark_levels_neighborhood(NodeId id);
  void mark_cancel(NodeId id) {
    if (cancel_marked_[static_cast<size_t>(id)]) return;
    cancel_marked_[static_cast<size_t>(id)] = 1;
    cancel_queue_.push_back(id);
  }
  void mark_cancel_neighborhood(NodeId id);
  void mark_corner_pending(NodeId id) {
    if (corner_pending_marked_[static_cast<size_t>(id)]) return;
    corner_pending_marked_[static_cast<size_t>(id)] = 1;
    corner_pending_.push_back(id);
  }
  /// Per-node Definition-2 recomputation.  Returns true if the node's entry
  /// set changed; maintains the snapshot-on-write prev view and the
  /// downstream worklists.
  bool visit_levels(NodeId id);
  /// The previous-round entry view of `id`: the snapshot if `id` was
  /// rewritten this round, the live entries otherwise.  Valid from
  /// round_levels until the next round's round_levels.
  [[nodiscard]] const std::vector<LevelEntry>& levels_before(NodeId id) const {
    return levels_prev_round_[static_cast<size_t>(id)] == levels_round_
               ? levels_prev_[static_cast<size_t>(id)]
               : levels_[static_cast<size_t>(id)];
  }

 public:
  /// True if `p` lies on the straight boundary-wall column of block `box`
  /// for surface (dim, positive): exactly one lateral dim out by one, the
  /// rest within range, and the dim coordinate strictly beyond the block on
  /// the guarded-opposite side.  Public for tests and analysis tools.
  [[nodiscard]] static bool on_wall_column(const Coord& p, const Box& box, int dim,
                                           bool positive);

 private:

  const Topology* mesh_;
  DistributedModelOptions options_;
  StatusField field_;
  std::vector<uint8_t> freshly_clean_;

  // Level detection state: levels_ is current; levels_prev_ is a
  // snapshot-on-write buffer valid for node id while levels_prev_round_[id]
  // == levels_round_ (read through levels_before()).  Equivalent to the old
  // wholesale array swap, but a round that changes k nodes copies k entry
  // vectors instead of rewriting N.
  std::vector<std::vector<LevelEntry>> levels_;
  std::vector<std::vector<LevelEntry>> levels_prev_;
  std::vector<int> levels_prev_round_;
  int levels_round_ = 0;

  InfoStore info_;

  // Identification bookkeeping in node-bucketed NodeTables (node_table.h):
  // a node costs one chain head per table until it holds entries, and wiping
  // a dead node or resetting its cancel dedup costs only that node's entries.
  // Keys mix the pid/level/parent-stack instance hash (see
  // identification.cpp); the node id is stored verbatim beside the key, so
  // dedup is exact per node.  Section boxes are packed (packed_box.h) in the
  // grid's layout, box_packing_.
  BoxPacking box_packing_;
  uint64_t next_pid_ = 1;
  struct SliceResult {
    PackedBox box;
    int round = 0;  ///< for aging out results of dead processes
  };
  NodeTable<SliceResult> slice_results_;
  struct CornerCollect {
    PackedBox box;  ///< set by the first arrival
    int arrivals = 0;
    int round = 0;
    bool invalid = false;  ///< inconsistent sections: the block is not stable
  };
  NodeTable<CornerCollect> corner_collect_;
  // Per-(corner, anchor) launch log: last launch round + attempts this
  // epoch.  A corner whose identification keeps failing (e.g. its walks are
  // permanently blocked by a diagonally touching block) is abandoned after a
  // few tries so the system can quiesce — it stays uninformed, which only
  // costs routing detours, never correctness.  An entry from an older epoch
  // reads as absent, so a fault event re-arms every corner without walking
  // the table; the age-out drops such entries.
  struct LaunchBook {
    int last_round = 0;
    int attempts = 0;
    uint32_t epoch = 0;
  };
  NodeTable<LaunchBook> launch_book_;

  // Chain sets of merged identification messages (identification.cpp):
  // set k is chain_pool_[chain_sets_[k].begin, + size).  Sets are only ever
  // appended; recycle_chain_sets() drops the unreferenced ones once the pool
  // has doubled, and all of them whenever identification mail drains.
  struct ChainSet {
    uint32_t begin = 0;
    uint32_t size = 0;
  };
  std::vector<ParentChain> chain_pool_;
  std::vector<ChainSet> chain_sets_;
  size_t chain_pool_recycle_at_ = 0;
  // The processes launched at the node whose inbox round_identification is
  // handling, with at least two walked dimensions.  A launch identical to an
  // earlier one but for its chains sends nothing and joins the earlier one:
  // its chains are linked into that launch's list, and finish_node_launches()
  // points the earlier launch's messages at the pooled set of all of them.
  struct SectionLaunch {
    uint64_t pid = 0;
    PackedBox partial;
    std::array<int8_t, kMaxDims> out_signs{};
    int16_t ttl = 0;
    int8_t level = 0;
    uint8_t free_mask = 0;
    uint32_t first_message = 0;  ///< index among ident_mail_'s pending messages
    uint32_t message_count = 0;
    uint32_t chain_count = 0;
    uint32_t first_link = 0;  ///< head of its list in launch_links_
    uint32_t last_link = 0;
  };
  struct LaunchLink {
    uint32_t chain = 0;  ///< ParentChain bits
    uint32_t next = 0;   ///< the launch's next link, if it has chain_count more
  };
  std::vector<SectionLaunch> node_launches_;
  std::vector<LaunchLink> launch_links_;
  std::vector<ParentChain> chain_scratch_;
  std::vector<ParentChain> completed_;  ///< chains a handled message completed

  // Mailboxes (one hop per round each).
  MailboxSystem<IdentMessage>* ident_mail();
  MailboxSystem<InfoMessage>* info_mail();
  MailboxSystem<WallMessage>* wall_mail();
  MailboxSystem<CancelMessage>* cancel_mail();
  std::unique_ptr<MailboxSystem<IdentMessage>> ident_mail_;
  std::unique_ptr<MailboxSystem<InfoMessage>> info_mail_;
  std::unique_ptr<MailboxSystem<WallMessage>> wall_mail_;
  std::unique_ptr<MailboxSystem<CancelMessage>> cancel_mail_;

  // Corner-triggered deletion (the paper's deletion process): corners
  // remember the infos they formed so they can cancel them when their
  // existing condition no longer holds.
  std::vector<std::vector<BlockInfo>> formed_at_corner_;

  // Merge-flood dedup: (info box, carrier box, surface) triples processed,
  // keyed by (node, triple hash).
  NodeTable<NoValue> merge_seen_;

  // Cancel-flood dedup.  Keyed by (box, epoch, carrier, surface) so the wave
  // traverses the entire envelope even across nodes that already dropped the
  // entry locally — otherwise eager invalidation could cut the wave before
  // it reaches the ring nodes that must cancel the walls.  The per-node
  // entry count preserves the historical bounded-memory rule (a node's keys
  // are dropped when it accumulates > 512).
  NodeTable<NoValue> cancel_seen_;
  std::vector<uint16_t> cancel_seen_count_;

  // ---- round worklists ----
  LabelingWorklist labeling_wl_;
  std::vector<uint8_t> levels_marked_;  ///< round_levels worklist flags
  std::vector<NodeId> levels_queue_;
  std::vector<NodeId> levels_cur_;      ///< the queue round_levels is consuming
  std::vector<uint8_t> cancel_marked_;  ///< round_cancel check-worklist flags
  std::vector<NodeId> cancel_queue_;
  std::vector<NodeId> cancel_cur_;      ///< the queue round_cancel is consuming
  std::vector<uint8_t> has_corner_;     ///< node holds a level-n entry
  std::vector<NodeId> corner_nodes_;    ///< nodes with has_corner_ set (compacted lazily)
  std::vector<uint8_t> corner_pending_marked_;
  std::vector<NodeId> corner_pending_;  ///< corners to evaluate for (re)launch
  std::vector<NodeId> corner_cur_;      ///< the list trigger_identifications is consuming
  std::vector<LevelEntry> levels_scratch_;
  std::vector<Coord> candidate_scratch_;
  std::vector<BlockInfo> held_scratch_;  ///< check_eager_invalidation's copy
  std::vector<std::pair<BlockInfo, Provenance>> carried_scratch_;  ///< sweep_carried_info's
  long long protocol_node_visits_ = 0;

  uint32_t epoch_ = 1;
  int rounds_run_ = 0;
  long long messages_sent_ = 0;
  long long envelope_deposits_ = 0;
  long long wall_deposits_ = 0;
  RoundActivity last_activity_;

 public:
  [[nodiscard]] long long envelope_deposits() const { return envelope_deposits_; }
  [[nodiscard]] long long wall_deposits() const { return wall_deposits_; }
  [[nodiscard]] uint32_t epoch() const { return epoch_; }
};

}  // namespace lgfi
