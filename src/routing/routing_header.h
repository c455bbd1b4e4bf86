#pragma once
// The PCS routing header (Algorithm 3).
//
// "each routing header here includes a destination address and a list of
// used-directions for each forwarding node along the path" — the header is
// the entire state of a path-setup probe: the destination plus a stack of
// (node, incoming direction, used-direction set) entries from the source to
// the current node.  Forwarding pushes; backtracking pops and releases the
// hop, exactly like PCS path setup.  Popped nodes lose their used sets (the
// system is dynamic; priorities may legitimately differ on a revisit), which
// is the paper's design; the walker enforces a step budget as the safety
// net, and a persistent-marking variant exists as an ablation (E9).
//
// A finished message gives its stack back (release_path) for a later header
// to reuse; the endpoints, the final position and the step counters outlive
// it (DESIGN.md §7, "In-flight state").

#include <unordered_map>
#include <vector>

#include "src/mesh/coordinates.h"
#include "src/mesh/direction.h"
#include "src/mesh/topology.h"

namespace lgfi {

struct PathEntry {
  Coord node;
  Direction incoming = Direction::none();  ///< direction we arrived along
  DirectionSet used;                       ///< outgoing directions already tried here
};

class RoutingHeader {
 public:
  /// `storage` is a released path stack to build on (emptied first, its
  /// capacity kept); the default starts from no storage.
  RoutingHeader(const Coord& source, const Coord& destination, std::vector<PathEntry> storage = {});

  [[nodiscard]] const Coord& destination() const { return destination_; }
  /// The node the header is at; once released, the final position.
  [[nodiscard]] const Coord& current() const { return current_; }
  [[nodiscard]] const Coord& source() const { return source_; }
  [[nodiscard]] bool at_source() const { return path_.size() == 1; }

  [[nodiscard]] PathEntry& top() { return path_.back(); }
  [[nodiscard]] const PathEntry& top() const { return path_.back(); }
  [[nodiscard]] const std::vector<PathEntry>& path() const { return path_; }

  /// Length of the currently-held path in hops.
  [[nodiscard]] int path_hops() const { return static_cast<int>(path_.size()) - 1; }

  /// Marks `d` used at the current node and pushes the next node (the plain
  /// grid step `d.apply(current())`; wrap-aware callers use the overload).
  void forward(Direction d);

  /// Same, with the next node supplied by the caller — `Topology::step`
  /// lands here so wraparound channels forward to the far edge.
  void forward(Direction d, const Coord& next);

  /// Pops the current node (PCS backtrack).  Pre: !at_source().
  void backtrack();

  /// Erases the used mark for `d` at the current node.  The wormhole
  /// switching layer's congestion-escape backtrack (DESIGN.md §10) un-does a
  /// forward without consuming the direction — the channel is healthy, just
  /// momentarily VC-starved, and must stay retryable; only the step budget
  /// bounds the retries.
  void unmark(Direction d);

  /// Gives up the path stack for a later header to build on; persistent
  /// marks are dropped.  Afterwards path() is empty and only the read
  /// accessors above and below may be called.
  [[nodiscard]] std::vector<PathEntry> release_path();

  // --- accounting (not part of the on-wire header; experiment bookkeeping)
  [[nodiscard]] int forward_steps() const { return forward_steps_; }
  [[nodiscard]] int backtrack_steps() const { return backtrack_steps_; }
  [[nodiscard]] int total_steps() const { return forward_steps_ + backtrack_steps_; }
  [[nodiscard]] int detour_forward_steps() const { return detour_forward_steps_; }
  void count_detour_forward() { ++detour_forward_steps_; }

  /// Persistent-marking ablation: when enabled, used sets live in a global
  /// per-node map, so every (node, direction) pair is tried at most once in
  /// the whole search — the classic DFS guarantee.  The paper's header keeps
  /// marks only for nodes on the current path (the default).
  void enable_persistent_marks();
  [[nodiscard]] bool persistent_marks() const { return persistent_marks_; }

 private:
  Coord destination_;
  Coord source_;
  Coord current_;  ///< path_.back().node while the stack is held
  std::vector<PathEntry> path_;
  int forward_steps_ = 0;
  int backtrack_steps_ = 0;
  int detour_forward_steps_ = 0;
  bool persistent_marks_ = false;
  /// Persistent mode only: the authoritative per-node used sets.  Path
  /// entries mirror this map so decide() can keep reading top().used.
  /// Membership-only access (operator[]/find/erase by key): direction
  /// preference order always comes from the router's policy, never from
  /// traversing this map (determinism contract, DESIGN.md §16).
  std::unordered_map<Coord, DirectionSet, CoordHash> marks_;
};

}  // namespace lgfi
