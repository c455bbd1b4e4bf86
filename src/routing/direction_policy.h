#pragma once
// Direction classification and priority ordering (Algorithm 3).
//
// At the current node u (with destination d and incoming direction), each of
// the up-to-2n outgoing directions falls into one class:
//
//   preferred            — reduces D(u, d) and is not known to lead into a
//                          dangerous area
//   spare-along-block    — does not reduce distance but slides along the
//                          surface of an adjacent block (the productive way
//                          around an obstacle)
//   spare                — any other non-reducing direction
//   preferred-but-detour — reduces distance but the node's block information
//                          proves every minimal path beyond it is cut
//                          (critical routing); taken only as a late resort
//   excluded             — out of the mesh, already used here, or leading to
//                          a neighbour known faulty/disabled
//
// The paper ranks "preferred, spare (along with block), preferred but
// detour, and incoming"; the incoming direction as last resort coincides
// with PCS backtracking and is handled by the router, not listed here.
// Plain spares (unnamed by the paper) sit between along-block spares and
// detour-preferred; see DESIGN.md §6.6.

#include <vector>

#include "src/routing/router.h"

namespace lgfi {

enum class DirectionClass : uint8_t {
  kPreferred = 0,
  kSpareAlongBlock = 1,
  kSpare = 2,
  kPreferredDetour = 3,
  kExcluded = 4,
};

[[nodiscard]] const char* to_string(DirectionClass c);

struct DirectionPolicyOptions {
  bool avoid_faulty_neighbors = true;
  bool avoid_disabled_neighbors = true;
  /// When false, block information is ignored (the info-free baseline): no
  /// direction is ever classified preferred-but-detour.
  bool use_block_info = true;
};

struct ClassifiedDirection {
  Direction dir;
  DirectionClass cls = DirectionClass::kExcluded;
};

/// Classifies one direction at node `u`.
DirectionClass classify_direction(const RoutingContext& ctx, const Coord& u, const Coord& dest,
                                  Direction dir, const DirectionSet& used,
                                  const DirectionPolicyOptions& opts);

/// All non-excluded candidates at `u`, best first (class, then direction
/// index).  `incoming` is the direction the message travelled to arrive at
/// `u` (or none at the source); its reverse — "the incoming direction" in
/// the paper's priority list — ranks below every other choice, which in PCS
/// terms is the backtrack itself, so it is excluded from the forward
/// candidates here.  Without this demotion a probe bouncing off an obstacle
/// would ping-pong between two nodes forever (path-local used sets reset on
/// every new path entry).  The reference for best_candidate().
std::vector<ClassifiedDirection> ordered_candidates(const RoutingContext& ctx, const Coord& u,
                                                    const Coord& dest, const DirectionSet& used,
                                                    Direction incoming,
                                                    const DirectionPolicyOptions& opts);

/// ordered_candidates(...).front(), or {none, kExcluded} when there is no
/// candidate: one allocation-free pass over the 2n directions, which stops
/// at the first preferred direction and tests "along a block" only when
/// none survives.  Algorithm 3's decision; FaultInfoRouter calls it.
ClassifiedDirection best_candidate(const RoutingContext& ctx, const Coord& u, const Coord& dest,
                                   const DirectionSet& used, Direction incoming,
                                   const DirectionPolicyOptions& opts);

/// True iff node `u` currently touches some faulty block (has a block-member
/// neighbour) — the precondition for the spare-along-block class.
bool touches_block(const RoutingContext& ctx, const Coord& u);

}  // namespace lgfi
