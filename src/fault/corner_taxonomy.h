#pragma once
// Envelope taxonomy of a faulty block (Definitions 2 and 3).
//
// All the paper's information machinery lives on the *envelope* of a block —
// the shell one hop outside its box.  A node of the envelope whose
// coordinates are "out by one" in exactly m dimensions (and within the block
// range in the rest) is:
//   m = 1 : an adjacent node (it has a neighbour in the block); the 2n
//           maximal faces of such nodes are the adjacent surfaces S_0..S_{2n-1}
//   m = 2 : a 2-level corner == a 3-level edge node; in 3-D these form the
//           12 edges of Definition 3
//   m = k : a k-level corner == a (k+1)-level edge node
//   m = n : an n-level corner (2^n of them), where identification begins
//
// The recursive Definition 2 ("an n-level corner is an enabled node with n
// n-level edge neighbours of the same block") coincides with this geometric
// classification; tests verify the equivalence.

#include <array>
#include <vector>

#include "src/fault/node_status.h"
#include "src/mesh/box.h"

namespace lgfi {

/// Identifies one of the 2n adjacent surfaces of a block: the surface on the
/// `positive` side of dimension `dim`.  In the paper's 3-D naming,
/// S0 = (dim 0, negative), S3 = (dim 0, positive), S1 = (dim 1, negative),
/// S4 = (dim 1, positive), S2 = (dim 2, negative), S5 = (dim 2, positive).
struct Surface {
  int dim = 0;
  bool positive = false;

  [[nodiscard]] Surface opposite() const { return Surface{dim, !positive}; }
  [[nodiscard]] int paper_index(int n) const { return dim + (positive ? n : 0); }
  friend bool operator==(Surface a, Surface b) {
    return a.dim == b.dim && a.positive == b.positive;
  }
};

/// Geometric classification of `c` relative to block `box`.
struct EnvelopeClass {
  bool inside = false;    ///< member position (within the box)
  bool on_envelope = false;  ///< in inflated(1) but not inside
  int out_dims = 0;       ///< m: #dims at lo-1 or hi+1 (valid when on_envelope)
  /// Which dims are out, and on which side (true = hi+1 side); parallel
  /// arrays whose first out_dims elements are set.
  std::array<int, kMaxDims> out_dim_list{};
  std::array<bool, kMaxDims> out_side_positive{};
};

EnvelopeClass classify_against_block(const Coord& c, const Box& box);

/// Corner level per Definition 2: m-level corner for m = out_dims >= 2,
/// adjacent node for m == 1; 0 otherwise.  Purely geometric (does not check
/// enabled status).
int corner_level(const Coord& c, const Box& box);

/// All envelope positions of `box` clipped to the mesh, optionally filtered
/// to a given out-dimension count m (m = 0 means all envelope nodes).
std::vector<Coord> envelope_positions(const Topology& mesh, const Box& box, int m = 0);

/// The 2^n n-level corner positions (unclipped count may be smaller at mesh
/// edges).
std::vector<Coord> block_corners(const Topology& mesh, const Box& box);

/// Nodes of adjacent surface S(dim,positive): out exactly in `dim` on that
/// side (m == 1 positions of that face), clipped to the mesh.
std::vector<Coord> surface_positions(const Topology& mesh, const Box& box, Surface s);

/// The "edges of surface S" (Definition 3) *excluding corners*: positions at
/// the surface's coordinate in `s.dim` whose remaining coordinates are out by
/// one in exactly one other dimension.  These seed boundary propagation.
std::vector<Coord> surface_edge_positions(const Topology& mesh, const Box& box, Surface s);

/// Recursive Definition-2 evaluation over a status field: computes each
/// enabled node's corner level for the block containing `box` by iterating
/// the textual definition (level 1 = neighbour in block; level m = m
/// neighbours of level m-1 in different dims).  Exposed so tests can confirm
/// it matches corner_level() geometry.
std::vector<int> definition2_levels(const StatusField& field, const Box& box);

}  // namespace lgfi
