#pragma once
// Pluggable network topologies over a k-ary n-D coordinate grid.
//
// `Topology` is the substrate the whole library builds on: the address <->
// dense-index mapping, neighbour/channel enumeration, the minimal-hop
// metric, and the geometric predicates of the paper's fault machinery.  All
// shipped topologies share one coordinate grid (per-dimension extents,
// row-major dense indices) and differ in which dimensions *wrap* and how
// many terminals share a router:
//
//   mesh   the paper's substrate (Section 2.1): a k-ary n-D mesh, no
//          wraparound; nodes along each dimension form a linear array
//   torus  wraparound channels in every dimension; there is no outer
//          surface, so Section 5's no-fault-on-the-outmost-surface
//          assumption becomes vacuous
//   cmesh  concentrated mesh: `concentration` terminals share each router;
//          the router grid itself is a plain mesh
//
// Two neighbour graphs coexist (DESIGN.md 13):
//
//   - the *channel graph* (`neighbor`, `for_each_neighbor`, `step`,
//     `min_hops`): what routing, switching, arbitration and traffic see —
//     wraparound links included;
//   - the *coordinate grid* (`for_each_grid_neighbor`, `in_bounds`, `clip`):
//     what the fault-information constructions operate on — blocks are
//     axis-aligned boxes in coordinate space and envelope/boundary walks
//     never cross a wraparound seam (a conservative, always-terminating
//     port of the paper's machinery; see DESIGN.md 13).
//
// Per-dimension radices may differ (both 8x8x8 and 16x4x4 are expressible);
// mixed-radix metrics account for each extent individually.
//
// Topologies register by name in topology_registry() (src/core) — the
// `topology=` config axis — exactly like routers and traffic patterns.

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/mesh/box.h"
#include "src/mesh/coordinates.h"
#include "src/mesh/direction.h"

namespace lgfi {

/// Dense node identifier in [0, node_count()).
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// The largest node count, and the largest terminal count, a Topology
/// accepts: node ids are NodeId and terminal slots are int.
inline constexpr long long kMaxNodeCount = std::numeric_limits<NodeId>::max();

/// True if the grid's node count times `concentration` is at most
/// kMaxNodeCount.  Checked before each multiply, so it never overflows.
/// Pre: every extent and `concentration` are >= 1.
[[nodiscard]] bool grid_fits(const std::vector<int>& extents, int concentration = 1);

class Topology {
 public:
  virtual ~Topology() = default;

  /// The registered name of this topology ("mesh", "torus", "cmesh").
  [[nodiscard]] virtual std::string name() const = 0;

  /// A deep copy with the concrete type preserved (Network stores one).
  [[nodiscard]] virtual std::unique_ptr<Topology> clone() const = 0;

  [[nodiscard]] int dims() const { return static_cast<int>(extents_.size()); }
  [[nodiscard]] int extent(int dim) const { return extents_[static_cast<size_t>(dim)]; }
  [[nodiscard]] long long node_count() const { return node_count_; }
  [[nodiscard]] int direction_count() const { return 2 * dims(); }

  /// True if dimension `dim` has wraparound channels.
  [[nodiscard]] bool wraps(int dim) const { return (wrap_mask_ & (1u << dim)) != 0; }

  /// Terminals sharing each router (1 except for the concentrated mesh).
  [[nodiscard]] int concentration() const { return concentration_; }
  /// Injection endpoints: concentration() terminals per router.
  [[nodiscard]] long long terminal_count() const { return concentration_ * node_count_; }

  /// Network diameter of the channel graph: each dimension contributes
  /// extent-1 hops (linear array) or floor(extent/2) hops (wrapped).  For a
  /// k-ary n-D mesh with equal radices this is the familiar (k-1)*n; with
  /// mixed radices it is the per-dimension sum.
  [[nodiscard]] int diameter() const;

  /// The full coordinate grid as a box [0 : extent_i - 1].
  [[nodiscard]] Box bounds() const;

  [[nodiscard]] bool in_bounds(const Coord& c) const {
    if (c.size() != dims()) return false;
    for (int i = 0; i < dims(); ++i)
      if (c[i] < 0 || c[i] >= extent(i)) return false;
    return true;
  }

  /// Address -> dense index (row-major, dimension 0 slowest).
  [[nodiscard]] NodeId index_of(const Coord& c) const {
    assert(in_bounds(c));
    long long idx = 0;
    for (int i = 0; i < dims(); ++i) idx += c[i] * strides_[static_cast<size_t>(i)];
    return static_cast<NodeId>(idx);
  }

  /// Dense index -> address.  Every stride is at most kMaxNodeCount, so the
  /// division runs in 32 bits.
  [[nodiscard]] Coord coord_of(NodeId id) const {
    assert(id >= 0 && id < node_count_);
    Coord c(dims());
    NodeId rest = id;
    for (int i = 0; i < dims(); ++i) {
      const auto stride = static_cast<NodeId>(strides_[static_cast<size_t>(i)]);
      c[i] = rest / stride;
      rest %= stride;
    }
    return c;
  }

  // --- channel graph (wraparound-aware) ------------------------------------

  /// The neighbour one hop along `dir`, or kInvalidNode where no channel
  /// exists (the grid surface of a non-wrapped dimension).
  [[nodiscard]] NodeId neighbor(NodeId id, Direction dir) const;

  /// Same, for a caller that already holds `c` == coord_of(id): stride
  /// arithmetic only, no division (the routing hot path).
  [[nodiscard]] NodeId neighbor(NodeId id, const Coord& c, Direction dir) const {
    const int e = extent(dir.dim());
    const int v = c[dir.dim()] + dir.sign();
    const long long stride = strides_[static_cast<size_t>(dir.dim())];
    if (v >= 0 && v < e) return static_cast<NodeId>(id + dir.sign() * stride);
    if (!wraps(dir.dim()) || e < 2) return kInvalidNode;
    // Wrapping jumps the coordinate to the far end of the dimension: e-1
    // steps the opposite way in index space.
    return static_cast<NodeId>(id - dir.sign() * (e - 1) * stride);
  }

  [[nodiscard]] bool has_neighbor(const Coord& c, Direction dir) const;

  /// The coordinate one channel hop along `dir`.  Pre: has_neighbor(c, dir).
  [[nodiscard]] Coord step(const Coord& c, Direction dir) const;

  /// All channel neighbours of `c` (up to 2n of them; a wrapped dimension of
  /// extent 2 reports the same node through both of its directions).
  [[nodiscard]] std::vector<Coord> neighbors(const Coord& c) const;

  /// Calls fn(direction, neighbor_coord) for every channel neighbour.
  template <typename Fn>
  void for_each_neighbor(const Coord& c, Fn&& fn) const {
    for (int i = 0; i < direction_count(); ++i) {
      const Direction d = Direction::from_index(i);
      const int e = extent(d.dim());
      const int v = c[d.dim()] + d.sign();
      if (v < 0 || v >= e) {
        if (!wraps(d.dim()) || e < 2) continue;
        fn(d, c.with(d.dim(), v < 0 ? e - 1 : 0));
        continue;
      }
      fn(d, d.apply(c));
    }
  }

  // --- coordinate grid (never wraps) ---------------------------------------
  // The fault-information constructions (labeling, identification, boundary
  // walls) operate on this graph so blocks stay axis-aligned boxes in
  // coordinate space on every topology.

  [[nodiscard]] bool has_grid_neighbor(const Coord& c, Direction dir) const;

  /// Calls fn(direction, neighbor_coord) for every in-grid neighbour,
  /// ignoring wraparound channels.
  template <typename Fn>
  void for_each_grid_neighbor(const Coord& c, Fn&& fn) const {
    for (int i = 0; i < direction_count(); ++i) {
      const Direction d = Direction::from_index(i);
      const int v = c[d.dim()] + d.sign();
      if (v < 0 || v >= extent(d.dim())) continue;
      fn(d, d.apply(c));
    }
  }

  // --- minimal-hop metric ---------------------------------------------------

  /// Channel-graph distance along one dimension: |a-b|, or the shorter way
  /// around when the dimension wraps.
  [[nodiscard]] int axis_distance(int dim, int a, int b) const {
    int d = a - b;
    if (d < 0) d = -d;
    if (!wraps(dim)) return d;
    const int around = extent(dim) - d;
    return around < d ? around : d;
  }

  /// Sign of the (a) shorter way along `dim` from `from` to `to`: +1 or -1,
  /// 0 when the coordinates agree.  A wraparound tie (both ways equal)
  /// resolves to +1, keeping routing deterministic.
  [[nodiscard]] int axis_step_sign(int dim, int from, int to) const;

  /// Channel-graph minimal hops between two addresses (the fault-free
  /// distance oracle; equals the Manhattan distance on a mesh).
  [[nodiscard]] int min_hops(const Coord& a, const Coord& b) const;

  /// Directions from u toward d that reduce min_hops — the *preferred*
  /// directions; all others are *spare* (Section 2.1).  A wraparound tie
  /// makes both directions of that dimension preferred.
  [[nodiscard]] std::vector<Direction> preferred_directions(const Coord& u,
                                                            const Coord& d) const;

  // --- boundary predicates --------------------------------------------------

  /// True if `c` lies on the outmost surface of the grid: some coordinate at
  /// 0 or extent-1 in a *non-wrapped* dimension.  Section 5 assumes no fault
  /// occurs there; on a torus every dimension wraps, so no node is on an
  /// outer surface and the assumption is vacuous.
  [[nodiscard]] bool on_outer_surface(const Coord& c) const;

  /// Clamps a box to the grid bounds.
  [[nodiscard]] Box clip(const Box& b) const;

 protected:
  /// `wrap_mask` bit i set = dimension i wraps; `concentration` terminals
  /// per router (>= 1).
  Topology(std::vector<int> extents, uint32_t wrap_mask, int concentration);
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;

 private:
  std::vector<int> extents_;
  std::vector<long long> strides_;
  long long node_count_ = 0;
  uint32_t wrap_mask_ = 0;
  int concentration_ = 1;
};

/// The paper's substrate: k-ary n-D mesh, no wraparound.
class MeshTopology final : public Topology {
 public:
  /// k-ary n-D mesh: `dims` dimensions of radix `radix` each.
  MeshTopology(int dims, int radix);

  /// Mixed-radix mesh, extents[i] nodes along dimension i.
  explicit MeshTopology(std::vector<int> extents);

  [[nodiscard]] std::string name() const override { return "mesh"; }
  [[nodiscard]] std::unique_ptr<Topology> clone() const override {
    return std::make_unique<MeshTopology>(*this);
  }
};

/// k-ary n-D torus: wraparound channels in every dimension.
class TorusTopology final : public Topology {
 public:
  TorusTopology(int dims, int radix);
  explicit TorusTopology(std::vector<int> extents);

  [[nodiscard]] std::string name() const override { return "torus"; }
  [[nodiscard]] std::unique_ptr<Topology> clone() const override {
    return std::make_unique<TorusTopology>(*this);
  }
};

/// Concentrated mesh: `concentration` terminals share each router of a plain
/// mesh grid.  Traffic injection runs per terminal (concentration Bernoulli
/// draws per router per step) and loads normalize by terminal_count();
/// express channels are a possible later extension.
class CMeshTopology final : public Topology {
 public:
  CMeshTopology(int dims, int radix, int concentration);
  CMeshTopology(std::vector<int> extents, int concentration);

  [[nodiscard]] std::string name() const override { return "cmesh"; }
  [[nodiscard]] std::unique_ptr<Topology> clone() const override {
    return std::make_unique<CMeshTopology>(*this);
  }
};

}  // namespace lgfi
