// Packed in-grid boxes (src/fault/packed_box.h) against Box: pack then
// unpack returns the box, both hulls unpack to Box::hull, and packed
// equality holds exactly when Box equality does.  Seeded random grids cover
// n = 1..8, mixed radix, extent-1 dimensions and power-of-two extents that
// fill their field; the widest grids a Topology accepts cover the width
// bound.

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/packed_box.h"
#include "src/mesh/box.h"
#include "src/mesh/topology.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

/// ceil(log2(e)) summed over the extents, by counting: the packing's width
/// rule computed without bit tricks.
int expected_bits(const Topology& grid) {
  int bits = 0;
  for (int d = 0; d < grid.dims(); ++d) {
    int w = 0;
    while ((1ll << w) < grid.extent(d)) ++w;
    bits += w;
  }
  return bits;
}

/// A random grid node; a coordinate lands on 0 or extent-1 half the time,
/// so fields at their ends (and full fields, for power-of-two extents) are
/// common.
Coord random_node(const Topology& grid, Rng& rng) {
  Coord c(grid.dims());
  for (int d = 0; d < grid.dims(); ++d) {
    const int top = grid.extent(d) - 1;
    switch (rng.next_below(4)) {
      case 0: c[d] = 0; break;
      case 1: c[d] = top; break;
      default: c[d] = rng.uniform_int(0, top);
    }
  }
  return c;
}

Box random_box(const Topology& grid, Rng& rng) {
  return Box(random_node(grid, rng), random_node(grid, rng));
}

/// `b` with one corner coordinate moved by one inside the grid, if any can.
Box nudged(const Box& b, const Topology& grid, Rng& rng) {
  const int d = rng.uniform_int(0, grid.dims() - 1);
  if (grid.extent(d) == 1) return b;
  Coord lo = b.lo();
  Coord hi = b.hi();
  Coord& corner = rng.bernoulli(0.5) ? lo : hi;
  corner[d] += corner[d] + 1 < grid.extent(d) ? 1 : -1;
  return Box(lo, hi);
}

void check_grid(const Topology& grid, Rng& rng, int samples) {
  SCOPED_TRACE(testing::Message() << "grid " << grid.bounds());
  const BoxPacking packing(grid);
  ASSERT_EQ(packing.bits(), expected_bits(grid));
  ASSERT_LT(packing.bits(), 31 + grid.dims());
  for (int s = 0; s < samples; ++s) {
    const Box a = random_box(grid, rng);
    const Box b = rng.bernoulli(0.25) ? nudged(a, grid, rng) : random_box(grid, rng);
    const Coord c = random_node(grid, rng);
    const PackedBox pa = packing.pack(a);
    const PackedBox pb = packing.pack(b);
    ASSERT_EQ(packing.unpack(pa), a) << a;
    ASSERT_EQ(packing.unpack(packing.point(c)), Box::point(c)) << c;
    ASSERT_EQ(packing.unpack(packing.hull(pa, c)), a.hull(c)) << a << " + " << c;
    ASSERT_EQ(packing.unpack(packing.hull(pa, pb)), a.hull(b)) << a << " + " << b;
    ASSERT_EQ(pa == pb, a == b) << a << " vs " << b;
    ASSERT_TRUE(packing.pack(Box(a.hi(), a.lo())) == pa) << a;
  }
}

TEST(PackedBox, MatchesBoxOnRandomGrids) {
  Rng rng(25);
  for (int g = 0; g < 400; ++g) {
    const int n = 1 + g % kMaxDims;
    std::vector<int> extents(static_cast<size_t>(n));
    do {
      for (int& e : extents) {
        switch (rng.next_below(4)) {
          case 0: e = 1; break;
          case 1: e = 1 << rng.uniform_int(1, 12); break;  // fills its field
          default: e = rng.uniform_int(2, 3000);
        }
      }
    } while (!grid_fits(extents));
    check_grid(MeshTopology(extents), rng, 200);
  }
}

TEST(PackedBox, MatchesBoxOnTheWidestGrids) {
  Rng rng(7);
  const MeshTopology square(std::vector<int>{46340, 46340});
  const MeshTopology lopsided(std::vector<int>{2, 1073741823});
  const MeshTopology line(std::vector<int>{static_cast<int>(kMaxNodeCount)});
  EXPECT_EQ(BoxPacking(square).bits(), 32);
  EXPECT_EQ(BoxPacking(lopsided).bits(), 31);
  EXPECT_EQ(BoxPacking(line).bits(), 31);
  check_grid(square, rng, 5000);
  check_grid(lopsided, rng, 5000);
  check_grid(line, rng, 5000);
}

TEST(PackedBox, TorusPacksLikeItsGrid) {
  // Packing reads only the coordinate grid, never the wraparound channels.
  Rng rng(3);
  check_grid(TorusTopology(std::vector<int>{8, 6, 5, 4}), rng, 2000);
}

}  // namespace
}  // namespace lgfi
