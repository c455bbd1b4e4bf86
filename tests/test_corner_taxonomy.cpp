// Tests for the envelope taxonomy (Definitions 2 and 3), including the
// paper's Figure 2 example and the equivalence of the geometric and
// recursive-textual classifications.

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/corner_taxonomy.h"
#include "src/fault/labeling.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

const Box kFig1Block(Coord{3, 5, 3}, Coord{5, 6, 4});  // [3:5, 5:6, 3:4]

TEST(CornerTaxonomy, Figure2ThreeLevelCorner) {
  // "Figure 2 shows the definition of a 3-level corner of block
  //  [3:5, 5:6, 3:4]: (6,4,5). It has three 3-level edge neighbors:
  //  (5,4,5), (6,5,5) and (6,4,4)."
  EXPECT_EQ(corner_level(Coord{6, 4, 5}, kFig1Block), 3);
  EXPECT_EQ(corner_level(Coord{5, 4, 5}, kFig1Block), 2);  // 3-level edge node
  EXPECT_EQ(corner_level(Coord{6, 5, 5}, kFig1Block), 2);
  EXPECT_EQ(corner_level(Coord{6, 4, 4}, kFig1Block), 2);
  // "Each 3-level edge node is a 2-level corner and has two neighbors
  //  adjacent to the block. For example, (5,4,5) has neighbors (5,5,5) and
  //  (5,4,4) adjacent to the block."
  EXPECT_EQ(corner_level(Coord{5, 5, 5}, kFig1Block), 1);
  EXPECT_EQ(corner_level(Coord{5, 4, 4}, kFig1Block), 1);
}

TEST(CornerTaxonomy, ClassifyInsideOutsideEnvelope) {
  const auto inside = classify_against_block(Coord{4, 5, 3}, kFig1Block);
  EXPECT_TRUE(inside.inside);
  EXPECT_FALSE(inside.on_envelope);

  const auto far = classify_against_block(Coord{0, 0, 0}, kFig1Block);
  EXPECT_FALSE(far.inside);
  EXPECT_FALSE(far.on_envelope);

  const auto face = classify_against_block(Coord{2, 5, 3}, kFig1Block);
  EXPECT_TRUE(face.on_envelope);
  EXPECT_EQ(face.out_dims, 1);
  EXPECT_EQ(face.out_dim_list[0], 0);
  EXPECT_FALSE(face.out_side_positive[0]);
}

TEST(CornerTaxonomy, ClassificationMatchesBruteForceOnRandomBoxes) {
  // Every position of box.inflated(2) against a reference that reads each
  // dimension's distance below lo and above hi, for seeded random boxes
  // in 2-D to 6-D (extents 1-3, some reaching negative coordinates).
  Rng rng(30);
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      Coord lo(n);
      Coord hi(n);
      for (int d = 0; d < n; ++d) {
        lo[d] = rng.uniform_int(-3, 5);
        hi[d] = lo[d] + rng.uniform_int(0, 2);
      }
      const Box box(lo, hi);
      long long positions = 0;
      box.inflated(2).for_each([&](const Coord& c) {
        ++positions;
        bool inside = true;
        bool off_shell = false;
        std::vector<int> dims;
        std::vector<bool> sides;
        for (int d = 0; d < n; ++d) {
          const int below = box.lo(d) - c[d];
          const int above = c[d] - box.hi(d);
          if (below <= 0 && above <= 0) continue;
          inside = false;
          if (below == 1 || above == 1) {
            dims.push_back(d);
            sides.push_back(above == 1);
          } else {
            off_shell = true;
          }
        }
        const bool on_envelope = !inside && !off_shell;
        const int out_dims = static_cast<int>(dims.size());

        const EnvelopeClass e = classify_against_block(c, box);
        ASSERT_EQ(e.inside, inside) << c.to_string() << " vs " << box.to_string();
        ASSERT_EQ(e.on_envelope, on_envelope) << c.to_string() << " vs " << box.to_string();
        ASSERT_EQ(e.out_dims, out_dims) << c.to_string() << " vs " << box.to_string();
        for (int k = 0; k < out_dims; ++k) {
          ASSERT_EQ(e.out_dim_list[static_cast<size_t>(k)], dims[static_cast<size_t>(k)]);
          ASSERT_EQ(e.out_side_positive[static_cast<size_t>(k)], sides[static_cast<size_t>(k)]);
        }
        ASSERT_EQ(corner_level(c, box), on_envelope ? out_dims : 0)
            << c.to_string() << " vs " << box.to_string();
      });
      long long expected = 1;
      for (int d = 0; d < n; ++d) expected *= box.extent(d) + 4;
      EXPECT_EQ(positions, expected);
    }
  }
}

TEST(CornerTaxonomy, CornerCountIs2PowN) {
  const MeshTopology m(3, 10);
  EXPECT_EQ(block_corners(m, kFig1Block).size(), 8u);

  const MeshTopology m4(4, 8);
  const Box b(Coord{2, 2, 2, 2}, Coord{3, 4, 3, 2});
  EXPECT_EQ(block_corners(m4, b).size(), 16u);
}

TEST(CornerTaxonomy, EnvelopeDecomposesByOutDims) {
  // In 3-D: faces = 2(ab+bc+ca), edges = 4(a+b+c), corners = 8 for a block
  // of extents a x b x c.
  const MeshTopology m(3, 12);
  const Box b(Coord{4, 4, 4}, Coord{6, 5, 7});  // extents 3, 2, 4
  const auto faces = envelope_positions(m, b, 1);
  const auto edges = envelope_positions(m, b, 2);
  const auto corners = envelope_positions(m, b, 3);
  EXPECT_EQ(faces.size(), 2u * (3 * 2 + 2 * 4 + 3 * 4));
  EXPECT_EQ(edges.size(), 4u * (3 + 2 + 4));
  EXPECT_EQ(corners.size(), 8u);
  EXPECT_EQ(envelope_positions(m, b).size(), faces.size() + edges.size() + corners.size());
}

TEST(CornerTaxonomy, EnvelopeClippedAtMeshSurface) {
  const MeshTopology m(2, 8);
  const Box b(Coord{1, 1}, Coord{2, 2});  // envelope touches x=0 / y=0
  const auto corners = block_corners(m, b);
  EXPECT_EQ(corners.size(), 4u);  // (0,0) still in bounds
  const Box edge_block(Coord{0, 3}, Coord{1, 4});  // interior rule violated on purpose
  EXPECT_EQ(block_corners(m, edge_block).size(), 2u) << "corners at x=-1 are clipped";
}

TEST(CornerTaxonomy, SurfacePositionsMatchDefinition3) {
  const MeshTopology m(3, 10);
  // S1/S4 pair: dim 1, negative/positive.  "Surfaces S1 and S4 are parallel
  // to plane Y = 0 with S1 on the south side of S4."
  const auto s1 = surface_positions(m, kFig1Block, Surface{1, false});
  const auto s4 = surface_positions(m, kFig1Block, Surface{1, true});
  EXPECT_EQ(s1.size(), 3u * 2u);  // x extent * z extent
  EXPECT_EQ(s4.size(), 3u * 2u);
  for (const auto& c : s1) EXPECT_EQ(c[1], 4);  // lo_y - 1
  for (const auto& c : s4) EXPECT_EQ(c[1], 7);  // hi_y + 1

  EXPECT_EQ((Surface{1, false}.paper_index(3)), 1);
  EXPECT_EQ((Surface{1, true}.paper_index(3)), 4);
  EXPECT_EQ((Surface{1, false}.opposite()), (Surface{1, true}));
}

TEST(CornerTaxonomy, SurfaceEdgesExcludeCorners) {
  // "the boundary for S4 starts from the edges of S1 (except for the
  // corner)" — edge positions have exactly one extra out-dimension.
  const MeshTopology m(3, 10);
  const auto edges = surface_edge_positions(m, kFig1Block, Surface{1, false});
  // Perimeter of a 3 x 2 face: 2*(3+2) ring positions minus 4 corners... the
  // ring of out-by-one positions around a 3x2 face has 2*3 + 2*2 = 10 nodes.
  EXPECT_EQ(edges.size(), 10u);
  for (const auto& c : edges) {
    EXPECT_EQ(c[1], 4);
    EXPECT_EQ(corner_level(c, kFig1Block), 2);
  }
}

TEST(CornerTaxonomy, Definition2MatchesGeometry) {
  // The recursive textual definition and the out-by-m geometric rule agree
  // on a stabilized field.
  const MeshTopology m(3, 10);
  const StatusField f = stabilized_field(
      m, {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}});
  const auto levels = definition2_levels(f, kFig1Block);
  for (NodeId id = 0; id < f.node_count(); ++id) {
    const Coord c = m.coord_of(id);
    const int geometric = f.at(id) == NodeStatus::kEnabled ? corner_level(c, kFig1Block) : 0;
    EXPECT_EQ(levels[static_cast<size_t>(id)], geometric) << "at " << c.to_string();
  }
}

TEST(CornerTaxonomy, Definition2MatchesGeometryIn4D) {
  const MeshTopology m(4, 6);
  std::vector<Coord> faults;
  Box block(Coord{2, 2, 2, 2}, Coord{3, 3, 2, 3});
  block.for_each([&](const Coord& c) { faults.push_back(c); });
  const StatusField f = stabilized_field(m, faults);
  const auto levels = definition2_levels(f, block);
  long long corners4 = 0;
  for (NodeId id = 0; id < f.node_count(); ++id) {
    const Coord c = m.coord_of(id);
    const int geometric = f.at(id) == NodeStatus::kEnabled ? corner_level(c, block) : 0;
    EXPECT_EQ(levels[static_cast<size_t>(id)], geometric) << "at " << c.to_string();
    if (geometric == 4) ++corners4;
  }
  EXPECT_EQ(corners4, 16);
}

}  // namespace
}  // namespace lgfi
