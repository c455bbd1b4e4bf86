#include "src/fault/corner_taxonomy.h"

#include <algorithm>
#include <cassert>

namespace lgfi {

EnvelopeClass classify_against_block(const Coord& c, const Box& box) {
  EnvelopeClass e;
  assert(c.size() == box.dims());
  bool in_all = true;
  bool in_shell = true;
  for (int d = 0; d < box.dims(); ++d) {
    const int v = c[d];
    if (v >= box.lo(d) && v <= box.hi(d)) continue;
    in_all = false;
    if (v == box.lo(d) - 1 || v == box.hi(d) + 1) {
      e.out_dim_list[static_cast<size_t>(e.out_dims)] = d;
      e.out_side_positive[static_cast<size_t>(e.out_dims)] = v > box.hi(d);
      ++e.out_dims;
    } else {
      in_shell = false;
    }
  }
  e.inside = in_all;
  e.on_envelope = !in_all && in_shell;
  return e;
}

int corner_level(const Coord& c, const Box& box) {
  assert(c.size() == box.dims());
  int out = 0;  // stays 0 inside the box
  for (int d = 0; d < box.dims(); ++d) {
    const int v = c[d];
    if (v >= box.lo(d) && v <= box.hi(d)) continue;
    if (v != box.lo(d) - 1 && v != box.hi(d) + 1) return 0;  // off the shell
    ++out;
  }
  return out;
}

std::vector<Coord> envelope_positions(const Topology& mesh, const Box& box, int m) {
  std::vector<Coord> out;
  const Box shell = mesh.clip(box.inflated(1));
  shell.for_each([&](const Coord& c) {
    const EnvelopeClass e = classify_against_block(c, box);
    if (!e.on_envelope) return;
    if (m == 0 || e.out_dims == m) out.push_back(c);
  });
  return out;
}

std::vector<Coord> block_corners(const Topology& mesh, const Box& box) {
  return envelope_positions(mesh, box, box.dims());
}

std::vector<Coord> surface_positions(const Topology& mesh, const Box& box, Surface s) {
  std::vector<Coord> out;
  const int coord = s.positive ? box.hi(s.dim) + 1 : box.lo(s.dim) - 1;
  if (coord < 0 || coord >= mesh.extent(s.dim)) return out;
  Box face = box;  // the face: in-range in every dim except s.dim
  face.for_each([&](const Coord& c) {
    const Coord p = c.with(s.dim, coord);
    if (mesh.in_bounds(p)) out.push_back(p);
  });
  // for_each over `box` iterates the full box; dedupe to the face by fixing
  // s.dim — equivalent and simpler: collapse duplicates.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Coord> surface_edge_positions(const Topology& mesh, const Box& box, Surface s) {
  std::vector<Coord> out;
  const int coord = s.positive ? box.hi(s.dim) + 1 : box.lo(s.dim) - 1;
  if (coord < 0 || coord >= mesh.extent(s.dim)) return out;
  // Perimeter of the inflated cross-section with exactly one cross-dim out
  // by one ("except for the corner").
  const Box shell = mesh.clip(box.inflated(1));
  shell.for_each([&](const Coord& c) {
    if (c[s.dim] != coord) return;
    const EnvelopeClass e = classify_against_block(c, box);
    if (!e.on_envelope || e.out_dims != 2) return;
    // One of the two out dims must be s.dim itself (the surface side).
    const bool surface_out =
        (e.out_dim_list[0] == s.dim && e.out_side_positive[0] == s.positive) ||
        (e.out_dim_list[1] == s.dim && e.out_side_positive[1] == s.positive);
    if (surface_out) out.push_back(c);
  });
  return out;
}

std::vector<int> definition2_levels(const StatusField& field, const Box& box) {
  const Topology& mesh = field.mesh();
  const long long n = field.node_count();
  std::vector<int> level(static_cast<size_t>(n), 0);

  // Every positive level lives on the inflated-box shell: a level-1 node is
  // grid-adjacent to a member of `box`, and by induction a level-m node needs
  // level-(m-1) neighbours in m distinct dims, which is impossible more than
  // one step outside the box.  Scanning the shell instead of the whole mesh
  // makes this O(|box surface|), independent of node count.
  const Box shell = mesh.clip(box.inflated(1));

  // Level 1: enabled node with a neighbour that is a member of this block.
  shell.for_each([&](const Coord& c) {
    const NodeId id = mesh.index_of(c);
    if (field.at(id) != NodeStatus::kEnabled) return;
    bool adjacent = false;
    mesh.for_each_grid_neighbor(c, [&](Direction, const Coord& nb) {
      if (is_block_member(field.at(nb)) && box.contains(nb)) adjacent = true;
    });
    if (adjacent) level[static_cast<size_t>(id)] = 1;
  });

  // Level m: enabled node with m neighbours of level m-1 in different dims.
  // Iterate levels upward; a node's level is the highest m it satisfies.
  for (int m = 2; m <= mesh.dims(); ++m) {
    std::vector<std::pair<size_t, int>> upgrades;
    shell.for_each([&](const Coord& c) {
      const NodeId id = mesh.index_of(c);
      if (field.at(id) != NodeStatus::kEnabled) return;
      if (level[static_cast<size_t>(id)] != 0) return;  // already classified
      int dims_with = 0;
      for (int d = 0; d < mesh.dims(); ++d) {
        bool hit = false;
        for (int sign : {-1, +1}) {
          const int v = c[d] + sign;
          if (v < 0 || v >= mesh.extent(d)) continue;
          if (level[static_cast<size_t>(mesh.index_of(c.with(d, v)))] == m - 1) hit = true;
        }
        if (hit) ++dims_with;
      }
      if (dims_with >= m) upgrades.emplace_back(static_cast<size_t>(id), m);
    });
    for (const auto& [idx, lvl] : upgrades) level[idx] = lvl;
  }
  return level;
}

}  // namespace lgfi
