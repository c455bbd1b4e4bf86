#include "src/mesh/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lgfi {

bool grid_fits(const std::vector<int>& extents, int concentration) {
  long long count = concentration;
  for (int e : extents) {
    if (count > kMaxNodeCount / e) return false;
    count *= e;
  }
  return true;
}

Topology::Topology(std::vector<int> extents, uint32_t wrap_mask, int concentration)
    : extents_(std::move(extents)), wrap_mask_(wrap_mask), concentration_(concentration) {
  if (extents_.empty() || extents_.size() > static_cast<size_t>(kMaxDims))
    throw std::invalid_argument("topology dimensionality must be in [1, kMaxDims]");
  for (int e : extents_)
    if (e < 1) throw std::invalid_argument("topology extent must be positive");
  if (concentration_ < 1) throw std::invalid_argument("concentration must be >= 1");
  if (!grid_fits(extents_, concentration_))
    throw std::invalid_argument("topology has more than " + std::to_string(kMaxNodeCount) +
                                " nodes or terminals (node ids and terminal slots are 32-bit)");
  strides_.assign(extents_.size(), 1);
  node_count_ = 1;
  for (int i = dims() - 1; i >= 0; --i) {
    strides_[static_cast<size_t>(i)] = node_count_;
    node_count_ *= extents_[static_cast<size_t>(i)];
  }
}

int Topology::diameter() const {
  int d = 0;
  for (int i = 0; i < dims(); ++i) d += wraps(i) ? extent(i) / 2 : extent(i) - 1;
  return d;
}

Box Topology::bounds() const {
  Coord lo(dims());
  Coord hi(dims());
  for (int i = 0; i < dims(); ++i) hi[i] = extent(i) - 1;
  return Box(lo, hi);
}

NodeId Topology::neighbor(NodeId id, Direction dir) const {
  return neighbor(id, coord_of(id), dir);
}

bool Topology::has_neighbor(const Coord& c, Direction dir) const {
  const int e = extent(dir.dim());
  const int v = c[dir.dim()] + dir.sign();
  if (v >= 0 && v < e) return true;
  return wraps(dir.dim()) && e >= 2;
}

Coord Topology::step(const Coord& c, Direction dir) const {
  const int e = extent(dir.dim());
  int v = c[dir.dim()] + dir.sign();
  if (v < 0) v += e;
  else if (v >= e) v -= e;
  return c.with(dir.dim(), v);
}

std::vector<Coord> Topology::neighbors(const Coord& c) const {
  std::vector<Coord> out;
  out.reserve(static_cast<size_t>(direction_count()));
  for_each_neighbor(c, [&out](Direction, const Coord& n) { out.push_back(n); });
  return out;
}

bool Topology::has_grid_neighbor(const Coord& c, Direction dir) const {
  const int v = c[dir.dim()] + dir.sign();
  return v >= 0 && v < extent(dir.dim());
}

int Topology::axis_step_sign(int dim, int from, int to) const {
  if (from == to) return 0;
  if (!wraps(dim)) return to > from ? 1 : -1;
  const int e = extent(dim);
  const int fwd = ((to - from) % e + e) % e;  // hops going +1 per step
  const int bwd = e - fwd;                    // hops going -1 per step
  return fwd <= bwd ? 1 : -1;
}

int Topology::min_hops(const Coord& a, const Coord& b) const {
  int total = 0;
  for (int i = 0; i < dims(); ++i) total += axis_distance(i, a[i], b[i]);
  return total;
}

std::vector<Direction> Topology::preferred_directions(const Coord& u, const Coord& d) const {
  std::vector<Direction> out;
  for (int i = 0; i < dims(); ++i) {
    if (u[i] == d[i]) continue;
    if (!wraps(i)) {
      out.emplace_back(i, u[i] < d[i]);
      continue;
    }
    const int e = extent(i);
    const int fwd = ((d[i] - u[i]) % e + e) % e;
    const int bwd = e - fwd;
    // On a wraparound tie both ways are minimal; the negative direction comes
    // first to match dense direction-index order.
    if (fwd == bwd) {
      out.emplace_back(i, false);
      out.emplace_back(i, true);
    } else {
      out.emplace_back(i, fwd < bwd);
    }
  }
  return out;
}

bool Topology::on_outer_surface(const Coord& c) const {
  for (int i = 0; i < dims(); ++i) {
    if (wraps(i)) continue;
    if (c[i] == 0 || c[i] == extent(i) - 1) return true;
  }
  return false;
}

Box Topology::clip(const Box& b) const {
  if (b.empty()) return b;
  auto r = bounds().intersection(b);
  return r ? *r : Box();
}

MeshTopology::MeshTopology(int dims, int radix)
    : MeshTopology(std::vector<int>(static_cast<size_t>(dims), radix)) {}

MeshTopology::MeshTopology(std::vector<int> extents)
    : Topology(std::move(extents), /*wrap_mask=*/0, /*concentration=*/1) {}

TorusTopology::TorusTopology(int dims, int radix)
    : TorusTopology(std::vector<int>(static_cast<size_t>(dims), radix)) {}

TorusTopology::TorusTopology(std::vector<int> extents)
    : Topology(std::move(extents), /*wrap_mask=*/0xffffffffu, /*concentration=*/1) {}

CMeshTopology::CMeshTopology(int dims, int radix, int concentration)
    : CMeshTopology(std::vector<int>(static_cast<size_t>(dims), radix), concentration) {}

CMeshTopology::CMeshTopology(std::vector<int> extents, int concentration)
    : Topology(std::move(extents), /*wrap_mask=*/0, concentration) {}

}  // namespace lgfi
