#pragma once
// Packed in-grid boxes: the identification process's running hulls and
// section results in two words.  Not part of the public API.
//
// Every coordinate the identification process (identification.cpp) hulls
// is a level-entry anchor, hence a grid node, so each of its boxes has both
// corners inside the grid.  Such a box packs into two uint64_t words: `lo`
// holds the low corner and `hi` the high corner, one bit field per
// dimension.  Dimension d's field is ceil(log2(extent_d)) bits wide (an
// extent-1 dimension takes none), dimension 0 in the lowest bits.  A
// Topology has at most kMaxNodeCount = 2^31 - 1 nodes, and ceil(log2 e) <
// log2 e + 1 for every extent e, so the widths sum to fewer than 31 + n <= 39
// bits.
//
// Packing is injective on in-grid boxes, so word equality is Box equality.
// A hull is a field-by-field min/max on the words, in place: no Coord or
// point Box is built.  A packed box is never empty; the process unpacks to
// a Box only where block information forms and for its trace output.

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

#include "src/mesh/box.h"
#include "src/mesh/coordinates.h"
#include "src/mesh/topology.h"

namespace lgfi {

struct PackedBox {
  uint64_t lo = 0;  ///< low corner, one field per dimension
  uint64_t hi = 0;  ///< high corner, same layout
  friend bool operator==(const PackedBox&, const PackedBox&) = default;
};

/// The field layout of one grid; derived once per fault model.
class BoxPacking {
 public:
  explicit BoxPacking(const Topology& grid) : dims_(grid.dims()) {
    int offset = 0;
    for (int d = 0; d < dims_; ++d) {
      const auto e = static_cast<uint32_t>(grid.extent(d));
      const int width = std::bit_width(e - 1);  // ceil(log2(e)); 0 for e == 1
      const auto k = static_cast<size_t>(d);
      extent_[k] = grid.extent(d);
      shift_[k] = static_cast<uint8_t>(offset);
      mask_[k] = ((uint64_t{1} << width) - 1) << offset;
      offset += width;
    }
    assert(offset < 31 + dims_);
    bits_ = offset;
  }

  /// Total field bits of this grid (fewer than 31 + dims).
  [[nodiscard]] int bits() const { return bits_; }

  /// The box holding only grid node `c`.
  [[nodiscard]] PackedBox point(const Coord& c) const {
    const uint64_t w = word(c);
    return {w, w};
  }

  /// Pre: `b` is non-empty and both its corners are grid nodes.
  [[nodiscard]] PackedBox pack(const Box& b) const {
    assert(!b.empty());
    return {word(b.lo()), word(b.hi())};
  }

  [[nodiscard]] Box unpack(PackedBox p) const {
    Coord lo(dims_);
    Coord hi(dims_);
    for (int d = 0; d < dims_; ++d) {
      lo[d] = field(p.lo, d);
      hi[d] = field(p.hi, d);
    }
    return Box(lo, hi);
  }

  /// The smallest box holding `p` and grid node `c`.
  [[nodiscard]] PackedBox hull(PackedBox p, const Coord& c) const {
    assert(c.size() == dims_);
    for (int d = 0; d < dims_; ++d) {
      const uint64_t m = mask_[static_cast<size_t>(d)];
      const uint64_t v = in_place(c, d);
      if ((p.lo & m) > v) p.lo = (p.lo & ~m) | v;
      if ((p.hi & m) < v) p.hi = (p.hi & ~m) | v;
    }
    return p;
  }

  /// The smallest box holding both.
  [[nodiscard]] PackedBox hull(PackedBox a, PackedBox b) const {
    for (int d = 0; d < dims_; ++d) {
      const uint64_t m = mask_[static_cast<size_t>(d)];
      if ((b.lo & m) < (a.lo & m)) a.lo = (a.lo & ~m) | (b.lo & m);
      if ((b.hi & m) > (a.hi & m)) a.hi = (a.hi & ~m) | (b.hi & m);
    }
    return a;
  }

 private:
  /// Component `d` of grid node `c`, shifted into its field.
  [[nodiscard]] uint64_t in_place(const Coord& c, int d) const {
    const auto k = static_cast<size_t>(d);
    assert(c[d] >= 0 && c[d] < extent_[k]);
    return static_cast<uint64_t>(c[d]) << shift_[k];
  }
  [[nodiscard]] uint64_t word(const Coord& c) const {
    assert(c.size() == dims_);
    uint64_t w = 0;
    for (int d = 0; d < dims_; ++d) w |= in_place(c, d);
    return w;
  }
  [[nodiscard]] int field(uint64_t w, int d) const {
    const auto k = static_cast<size_t>(d);
    return static_cast<int>((w & mask_[k]) >> shift_[k]);
  }

  int dims_ = 0;
  int bits_ = 0;
  std::array<int, kMaxDims> extent_{};
  std::array<uint8_t, kMaxDims> shift_{};
  std::array<uint64_t, kMaxDims> mask_{};  ///< each field's bits, in place
};

}  // namespace lgfi
