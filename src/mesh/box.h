#pragma once
// Axis-aligned integer boxes.
//
// Faulty blocks in the paper are rectangular regions [lo_1:hi_1, ...,
// lo_n:hi_n] (Section 2.2); their *envelope* — the adjacent nodes, edges and
// corners of Definitions 2 and 3 — is the box inflated by one in every
// dimension.  Box is the geometric workhorse shared by the fault model, the
// boundary model and the detour analysis.

#include <algorithm>
#include <cassert>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/mesh/coordinates.h"

namespace lgfi {

/// Closed integer box [lo_i, hi_i] per dimension.  Empty iff default
/// constructed (dims() == 0) or any hi_i < lo_i.
class Box {
 public:
  Box() = default;

  /// Box spanning exactly the two corner points (per-dimension min/max).
  Box(const Coord& a, const Coord& b);

  /// Degenerate box containing the single node `c`.
  static Box point(const Coord& c);

  [[nodiscard]] int dims() const { return lo_.size(); }
  [[nodiscard]] const Coord& lo() const { return lo_; }
  [[nodiscard]] const Coord& hi() const { return hi_; }
  [[nodiscard]] int lo(int dim) const { return lo_[dim]; }
  [[nodiscard]] int hi(int dim) const { return hi_[dim]; }

  [[nodiscard]] bool empty() const {
    if (dims() == 0) return true;
    for (int i = 0; i < dims(); ++i)
      if (hi_[i] < lo_[i]) return true;
    return false;
  }

  /// Extent along `dim`: hi - lo + 1 node positions.
  [[nodiscard]] int extent(int dim) const { return hi_[dim] - lo_[dim] + 1; }

  /// Number of nodes contained (product of extents).
  [[nodiscard]] long long volume() const;

  /// The paper's e_max for this block: maximum edge length over dimensions
  /// (Table 1, "maximum length of edges of blocks").
  [[nodiscard]] int max_extent() const;

  [[nodiscard]] bool contains(const Coord& c) const;
  [[nodiscard]] bool contains(const Box& other) const;
  [[nodiscard]] bool intersects(const Box& other) const;
  [[nodiscard]] std::optional<Box> intersection(const Box& other) const;

  /// Smallest box containing both; used when accumulating block extents
  /// during the identification process.
  [[nodiscard]] Box hull(const Box& other) const {
    if (empty()) return other;
    if (other.empty()) return *this;
    assert(dims() == other.dims());
    Box r = *this;
    for (int i = 0; i < dims(); ++i) {
      r.lo_[i] = std::min(lo_[i], other.lo_[i]);
      r.hi_[i] = std::max(hi_[i], other.hi_[i]);
    }
    return r;
  }
  /// Same as hull(Box::point(c)).
  [[nodiscard]] Box hull(const Coord& c) const {
    if (empty()) return point(c);
    if (c.size() == 0) return *this;
    assert(dims() == c.size());
    Box r = *this;
    for (int i = 0; i < dims(); ++i) {
      r.lo_[i] = std::min(lo_[i], c[i]);
      r.hi_[i] = std::max(hi_[i], c[i]);
    }
    return r;
  }

  /// Box inflated by `amount` in every direction — the block's envelope for
  /// amount == 1 (Definition 3's "one unit distance away").
  [[nodiscard]] Box inflated(int amount) const;

  /// True if `a` and `b` touch (Chebyshev distance <= 1), i.e. their unions
  /// would form one connected disabled region's bounding volume.
  [[nodiscard]] bool touches(const Box& other) const;

  /// Enumerates every coordinate inside the box in lexicographic order.
  [[nodiscard]] std::vector<Coord> all_coords() const;

  /// Calls fn(coord) for every node in the box (no allocation).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (empty()) return;
    Coord c = lo_;
    for (;;) {
      fn(static_cast<const Coord&>(c));
      int d = dims() - 1;
      while (d >= 0) {
        if (c[d] < hi_[d]) {
          ++c[d];
          break;
        }
        c[d] = lo_[d];
        --d;
      }
      if (d < 0) break;
    }
  }

  /// "[3:5, 5:6, 3:4]" — the block notation used in the paper.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Box& a, const Box& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }
  friend bool operator!=(const Box& a, const Box& b) { return !(a == b); }
  friend bool operator<(const Box& a, const Box& b) {
    if (a.lo_ != b.lo_) return a.lo_ < b.lo_;
    return a.hi_ < b.hi_;
  }

 private:
  Coord lo_;
  Coord hi_;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// The box of all minimal (monotone) paths between u and v: every shortest
/// path from u to v stays inside Rect(u, v).  Central to the Theorem 2 safety
/// test and the critical-routing predicate.
Box minimal_path_box(const Coord& u, const Coord& v);

}  // namespace lgfi
