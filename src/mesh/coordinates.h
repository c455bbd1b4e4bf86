#pragma once
// Coordinates for k-ary n-dimensional meshes.
//
// The paper addresses every node u of an n-D mesh as (u_1, u_2, ..., u_n)
// with 0 <= u_i <= k-1 (Section 2.1).  `Coord` is a small value type holding
// such an address for a runtime-chosen dimensionality n (2 <= n <= kMaxDims).
// All mesh, fault-model and routing code is dimension-generic and works on
// these values; nothing in the library is specialized to 2-D or 3-D.

#include <array>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>

namespace lgfi {

/// Maximum supported mesh dimensionality.  The paper treats n = 2, 3, ...;
/// eight dimensions is far beyond any mesh the analysis contemplates and
/// keeps Coord a small, trivially copyable value.
inline constexpr int kMaxDims = 8;

/// An n-dimensional integer coordinate (node address or offset).
///
/// Invariant: components at indices >= size() are zero, so equality and
/// hashing can operate on the whole array.
class Coord {
 public:
  Coord() = default;

  /// Zero coordinate of dimensionality `dims`.
  explicit Coord(int dims) : dims_(dims) { assert(dims >= 0 && dims <= kMaxDims); }

  /// Coordinate from an explicit component list, e.g. Coord{3, 5, 4}.
  Coord(std::initializer_list<int> components);

  [[nodiscard]] int size() const { return dims_; }

  [[nodiscard]] int operator[](int i) const { return c_[static_cast<size_t>(i)]; }
  [[nodiscard]] int& operator[](int i) { return c_[static_cast<size_t>(i)]; }

  /// Returns a copy with component `dim` replaced by `value`.
  [[nodiscard]] Coord with(int dim, int value) const {
    assert(dim >= 0 && dim < dims_);
    Coord r = *this;
    r.c_[static_cast<size_t>(dim)] = value;
    return r;
  }

  /// Returns a copy with component `dim` shifted by `delta`.
  [[nodiscard]] Coord shifted(int dim, int delta) const {
    assert(dim >= 0 && dim < dims_);
    Coord r = *this;
    r.c_[static_cast<size_t>(dim)] += delta;
    return r;
  }

  friend bool operator==(const Coord& a, const Coord& b) {
    return a.dims_ == b.dims_ && a.c_ == b.c_;
  }
  friend bool operator!=(const Coord& a, const Coord& b) { return !(a == b); }

  /// Lexicographic order; usable as a map key and for deterministic sorting.
  friend bool operator<(const Coord& a, const Coord& b);

  /// Manhattan distance D(u, v) = sum_i |u_i - v_i|  (Section 2.1).
  friend int manhattan_distance(const Coord& a, const Coord& b);

  /// "(3, 5, 4)" — the notation the paper uses throughout.
  [[nodiscard]] std::string to_string() const;

 private:
  std::array<int, kMaxDims> c_{};
  int dims_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Coord& c);

/// FNV-1a style hash so Coord can key unordered containers.
struct CoordHash {
  size_t operator()(const Coord& c) const noexcept {
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < c.size(); ++i) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(c[i]) + 0x9e3779b9u);
      h *= 1099511628211ull;
    }
    h ^= static_cast<uint64_t>(c.size());
    h *= 1099511628211ull;
    return static_cast<size_t>(h);
  }
};

}  // namespace lgfi
