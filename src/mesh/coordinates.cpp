#include "src/mesh/coordinates.h"

#include <cassert>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace lgfi {

Coord::Coord(std::initializer_list<int> components)
    : dims_(static_cast<int>(components.size())) {
  assert(components.size() <= static_cast<size_t>(kMaxDims));
  size_t i = 0;
  for (int v : components) c_[i++] = v;
}

bool operator<(const Coord& a, const Coord& b) {
  if (a.dims_ != b.dims_) return a.dims_ < b.dims_;
  return a.c_ < b.c_;
}

int manhattan_distance(const Coord& a, const Coord& b) {
  assert(a.size() == b.size());
  int d = 0;
  for (int i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

std::string Coord::to_string() const {
  std::ostringstream os;
  os << '(';
  for (int i = 0; i < dims_; ++i) {
    if (i > 0) os << ',';
    os << c_[static_cast<size_t>(i)];
  }
  os << ')';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Coord& c) {
  return os << c.to_string();
}

}  // namespace lgfi
