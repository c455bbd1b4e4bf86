#include "src/mesh/box.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

namespace lgfi {

Box::Box(const Coord& a, const Coord& b) : lo_(a.size()), hi_(a.size()) {
  assert(a.size() == b.size());
  for (int i = 0; i < a.size(); ++i) {
    lo_[i] = std::min(a[i], b[i]);
    hi_[i] = std::max(a[i], b[i]);
  }
}

Box Box::point(const Coord& c) { return Box(c, c); }

long long Box::volume() const {
  if (empty()) return 0;
  long long v = 1;
  for (int i = 0; i < dims(); ++i) v *= extent(i);
  return v;
}

int Box::max_extent() const {
  if (empty()) return 0;
  int m = 0;
  for (int i = 0; i < dims(); ++i) m = std::max(m, extent(i));
  return m;
}

bool Box::contains(const Coord& c) const {
  if (empty() || c.size() != dims()) return false;
  for (int i = 0; i < dims(); ++i)
    if (c[i] < lo_[i] || c[i] > hi_[i]) return false;
  return true;
}

bool Box::contains(const Box& other) const {
  if (other.empty()) return true;
  if (empty()) return false;
  return contains(other.lo_) && contains(other.hi_);
}

bool Box::intersects(const Box& other) const {
  if (empty() || other.empty() || dims() != other.dims()) return false;
  for (int i = 0; i < dims(); ++i)
    if (hi_[i] < other.lo_[i] || other.hi_[i] < lo_[i]) return false;
  return true;
}

std::optional<Box> Box::intersection(const Box& other) const {
  if (!intersects(other)) return std::nullopt;
  Box r;
  r.lo_ = Coord(dims());
  r.hi_ = Coord(dims());
  for (int i = 0; i < dims(); ++i) {
    r.lo_[i] = std::max(lo_[i], other.lo_[i]);
    r.hi_[i] = std::min(hi_[i], other.hi_[i]);
  }
  return r;
}

Box Box::inflated(int amount) const {
  Box r = *this;
  for (int i = 0; i < dims(); ++i) {
    r.lo_[i] -= amount;
    r.hi_[i] += amount;
  }
  return r;
}

bool Box::touches(const Box& other) const { return inflated(1).intersects(other); }

std::vector<Coord> Box::all_coords() const {
  std::vector<Coord> out;
  out.reserve(static_cast<size_t>(std::max<long long>(volume(), 0)));
  for_each([&out](const Coord& c) { out.push_back(c); });
  return out;
}

std::string Box::to_string() const {
  if (empty()) return "[empty]";
  std::ostringstream os;
  os << '[';
  for (int i = 0; i < dims(); ++i) {
    if (i > 0) os << ", ";
    os << lo_[i] << ':' << hi_[i];
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Box& b) {
  return os << b.to_string();
}

Box minimal_path_box(const Coord& u, const Coord& v) { return Box(u, v); }

}  // namespace lgfi
