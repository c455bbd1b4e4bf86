#include "src/core/experiment.h"

#include <stdexcept>

namespace lgfi {

MetricSet::MetricSet(MetricSet&& other) noexcept {
  MutexLock lock(other.mu_);
  stats_ = std::move(other.stats_);
}

MetricSet& MetricSet::operator=(MetricSet&& other) noexcept {
  if (this != &other) {
    MutexLock2 lock(mu_, other.mu_);
    stats_ = std::move(other.stats_);
  }
  return *this;
}

MetricSet::MetricSet(const MetricSet& other) {
  MutexLock lock(other.mu_);
  stats_ = other.stats_;
}

MetricSet& MetricSet::operator=(const MetricSet& other) {
  if (this != &other) {
    MutexLock2 lock(mu_, other.mu_);
    stats_ = other.stats_;
  }
  return *this;
}

void MetricSet::add(const std::string& name, double value) {
  MutexLock lock(mu_);
  stats_[name].add(value);
}

void MetricSet::add_repeated(const std::string& name, double value, long long count) {
  MutexLock lock(mu_);
  stats_[name].add_repeated(value, count);
}

const RunningStats& MetricSet::stats(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = stats_.find(name);
  if (it == stats_.end()) {
    std::string recorded;
    for (const auto& [n, _] : stats_) recorded += (recorded.empty() ? "" : ", ") + n;
    throw std::out_of_range("no metric named '" + name + "' (recorded: " +
                            (recorded.empty() ? "<none>" : recorded) + ")");
  }
  return it->second;
}

bool MetricSet::has(const std::string& name) const {
  MutexLock lock(mu_);
  return stats_.count(name) > 0;
}

std::vector<std::string> MetricSet::names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(stats_.size());
  for (const auto& [name, _] : stats_) out.push_back(name);
  return out;
}

double MetricSet::mean(const std::string& name) const {
  return has(name) ? stats(name).mean() : 0.0;
}

void MetricSet::merge(const MetricSet& other) {
  MutexLock2 lock(mu_, other.mu_);
  for (const auto& [name, stats] : other.stats_) stats_[name].merge(stats);
}

}  // namespace lgfi
