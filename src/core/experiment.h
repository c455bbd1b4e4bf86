#pragma once
// Named experiment statistics.
//
// Benches run hundreds of independent simulator replications per
// configuration; MetricSet collects each replication's named statistics and
// merges them in replication order, so results are identical for any thread
// count.  ExperimentRunner (experiment_runner.h) does the fan-out.

#include <map>
#include <string>
#include <vector>

#include "src/core/mutex.h"
#include "src/sim/statistics.h"
#include "src/sim/table_printer.h"

namespace lgfi {

/// Named statistics for one experiment configuration.
class MetricSet {
 public:
  MetricSet() = default;
  MetricSet(MetricSet&& other) noexcept;
  MetricSet& operator=(MetricSet&& other) noexcept;
  MetricSet(const MetricSet& other);
  MetricSet& operator=(const MetricSet& other);

  /// Records a sample (thread-safe).
  void add(const std::string& name, double value);

  /// Records `count` identical samples in one O(1) update — the histogram
  /// fold-in path (one lock + map lookup per bucket, not per sample).
  void add_repeated(const std::string& name, double value, long long count);

  /// Statistics for `name`; throws std::out_of_range naming the missing
  /// metric (and listing what was recorded) so metric-name typos in benches
  /// fail loudly.  Use has() / mean() for optional metrics.
  [[nodiscard]] const RunningStats& stats(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// mean of `name` (0 if absent — metrics recorded only on success, e.g.
  /// "steps" of delivered routes, may legitimately be empty).
  [[nodiscard]] double mean(const std::string& name) const;

  /// Folds `other` into this set (deterministic parallel reduction: merge
  /// per-replication sets in replication order).
  void merge(const MetricSet& other);

 private:
  mutable Mutex mu_;
  // std::map, not unordered: names() / reporters iterate, and metric-name
  // order must be stable for byte-identical output (DESIGN.md §16).
  std::map<std::string, RunningStats> stats_ GUARDED_BY(mu_);
};

}  // namespace lgfi
