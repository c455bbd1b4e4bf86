#pragma once
// First-class multi-axis sweeps: the Campaign API.
//
// The declarative surface of PR 1-4 describes a single point; every curve
// the paper's evaluation is built from (latency vs injection rate,
// reachability vs fault count, overhead vs dimension) lived as a bespoke
// `for` loop around ExperimentRunner.  A Campaign makes the curve itself
// declarative:
//
//   SweepSpec spec(experiment_config());
//   spec.parse_string("router=[no_info,fault_info] injection_rate=range(0.02,0.1,0.04) "
//                     "radix=8 replications=4 report=csv");
//   CampaignRunner(spec).run_and_report(std::cout);
//
// Grammar (on top of the Config "key=value" tokens):
//   key=[v1,v2,...]        an explicit value list — the key becomes a sweep
//                          axis; each element must parse as the key's type
//   key=range(lo,hi,step)  arithmetic progression lo, lo+step, ... up to and
//                          including hi (numeric keys only; hi is included
//                          when it lands on the progression, with an epsilon
//                          for doubles)
//   key=value              everything else: a scalar override of the base
//
// The Cartesian product of the axes — in declaration order, last axis
// fastest — expands to an ordered grid of point Configs.  CampaignRunner
// schedules every point x replication task on one thread pool (a 30-point
// sweep of cheap points no longer serializes at replication granularity)
// and streams per-point results to the Reporter sink *in grid order*, so
// output bytes are identical for any thread count (DESIGN.md 12).

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/experiment_runner.h"

namespace lgfi {

/// One sweep axis: the config key plus its values as the literal token text
/// (rendered verbatim in swept columns; applied via Config::set_from_string).
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
  /// Program-provided default (add_default_axis), replaced by a user token
  /// for the same key without a duplicate-axis error.
  bool is_default = false;
};

/// One grid point: its position, its fully-applied Config, and the swept
/// (key, value-text) pairs in axis order.
struct CampaignPoint {
  size_t index = 0;
  Config config;
  std::vector<std::pair<std::string, std::string>> swept;
};

/// One grid point's outcome: the swept labels plus the standard
/// ExperimentResult (point config, merged metrics, replications) — what a
/// Reporter receives per add().
struct PointResult {
  size_t index = 0;
  std::vector<std::pair<std::string, std::string>> swept;
  ExperimentResult result;
};

/// The immutable description a Reporter receives in begin(): the base
/// config, the axes, and the full point grid.
struct Campaign {
  Config base;
  std::vector<SweepAxis> axes;
  std::vector<CampaignPoint> points;
  /// No swept axis: the 1-point campaign whose report is byte-identical to
  /// the historical single-run output.
  [[nodiscard]] bool single_run() const { return axes.empty(); }
};

/// A base Config plus the sweep axes parsed from its override tokens.
class SweepSpec {
 public:
  explicit SweepSpec(Config base) : base_(std::move(base)) {}

  [[nodiscard]] Config& base() { return base_; }
  [[nodiscard]] const Config& base() const { return base_; }
  [[nodiscard]] const std::vector<SweepAxis>& axes() const { return axes_; }
  [[nodiscard]] bool has_axis(const std::string& key) const;

  /// One override token: scalar, list or range (see the grammar above).  A
  /// scalar for a default-swept key collapses that axis back to a point; a
  /// second list/range for a user-swept key throws.
  void parse_token(const std::string& token);
  void parse_string(const std::string& line);
  void parse_args(int argc, const char* const* argv, int first = 1);

  /// Adds a sweep axis programmatically (the CLIs' built-in sweeps, e.g. the
  /// saturation curves' default injection rates).  A user token for the same
  /// key replaces the values but keeps the axis position, so the bench grid
  /// order is stable under overrides.  No-op if the user already swept `key`
  /// — or pinned it with a scalar token, whichever order the CLI parses in.
  void add_default_axis(const std::string& key, std::vector<std::string> values);

  /// Number of grid points (product of axis sizes; 1 when no axis is swept).
  /// Throws once the product exceeds 10,000 points — every point is
  /// eagerly validated and stored, so the grid must stay constructible.
  [[nodiscard]] size_t point_count() const;

  /// The ordered grid: base with each axis combination applied, axes in
  /// declaration order with the last axis varying fastest.
  [[nodiscard]] std::vector<CampaignPoint> expand() const;

 private:
  /// Validates and installs an axis parsed from `token` (or built
  /// programmatically when from_default).
  void add_axis(const std::string& key, std::vector<std::string> values,
                const std::string& token, bool from_default);

  /// range(lo,hi,step) for `key`, expanded to value text.
  [[nodiscard]] std::vector<std::string> expand_range(const std::string& key,
                                                      const std::string& inner,
                                                      const std::string& token) const;

  Config base_;
  std::vector<SweepAxis> axes_;
  std::set<std::string> scalar_keys_;  ///< user-pinned keys; defaults skip them
};

class CampaignRunner {
 public:
  /// Per-replication body override for benches/examples with bespoke
  /// measurements (the default body is ExperimentRunner::run_replication).
  using ReplicationBody =
      std::function<void(const ExperimentRunner& runner, Rng& rng, MetricSet& out)>;

  /// Expands the spec and eagerly validates every grid point (one
  /// ExperimentRunner per point), so a bad component name anywhere in the
  /// grid fails before any task runs.
  explicit CampaignRunner(const SweepSpec& spec);

  /// An explicit (non-Cartesian) grid: one Config per point, labelled by
  /// `swept_keys` (rendered from each point's config).  For zipped sweeps
  /// like the high-dimensional table, where mesh_dims/radix/faults co-vary.
  CampaignRunner(Config base, std::vector<std::string> swept_keys, std::vector<Config> points);

  [[nodiscard]] const Campaign& campaign() const { return campaign_; }

  /// Runs every point x replication task on one pool (base `threads` key: 0
  /// shared global pool, N private pool) and returns per-point results in
  /// grid order, each merged in replication order — byte-identical for any
  /// thread count.  With a sink, completed points stream to it in grid order
  /// while later points still run.
  std::vector<PointResult> run() const;
  std::vector<PointResult> run(Reporter& sink, std::ostream& os) const;

  /// run() through the reporter named by the base `report` key.
  std::vector<PointResult> run_and_report(std::ostream& os) const;

  /// run() with a custom per-replication body instead of the standard
  /// scenario.
  std::vector<PointResult> run_with(const ReplicationBody& body, Reporter* sink = nullptr,
                                    std::ostream* os = nullptr) const;

 private:
  void init_points(const std::vector<std::string>& swept_keys, std::vector<Config> points);

  Campaign campaign_;
  std::vector<ExperimentRunner> runners_;  ///< one per point, eagerly validated
};

}  // namespace lgfi
