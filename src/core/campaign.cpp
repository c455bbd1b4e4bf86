#include "src/core/campaign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <ostream>
#include <sstream>

#include "src/core/first_error.h"
#include "src/core/mutex.h"
#include "src/sim/thread_pool.h"

namespace lgfi {

namespace {

// Every grid point is validated eagerly (one ExperimentRunner construction,
// including throwaway router/fault-model builds) and stored twice (point
// config + runner config), so the cap has to be one that setup can actually
// serve, not merely one that fits an address space.
constexpr size_t kMaxGridPoints = 10'000;

/// Keys that configure the campaign machinery itself (pool sizing, sink
/// selection).  Sweeping them cannot change a point's result — only make the
/// output lie about what varied — so they are rejected as axes.
bool campaign_level_key(const std::string& key) { return key == "threads" || key == "report"; }

/// %.15g keeps range-generated points readable ("0.06", not the %.17g
/// round-trip spelling of lo + i*step); the text re-parses into the point
/// config, so what is displayed is exactly what ran.
std::string format_range_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

/// Comma-split preserving empty elements ("a,,b" and "a,b," both surface the
/// empty token so the caller can reject it by name).
std::vector<std::string> split_list(const std::string& inner) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream is(inner);
  while (std::getline(is, token, ',')) out.push_back(token);
  if (!inner.empty() && inner.back() == ',') out.push_back("");
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SweepSpec.
// ---------------------------------------------------------------------------

bool SweepSpec::has_axis(const std::string& key) const {
  return std::any_of(axes_.begin(), axes_.end(),
                     [&](const SweepAxis& a) { return a.key == key; });
}

void SweepSpec::add_axis(const std::string& key, std::vector<std::string> values,
                         const std::string& token, bool from_default) {
  if (campaign_level_key(key))
    throw ConfigError("config key '" + key +
                      "' selects how the campaign runs and cannot be swept (in '" + token +
                      "')");
  if (values.empty())
    throw ConfigError("empty sweep list in '" + token + "' (want key=[v1,v2,...])");
  // Validate every element against the key's declared type on a scratch
  // config, so a typo fails at parse time naming the sweep token.
  Config scratch = base_;
  for (const auto& value : values) {
    if (value.empty()) throw ConfigError("empty value in sweep list '" + token + "'");
    try {
      scratch.set_from_string(key, value);
    } catch (const ConfigError& e) {
      throw ConfigError(std::string(e.what()) + " (in sweep token '" + token + "')");
    }
  }
  // A repeated value would silently double that grid point's weight.
  std::vector<std::string> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end())
    throw ConfigError("duplicate value '" + *dup + "' in sweep list '" + token + "'");

  const auto existing = std::find_if(axes_.begin(), axes_.end(),
                                     [&](const SweepAxis& a) { return a.key == key; });
  if (existing != axes_.end()) {
    if (!from_default && !existing->is_default)
      throw ConfigError("sweep axis '" + key + "' given twice (second: '" + token + "')");
    if (from_default && !existing->is_default) return;  // the user's sweep wins
    // Replacing keeps the axis position, so an injection_rate= override does
    // not reshuffle a bench's grid order.
    existing->values = std::move(values);
    existing->is_default = from_default;
    return;
  }
  axes_.push_back(SweepAxis{key, std::move(values), from_default});
}

std::vector<std::string> SweepSpec::expand_range(const std::string& key,
                                                 const std::string& inner,
                                                 const std::string& token) const {
  const Config::Type type = base_.type(key);  // throws on an unknown key
  if (type != Config::Type::kInt && type != Config::Type::kDouble)
    throw ConfigError("range() sweeps a numeric key, and '" + key + "' is not (in '" + token +
                      "')");
  const auto parts = split_list(inner);
  if (parts.size() != 3)
    throw ConfigError("bad range in '" + token + "' (want key=range(lo,hi,step))");
  const auto parse_num = [&](const std::string& s) {
    size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(s, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != s.size())
      throw ConfigError("bad number '" + s + "' in '" + token + "'");
    return v;
  };
  const double lo = parse_num(parts[0]);
  const double hi = parse_num(parts[1]);
  const double step = parse_num(parts[2]);
  if (!(step > 0.0)) throw ConfigError("range() step must be > 0 in '" + token + "'");
  if (hi < lo) throw ConfigError("range() wants lo <= hi in '" + token + "'");
  // Include hi when it lands on the progression; the epsilon absorbs the
  // accumulated rounding of (hi - lo) / step without admitting an extra
  // point a whole step past hi.
  const double raw_count = std::floor((hi - lo) / step + 1e-9) + 1.0;
  if (raw_count > static_cast<double>(kMaxGridPoints))
    throw ConfigError("range() in '" + token + "' expands to more than " +
                      std::to_string(kMaxGridPoints) + " values");
  const long long count = static_cast<long long>(raw_count);
  std::vector<std::string> values;
  values.reserve(static_cast<size_t>(count));
  if (type == Config::Type::kInt) {
    const auto integral = [](double v) { return std::nearbyint(v) == v; };
    if (!integral(lo) || !integral(hi) || !integral(step))
      throw ConfigError("range() bounds for int key '" + key + "' must be integers (in '" +
                        token + "')");
    for (long long i = 0; i < count; ++i)
      values.push_back(std::to_string(static_cast<long long>(lo) +
                                      i * static_cast<long long>(step)));
  } else {
    for (long long i = 0; i < count; ++i)
      values.push_back(format_range_value(lo + static_cast<double>(i) * step));
  }
  return values;
}

void SweepSpec::parse_token(const std::string& token) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0)
    throw ConfigError("bad override '" + token + "' (want key=value)");
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);

  if (!value.empty() && value.front() == '[') {
    if (value.size() < 2 || value.back() != ']')
      throw ConfigError("unterminated sweep list in '" + token + "' (want key=[v1,v2,...])");
    add_axis(key, split_list(value.substr(1, value.size() - 2)), token,
             /*from_default=*/false);
    return;
  }
  if (value.rfind("range(", 0) == 0 && value.back() == ')') {
    add_axis(key, expand_range(key, value.substr(6, value.size() - 7), token), token,
             /*from_default=*/false);
    return;
  }
  // Scalar: collapses a default axis back to a point; a user-swept key
  // cannot also take a scalar.
  const auto existing = std::find_if(axes_.begin(), axes_.end(),
                                     [&](const SweepAxis& a) { return a.key == key; });
  if (existing != axes_.end()) {
    if (!existing->is_default)
      throw ConfigError("config key '" + key + "' is already swept; scalar '" + token +
                        "' conflicts with the axis");
    axes_.erase(existing);
  }
  base_.parse_token(token);
  // Remember the pin so a default axis added *after* parsing (the benches
  // install theirs post-CLI) cannot silently resurrect the sweep and
  // discard the user's scalar.
  scalar_keys_.insert(key);
}

void SweepSpec::parse_string(const std::string& line) {
  std::istringstream is(line);
  std::string token;
  while (is >> token) parse_token(token);
}

void SweepSpec::parse_args(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) parse_token(argv[i]);
}

void SweepSpec::add_default_axis(const std::string& key, std::vector<std::string> values) {
  if (scalar_keys_.count(key) > 0) return;  // the user pinned the key to a point
  std::string token = key + "=[";
  for (size_t i = 0; i < values.size(); ++i) token += (i > 0 ? "," : "") + values[i];
  token += "]";
  add_axis(key, std::move(values), token, /*from_default=*/true);
}

size_t SweepSpec::point_count() const {
  size_t total = 1;
  for (const auto& axis : axes_) {
    total *= axis.values.size();
    if (total > kMaxGridPoints)
      throw ConfigError("sweep grid exceeds " + std::to_string(kMaxGridPoints) + " points");
  }
  return total;
}

std::vector<CampaignPoint> SweepSpec::expand() const {
  const size_t total = point_count();
  std::vector<CampaignPoint> points;
  points.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    CampaignPoint point;
    point.index = i;
    point.config = base_;
    point.swept.resize(axes_.size());
    // Row-major: peel the point index from the back so the last-declared
    // axis varies fastest.
    size_t rem = i;
    for (size_t a = axes_.size(); a-- > 0;) {
      const SweepAxis& axis = axes_[a];
      const std::string& value = axis.values[rem % axis.values.size()];
      rem /= axis.values.size();
      point.config.set_from_string(axis.key, value);
      point.swept[a] = {axis.key, value};
    }
    points.push_back(std::move(point));
  }
  return points;
}

// ---------------------------------------------------------------------------
// CampaignRunner.
// ---------------------------------------------------------------------------

CampaignRunner::CampaignRunner(const SweepSpec& spec) {
  campaign_.base = spec.base();
  campaign_.axes = spec.axes();
  campaign_.points = spec.expand();
  runners_.reserve(campaign_.points.size());
  for (const auto& point : campaign_.points) runners_.emplace_back(point.config);
}

CampaignRunner::CampaignRunner(Config base, std::vector<std::string> swept_keys,
                               std::vector<Config> points) {
  campaign_.base = std::move(base);
  init_points(swept_keys, std::move(points));
  // Synthesize the axes from the values each key actually takes, in order
  // of first appearance (an explicit grid has no Cartesian structure).
  for (size_t k = 0; k < swept_keys.size(); ++k) {
    SweepAxis axis{swept_keys[k], {}, false};
    for (const auto& point : campaign_.points) {
      const std::string& value = point.swept[k].second;
      if (std::find(axis.values.begin(), axis.values.end(), value) == axis.values.end())
        axis.values.push_back(value);
    }
    campaign_.axes.push_back(std::move(axis));
  }
}

void CampaignRunner::init_points(const std::vector<std::string>& swept_keys,
                                 std::vector<Config> points) {
  campaign_.points.reserve(points.size());
  runners_.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    CampaignPoint point;
    point.index = i;
    point.config = std::move(points[i]);
    for (const auto& key : swept_keys)
      point.swept.emplace_back(key, point.config.value_as_string(key));
    runners_.emplace_back(point.config);  // eager per-point validation
    campaign_.points.push_back(std::move(point));
  }
}

std::vector<PointResult> CampaignRunner::run() const {
  return run_with(
      [](const ExperimentRunner& r, Rng& rng, MetricSet& out) { r.run_replication(rng, out); });
}

std::vector<PointResult> CampaignRunner::run(Reporter& sink, std::ostream& os) const {
  return run_with(
      [](const ExperimentRunner& r, Rng& rng, MetricSet& out) { r.run_replication(rng, out); },
      &sink, &os);
}

std::vector<PointResult> CampaignRunner::run_and_report(std::ostream& os) const {
  const auto reporter = make_reporter(campaign_.base.get_str("report"));
  return run_with(
      [](const ExperimentRunner& r, Rng& rng, MetricSet& out) { r.run_replication(rng, out); },
      reporter.get(), &os);
}

std::vector<PointResult> CampaignRunner::run_with(const ReplicationBody& body, Reporter* sink,
                                                  std::ostream* os) const {
  const size_t npoints = campaign_.points.size();
  // Flatten the grid into point x replication tasks: one pool fans out the
  // whole campaign, so a many-point sweep of cheap points no longer
  // serializes at replication granularity.
  std::vector<int> reps(npoints);
  std::vector<uint64_t> seeds(npoints);
  std::vector<size_t> offset(npoints + 1, 0);
  for (size_t p = 0; p < npoints; ++p) {
    reps[p] = static_cast<int>(std::max(0LL, runners_[p].config().get_int("replications")));
    seeds[p] = static_cast<uint64_t>(runners_[p].config().get_int("seed"));
    offset[p + 1] = offset[p] + static_cast<size_t>(reps[p]);
  }
  std::vector<std::vector<MetricSet>> per_task(npoints);
  for (size_t p = 0; p < npoints; ++p) per_task[p].resize(static_cast<size_t>(reps[p]));

  if (sink) sink->begin(campaign_, *os);

  std::vector<PointResult> results(npoints);
  const std::unique_ptr<std::atomic<int>[]> pending(new std::atomic<int>[npoints]);
  for (size_t p = 0; p < npoints; ++p) pending[p].store(reps[p]);
  // Exceptions must not escape into pool workers; capture the first one and
  // rethrow once the fan-out has drained (same contract as run_each).
  FirstError first_error;

  // Completed points stream to the sink in grid order: whoever finishes a
  // point's last replication merges-and-flushes the contiguous ready prefix
  // under one mutex, so the sink sees a deterministic sequence while later
  // grid points are still running.  The flush cursor and completion flags
  // live in a named struct so the mutex/state relationship is visible to the
  // thread-safety analysis (results/per_task are protected by the same lock
  // during a flush, but workers also write disjoint per_task slots lock-free
  // before their point's final pending decrement — see DESIGN.md §16).
  struct FlushState {
    explicit FlushState(size_t npoints) : complete(npoints, 0) {}
    Mutex mu;
    std::vector<char> complete GUARDED_BY(mu);
    size_t next_flush GUARDED_BY(mu) = 0;
  } flush(npoints);
  const auto mark_complete_and_flush = [&](size_t completed_point) {
    MutexLock lock(flush.mu);
    if (completed_point != SIZE_MAX) flush.complete[completed_point] = 1;
    while (flush.next_flush < npoints && flush.complete[flush.next_flush]) {
      const size_t p = flush.next_flush;
      PointResult& r = results[p];
      r.index = p;
      r.swept = campaign_.points[p].swept;
      r.result.config = campaign_.points[p].config;
      r.result.replications = reps[p];
      // Merge in replication order: byte-identical for any thread count.
      for (const auto& m : per_task[p]) r.result.metrics.merge(m);
      per_task[p].clear();
      if (sink && !first_error.failed()) {
        try {
          sink->add(r);
        } catch (...) {
          first_error.record();
        }
      }
      ++flush.next_flush;
    }
  };

  {
    MutexLock lock(flush.mu);
    for (size_t p = 0; p < npoints; ++p)
      if (reps[p] == 0) flush.complete[p] = 1;
  }
  mark_complete_and_flush(SIZE_MAX);

  const auto task = [&](int64_t t) {
    const size_t p = static_cast<size_t>(std::upper_bound(offset.begin(), offset.end(),
                                                          static_cast<size_t>(t)) -
                                         offset.begin()) -
                     1;
    const size_t rep = static_cast<size_t>(t) - offset[p];
    try {
      Rng rng = Rng(seeds[p]).fork(static_cast<uint64_t>(rep));
      body(runners_[p], rng, per_task[p][rep]);
    } catch (...) {
      first_error.record();
    }
    if (pending[p].fetch_sub(1) == 1) mark_complete_and_flush(p);
  };

  const int threads = static_cast<int>(campaign_.base.get_int("threads"));
  const auto total = static_cast<int64_t>(offset[npoints]);
  if (threads > 0) {
    ThreadPool pool(static_cast<unsigned>(threads));
    pool.parallel_for(total, task);
  } else {
    parallel_for(total, task);
  }
  first_error.rethrow_if_set();
  if (sink) sink->end();
  return results;
}

}  // namespace lgfi
