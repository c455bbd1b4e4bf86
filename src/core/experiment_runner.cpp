#include "src/core/experiment_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <ostream>
#include <sstream>

#include "src/core/campaign.h"
#include "src/core/first_error.h"
#include "src/core/scenario.h"
#include "src/core/topology_registry.h"
#include "src/core/traffic_workload.h"
#include "src/routing/global_table_router.h"
#include "src/routing/route_walker.h"
#include "src/routing/router_registry.h"
#include "src/sim/fault_timeline.h"
#include "src/sim/injection_process.h"
#include "src/sim/table_printer.h"
#include "src/sim/thread_pool.h"

namespace lgfi {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// A CI cell: round-trip number when it exists, *empty* when it does not
// (n < 2 yields quiet NaN) — "%.17g" would otherwise print a literal "nan"
// token that chokes downstream CSV tooling.
std::string csv_ci_field(double v) { return std::isfinite(v) ? json_number(v) : std::string(); }

std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

void write_metrics_json(std::ostream& os, const MetricSet& metrics) {
  os << "\"metrics\":{";
  bool first = true;
  for (const auto& name : metrics.names()) {
    const RunningStats& s = metrics.stats(name);
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << s.count()
       << ",\"mean\":" << json_number(s.mean()) << ",\"stddev\":" << json_number(s.stddev())
       << ",\"min\":" << json_number(s.min()) << ",\"max\":" << json_number(s.max()) << '}';
  }
  os << '}';
}

}  // namespace

Config experiment_config() {
  Config cfg;
  cfg.define_int("mesh_dims", 2, "mesh dimensionality n")
      .define_int("radix", 16, "nodes per dimension k (the mesh is k-ary n-D)")
      .define_string("topology", "mesh",
                     "registered topology (mesh | torus | cmesh); the sixth "
                     "component axis")
      .define_string("extents", "",
                     "mixed-radix extents e0,e1,... (overrides mesh_dims/radix)")
      .define_int("concentration", 1,
                  "cmesh: terminals per router (loads normalize per terminal)")
      .define_string("router", "fault_info",
                     "registered routing function (see RouterRegistry)")
      .define_string("info_mode", "auto",
                     "limited_global|none|instant_global|delayed_global|auto "
                     "(auto = the router's default)")
      .define_string("mode", "static",
                     "static: route over a converged field; dynamic: faults "
                     "arrive while messages travel")
      .define_string("scenario", "random",
                     "random (per fault_model) | figure1 | stacked_blocks "
                     "(paper worked examples; override mesh keys)")
      .define_int("faults", 8, "fault count (per batch in dynamic mode)")
      .define_string("fault_model", "random",
                     "random | clustered | box placement generator; lifecycle | "
                     "lifecycle_links generate a dynamic fail/repair timeline")
      .define_string("fault_box", "",
                     "box extents lo:hi,lo:hi,... for fault_model=box")
      .define_double("fault_arrival_rate", 0.0,
                     "lifecycle: mean fault arrivals per step (exponential "
                     "inter-arrival; required > 0)")
      .define_double("repair_rate", 0.0,
                     "lifecycle: mean repairs per step per down element "
                     "(0: faults are permanent)")
      .define_double("transient_frac", 0.0,
                     "lifecycle: fraction of arrivals that are transient "
                     "(repair at 10x repair_rate)")
      .define_int("fault_horizon", 0,
                  "lifecycle: last step arrivals may land on (0: derive from "
                  "the run length)")
      .define_int("batches", 1, "dynamic: number of fault batches")
      .define_int("fault_start", 0, "dynamic: step of the first batch")
      .define_int("fault_interval", 60, "dynamic: steps between batches (d_i)")
      .define_bool("recoveries", false,
                   "dynamic: earlier faults sometimes recover (Definition 4)")
      .define_int("lambda", 1, "information rounds per routing step (Section 5)")
      .define_string("traffic", "none",
                     "open-loop traffic pattern (uniform | transpose | "
                     "bit_complement | hotspot | permutation); overrides mode")
      .define_double("injection_rate", 0.02,
                     "traffic: per-node per-step Bernoulli injection probability")
      .define_string("injection", "bernoulli",
                     "injection process (bernoulli | onoff | batch | closed_loop "
                     "| trace); the seventh component axis")
      .define_double("duty_cycle", kDefaultDutyCycle,
                     "injection=onoff: ON fraction of the burst cycle")
      .define_int("burst_len", kDefaultBurstLen, "injection=onoff: ON steps per cycle")
      .define_int("batch_size", kDefaultBatchSize,
                  "injection=batch: packets per terminal per batch")
      .define_int("batch_count", kDefaultBatchCount,
                  "injection=batch: batches (the network drains between them)")
      .define_int("window", kDefaultWindow,
                  "injection=closed_loop: outstanding request-reply pairs per terminal")
      .define_string("trace_file", "", "injection=trace: recorded trace to replay")
      .define_string("trace_record", "",
                     "traffic: serialize injected packets here for injection=trace "
                     "replay (needs replications=1)")
      .define_int("measure_steps", 1000, "traffic: measurement window (steps)")
      .define_int("drain_steps", 0, "traffic: drain-phase cap (0: 4*2n*N safety net)")
      .define_double("hotspot_frac", kDefaultHotspotFrac,
                     "traffic=hotspot: fraction of injections targeting the center")
      .define_bool("arbitration", true,
                   "dynamic/traffic: at most one message per directed channel "
                   "per step (losers stall in per-node FIFOs)")
      .define_string("switching", "ideal",
                     "switching model: ideal (single-flit packets) | wormhole "
                     "(flit-level, virtual channels + credits; DESIGN.md 10)")
      .define_int("num_vcs", 2, "wormhole: virtual channels per directed channel")
      .define_int("vc_buffer_depth", 4, "wormhole: flit buffer depth per VC (credits)")
      .define_int("flits_per_packet", 4,
                  "wormhole: flits per packet (head + body + tail)")
      .define_int("warmup_steps", 0, "dynamic: steps before launching messages")
      .define_int("max_steps", 1 << 20, "dynamic: hard step cap per replication")
      .define_int("replications", 1, "independent replications (Rng fork per rep)")
      .define_int("routes", 1, "random source/destination pairs per replication")
      .define_int("min_pair_distance", 1, "minimum D(s,d) of sampled pairs")
      .define_int("seed", 1, "base RNG seed")
      .define_int("threads", 0, "0: shared global pool; N: private pool of N")
      .define_int("step_budget", 0, "per-message step budget (0: 4*2n*N safety net)")
      .define_int("max_rounds", 1 << 20, "stabilization round cap (static mode)")
      .define_bool("persistent_marks", false,
                   "header ablation: marks survive backtracking (DESIGN.md 6.7)")
      .define_bool("active_set", true,
                   "protocol worklists seeded from events and deliveries "
                   "(DESIGN.md 14); false: every worklist seeded with every "
                   "node each round, O(N) per round, the reference the "
                   "equivalence tests compare against (same bytes)")
      .define_bool("ecube_strict", true,
                   "dimension_order: disabled nodes block the route too")
      .define_string("oracle_avoid", "block_members",
                     "oracle: block_members | faulty_only obstacles")
      .define_string("report", "table", "reporter: table | csv | csv_ci | json");
  return cfg;
}

// ---------------------------------------------------------------------------
// Reporters.
// ---------------------------------------------------------------------------

void Reporter::report(const ExperimentResult& result, std::ostream& os) {
  Campaign campaign;
  campaign.base = result.config;
  CampaignPoint point;
  point.config = result.config;
  campaign.points.push_back(std::move(point));
  PointResult pr;
  pr.result = result;
  begin(campaign, os);
  add(pr);
  end();
}

void BufferedCampaignRows::clear() {
  axis_keys.clear();
  metric_names.clear();
  rows.clear();
}

void BufferedCampaignRows::add(const PointResult& point) {
  Row row;
  for (const auto& [key, value] : point.swept) row.swept.push_back(value);
  for (const auto& name : point.result.metrics.names()) {
    row.means[name] = point.result.metrics.mean(name);
    row.ci95[name] = point.result.metrics.stats(name).ci95_half_width();
    // names() is sorted per point; keep the union sorted too.
    const auto it = std::lower_bound(metric_names.begin(), metric_names.end(), name);
    if (it == metric_names.end() || *it != name) metric_names.insert(it, name);
  }
  rows.push_back(std::move(row));
}

void TableReporter::begin(const Campaign& campaign, std::ostream& os) {
  os_ = &os;
  single_ = campaign.single_run();
  buffer_.clear();
  if (!single_)
    for (const auto& axis : campaign.axes) buffer_.axis_keys.push_back(axis.key);
}

void TableReporter::add(const PointResult& point) {
  if (single_) {
    *os_ << "config: " << point.result.config.to_string() << "\n";
    *os_ << "replications: " << point.result.replications << "\n";
    TablePrinter t({"metric", "count", "mean", "stddev", "min", "max"});
    for (const auto& name : point.result.metrics.names()) {
      const RunningStats& s = point.result.metrics.stats(name);
      t.add_row({name, TablePrinter::num(s.count()), TablePrinter::num(s.mean(), 4),
                 TablePrinter::num(s.stddev(), 4), TablePrinter::num(s.min(), 4),
                 TablePrinter::num(s.max(), 4)});
    }
    t.print(*os_);
    return;
  }
  buffer_.add(point);
}

void TableReporter::end() {
  if (single_) return;
  std::vector<std::string> headers = buffer_.axis_keys;
  headers.insert(headers.end(), buffer_.metric_names.begin(), buffer_.metric_names.end());
  TablePrinter t(std::move(headers));
  for (const auto& pending : buffer_.rows) {
    std::vector<std::string> row = pending.swept;
    for (const auto& name : buffer_.metric_names) {
      const auto it = pending.means.find(name);
      row.push_back(it != pending.means.end() ? TablePrinter::num(it->second, 4) : "");
    }
    t.add_row(std::move(row));
  }
  t.print(*os_);
}

void CsvReporter::begin(const Campaign& campaign, std::ostream& os) {
  os_ = &os;
  single_ = campaign.single_run();
  buffer_.clear();
  if (single_) {
    os << "config,metric,count,mean,stddev,min,max\n";
  } else {
    os << "# config: " << campaign.base.to_string() << "\n";
    for (const auto& axis : campaign.axes) buffer_.axis_keys.push_back(axis.key);
  }
}

void CsvReporter::add(const PointResult& point) {
  if (single_) {
    const std::string cfg = csv_quote(point.result.config.to_string());
    for (const auto& name : point.result.metrics.names()) {
      const RunningStats& s = point.result.metrics.stats(name);
      *os_ << cfg << ',' << name << ',' << s.count() << ',' << json_number(s.mean()) << ','
           << json_number(s.stddev()) << ',' << json_number(s.min()) << ','
           << json_number(s.max()) << "\n";
    }
    return;
  }
  buffer_.add(point);
}

void CsvReporter::end() {
  if (single_) return;
  for (size_t i = 0; i < buffer_.axis_keys.size(); ++i)
    *os_ << (i > 0 ? "," : "") << csv_field(buffer_.axis_keys[i]);
  for (const auto& metric : buffer_.metric_names) *os_ << ',' << csv_field(metric);
  *os_ << "\n";
  for (const auto& pending : buffer_.rows) {
    for (size_t i = 0; i < pending.swept.size(); ++i)
      *os_ << (i > 0 ? "," : "") << csv_field(pending.swept[i]);
    for (const auto& metric : buffer_.metric_names) {
      *os_ << ',';
      const auto it = pending.means.find(metric);
      if (it != pending.means.end()) *os_ << json_number(it->second);
    }
    *os_ << "\n";
  }
}

void CsvCiReporter::begin(const Campaign& campaign, std::ostream& os) {
  os_ = &os;
  single_ = campaign.single_run();
  buffer_.clear();
  if (single_) {
    os << "config,metric,count,mean,ci95,stddev,min,max\n";
  } else {
    os << "# config: " << campaign.base.to_string() << "\n";
    for (const auto& axis : campaign.axes) buffer_.axis_keys.push_back(axis.key);
  }
}

void CsvCiReporter::add(const PointResult& point) {
  if (single_) {
    const std::string cfg = csv_quote(point.result.config.to_string());
    for (const auto& name : point.result.metrics.names()) {
      const RunningStats& s = point.result.metrics.stats(name);
      *os_ << cfg << ',' << name << ',' << s.count() << ',' << json_number(s.mean()) << ','
           << csv_ci_field(s.ci95_half_width()) << ',' << json_number(s.stddev()) << ','
           << json_number(s.min()) << ',' << json_number(s.max()) << "\n";
    }
    return;
  }
  buffer_.add(point);
}

void CsvCiReporter::end() {
  if (single_) return;
  for (size_t i = 0; i < buffer_.axis_keys.size(); ++i)
    *os_ << (i > 0 ? "," : "") << csv_field(buffer_.axis_keys[i]);
  for (const auto& metric : buffer_.metric_names)
    *os_ << ',' << csv_field(metric) << ',' << csv_field(metric + "_ci95");
  *os_ << "\n";
  for (const auto& pending : buffer_.rows) {
    for (size_t i = 0; i < pending.swept.size(); ++i)
      *os_ << (i > 0 ? "," : "") << csv_field(pending.swept[i]);
    for (const auto& metric : buffer_.metric_names) {
      *os_ << ',';
      const auto it = pending.means.find(metric);
      if (it != pending.means.end()) *os_ << json_number(it->second);
      *os_ << ',';
      const auto ci = pending.ci95.find(metric);
      if (ci != pending.ci95.end()) *os_ << csv_ci_field(ci->second);
    }
    *os_ << "\n";
  }
}

void JsonReporter::begin(const Campaign& campaign, std::ostream& os) {
  os_ = &os;
  single_ = campaign.single_run();
  first_ = true;
  if (!single_) os << '[';
}

void JsonReporter::add(const PointResult& point) {
  if (single_) {
    *os_ << "{\"config\":{";
    bool first = true;
    for (const auto& key : point.result.config.keys()) {
      if (!first) *os_ << ',';
      first = false;
      *os_ << '"' << json_escape(key) << "\":\""
           << json_escape(point.result.config.value_as_string(key)) << '"';
    }
    *os_ << "},\"replications\":" << point.result.replications << ',';
    write_metrics_json(*os_, point.result.metrics);
    *os_ << "}\n";
    return;
  }
  if (!first_) *os_ << ",\n";
  first_ = false;
  *os_ << "{\"swept\":{";
  bool first = true;
  for (const auto& [key, value] : point.swept) {
    if (!first) *os_ << ',';
    first = false;
    *os_ << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
  }
  *os_ << "},\"replications\":" << point.result.replications << ',';
  write_metrics_json(*os_, point.result.metrics);
  *os_ << '}';
}

void JsonReporter::end() {
  if (!single_) *os_ << "]\n";
}

NamedRegistry<ReporterFactory>& reporter_registry() {
  static NamedRegistry<ReporterFactory> registry = [] {
    NamedRegistry<ReporterFactory> reg("reporter");
    reg.add(
        "table", [] { return std::unique_ptr<Reporter>(std::make_unique<TableReporter>()); },
        {"aligned terminal table; campaigns: one grid row per swept point", {}});
    reg.add(
        "csv", [] { return std::unique_ptr<Reporter>(std::make_unique<CsvReporter>()); },
        {"RFC-4180-ish CSV; campaigns: swept-key columns, one row per point", {}});
    reg.add(
        "csv_ci",
        [] { return std::unique_ptr<Reporter>(std::make_unique<CsvCiReporter>()); },
        {"CSV with 95% CI half-widths per metric (empty cell when n < 2)", {}});
    reg.add(
        "json", [] { return std::unique_ptr<Reporter>(std::make_unique<JsonReporter>()); },
        {"one JSON object (campaigns: one array; round-trip doubles)", {}});
    return reg;
  }();
  return registry;
}

std::unique_ptr<Reporter> make_reporter(const std::string& name) {
  return reporter_registry().require(name)();
}

// ---------------------------------------------------------------------------
// ExperimentRunner.
// ---------------------------------------------------------------------------

ExperimentRunner::ExperimentRunner(Config config) : config_(std::move(config)) {
  // Fail fast on name typos instead of inside a worker thread: every
  // pluggable axis — router, reporter, traffic pattern, switching model,
  // fault model — is validated against its registry up front, so an unknown
  // name reports the registered names plus a did-you-mean suggestion before
  // any replication runs.
  (void)RouterRegistry::instance().default_info_mode(config_.get_str("router"));
  (void)make_reporter(config_.get_str("report"));
  if (config_.get_str("info_mode") != "auto") (void)parse_info_mode(config_.get_str("info_mode"));
  const std::string& mode = config_.get_str("mode");
  if (mode != "static" && mode != "dynamic")
    throw ConfigError("unknown mode '" + mode + "' (want static or dynamic)");
  const std::string& traffic = config_.get_str("traffic");
  if (traffic != "none" && !TrafficPatternRegistry::instance().contains(traffic)) {
    // "none" is the disable sentinel, not a registered pattern; splice it
    // into the candidate list so the error (and suggestion) still offer it.
    auto known = TrafficPatternRegistry::instance().names();
    known.push_back("none");
    std::sort(known.begin(), known.end());
    throw ConfigError(unknown_name_message("traffic pattern", traffic, known));
  }
  const std::string& switching = config_.get_str("switching");
  (void)SwitchingModelRegistry::instance().require(switching);
  if (switching != "ideal" && !config_.get_bool("arbitration"))
    throw ConfigError("switching=" + switching +
                      " is flit-level and always arbitrates its switch; "
                      "arbitration=false only makes sense with switching=ideal");
  // Dependent keys fail eagerly too: router-level options and the topology
  // geometry via throwaway constructions, and the box model's extents spec
  // via a throwaway parse.
  (void)make_router();
  const auto topo = make_topology(config_);
  (void)fault_model_registry().require(config_.get_str("fault_model"));
  if (is_lifecycle_model(config_.get_str("fault_model"))) {
    // The lifecycle models generate a dynamic fail/repair timeline, so they
    // need the step loop, sane rates, and the random scenario (the worked
    // examples pin their own fault sets).
    if (config_.get_double("fault_arrival_rate") <= 0.0)
      throw ConfigError("fault_model=" + config_.get_str("fault_model") +
                        " needs fault_arrival_rate > 0");
    if (config_.get_double("repair_rate") < 0.0)
      throw ConfigError("repair_rate must be >= 0 (got " +
                        std::to_string(config_.get_double("repair_rate")) + ")");
    const double tf = config_.get_double("transient_frac");
    if (tf < 0.0 || tf > 1.0)
      throw ConfigError("transient_frac must be in [0, 1] (got " + std::to_string(tf) + ")");
    if (tf > 0.0 && config_.get_double("repair_rate") <= 0.0)
      throw ConfigError(
          "transient_frac > 0 needs repair_rate > 0 (a transient IS a fault "
          "with a fast repair)");
    if (config_.get_int("fault_horizon") < 0)
      throw ConfigError("fault_horizon must be >= 0 (got " +
                        std::to_string(config_.get_int("fault_horizon")) + ")");
    if (traffic == "none" && mode != "dynamic")
      throw ConfigError("fault_model=" + config_.get_str("fault_model") +
                        " generates a fail/repair timeline and needs the dynamic "
                        "step loop (set traffic= or mode=dynamic)");
    if (config_.get_bool("recoveries"))
      throw ConfigError(
          "recoveries=true and a lifecycle fault model both schedule repairs; "
          "pick one (lifecycle uses repair_rate=)");
    if (config_.get_str("scenario") != "random")
      throw ConfigError("lifecycle fault models need scenario=random");
  } else {
    // Lifecycle-only keys on a placement model would silently no-op; reject
    // them the way validate_injection_keys rejects orphan injection knobs.
    for (const char* key :
         {"fault_arrival_rate", "repair_rate", "transient_frac", "fault_horizon"}) {
      if (!config_.is_default(key))
        throw ConfigError(std::string(key) +
                          "= needs a lifecycle fault model (set "
                          "fault_model=lifecycle or lifecycle_links)");
    }
  }
  if (config_.get_str("fault_model") == "box") {
    const Box box = parse_box_spec(config_.get_str("fault_box"));
    // Cross-checks against the topology only hold for scenario=random (the
    // worked-example scenarios override the mesh keys).
    if (config_.get_str("scenario") == "random") {
      if (box.lo().size() != topo->dims())
        throw ConfigError("fault_box has " + std::to_string(box.lo().size()) +
                          " dimensions but topology has " + std::to_string(topo->dims()));
      if (topo->clip(box) != box)
        throw ConfigError("fault_box '" + config_.get_str("fault_box") +
                          "' reaches outside the topology bounds " +
                          topo->bounds().to_string());
    }
  }
  if (traffic != "none" && config_.get_str("scenario") == "random") {
    // A throwaway construction validates pattern-level geometry (transpose
    // on unequal extents, hotspot_frac range) before any replication runs.
    Rng probe(0);
    (void)make_traffic_pattern(traffic, *topo, config_, probe);
  }
  // The injection axis: unknown names fail with a did-you-mean, and keys a
  // process ignores are rejected instead of silently no-opping.
  const std::string& injection = config_.get_str("injection");
  (void)InjectionProcessRegistry::instance().require(injection);
  validate_injection_keys(config_);
  if (traffic == "none") {
    if (injection != "bernoulli")
      throw ConfigError("injection=" + injection +
                        " needs a traffic workload (set traffic=)");
    if (!config_.get_str("trace_record").empty())
      throw ConfigError("trace_record= needs a traffic workload (set traffic=)");
  } else {
    if (config_.get_int("measure_steps") <= 0)
      throw ConfigError("measure_steps must be >= 1 (got " +
                        std::to_string(config_.get_int("measure_steps")) + ")");
    if (config_.get_int("drain_steps") < 0)
      throw ConfigError("drain_steps must be >= 0 (got " +
                        std::to_string(config_.get_int("drain_steps")) +
                        "; 0 derives the 4*2n*N safety net)");
    if (!config_.get_str("trace_record").empty() && config_.get_int("replications") != 1)
      throw ConfigError(
          "trace_record= writes one trace file; run with replications=1 "
          "(each replication would overwrite it)");
    if (config_.get_str("scenario") == "random") {
      // Throwaway construction: validates knob ranges (duty_cycle, window,
      // ...) and, for injection=trace, that the trace file exists and was
      // recorded on this topology.
      Rng probe(0);
      (void)make_injection_process(injection, *topo, config_, probe);
    }
  }
}

std::unique_ptr<Router> ExperimentRunner::make_router() const {
  return lgfi::make_router(config_.get_str("router"), config_);
}

InfoMode ExperimentRunner::info_mode() const { return resolve_info_mode(config_); }

ExperimentRunner::StaticEnv ExperimentRunner::build_static(Rng& rng) const {
  StaticEnv env;
  DistributedModelOptions mopts;
  mopts.active_set = config_.get_bool("active_set");
  const std::string& scenario = config_.get_str("scenario");
  if (scenario == "figure1") {
    env.net = std::make_unique<Network>(MeshTopology(3, 8), mopts);
    env.faults = figure1_faults();
  } else if (scenario == "stacked_blocks") {
    auto s = stacked_blocks_scenario();
    env.net = std::make_unique<Network>(s.mesh, mopts);
    env.faults = s.faults;
  } else if (scenario == "random") {
    const auto mesh = make_topology(config_);
    env.net = std::make_unique<Network>(*mesh, mopts);
    env.faults = place_faults(env.net->mesh(), config_, rng);
  } else {
    throw ConfigError("unknown scenario '" + scenario +
                      "' (want random, figure1, stacked_blocks)");
  }
  for (const auto& c : env.faults) env.net->inject_fault(c);
  env.rounds = env.net->stabilize(static_cast<int>(config_.get_int("max_rounds")));
  return env;
}

ExperimentRunner::DynamicEnv ExperimentRunner::build_dynamic(Rng& rng, bool run_warmup) const {
  DynamicEnv env;
  const std::string& scenario = config_.get_str("scenario");
  const long long start = config_.get_int("fault_start");
  const long long interval = config_.get_int("fault_interval");
  const int batches = static_cast<int>(config_.get_int("batches"));
  const bool lifecycle = is_lifecycle_model(config_.get_str("fault_model"));
  FaultTimeline timeline;

  if (scenario == "figure1") {
    env.mesh = std::make_unique<MeshTopology>(3, 8);
    for (const auto& c : figure1_faults()) env.schedule.add_fail(start, c);
  } else if (scenario == "random") {
    env.mesh = make_topology(config_);
    if (lifecycle) {
      // Arrivals land on [fault_start, horizon]; the default horizon is the
      // portion of the run the workload (or the batch grammar) covers, so
      // the tail of a traffic run still sees churn.
      long long horizon = config_.get_int("fault_horizon");
      if (horizon <= 0) {
        horizon = config_.get_str("traffic") != "none"
                      ? config_.get_int("warmup_steps") + config_.get_int("measure_steps")
                      : start + static_cast<long long>(batches) * interval;
      }
      timeline = build_lifecycle_timeline(*env.mesh, config_, rng, horizon);
    } else if (config_.get_bool("recoveries")) {
      env.schedule = periodic_random_schedule(*env.mesh, batches,
                                              static_cast<int>(config_.get_int("faults")),
                                              start, interval, rng, /*recoveries=*/true);
    } else {
      if (batches > 1 && config_.get_str("fault_model") == "box")
        throw ConfigError(
            "fault_model=box places the same nodes every batch; use batches=1 "
            "(or a random/clustered model for multi-batch schedules)");
      // Later batches never re-fail an earlier batch's node: random
      // placement excludes them up front; other models are deduplicated.
      std::vector<Coord> placed;
      for (int b = 0; b < batches; ++b) {
        const auto batch =
            config_.get_str("fault_model") == "random"
                ? random_fault_placement(*env.mesh,
                                         static_cast<int>(config_.get_int("faults")), rng,
                                         {}, placed)
                : place_faults(*env.mesh, config_, rng);
        for (const auto& c : batch) {
          if (std::find(placed.begin(), placed.end(), c) != placed.end()) continue;
          env.schedule.add_fail(start + b * interval, c);
          placed.push_back(c);
        }
      }
    }
  } else {
    throw ConfigError("unknown dynamic scenario '" + scenario + "' (want random, figure1)");
  }

  DynamicSimulationOptions opts;
  opts.lambda = static_cast<int>(config_.get_int("lambda"));
  opts.info_mode = info_mode();
  opts.router = config_.get_str("router");
  opts.router_config = config_;
  opts.persistent_marks = config_.get_bool("persistent_marks");
  opts.link_arbitration = config_.get_bool("arbitration");
  opts.switching = config_.get_str("switching");
  opts.num_vcs = static_cast<int>(config_.get_int("num_vcs"));
  opts.vc_buffer_depth = static_cast<int>(config_.get_int("vc_buffer_depth"));
  opts.flits_per_packet = static_cast<int>(config_.get_int("flits_per_packet"));
  opts.step_budget_per_message = config_.get_int("step_budget");
  opts.model.active_set = config_.get_bool("active_set");
  env.sim = lifecycle
                ? std::make_unique<DynamicSimulation>(*env.mesh, std::move(timeline), opts)
                : std::make_unique<DynamicSimulation>(*env.mesh, env.schedule, opts);
  if (run_warmup) {
    const long long warmup = config_.get_int("warmup_steps");
    for (long long i = 0; i < warmup; ++i) env.sim->step();
  }
  return env;
}

ExperimentResult ExperimentRunner::run_each(
    const std::function<void(Rng&, MetricSet&)>& body) const {
  const int replications = static_cast<int>(config_.get_int("replications"));
  const int threads = static_cast<int>(config_.get_int("threads"));
  const Rng base(static_cast<uint64_t>(config_.get_int("seed")));

  std::vector<MetricSet> per_rep(static_cast<size_t>(replications));
  // Exceptions must not escape into pool workers (std::terminate) or past
  // per_rep while other replications still write into it: capture the first
  // one and rethrow after the fan-out has fully drained.
  FirstError first_error;
  const auto task = [&](int64_t rep) {
    try {
      Rng rng = base.fork(static_cast<uint64_t>(rep));
      body(rng, per_rep[static_cast<size_t>(rep)]);
    } catch (...) {
      first_error.record();
    }
  };
  if (threads > 0) {
    ThreadPool pool(static_cast<unsigned>(threads));
    pool.parallel_for(replications, task);
  } else {
    parallel_for(replications, task);
  }
  first_error.rethrow_if_set();

  ExperimentResult result;
  result.config = config_;
  result.replications = replications;
  // Merge in replication order: byte-identical results for any thread count.
  for (const auto& m : per_rep) result.metrics.merge(m);
  return result;
}

ExperimentResult ExperimentRunner::run_each_static(
    const std::function<void(StaticEnv&, Rng&, MetricSet&)>& body) const {
  return run_each([this, &body](Rng& rng, MetricSet& out) {
    StaticEnv env = build_static(rng);
    body(env, rng, out);
  });
}

void ExperimentRunner::run_one_static(Rng& rng, MetricSet& out) const {
  StaticEnv env = build_static(rng);
  out.add("blocks", static_cast<double>(env.net->blocks().size()));
  out.add("converge_rounds", env.rounds.total);

  const auto router = make_router();
  const InfoMode mode = info_mode();
  EmptyInfoProvider empty;
  GlobalInfoProvider global;
  RoutingContext ctx = env.net->context();
  if (mode == InfoMode::kNone) {
    ctx.info = &empty;
  } else if (mode == InfoMode::kInstantGlobal || mode == InfoMode::kDelayedGlobal) {
    // A frozen field has no broadcast latency: both global modes see the
    // stabilized block list everywhere.
    std::vector<BlockInfo> infos;
    for (const auto& b : env.net->blocks())
      infos.push_back(BlockInfo{b.box, env.net->model().epoch()});
    global.set_blocks(std::move(infos));
    ctx.info = &global;
  }

  const int routes = static_cast<int>(config_.get_int("routes"));
  const int min_distance = static_cast<int>(config_.get_int("min_pair_distance"));
  for (int i = 0; i < routes; ++i) {
    const Pair pair = random_enabled_pair(env.mesh(), env.net->field(), rng, min_distance);
    const RouteResult r = run_static_route(ctx, *router, pair.source, pair.dest,
                                           config_.get_int("step_budget"));
    out.add("delivered", r.delivered ? 1.0 : 0.0);
    if (r.delivered) {
      out.add("steps", r.total_steps);
      out.add("detours", r.detours());
      out.add("backtracks", r.backtrack_steps);
      out.add("min_distance", r.min_distance);
    }
  }
}

void ExperimentRunner::run_one_dynamic(Rng& rng, MetricSet& out) const {
  DynamicEnv env = build_dynamic(rng);
  const int routes = static_cast<int>(config_.get_int("routes"));
  const int min_distance = static_cast<int>(config_.get_int("min_pair_distance"));
  std::vector<int> ids;
  for (int i = 0; i < routes; ++i) {
    const Pair pair =
        random_enabled_pair(*env.mesh, env.sim->model().field(), rng, min_distance);
    ids.push_back(env.sim->launch_message(pair.source, pair.dest));
  }
  env.sim->run(config_.get_int("max_steps"));

  out.add("occurrences", static_cast<double>(env.sim->occurrences().size()));
  if (env.sim->first_unreachable_step() >= 0)
    out.add("first_unreachable_step", static_cast<double>(env.sim->first_unreachable_step()));
  for (const int id : ids) {
    const MessageProgress& msg = env.sim->message(id);
    out.add("delivered", msg.delivered ? 1.0 : 0.0);
    if (msg.delivered) {
      out.add("steps", static_cast<double>(msg.header.total_steps()));
      out.add("detours", static_cast<double>(msg.detours()));
      out.add("backtracks", static_cast<double>(msg.header.backtrack_steps()));
      out.add("min_distance", msg.initial_distance);
    }
  }
}

void ExperimentRunner::run_one_traffic(Rng& rng, MetricSet& out) const {
  // The workload owns the warmup (it injects during it), so build_dynamic
  // must not pre-step the simulator.
  DynamicEnv env = build_dynamic(rng, /*run_warmup=*/false);
  const auto pattern =
      make_traffic_pattern(config_.get_str("traffic"), *env.mesh, config_, rng);
  // Built after the pattern, so any construction-time draws (onoff's slot
  // phases) land after the pattern's (permutation's table) — and bernoulli
  // draws nothing, keeping the default stream byte-identical to pre-axis.
  const auto process =
      make_injection_process(config_.get_str("injection"), *env.mesh, config_, rng);

  TrafficWorkloadOptions topts;
  topts.injection_rate = config_.get_double("injection_rate");
  topts.warmup_steps = config_.get_int("warmup_steps");
  topts.measure_steps = config_.get_int("measure_steps");
  topts.drain_steps = config_.get_int("drain_steps");
  topts.probes = static_cast<int>(config_.get_int("routes"));
  topts.min_probe_distance = static_cast<int>(config_.get_int("min_pair_distance"));
  topts.trace_record = config_.get_str("trace_record");
  topts.trace_packet_size = config_.get_str("switching") == "wormhole"
                                ? static_cast<int>(config_.get_int("flits_per_packet"))
                                : 1;

  TrafficWorkload workload(*env.sim, *pattern, *process, topts, rng);
  const TrafficResult r = workload.run();

  out.add("offered_load", r.offered_load);
  out.add("throughput", r.accepted_throughput);
  out.add("injected", static_cast<double>(r.injected));
  out.add("stall_steps", static_cast<double>(r.stall_steps));
  out.add("drained", r.measured_unfinished == 0 ? 1.0 : 0.0);
  if (r.measured > 0)
    out.add("delivered_frac",
            static_cast<double>(r.measured_delivered) / static_cast<double>(r.measured));
  for (const auto& [value, count] : r.latency.buckets())
    out.add_repeated("latency", static_cast<double>(value), count);
  // Flit-level switching extras; all empty under ideal, so the default
  // metric set is unchanged byte for byte.
  for (const auto& [value, count] : r.head_latency.buckets())
    out.add_repeated("head_latency", static_cast<double>(value), count);
  for (const auto& [value, count] : r.serialization.buckets())
    out.add_repeated("serialization_latency", static_cast<double>(value), count);
  for (const auto& [name, value] : env.sim->switching().metrics())
    out.add("sw_" + name, value);
  out.add("occurrences", static_cast<double>(env.sim->occurrences().size()));
  // Only lifecycle churn ever renders a node unreachable mid-run, so the
  // gate keeps the default metric set byte-identical for placement models.
  if (env.sim->first_unreachable_step() >= 0)
    out.add("first_unreachable_step", static_cast<double>(env.sim->first_unreachable_step()));

  // Probe messages: the historical single-message metrics, under load.
  for (const int id : r.probe_ids) {
    const MessageProgress& msg = env.sim->message(id);
    out.add("delivered", msg.delivered ? 1.0 : 0.0);
    if (msg.delivered) {
      out.add("steps", static_cast<double>(msg.header.total_steps()));
      out.add("detours", static_cast<double>(msg.detours()));
      out.add("backtracks", static_cast<double>(msg.header.backtrack_steps()));
      out.add("min_distance", msg.initial_distance);
    }
  }
}

void ExperimentRunner::run_replication(Rng& rng, MetricSet& out) const {
  if (config_.get_str("traffic") != "none") return run_one_traffic(rng, out);
  const std::string& mode = config_.get_str("mode");
  if (mode == "static") return run_one_static(rng, out);
  if (mode == "dynamic") return run_one_dynamic(rng, out);
  throw ConfigError("unknown mode '" + mode + "' (want static or dynamic)");
}

ExperimentResult ExperimentRunner::run() const {
  return run_each([this](Rng& rng, MetricSet& out) { run_replication(rng, out); });
}

ExperimentResult ExperimentRunner::run_and_report(std::ostream& os) const {
  ExperimentResult result = run();
  make_reporter(config_.get_str("report"))->report(result, os);
  return result;
}

}  // namespace lgfi
