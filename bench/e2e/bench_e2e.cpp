// bench_e2e: one end-to-end workload, measured through the public campaign
// path a user runs (CampaignRunner::run_with over
// ExperimentRunner::run_replication).
//
// The workload arrives as a config line of key=value tokens; the program
// knows nothing about workload names.  bench/e2e/run.py generates the lines,
// builds this program, and runs each workload in its own process (see
// bench/e2e/README.md for the workloads and the metrics).
//
//   bench_e2e [--seconds T] key=value...            end-to-end metrics
//   bench_e2e --traced [--trace-out FILE] ...        per-layer ledger
//   bench_e2e --check-threads key=value...           threads=0 vs threads=2
//   bench_e2e --build-info                           {"ndebug": ...}
//
// A run runs one untimed warm-up replication per worker, then runs whole
// campaigns of `replications` each, campaign c seeded seed + c *
// kCampaignSeedStride, until T seconds have passed (at least one campaign).
// Before each campaign it times a sample of repeated set-ups (setup_s).  The
// simulated metrics and sim_digest come from campaign 0 alone, so they depend
// only on the config line.
//
// The traced run alternates an untraced and a traced copy of each campaign.
// The traced copy registers timed_<name> decorators for the router and the
// switching model, wraps the injection process, and times the spans between
// their calls; its JsonReporter bytes must equal the untraced copy's.
//
// Every replication is checked (correctness_error below); the last stdout
// line is one JSON object with correct/attempted/failed/sim_digest/metrics.
// Exit status: 0 when every check passed, 1 when one failed, 2 on errors.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "src/core/campaign.h"
#include "src/core/mutex.h"
#include "src/core/scenario.h"
#include "src/core/topology_registry.h"
#include "src/core/traffic_workload.h"
#include "src/routing/global_table_router.h"
#include "src/routing/route_walker.h"
#include "src/routing/router_registry.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/fault_timeline.h"
#include "src/sim/injection_process.h"
#include "src/sim/switching_model.h"
#include "src/sim/traffic_pattern.h"

using namespace lgfi;

namespace {

using Clock = std::chrono::steady_clock;

constexpr long long kCampaignSeedStride = 1'000'003;
// Set-up is timed in samples: runs of consecutive repeats that together take
// at least kMinSetupSampleS, so a set-up of tens of microseconds is timed over
// hundreds of repeats instead of one.  A run takes at least kMinSetupSamples.
constexpr size_t kMinSetupSamples = 5;
constexpr double kMinSetupSampleS = 0.05;
constexpr const char* kTimedPrefix = "timed_";

const Clock::time_point kOrigin = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_since_origin(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kOrigin).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between order statistics (numpy's default).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Small dense id per thread for the Chrome trace (the main thread runs
/// first, so it is 0).
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string fnv1a_hex(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The metric bytes of a single-run JsonReporter object: everything after
/// the config object.  The config is left out because the traced copy runs
/// under timed_<name> component names and threads differs between the
/// thread-count check's two runs.
std::string metric_bytes(const std::string& json) {
  const size_t at = json.find("},\"replications\":");
  if (at == std::string::npos) throw std::runtime_error("no replications field in JSON report");
  return json.substr(at + 2);
}

// ---------------------------------------------------------------------------
// The per-replication ledger.
// ---------------------------------------------------------------------------

/// Which layer the host is in.  The segments tile a traced replication: each
/// boundary read closes the open segment and opens the next, so 3-4 clock
/// reads per simulated step attribute all of it (plus two per routing
/// decision, which routing.decide_s needs).
enum class Segment : uint8_t {
  kNone,         // outside the replication body's layers (its checks)
  kEnvBuild,     // build_dynamic / topology + Network + placement
  kInject,       // injection sweep, probe launches, static pair sampling
  kProtocol,     // fault events + information rounds in the step loop
  kConstruct,    // static from-scratch convergence (build_static's stabilize)
  kAdvance,      // switching advance_step / static route walks
  kBookkeeping,  // workload bookkeeping after the advance, result recording
  kTeardown,     // destroying the replication's environment
  kCount,
};

struct Ledger {
  Segment open = Segment::kNone;
  Clock::time_point since = Clock::now();
  std::array<double, static_cast<size_t>(Segment::kCount)> seconds{};

  double decide_s = 0.0;
  long long decide_calls = 0;
  long long fire_calls = 0;
  long long injected = 0;
  long long steps = 0;
  long long messages = 0;
  long long node_visits = 0;
  long long mail_sent = 0;
  long long rounds = 0;
  long long occurrences = 0;
  long long deposits = 0;
  long long dsnap_entries = 0;
  long long stalls = 0;
  long long flit_moves = 0;
  long long vc_alloc_stalls = 0;
  double bytes_per_node = 0.0;

  /// Closes the open segment and opens `next`; returns the boundary time.
  Clock::time_point enter(Segment next) {
    const Clock::time_point t = Clock::now();
    seconds[static_cast<size_t>(open)] += seconds_between(since, t);
    open = next;
    since = t;
    return t;
  }
  [[nodiscard]] double in(Segment s) const { return seconds[static_cast<size_t>(s)]; }
};

/// The ledger of the traced replication running on this thread; decorators
/// built while it is set bind to it.
thread_local Ledger* t_ledger = nullptr;

struct LedgerScope {
  explicit LedgerScope(Ledger& ledger) { t_ledger = &ledger; }
  ~LedgerScope() { t_ledger = nullptr; }
  LedgerScope(const LedgerScope&) = delete;
  LedgerScope& operator=(const LedgerScope&) = delete;
};

// ---------------------------------------------------------------------------
// Timing decorators.  Each forwards every call; with no ledger bound (the
// runner's throwaway validation builds) it adds nothing.
// ---------------------------------------------------------------------------

class TimedRouter final : public Router {
 public:
  explicit TimedRouter(std::unique_ptr<Router> inner)
      : inner_(std::move(inner)), ledger_(t_ledger) {}

  RouteDecision decide(const RoutingContext& ctx, RoutingHeader& header) override {
    if (ledger_ == nullptr) return inner_->decide(ctx, header);
    const Clock::time_point t0 = Clock::now();
    const RouteDecision d = inner_->decide(ctx, header);
    ledger_->decide_s += seconds_between(t0, Clock::now());
    ++ledger_->decide_calls;
    return d;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Router> inner_;
  Ledger* ledger_;
};

class TimedSwitching final : public SwitchingModel {
 public:
  explicit TimedSwitching(std::unique_ptr<SwitchingModel> inner)
      : inner_(std::move(inner)), ledger_(t_ledger) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool arbitrated() const override { return inner_->arbitrated(); }
  void add_packet(int id, NodeId source) override { inner_->add_packet(id, source); }
  void advance_step(SwitchingHost& host, LinkArbiter* arbiter) override {
    if (ledger_ == nullptr) return inner_->advance_step(host, arbiter);
    // A step without an injection sweep (drain, probe runs) has no boundary
    // between the previous step's bookkeeping and this step's fault phase;
    // the whole gap counts as protocol time.
    if (ledger_->open == Segment::kBookkeeping) ledger_->open = Segment::kProtocol;
    ledger_->enter(Segment::kAdvance);
    inner_->advance_step(host, arbiter);
    ledger_->enter(Segment::kBookkeeping);
  }
  [[nodiscard]] std::vector<std::pair<std::string, double>> metrics() const override {
    return inner_->metrics();
  }
  void validate() const override { inner_->validate(); }

 private:
  std::unique_ptr<SwitchingModel> inner_;
  Ledger* ledger_;
};

/// Wraps the traced replication's injection process: begin_step opens the
/// injection segment and the last slot's fire() closes it.  Individual
/// fire() calls are counted, not timed (a clock read costs more than one).
class TimedInjection final : public InjectionProcess {
 public:
  TimedInjection(InjectionProcess& inner, Ledger& ledger, long long terminals)
      : inner_(&inner), ledger_(&ledger), last_slot_(terminals - 1) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void begin_step(const InjectionStepView& view) override {
    ledger_->enter(Segment::kInject);
    inner_->begin_step(view);
  }
  [[nodiscard]] bool fire(int slot, Rng& rng) override {
    const bool fired = inner_->fire(slot, rng);
    ++ledger_->fire_calls;
    if (slot == last_slot_) ledger_->enter(Segment::kProtocol);
    return fired;
  }
  [[nodiscard]] bool replay_destination(int slot, Coord& dest) override {
    return inner_->replay_destination(slot, dest);
  }
  void on_inject(int slot, int msg_id) override { inner_->on_inject(slot, msg_id); }
  [[nodiscard]] bool closed_loop() const override { return inner_->closed_loop(); }
  void on_slot_released(int slot) override { inner_->on_slot_released(slot); }

 private:
  InjectionProcess* inner_;
  Ledger* ledger_;
  long long last_slot_;
};

/// timed_<name> for every registered router (same default InfoMode) and for
/// both switching models.  Registered from main(): registrars at file scope
/// would race the library's own static registrations.
void register_timed_components() {
  RouterRegistry& routers = RouterRegistry::instance();
  for (const std::string& name : routers.names()) {
    routers.add(kTimedPrefix + name, routers.default_info_mode(name),
                [name](const Config& config) -> std::unique_ptr<Router> {
                  return std::make_unique<TimedRouter>(make_router(name, config));
                });
  }
  for (const std::string name : {"ideal", "wormhole"}) {
    SwitchingModelRegistry::instance().add(
        kTimedPrefix + name, [name](const Topology& mesh, const SwitchingOptions& options) {
          return std::unique_ptr<SwitchingModel>(
              std::make_unique<TimedSwitching>(make_switching_model(name, mesh, options)));
        });
  }
}

// ---------------------------------------------------------------------------
// Traced replication bodies: copies of ExperimentRunner's run_one_traffic,
// run_one_dynamic and run_one_static through public calls only, with segment
// boundaries between the calls.  They must record the same metrics in the
// same order; the digest comparison enforces it.
// ---------------------------------------------------------------------------

struct Span {
  Clock::time_point begin;
  Clock::time_point end;
};

void count_model(Ledger& ledger, const DistributedFaultModel& model) {
  ledger.node_visits = model.protocol_node_visits();
  ledger.mail_sent = model.messages_sent();
  ledger.rounds = model.rounds_run();
  ledger.deposits = model.envelope_deposits() + model.wall_deposits();
}

void count_simulation(Ledger& ledger, const DynamicSimulation& sim) {
  count_model(ledger, sim.model());
  ledger.steps = sim.now();
  ledger.messages = static_cast<long long>(sim.messages().size());
  ledger.occurrences = static_cast<long long>(sim.occurrences().size());
  ledger.bytes_per_node = static_cast<double>(sim.memory_bytes()) /
                          static_cast<double>(sim.mesh().node_count());
  for (const MessageProgress& msg : sim.messages())
    ledger.dsnap_entries += static_cast<long long>(msg.distance_at_occurrence.size());
  ledger.stalls = sim.total_stalls();
  for (const auto& [name, value] : sim.switching().metrics()) {
    if (name == "flit_moves") ledger.flit_moves = static_cast<long long>(value);
    if (name == "vc_alloc_stalls") ledger.vc_alloc_stalls = static_cast<long long>(value);
  }
}

void traced_traffic(const ExperimentRunner& runner, Rng& rng, MetricSet& out, Ledger& ledger,
                    Span& env_span) {
  const Config& config = runner.config();
  env_span.begin = ledger.enter(Segment::kEnvBuild);
  ExperimentRunner::DynamicEnv env = runner.build_dynamic(rng, /*run_warmup=*/false);
  const auto pattern = make_traffic_pattern(config.get_str("traffic"), *env.mesh, config, rng);
  const auto inner_process =
      make_injection_process(config.get_str("injection"), *env.mesh, config, rng);
  TimedInjection process(*inner_process, ledger, env.mesh->terminal_count());

  TrafficWorkloadOptions topts;
  topts.injection_rate = config.get_double("injection_rate");
  topts.warmup_steps = config.get_int("warmup_steps");
  topts.measure_steps = config.get_int("measure_steps");
  topts.drain_steps = config.get_int("drain_steps");
  topts.probes = static_cast<int>(config.get_int("routes"));
  topts.min_probe_distance = static_cast<int>(config.get_int("min_pair_distance"));
  topts.trace_record = config.get_str("trace_record");
  topts.trace_packet_size = config.get_str("switching") == std::string(kTimedPrefix) + "wormhole"
                                ? static_cast<int>(config.get_int("flits_per_packet"))
                                : 1;
  TrafficWorkload workload(*env.sim, *pattern, process, topts, rng);
  env_span.end = ledger.enter(Segment::kBookkeeping);
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
  for (const auto& [value, count] : r.head_latency.buckets())
    out.add_repeated("head_latency", static_cast<double>(value), count);
  for (const auto& [value, count] : r.serialization.buckets())
    out.add_repeated("serialization_latency", static_cast<double>(value), count);
  for (const auto& [name, value] : env.sim->switching().metrics()) out.add("sw_" + name, value);
  out.add("occurrences", static_cast<double>(env.sim->occurrences().size()));
  if (env.sim->first_unreachable_step() >= 0)
    out.add("first_unreachable_step", static_cast<double>(env.sim->first_unreachable_step()));
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
  count_simulation(ledger, *env.sim);
  ledger.injected = r.injected;
  ledger.enter(Segment::kTeardown);
}

void traced_dynamic(const ExperimentRunner& runner, Rng& rng, MetricSet& out, Ledger& ledger,
                    Span& env_span) {
  const Config& config = runner.config();
  env_span.begin = ledger.enter(Segment::kEnvBuild);
  ExperimentRunner::DynamicEnv env = runner.build_dynamic(rng, /*run_warmup=*/false);
  env_span.end = ledger.enter(Segment::kProtocol);
  const long long warmup = config.get_int("warmup_steps");
  for (long long i = 0; i < warmup; ++i) env.sim->step();

  ledger.enter(Segment::kInject);
  const int routes = static_cast<int>(config.get_int("routes"));
  const int min_distance = static_cast<int>(config.get_int("min_pair_distance"));
  std::vector<int> ids;
  for (int i = 0; i < routes; ++i) {
    const Pair pair = random_enabled_pair(*env.mesh, env.sim->model().field(), rng, min_distance);
    ids.push_back(env.sim->launch_message(pair.source, pair.dest));
  }
  ledger.enter(Segment::kProtocol);
  // sim->run(max_steps), one step per call: run(1) returns without stepping
  // once the run is over.
  const long long max_steps = config.get_int("max_steps");
  for (long long i = 0; i < max_steps; ++i) {
    const long long before = env.sim->now();
    env.sim->run(1);
    if (env.sim->now() == before) break;
  }
  ledger.enter(Segment::kBookkeeping);

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
  count_simulation(ledger, *env.sim);
  ledger.injected = routes;
  ledger.enter(Segment::kTeardown);
}

/// build_static up to its first convergence: the network and the fault
/// placement, no fault injected yet.
ExperimentRunner::StaticEnv place_static(const Config& config, Rng& rng) {
  if (config.get_str("scenario") != "random")
    throw ConfigError("bench_e2e runs static workloads with scenario=random only");
  DistributedModelOptions mopts;
  mopts.active_set = config.get_bool("active_set");
  ExperimentRunner::StaticEnv env;
  env.net = std::make_unique<Network>(*make_topology(config), mopts);
  env.faults = place_faults(env.mesh(), config, rng);
  return env;
}

void traced_static(const ExperimentRunner& runner, Rng& rng, MetricSet& out, Ledger& ledger,
                   Span& env_span) {
  const Config& config = runner.config();
  // build_static, split before the first convergence.
  env_span.begin = ledger.enter(Segment::kEnvBuild);
  const ExperimentRunner::StaticEnv env = place_static(config, rng);
  Network& net = *env.net;
  env_span.end = ledger.enter(Segment::kConstruct);
  for (const auto& c : env.faults) net.inject_fault(c);
  const ConstructionRounds rounds = net.stabilize(static_cast<int>(config.get_int("max_rounds")));
  ledger.enter(Segment::kBookkeeping);

  out.add("blocks", static_cast<double>(net.blocks().size()));
  out.add("converge_rounds", rounds.total);
  const auto router = runner.make_router();
  const InfoMode mode = runner.info_mode();
  EmptyInfoProvider empty;
  GlobalInfoProvider global;
  RoutingContext ctx = net.context();
  if (mode == InfoMode::kNone) {
    ctx.info = &empty;
  } else if (mode == InfoMode::kInstantGlobal || mode == InfoMode::kDelayedGlobal) {
    std::vector<BlockInfo> infos;
    for (const auto& b : net.blocks()) infos.push_back(BlockInfo{b.box, net.model().epoch()});
    global.set_blocks(std::move(infos));
    ctx.info = &global;
  }

  const int routes = static_cast<int>(config.get_int("routes"));
  const int min_distance = static_cast<int>(config.get_int("min_pair_distance"));
  for (int i = 0; i < routes; ++i) {
    ledger.enter(Segment::kInject);
    const Pair pair = random_enabled_pair(net.mesh(), net.field(), rng, min_distance);
    ledger.enter(Segment::kAdvance);
    const RouteResult r =
        run_static_route(ctx, *router, pair.source, pair.dest, config.get_int("step_budget"));
    ledger.enter(Segment::kBookkeeping);
    out.add("delivered", r.delivered ? 1.0 : 0.0);
    if (r.delivered) {
      out.add("steps", r.total_steps);
      out.add("detours", r.detours());
      out.add("backtracks", r.backtrack_steps);
      out.add("min_distance", r.min_distance);
    }
  }
  count_model(ledger, net.model());
  ledger.messages = routes;
  ledger.injected = routes;
  ledger.bytes_per_node = static_cast<double>(net.model().memory_bytes()) /
                          static_cast<double>(net.mesh().node_count());
  ledger.enter(Segment::kTeardown);
}

bool is_traffic(const Config& config) { return config.get_str("traffic") != "none"; }

/// Each body ends by opening the teardown segment, which closes here, after
/// its locals (the environment) are destroyed.
void traced_replication(const ExperimentRunner& runner, Rng& rng, MetricSet& out,
                        Ledger& ledger, Span& env_span) {
  const Config& config = runner.config();
  if (is_traffic(config)) {
    traced_traffic(runner, rng, out, ledger, env_span);
  } else if (config.get_str("mode") == "dynamic") {
    traced_dynamic(runner, rng, out, ledger, env_span);
  } else {
    traced_static(runner, rng, out, ledger, env_span);
  }
  ledger.enter(Segment::kNone);
}

// ---------------------------------------------------------------------------
// Correctness checks, derived from the config (never from a workload name).
// ---------------------------------------------------------------------------

/// Empty when one replication's metrics satisfy the invariants its config
/// implies; otherwise the first violated one.
std::string correctness_error(const Config& config, const MetricSet& m) {
  if (is_traffic(config)) {
    if (m.mean("drained") != 1.0) return "traffic did not drain (drained != 1)";
    const double rate = config.get_double("injection_rate");
    const double offered = m.mean("offered_load");
    const std::string& injection = config.get_str("injection");
    if (injection == "bernoulli" && std::abs(offered - rate) > 0.1 * rate)
      return "offered_load " + std::to_string(offered) + " not within 10% of injection_rate";
    if (injection == "closed_loop" && offered > rate)
      return "closed-loop offered_load " + std::to_string(offered) + " exceeds injection_rate";
  }
  if (m.has("detours") && m.stats("detours").min() < 0) return "a delivered probe has detours < 0";
  if (is_lifecycle_model(config.get_str("fault_model")) && m.mean("occurrences") <= 0)
    return "lifecycle run recorded no fault occurrence";
  if (!is_traffic(config) && config.get_str("mode") == "static" &&
      config.get_int("faults") > 0 && m.mean("blocks") < 1)
    return "static run formed no block";
  return "";
}

// ---------------------------------------------------------------------------
// Campaigns.
// ---------------------------------------------------------------------------

struct TracedRep {
  int tid = 0;
  Span rep;
  Span env;
  Ledger ledger;
};

struct CampaignResult {
  double wall_s = 0.0;
  Span span;
  std::vector<double> rep_s;
  long long failed = 0;
  std::vector<std::string> failures;
  std::vector<TracedRep> traced;
  std::vector<PointResult> points;
  std::string metric_bytes;

  [[nodiscard]] double busy_s() const {
    double sum = 0.0;
    for (const double s : rep_s) sum += s;
    return sum;
  }
};

SweepSpec with_tokens(SweepSpec spec, const std::vector<std::string>& tokens) {
  for (const auto& token : tokens) spec.parse_token(token);
  return spec;
}

SweepSpec campaign_spec(const SweepSpec& base, int campaign) {
  const long long seed = base.base().get_int("seed") + campaign * kCampaignSeedStride;
  return with_tokens(base, {"seed=" + std::to_string(seed)});
}

SweepSpec traced_spec(const SweepSpec& spec) {
  return with_tokens(spec, {"router=" + std::string(kTimedPrefix) + spec.base().get_str("router"),
                            "switching=" + std::string(kTimedPrefix) +
                                spec.base().get_str("switching")});
}

CampaignResult run_campaign(const SweepSpec& spec, bool traced) {
  const CampaignRunner runner(spec);
  CampaignResult result;
  struct Shared {
    Mutex mu;
    std::vector<double> rep_s GUARDED_BY(mu);
    long long failed GUARDED_BY(mu) = 0;
    std::vector<std::string> failures GUARDED_BY(mu);
    std::vector<TracedRep> traced GUARDED_BY(mu);
  } shared;

  const auto body = [&](const ExperimentRunner& r, Rng& rng, MetricSet& out) {
    TracedRep rep;
    rep.tid = thread_index();
    std::string error;
    rep.rep.begin = Clock::now();
    try {
      if (traced) {
        const LedgerScope scope(rep.ledger);
        traced_replication(r, rng, out, rep.ledger, rep.env);
      } else {
        r.run_replication(rng, out);
      }
      error = correctness_error(r.config(), out);
    } catch (const std::exception& e) {
      error = std::string("replication threw: ") + e.what();
    }
    rep.rep.end = Clock::now();
    MutexLock lock(shared.mu);
    shared.rep_s.push_back(seconds_between(rep.rep.begin, rep.rep.end));
    if (!error.empty()) {
      ++shared.failed;
      if (shared.failures.size() < 5) shared.failures.push_back(error);
    }
    if (traced) shared.traced.push_back(rep);
  };

  JsonReporter json;
  std::ostringstream os;
  result.span.begin = Clock::now();
  result.points = runner.run_with(body, &json, &os);
  result.span.end = Clock::now();
  result.wall_s = seconds_between(result.span.begin, result.span.end);
  result.metric_bytes = metric_bytes(os.str());
  MutexLock lock(shared.mu);
  result.rep_s = std::move(shared.rep_s);
  result.failed = shared.failed;
  result.failures = std::move(shared.failures);
  result.traced = std::move(shared.traced);
  return result;
}

struct SetupTimes {
  double setup_s = 0.0;
  double validate_s = 0.0;
};

/// Repeated set-ups: CampaignRunner construction (parse, grid expansion,
/// eager validation) plus one replication's environment build.  Static runs
/// stop that build before the first convergence: the convergence is the
/// replication's main work, and one placement's convergence time varies
/// three-fold with the cluster's shape.  Repeat i builds replication i's
/// environment, so the result does not hang on one fault placement.
///
/// Samples are taken one before each campaign, so they see the host over the
/// whole run, as the campaigns do; a set-up timed only at process start
/// followed the host's load at that one moment.
class SetupSampler {
 public:
  explicit SetupSampler(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {}

  /// One sample: consecutive repeats until their set-up time reaches
  /// kMinSetupSampleS; records the mean time per repeat.
  void sample() {
    double setup_s = 0.0;
    double validate_s = 0.0;
    int repeats = 0;
    for (; setup_s < kMinSetupSampleS; ++repeats, ++repeat_) {
      const Clock::time_point t0 = Clock::now();
      SweepSpec spec(experiment_config());
      for (const auto& token : tokens_) spec.parse_token(token);
      const CampaignRunner campaign(spec);
      const Clock::time_point t1 = Clock::now();
      // Untimed: a second ExperimentRunner for the point (its constructor
      // repeats the validation already counted above).
      const ExperimentRunner runner(campaign.campaign().points.front().config);
      Rng rng = Rng(static_cast<uint64_t>(runner.config().get_int("seed")))
                    .fork(static_cast<uint64_t>(repeat_));
      const Clock::time_point t2 = Clock::now();
      Clock::time_point t3;
      if (is_traffic(runner.config()) || runner.config().get_str("mode") == "dynamic") {
        const ExperimentRunner::DynamicEnv env = runner.build_dynamic(rng, /*run_warmup=*/false);
        t3 = Clock::now();
      } else {
        const ExperimentRunner::StaticEnv env = place_static(runner.config(), rng);
        t3 = Clock::now();
      }
      setup_s += seconds_between(t0, t1) + seconds_between(t2, t3);
      validate_s += seconds_between(t0, t1);
    }
    setup_.push_back(setup_s / repeats);
    validate_.push_back(validate_s / repeats);
  }

  /// Medians over the samples, after topping them up to kMinSetupSamples.
  SetupTimes result() {
    while (setup_.size() < kMinSetupSamples) sample();
    return {median(setup_), median(validate_)};
  }

 private:
  std::vector<std::string> tokens_;
  std::vector<double> setup_;
  std::vector<double> validate_;
  long long repeat_ = 0;
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  std::vector<Metric> metrics;

  void absorb(const CampaignResult& c) {
    attempted += static_cast<long long>(c.rep_s.size());
    failed += c.failed;
    for (const auto& f : c.failures)
      if (failures.size() < 5) failures.push_back(f);
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_outcome(const Outcome& o) {
  for (const auto& m : o.metrics)
    std::fprintf(stderr, "  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& f : o.failures) std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  std::ostringstream line;
  line << "{\"correct\":" << (o.failed == 0 ? "true" : "false") << ",\"attempted\":" << o.attempted
       << ",\"failed\":" << o.failed << ",\"sim_digest\":" << json_string(o.digest)
       << ",\"failures\":[";
  for (size_t i = 0; i < o.failures.size(); ++i)
    line << (i > 0 ? "," : "") << json_string(o.failures[i]);
  line << "],\"metrics\":{";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    line << (i > 0 ? "," : "") << json_string(o.metrics[i].name) << ":{\"value\":"
         << json_number(o.metrics[i].value) << ",\"unit\":" << json_string(o.metrics[i].unit)
         << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

/// Chrome trace-event JSON: one span per campaign (the workload run), per
/// traced replication (per-layer self times as args) and per env build.
void write_chrome_trace(const std::string& path, const std::vector<CampaignResult>& campaigns) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file '" + path + "'");
  bool first = true;
  const auto span = [&](const std::string& name, int tid, const Span& s, const std::string& args) {
    os << (first ? "\n" : ",\n") << "{\"name\":" << json_string(name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << json_number(micros_since_origin(s.begin))
       << ",\"dur\":" << json_number(micros_since_origin(s.end) - micros_since_origin(s.begin))
       << ",\"args\":{" << args << "}}";
    first = false;
  };
  os << "{\"traceEvents\":[";
  for (size_t c = 0; c < campaigns.size(); ++c) {
    const CampaignResult& campaign = campaigns[c];
    span(std::string(campaign.traced.empty() ? "campaign" : "traced campaign"), 0, campaign.span,
         "\"replications\":" + std::to_string(campaign.rep_s.size()));
    for (const TracedRep& rep : campaign.traced) {
      const Ledger& l = rep.ledger;
      std::ostringstream args;
      args << "\"core.env_s\":"
           << json_number(l.in(Segment::kEnvBuild) + l.in(Segment::kTeardown))
           << ",\"core.traffic_s\":"
           << json_number(l.in(Segment::kInject) + l.in(Segment::kBookkeeping))
           << ",\"fault_s\":" << json_number(l.in(Segment::kProtocol) + l.in(Segment::kConstruct))
           << ",\"routing_s\":" << json_number(l.decide_s)
           << ",\"sim.switching_s\":" << json_number(l.in(Segment::kAdvance) - l.decide_s)
           << ",\"steps\":" << l.steps;
      span("replication", rep.tid, rep.rep, args.str());
      span("env_build", rep.tid, rep.env, "");
    }
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

int workers(const Config& config) {
  const long long threads = config.get_int("threads");
  return threads > 0 ? static_cast<int>(threads) + 1
                     : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Warm-up: one replication of campaign 0 per worker, untimed but checked
/// like every other replication.  Running all workers at once grows every
/// thread's allocator arena before campaign 0 is timed.
CampaignResult warm_up(const SweepSpec& base) {
  return run_campaign(
      with_tokens(campaign_spec(base, 0),
                  {"replications=" + std::to_string(workers(base.base()))}),
      /*traced=*/false);
}

int run_untraced(const SweepSpec& base, const std::vector<std::string>& tokens, double seconds) {
  SetupSampler sampler(tokens);
  Outcome o;
  o.absorb(warm_up(base));

  std::vector<CampaignResult> campaigns;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c == 0 || seconds_between(start, Clock::now()) < seconds; ++c) {
    sampler.sample();
    campaigns.push_back(run_campaign(campaign_spec(base, c), /*traced=*/false));
    o.absorb(campaigns.back());
    std::fprintf(stderr, "campaign %d: %.3f s, %zu replications\n", c, campaigns.back().wall_s,
                 campaigns.back().rep_s.size());
  }
  const SetupTimes setup = sampler.result();

  std::vector<double> walls;
  std::vector<double> rep_ms;
  for (const auto& c : campaigns) {
    walls.push_back(c.wall_s);
    for (const double s : c.rep_s) rep_ms.push_back(s * 1e3);
  }
  // Simulated outcomes of campaign 0: a function of the config line alone.
  const CampaignResult& first = campaigns.front();
  const MetricSet& sim = first.points.front().result.metrics;
  const bool traffic = is_traffic(base.base());
  o.digest = fnv1a_hex(first.metric_bytes);
  o.metrics = {
      {"setup_s", setup.setup_s, "s"},
      {"run_s", median(walls), "s"},
      {"rep_ms_p50", percentile(rep_ms, 0.5), "ms"},
      {"rep_ms_p90", percentile(rep_ms, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_failed_frac",
       o.attempted > 0 ? static_cast<double>(o.failed) / static_cast<double>(o.attempted) : 0.0,
       "fraction"},
      {"sim_delivered_frac", sim.mean(traffic ? "delivered_frac" : "delivered"), "fraction"},
      {"sim_latency_steps", sim.mean(traffic ? "latency" : "steps"), "steps"},
      {"reps", static_cast<double>(rep_ms.size()), "count"},
      {"campaigns", static_cast<double>(campaigns.size()), "count"},
  };
  if (traffic) o.metrics.push_back({"sim_accepted_load", sim.mean("throughput"), "msg/term/step"});
  print_outcome(o);
  return o.failed == 0 ? 0 : 1;
}

int run_traced(const SweepSpec& base, const std::vector<std::string>& tokens, double seconds,
               const std::string& trace_out) {
  SetupSampler sampler(tokens);
  Outcome o;
  o.absorb(warm_up(base));

  std::vector<CampaignResult> campaigns;
  std::vector<double> overhead;
  std::vector<double> busy;
  std::vector<double> efficiency;
  const int nworkers = workers(base.base());
  const Clock::time_point start = Clock::now();
  for (int c = 0; c == 0 || seconds_between(start, Clock::now()) < seconds; ++c) {
    sampler.sample();
    const SweepSpec spec = campaign_spec(base, c);
    CampaignResult plain = run_campaign(spec, /*traced=*/false);
    CampaignResult traced = run_campaign(traced_spec(spec), /*traced=*/true);
    o.absorb(plain);
    o.absorb(traced);
    if (traced.metric_bytes != plain.metric_bytes) {
      o.failed += static_cast<long long>(traced.rep_s.size());
      o.failures.push_back("campaign " + std::to_string(c) +
                           ": traced sim_digest differs from the untraced one");
    }
    if (c == 0) o.digest = fnv1a_hex(plain.metric_bytes);
    overhead.push_back(traced.wall_s / plain.wall_s - 1.0);
    busy.push_back(plain.busy_s());
    efficiency.push_back(plain.busy_s() / (plain.wall_s * nworkers));
    std::fprintf(stderr, "campaign %d: %.3f s untraced, %.3f s traced\n", c, plain.wall_s,
                 traced.wall_s);
    campaigns.push_back(std::move(plain));
    campaigns.push_back(std::move(traced));
  }
  const SetupTimes setup = sampler.result();

  // Per-replication means over every traced replication.
  Ledger sum;
  double rep_s = 0.0;
  long long n = 0;
  for (const auto& c : campaigns) {
    for (const TracedRep& rep : c.traced) {
      const Ledger& l = rep.ledger;
      for (size_t s = 0; s < sum.seconds.size(); ++s) sum.seconds[s] += l.seconds[s];
      sum.decide_s += l.decide_s;
      sum.decide_calls += l.decide_calls;
      sum.fire_calls += l.fire_calls;
      sum.injected += l.injected;
      sum.steps += l.steps;
      sum.messages += l.messages;
      sum.node_visits += l.node_visits;
      sum.mail_sent += l.mail_sent;
      sum.rounds += l.rounds;
      sum.occurrences += l.occurrences;
      sum.deposits += l.deposits;
      sum.dsnap_entries += l.dsnap_entries;
      sum.stalls += l.stalls;
      sum.flit_moves += l.flit_moves;
      sum.vc_alloc_stalls += l.vc_alloc_stalls;
      sum.bytes_per_node += l.bytes_per_node;
      rep_s += seconds_between(rep.rep.begin, rep.rep.end);
      ++n;
    }
  }
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  const auto mean_of = [per](auto total) { return static_cast<double>(total) * per; };
  const double env_s = mean_of(sum.in(Segment::kEnvBuild));
  const double teardown_s = mean_of(sum.in(Segment::kTeardown));
  const double inject_s = mean_of(sum.in(Segment::kInject));
  const double bookkeeping_s = mean_of(sum.in(Segment::kBookkeeping));
  const double construct_s = mean_of(sum.in(Segment::kConstruct));
  const double protocol_s = mean_of(sum.in(Segment::kProtocol)) + construct_s;
  const double advance_s = mean_of(sum.in(Segment::kAdvance));
  const double decide_s = mean_of(sum.decide_s);
  const double traced_rep_s = mean_of(rep_s);
  const double unattributed_s =
      traced_rep_s - (env_s + teardown_s + inject_s + bookkeeping_s + protocol_s + advance_s);
  const bool is_static = !is_traffic(base.base()) && base.base().get_str("mode") == "static";

  o.metrics = {
      {"core.campaign.validate_s", setup.validate_s, "s"},
      {"core.campaign.busy_s", median(busy), "s"},
      {"core.campaign.parallel_eff", median(efficiency), "ratio"},
      {"core.campaign.traced_rep_s", traced_rep_s, "s"},
      {"core.env.build_s", env_s, "s"},
      {"core.env.teardown_s", teardown_s, "s"},
      {"core.traffic.inject_s", inject_s, "s"},
      {"core.traffic.bookkeeping_s", bookkeeping_s, "s"},
      {"core.traffic.fire_calls", mean_of(sum.fire_calls), "count"},
      {"core.traffic.injected", mean_of(sum.injected), "count"},
      {"fault.protocol_s", protocol_s, "s"},
      {"fault.construct_s", construct_s, "s"},
      {"fault.node_visits", mean_of(sum.node_visits), "count"},
      {"fault.mail_sent", mean_of(sum.mail_sent), "count"},
      {"fault.rounds", mean_of(sum.rounds), "count"},
      {"fault.occurrences", mean_of(sum.occurrences), "count"},
      {"fault.deposits", mean_of(sum.deposits), "count"},
      {"fault.bytes_per_node", mean_of(sum.bytes_per_node), "B"},
      {"fault.dsnap_entries", mean_of(sum.dsnap_entries), "count"},
      {"routing.decide_s", decide_s, "s"},
      {"routing.decide_calls", mean_of(sum.decide_calls), "count"},
      {"routing.decide_ns", sum.decide_calls > 0 ? sum.decide_s * 1e9 / sum.decide_calls : 0.0,
       "ns"},
      {"routing.static_route_s", is_static ? advance_s : 0.0, "s"},
      {"sim.switching.advance_s", advance_s, "s"},
      {"sim.switching.self_s", advance_s - decide_s, "s"},
      {"sim.switching.stalls", mean_of(sum.stalls), "count"},
      {"sim.switching.flit_moves", mean_of(sum.flit_moves), "count"},
      {"sim.switching.vc_alloc_stalls", mean_of(sum.vc_alloc_stalls), "count"},
      {"sim.steps", mean_of(sum.steps), "count"},
      {"sim.messages", mean_of(sum.messages), "count"},
      {"sim.unattributed_s", unattributed_s, "s"},
      {"trace.overhead_frac", median(overhead), "fraction"},
      {"reps", static_cast<double>(n), "count"},
  };
  if (sum.steps > 0)
    o.metrics.push_back({"sim.host_us_per_step", traced_rep_s / mean_of(sum.steps) * 1e6, "us"});

  // The layer split of traced replication time, largest first.
  std::vector<std::pair<double, std::string>> layers = {
      {env_s + teardown_s, "core.env"},
      {inject_s + bookkeeping_s, "core.traffic"},
      {protocol_s, "fault"},
      {decide_s, "routing"},
      {advance_s - decide_s, "sim.switching"},
      {unattributed_s, "unattributed"},
  };
  std::sort(layers.rbegin(), layers.rend());
  std::fprintf(stderr, "layer split of %.3f ms per traced replication (n=%lld):\n",
               traced_rep_s * 1e3, n);
  for (const auto& [s, name] : layers)
    std::fprintf(stderr, "  %-14s %9.3f ms %6.1f%%\n", name.c_str(), s * 1e3,
                 traced_rep_s > 0 ? 100.0 * s / traced_rep_s : 0.0);
  if (!trace_out.empty()) write_chrome_trace(trace_out, campaigns);
  print_outcome(o);
  return o.failed == 0 ? 0 : 1;
}

/// Same campaign at threads=0 (shared pool) and threads=2 (private pool):
/// the JsonReporter metric bytes must be identical.
int run_check_threads(const SweepSpec& base) {
  std::vector<std::string> bytes;
  for (const char* threads : {"threads=0", "threads=2"}) {
    const CampaignRunner runner(with_tokens(base, {threads}));
    JsonReporter json;
    std::ostringstream os;
    runner.run(json, os);
    bytes.push_back(metric_bytes(os.str()));
  }
  Outcome o;
  o.attempted = 1;
  o.digest = fnv1a_hex(bytes[0]);
  if (bytes[0] != bytes[1]) {
    o.failed = 1;
    o.failures.push_back("threads=0 and threads=2 JsonReporter bytes differ");
  }
  print_outcome(o);
  return o.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Fixed allocator thresholds.  With glibc's adaptive ones, whether a freed
  // environment went back to the kernel, to be page-faulted in again by the
  // next build, differed from process to process: the same set-up took
  // 0.13 ms in some processes and 0.67 ms in others.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  (void)thread_index();  // the main thread is tid 0 in the Chrome trace
  try {
    register_timed_components();
    double seconds = 10.0;
    bool traced = false;
    bool check_threads = false;
    std::string trace_out;
    std::vector<std::string> tokens;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--build-info") {
#ifdef NDEBUG
        std::cout << "{\"ndebug\":true}" << std::endl;
#else
        std::cout << "{\"ndebug\":false}" << std::endl;
#endif
        return 0;
      }
      if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--traced") {
        traced = true;
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--check-threads") {
        check_threads = true;
      } else if (arg.rfind("--", 0) == 0) {
        throw ConfigError("unknown flag '" + arg + "'");
      } else {
        tokens.push_back(arg);
      }
    }
    const SweepSpec base = with_tokens(SweepSpec(experiment_config()), tokens);
    if (!base.axes().empty()) throw ConfigError("bench_e2e runs one point; sweeps are not allowed");
    if (check_threads) return run_check_threads(base);
    if (traced) return run_traced(base, tokens, seconds, trace_out);
    return run_untraced(base, tokens, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
