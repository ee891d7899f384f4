// The two simulated deployments (paper_fixw, monitor_fanout), the engine
// drive loop they share, and the per-layer split of a traced pass.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <random>
#include <set>

#include "bench.hpp"
#include "core/collect.hpp"
#include "core/provenance.hpp"
#include "core/report.hpp"
#include "macro_run.hpp"
#include "router/cli.hpp"

namespace mantra::perfbench {
namespace {

constexpr std::uint64_t kFanoutScenarioSeed = 1998;
constexpr auto kFanoutWarmup = sim::Duration::hours(1);
constexpr auto kFanoutCycle = sim::Duration::minutes(2);

void start_cycles(SimRun& run, sim::Duration period, bool harness_timer) {
  if (!harness_timer) {
    run.monitor->start();
    return;
  }
  // Started at the same point of the event schedule as Mantra::start()
  // would be, so the cycles fire in the same order relative to every other
  // event (the benchmark's own test pins the byte-identity).
  SimRun* self = &run;
  run.timer = std::make_unique<sim::PeriodicTimer>(
      run.scenario->engine(), period, [self] {
        SpanLog::Scope scope = self->spans->span("mantra.run_cycle_now");
        const auto start = Clock::now();
        self->monitor->run_cycle_now();
        self->cycle_s.push_back(seconds_since(start));
      });
  run.timer->start();
}

}  // namespace

std::unique_ptr<SimRun> build_paper_run(std::uint64_t seed, bool telemetry,
                                        bool harness_timer) {
  bench::MacroConfig config;
  config.seed = seed;

  // The scenario exactly as bench::run_macro builds it.
  workload::ScenarioConfig scenario_config;
  scenario_config.seed = config.seed;
  scenario_config.domains = config.domains;
  scenario_config.hosts_per_domain = config.hosts_per_domain;
  scenario_config.dvmrp_prefixes_per_domain = config.dvmrp_prefixes_per_domain;
  scenario_config.report_loss = config.report_loss;
  scenario_config.timer_scale = config.timer_scale;
  scenario_config.full_timers = false;
  scenario_config.generator.session_arrivals_per_hour =
      config.session_arrivals_per_hour;
  scenario_config.generator.bursts_per_day = config.bursts_per_day;

  auto run = std::make_unique<SimRun>();
  run->scenario = std::make_unique<workload::FixwScenario>(scenario_config);
  workload::FixwScenario& scenario = *run->scenario;
  if (config.transition) {
    scenario.schedule_transition(
        sim::TimePoint::start() + sim::Duration::days(config.transition_day),
        sim::Duration::days(config.transition_ramp_days), config.transition_final);
  }
  if (config.ietf_surge && config.ietf_day < config.days) {
    scenario.schedule_ietf_meeting(
        sim::TimePoint::start() + sim::Duration::days(config.ietf_day),
        sim::Duration::days(config.ietf_length_days), config.ietf_audience);
  }

  core::MantraConfig monitor_config;
  monitor_config.cycle = sim::Duration::minutes(config.monitor_cycle_minutes);
  monitor_config.logger.full_snapshot_every = 192;
  monitor_config.telemetry.enabled = telemetry;
  run->monitor = std::make_unique<core::Mantra>(scenario.engine(), monitor_config);
  run->monitor->add_target(scenario.network().router(scenario.fixw_node()));
  run->monitor->add_target(scenario.network().router(scenario.ucsb_node()));
  run->transport_kind["fixw"] = "clean";
  run->transport_kind["ucsb-gw"] = "clean";

  scenario.start();
  start_cycles(*run, monitor_config.cycle, harness_timer);
  return run;
}

std::unique_ptr<SimRun> build_fanout_run(std::uint64_t seed,
                                         std::size_t worker_threads,
                                         const std::string& dir,
                                         std::size_t targets) {
  workload::ScenarioConfig scenario_config;
  scenario_config.seed = kFanoutScenarioSeed;
  scenario_config.domains = static_cast<int>(targets) - 1;  // fixw + borders
  scenario_config.hosts_per_domain = 2;
  scenario_config.dvmrp_prefixes_per_domain = 12;
  scenario_config.report_loss = 0.02;
  scenario_config.timer_scale = 40;
  scenario_config.full_timers = false;
  scenario_config.generator.session_arrivals_per_hour = 60.0;
  scenario_config.generator.bursts_per_day = 0.0;
  // Mixed planes from t=0: every parsed table (pairs, DVMRP routes, MSDP SA
  // cache, MBGP routes) carries rows.
  scenario_config.generator.sparse_probability = 0.5;

  auto run = std::make_unique<SimRun>();
  run->scenario = std::make_unique<workload::FixwScenario>(scenario_config);
  workload::FixwScenario& scenario = *run->scenario;
  scenario.start();
  scenario.engine().run_until(scenario.engine().now() + kFanoutWarmup);

  std::vector<const router::MulticastRouter*> routers;
  routers.push_back(scenario.network().router(scenario.fixw_node()));
  run->transport_kind[routers.back()->hostname()] = "clean";
  // A seeded quarter of the borders is faulty, another quarter shuffled.
  const auto& borders = scenario.border_nodes();
  std::vector<std::size_t> order(std::min(targets - 1, borders.size()));
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng() % i)]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    routers.push_back(scenario.network().router(borders[order[i]]));
    run->transport_kind[routers.back()->hostname()] =
        i % 4 == 0 ? "faulty" : i % 4 == 1 ? "shuffled" : "clean";
  }

  std::filesystem::create_directories(dir);
  core::MantraConfig config;
  config.cycle = kFanoutCycle;
  config.worker_threads = worker_threads;
  config.archive_dir = dir + "/marc";
  // The benchmark measures CPU cost; a key-frame fsync would measure the disk.
  config.archive.fsync_on_keyframe = false;
  config.telemetry.enabled = true;
  config.alerts.enabled = true;
  config.self.enabled = true;
  config.self.name = "monitor";
  config.self.path = dir + "/monitor.mtel";

  const std::map<std::string, std::string> kinds = run->transport_kind;
  core::TransportFactory factory =
      [kinds, seed](const std::string& name) -> std::unique_ptr<core::Transport> {
    const std::string& kind = kinds.at(name);
    if (kind == "faulty") {
      return std::make_unique<core::FaultInjectingTransport>(
          core::per_target_seed(seed, name),
          core::FaultProfile::command_failure_rate(0.10));
    }
    if (kind == "shuffled") {
      return std::make_unique<ShuffledTransport>(
          core::per_target_seed(seed ^ 0x5eedULL, name));
    }
    return nullptr;
  };
  run->monitor = std::make_unique<core::Mantra>(scenario.engine(), config,
                                                std::move(factory));
  for (const router::MulticastRouter* router : routers) {
    run->monitor->add_target(router);
  }
  start_cycles(*run, config.cycle, true);
  return run;
}

void merge(DriveStats& total, const DriveStats& part) {
  total.wall_s += part.wall_s;
  total.run_until_s += part.run_until_s;
  total.sim_days += part.sim_days;
  total.events += part.events;
  total.pending_peak = std::max(total.pending_peak, part.pending_peak);
  total.sessions_peak = std::max(total.sessions_peak, part.sessions_peak);
  total.flows_peak = std::max(total.flows_peak, part.flows_peak);
  total.tree_nodes_peak = std::max(total.tree_nodes_peak, part.tree_nodes_peak);
  total.mfc_entries_peak = std::max(total.mfc_entries_peak, part.mfc_entries_peak);
  total.queue_peak = std::max(total.queue_peak, part.queue_peak);
}

DriveStats drive(SimRun& run, std::size_t cycles, bool sample_network) {
  sim::Engine& engine = run.scenario->engine();
  const sim::Duration step = run.monitor->config().cycle;
  const std::size_t cycles_before = run.cycle_s.size();
  const std::uint64_t events_before = engine.events_processed();
  const sim::TimePoint sim_start = engine.now();
  DriveStats stats;
  const auto start = Clock::now();
  while (run.cycle_s.size() - cycles_before < cycles) {
    {
      SpanLog::Scope scope = run.spans->span("sim.run_until");
      const auto step_start = Clock::now();
      engine.run_until(engine.now() + step);
      stats.run_until_s += seconds_since(step_start);
    }
    stats.pending_peak = std::max(stats.pending_peak, engine.pending());
    stats.sessions_peak = std::max(
        stats.sessions_peak, run.scenario->generator().live_session_count());
    if (sample_network) {
      std::size_t flows = 0;
      std::size_t tree_nodes = 0;
      for (const router::Flow* flow : run.scenario->network().flows()) {
        ++flows;
        tree_nodes += flow->on_tree.size();
      }
      std::size_t mfc_entries = 0;
      for (const auto& [node, router] : run.scenario->network().routers()) {
        mfc_entries += router->mfc().size();
      }
      stats.flows_peak = std::max(stats.flows_peak, flows);
      stats.tree_nodes_peak = std::max(stats.tree_nodes_peak, tree_nodes);
      stats.mfc_entries_peak = std::max(stats.mfc_entries_peak, mfc_entries);
      stats.queue_peak = std::max(
          stats.queue_peak,
          static_cast<std::size_t>(run.monitor->telemetry()
                                       .metrics()
                                       .gauge("mantra_pool_queue_depth_peak")
                                       .value()));
    }
  }
  stats.wall_s = seconds_since(start);
  stats.events = engine.events_processed() - events_before;
  stats.sim_days = (engine.now() - sim_start).total_days();
  return stats;
}

void report_sim_layers(SimRun& run, const DriveStats& drive, SpanLog& spans,
                       RunResult& result) {
  workload::FixwScenario& scenario = *run.scenario;
  core::Mantra& monitor = *run.monitor;
  const std::vector<std::string> names = monitor.target_names();

  // --- sim ---
  double cycles_s = 0.0;
  for (const double s : run.cycle_s) cycles_s += s;
  const double sim_busy = drive.run_until_s - cycles_s;
  result.set("sim.busy_s", sim_busy, "s");
  result.set("sim.events", static_cast<double>(drive.events), "count");
  result.set("sim.ns_per_event",
             drive.events > 0 ? sim_busy * 1e9 / static_cast<double>(drive.events)
                              : 0.0,
             "ns");
  result.set("sim.pending_peak", static_cast<double>(drive.pending_peak), "count");

  // --- workload ---
  result.set("workload.sessions_live_peak",
             static_cast<double>(drive.sessions_peak), "count");

  // --- router: network and tree walk ---
  result.set("router.flows_peak", static_cast<double>(drive.flows_peak), "count");
  result.set("router.tree_nodes_peak", static_cast<double>(drive.tree_nodes_peak),
             "count");
  result.set("router.mfc_entries_peak",
             static_cast<double>(drive.mfc_entries_peak), "count");
  {
    SpanLog::Scope scope = spans.span("router.recompute_all_now");
    const auto start = Clock::now();
    scenario.network().recompute_all_now();
    result.set("router.recompute_all_ms", seconds_since(start) * 1e3, "ms");
  }

  // --- router: CLI render of the default command set, per target ---
  std::vector<const router::MulticastRouter*> routers;
  for (const auto& [node, router] : scenario.network().routers()) {
    if (std::find(names.begin(), names.end(), router->hostname()) != names.end()) {
      routers.push_back(router.get());
    }
  }
  {
    SpanLog::Scope scope = spans.span("router.render");
    std::string out;
    std::size_t bytes = 0;
    const auto start = Clock::now();
    for (const router::MulticastRouter* router : routers) {
      for (const std::string& command : core::default_command_set()) {
        out.clear();
        router::cli::execute_show_into(*router, command, scenario.engine().now(),
                                       out);
        bytes += out.size();
      }
    }
    const double elapsed = seconds_since(start);
    const double n = static_cast<double>(std::max<std::size_t>(routers.size(), 1));
    result.set("router.render_us", elapsed * 1e6 / n, "us");
    result.set("router.render_bytes", static_cast<double>(bytes) / n, "B");
  }

  // --- dvmrp: table size and RPF lookups over live flow sources ---
  {
    std::vector<net::Ipv4Address> sources;
    for (const router::Flow* flow : scenario.network().flows()) {
      sources.push_back(flow->source);
    }
    std::size_t routes = 0;
    std::size_t lookups = 0;
    std::size_t found = 0;
    SpanLog::Scope scope = spans.span("dvmrp.rpf_lookup");
    const auto start = Clock::now();
    for (const router::MulticastRouter* router : routers) {
      if (router->dvmrp() == nullptr) continue;
      routes += router->dvmrp()->routes().size();
      for (int round = 0; round < 8; ++round) {
        for (const net::Ipv4Address source : sources) {
          found += router->dvmrp()->routes().rpf_lookup(source) != nullptr ? 1 : 0;
          ++lookups;
        }
      }
    }
    const double elapsed = seconds_since(start);
    result.set("dvmrp.routes",
               static_cast<double>(routes) /
                   static_cast<double>(std::max<std::size_t>(routers.size(), 1)),
               "count");
    result.set("dvmrp.rpf_lookup_ns",
               lookups > 0 ? elapsed * 1e9 / static_cast<double>(lookups) : 0.0,
               "ns");
    // Flow sources sit inside the domains' DVMRP prefixes, so DVMRP routers
    // that resolve none of them have empty or broken tables.
    if (lookups > 0 && found == 0) {
      result.fail("no live flow source has a DVMRP RPF route");
    }
  }

  // --- the program's own spans and registry (core/collect .. core/mantra) ---
  const core::Telemetry& telemetry = monitor.telemetry();
  const std::vector<core::TraceSpan> program = telemetry.tracer().snapshot();
  std::map<std::uint32_t, std::string> lane;  // tid 2 + i = i-th target by name
  for (std::size_t i = 0; i < names.size(); ++i) {
    lane[static_cast<std::uint32_t>(2 + i)] = names[i];
  }
  std::map<std::string, double> busy;
  double shuffled_parse = 0.0;
  for (const core::TraceSpan& span : program) {
    const double s = static_cast<double>(span.wall_dur_us) / 1e6;
    busy[span.name] += s;
    if (span.name == "parse") {
      const auto it = lane.find(span.tid);
      if (it != lane.end() && run.transport_kind[it->second] == "shuffled") {
        shuffled_parse += s;
      }
    }
  }
  const core::MetricsRegistry& metrics = telemetry.metrics();
  const double rows = static_cast<double>(metrics.counter_total("mantra_parse_rows_total"));
  result.set("collect.busy_s", busy["capture"], "s");
  result.set("transport.faults",
             static_cast<double>(metrics.counter_total("mantra_transport_faults_total")),
             "count");
  result.set("parse.busy_s", busy["parse"], "s");
  result.set("parse.shuffled_busy_s", shuffled_parse, "s");
  result.set("parse.rows", rows, "count");
  result.set("parse.rows_per_s", busy["parse"] > 0.0 ? rows / busy["parse"] : 0.0,
             "1/s");
  result.set("parse.warnings",
             static_cast<double>(metrics.counter_total("mantra_parse_warnings_total")),
             "count");
  result.set("process.derive_s", busy["derive"], "s");
  result.set("log.record_s", busy["record"], "s");
  result.set("telemetry.spans_dropped",
             static_cast<double>(telemetry.tracer().dropped()), "count");
  result.set("mantra.busy_s", cycles_s, "s");
  result.set("mantra.share", drive.wall_s > 0.0 ? cycles_s / drive.wall_s : 0.0,
             "ratio");
  result.set("mantra.post_join_s", busy["cycle"] - busy["target_cycle"], "s");

  // --- results: attempts, retries, logger storage ---
  const std::size_t minimal = 1 + core::default_command_set().size();
  std::uint64_t attempts = 0;
  std::uint64_t recorded = 0;
  std::uint64_t fresh = 0;
  std::uint64_t stored = 0;
  std::uint64_t naive = 0;
  for (const std::string& name : names) {
    const core::Mantra::TargetView view = monitor.target_view(name);
    for (const core::CycleResult& r : view.results()) {
      attempts += r.capture_attempts;
      ++recorded;
      if (!r.stale) ++fresh;
    }
    stored += view.logger().stored_bytes();
    naive += view.logger().naive_bytes();
  }
  result.set("collect.attempts", static_cast<double>(attempts), "count");
  result.set("collect.retry_ratio",
             attempts > 0 ? static_cast<double>(attempts - std::min<std::uint64_t>(
                                                               attempts, recorded * minimal)) /
                                static_cast<double>(attempts)
                          : 0.0,
             "ratio");
  // Target-cycles with no fresh result (dark, or stale tables carried).
  const double target_cycles = static_cast<double>(run.cycle_s.size() * names.size());
  result.set("collect.unfresh_ratio",
             target_cycles > 0.0 ? 1.0 - static_cast<double>(fresh) / target_cycles
                                 : 0.0,
             "ratio");
  result.set("log.stored_bytes", static_cast<double>(stored), "B");
  result.set("log.naive_bytes", static_cast<double>(naive), "B");
}

double sim_attributed_s(const RunResult& result, const SpanLog& spans) {
  double layers = 0.0;
  for (const char* name : {"sim.busy_s", "collect.busy_s", "parse.busy_s",
                           "process.derive_s", "log.record_s", "mantra.post_join_s"}) {
    const auto it = result.metrics.find(name);
    if (it != result.metrics.end()) layers += it->second.value;
  }
  return layers + spans.root_s({"sim.run_until"});
}

ReportRebuild rebuild_live_report(const core::Mantra& monitor, int min_samples,
                                  double min_wall_s, SpanLog& spans) {
  // A sample is a batch of back-to-back rebuilds lasting at least kBatchS,
  // divided by its size, so that a rebuild well under a millisecond is not
  // timed one clock read at a time. The first rebuild after a drive runs on
  // cold caches and only sizes the batch.
  constexpr double kBatchS = 0.01;
  ReportRebuild rebuild;
  std::size_t rebuilds = 0;
  const auto once = [&] {
    const core::ReportData data = core::report_data_from(monitor);
    const auto render_start = Clock::now();
    std::string html = core::render_html_report(data);
    rebuild.render_s += seconds_since(render_start);
    std::string explanations =
        core::render_explanations(data.provenance, core::ExplainFilter{});
    if (rebuilds > 0) {
      rebuild.stable = rebuild.stable && html == rebuild.html &&
                       explanations == rebuild.explanations;
    }
    rebuild.html = std::move(html);
    rebuild.explanations = std::move(explanations);
    ++rebuilds;
  };
  std::size_t batch = 1;
  {
    SpanLog::Scope scope = spans.span("report.rebuild");
    const auto start = Clock::now();
    once();
    batch = static_cast<std::size_t>(
        std::ceil(kBatchS / std::max(seconds_since(start), 1e-6)));
  }
  const auto loop_start = Clock::now();
  while (static_cast<int>(rebuild.seconds.size()) < min_samples ||
         seconds_since(loop_start) < min_wall_s) {
    SpanLog::Scope scope = spans.span("report.rebuild");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) once();
    rebuild.seconds.push_back(seconds_since(start) / static_cast<double>(batch));
  }
  rebuild.render_s /= static_cast<double>(rebuilds);
  return rebuild;
}

QueryLoop live_queries(const core::Mantra& monitor, std::uint64_t seed,
                       double min_wall_s, std::size_t min_queries,
                       SpanLog& spans) {
  const std::vector<std::string> names = monitor.target_names();
  std::mt19937_64 rng(seed ^ 0x71756572ULL);
  QueryLoop loop;
  std::size_t sink = 0;
  SpanLog::Scope scope = spans.span("query.live");
  const auto start = Clock::now();
  // The first refresh after a drive runs on cold caches; it is not timed.
  for (bool warm = false; loop.latency_s.size() < min_queries ||
                          seconds_since(start) < min_wall_s;
       warm = true) {
    // One query is one dashboard refresh: the views examples/quickstart.cpp
    // prints after its run (overview; busiest sessions, top senders and the
    // sessions and active-sessions series of one target; the aggregate)
    // plus the status table examples/fixw_monitor.cpp prints. The target is
    // seeded.
    const std::string& name = names[rng() % names.size()];
    const auto query_start = Clock::now();
    sink += monitor.overview().render().size();
    sink += monitor.status().to_table().render().size();
    sink += monitor.busiest_sessions(name, 10).render().size();
    sink += monitor.top_senders(name, 10).render().size();
    sink += monitor
                .series(name, "sessions",
                        [](const core::CycleResult& r) {
                          return static_cast<double>(r.usage.sessions);
                        })
                .to_csv()
                .size();
    sink += monitor
                .series(name, "active sessions",
                        [](const core::CycleResult& r) {
                          return static_cast<double>(r.usage.active_sessions);
                        })
                .to_csv()
                .size();
    sink += static_cast<std::size_t>(monitor.aggregate_usage().sessions);
    if (warm) loop.latency_s.push_back(seconds_since(query_start));
  }
  if (sink == 0) loop.latency_s.clear();  // nothing rendered: no valid queries
  return loop;
}

}  // namespace mantra::perfbench
