#include "macro_run.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mantra::bench {

int effective_days(int default_days) {
  if (const char* env = std::getenv("MANTRA_BENCH_DAYS")) {
    const int days = std::atoi(env);
    if (days > 0) return days;
  }
  return default_days;
}

MacroRun run_macro(MacroConfig config) {
  workload::ScenarioConfig scenario_config;
  scenario_config.seed = config.seed;
  scenario_config.domains = config.domains;
  scenario_config.hosts_per_domain = config.hosts_per_domain;
  scenario_config.dvmrp_prefixes_per_domain = config.dvmrp_prefixes_per_domain;
  scenario_config.report_loss = config.report_loss;
  scenario_config.timer_scale = config.timer_scale;
  scenario_config.full_timers = false;  // trace-scale mode
  scenario_config.generator.session_arrivals_per_hour = config.session_arrivals_per_hour;
  scenario_config.generator.bursts_per_day = config.bursts_per_day;

  MacroRun run;
  run.scenario = std::make_unique<workload::FixwScenario>(scenario_config);

  if (config.transition) {
    run.scenario->schedule_transition(
        sim::TimePoint::start() + sim::Duration::days(config.transition_day),
        sim::Duration::days(config.transition_ramp_days), config.transition_final);
  }
  if (config.ietf_surge && config.ietf_day < config.days) {
    run.scenario->schedule_ietf_meeting(
        sim::TimePoint::start() + sim::Duration::days(config.ietf_day),
        sim::Duration::days(config.ietf_length_days), config.ietf_audience);
  }
  if (config.route_injection) {
    run.scenario->schedule_route_injection(
        sim::TimePoint::start() + sim::Duration::days(config.injection_day) +
            sim::Duration::hours(config.injection_hour),
        config.injection_routes, sim::Duration::hours(config.injection_revert_hours));
  }
  if (config.dvmrp_migration && config.migration_start_day < config.days) {
    run.scenario->schedule_dvmrp_migration(
        sim::TimePoint::start() + sim::Duration::days(config.migration_start_day),
        sim::Duration::days(config.migration_span_days));
  }

  core::MantraConfig monitor_config;
  monitor_config.cycle = sim::Duration::minutes(config.monitor_cycle_minutes);
  monitor_config.logger.full_snapshot_every = 192;
  run.monitor = std::make_unique<core::Mantra>(run.scenario->engine(), monitor_config);
  run.monitor->add_target(run.scenario->network().router(run.scenario->fixw_node()));
  run.monitor->add_target(run.scenario->network().router(run.scenario->ucsb_node()));

  run.scenario->start();
  run.monitor->start();

  const int days = config.days;
  for (int day = 0; day < days; ++day) {
    run.scenario->engine().run_until(sim::TimePoint::start() +
                                     sim::Duration::days(day + 1));
    if ((day + 1) % 10 == 0 || day + 1 == days) {
      std::fprintf(stderr,
                   "  [macro-run] day %d/%d (%zu sessions live, %" PRIu64
                   " engine events)\n",
                   day + 1, days, run.scenario->generator().live_session_count(),
                   run.scenario->engine().events_processed());
    }
  }
  return run;
}

namespace {

std::uint64_t config_hash(const MacroConfig& c) {
  std::ostringstream key;
  key << c.days << '|' << c.seed << '|' << c.transition << '|' << c.transition_day
      << '|' << c.transition_ramp_days << '|' << c.transition_final << '|'
      << c.ietf_surge << '|' << c.ietf_day << '|' << c.ietf_audience << '|'
      << c.route_injection << '|' << c.injection_day << '|' << c.injection_routes
      << '|' << c.dvmrp_migration << '|' << c.migration_start_day << '|'
      << c.monitor_cycle_minutes << '|' << c.domains << '|' << c.hosts_per_domain
      << '|' << c.dvmrp_prefixes_per_domain << '|' << c.report_loss << '|'
      << c.timer_scale;
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (char ch : key.str()) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::filesystem::path cache_path(const MacroConfig& config) {
  const char* dir = std::getenv("MANTRA_BENCH_CACHE");
  std::filesystem::path base = dir != nullptr ? dir : "bench_cache";
  char name[64];
  std::snprintf(name, sizeof name, "macro_%016" PRIx64 ".csv", config_hash(config));
  return base / name;
}

void write_row(std::ofstream& out, const char* router, const core::CycleResult& r) {
  out << router << ',' << r.t.total_ms() << ',' << r.usage.sessions << ','
      << r.usage.participants << ',' << r.usage.active_sessions << ','
      << r.usage.senders << ',' << r.usage.single_member_sessions << ','
      << r.usage.avg_density << ',' << r.usage.bandwidth_kbps << ','
      << r.usage.unicast_equivalent_kbps << ',' << r.usage.saved_multiple << ','
      << r.usage.pct_sessions_active << ',' << r.usage.pct_participants_senders
      << ',' << r.dvmrp_routes << ',' << r.dvmrp_valid_routes << ','
      << r.route_changes << ',' << r.sa_entries << ',' << r.mbgp_routes << ','
      << r.parse_warnings << ',' << (r.route_spike ? 1 : 0) << ','
      << r.route_spike_score << ',' << r.density_single_fraction << ','
      << r.density_at_most_two_fraction << ',' << r.density_top_share_80 << '\n';
}

bool parse_row(const std::string& line, std::string& router, core::CycleResult& r) {
  std::istringstream in(line);
  std::string cell;
  const auto next = [&](auto& value) -> bool {
    if (!std::getline(in, cell, ',')) return false;
    std::istringstream converter(cell);
    converter >> value;
    return !converter.fail();
  };
  if (!std::getline(in, router, ',')) return false;
  std::int64_t t_ms = 0;
  int spike = 0;
  const bool ok = next(t_ms) && next(r.usage.sessions) && next(r.usage.participants) &&
                  next(r.usage.active_sessions) && next(r.usage.senders) &&
                  next(r.usage.single_member_sessions) && next(r.usage.avg_density) &&
                  next(r.usage.bandwidth_kbps) && next(r.usage.unicast_equivalent_kbps) &&
                  next(r.usage.saved_multiple) && next(r.usage.pct_sessions_active) &&
                  next(r.usage.pct_participants_senders) && next(r.dvmrp_routes) &&
                  next(r.dvmrp_valid_routes) && next(r.route_changes) &&
                  next(r.sa_entries) && next(r.mbgp_routes) && next(r.parse_warnings) &&
                  next(spike) && next(r.route_spike_score) &&
                  next(r.density_single_fraction) &&
                  next(r.density_at_most_two_fraction) && next(r.density_top_share_80);
  r.t = sim::TimePoint::from_ms(t_ms);
  r.route_spike = spike != 0;
  return ok;
}

}  // namespace

MacroSeries run_or_load(const MacroConfig& config) {
  const std::filesystem::path path = cache_path(config);
  const bool fresh = std::getenv("MANTRA_BENCH_FRESH") != nullptr;

  if (!fresh && std::filesystem::exists(path)) {
    MacroSeries series;
    series.from_cache = true;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::string router;
      core::CycleResult result;
      if (!parse_row(line, router, result)) continue;
      (router == "fixw" ? series.fixw : series.ucsb).push_back(result);
    }
    if (!series.fixw.empty()) {
      std::fprintf(stderr, "  [macro-run] loaded %zu+%zu cycles from cache %s\n",
                   series.fixw.size(), series.ucsb.size(), path.c_str());
      return series;
    }
  }

  MacroRun run = run_macro(config);
  MacroSeries series;
  series.fixw = run.fixw();
  series.ucsb = run.ucsb();

  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  if (out) {
    out << "# mantra macro-run cache; columns: router,t_ms,sessions,participants,"
           "active,senders,single,avg_density,bw_kbps,uce_kbps,saved,pct_sa,"
           "pct_ps,routes,valid,changes,sa,mbgp,warn,spike,spike_score,"
           "d_single,d_two,d_top80\n";
    for (const core::CycleResult& r : series.fixw) write_row(out, "fixw", r);
    for (const core::CycleResult& r : series.ucsb) write_row(out, "ucsb-gw", r);
    std::fprintf(stderr, "  [macro-run] cached results to %s\n", path.c_str());
  }
  return series;
}

core::TimeSeries extract_series(
    const std::vector<core::CycleResult>& results, std::string name,
    const std::function<double(const core::CycleResult&)>& fn) {
  core::TimeSeries series(std::move(name));
  for (const core::CycleResult& result : results) series.add(result.t, fn(result));
  return series;
}

double window_mean(const std::vector<core::CycleResult>& results, double from_day,
                   double to_day,
                   const std::function<double(const core::CycleResult&)>& fn) {
  sim::RunningStats stats;
  for (const core::CycleResult& result : results) {
    const double day = result.t.total_days();
    if (day >= from_day && day < to_day) stats.add(fn(result));
  }
  return stats.mean();
}

void print_series_sample(const core::TimeSeries& series, int max_rows) {
  const std::size_t n = series.size();
  if (n == 0) {
    std::printf("(empty series)\n");
    return;
  }
  const std::size_t stride = n <= static_cast<std::size_t>(max_rows)
                                 ? 1
                                 : n / static_cast<std::size_t>(max_rows);
  std::printf("%12s  %s\n", "day", series.name().c_str());
  for (std::size_t i = 0; i < n; i += stride) {
    const auto& point = series.points()[i];
    std::printf("%12.2f  %.2f\n", point.t.total_days(), point.value);
  }
}

void print_check(const std::string& name, bool ok, const std::string& detail) {
  std::printf("[%s] %s: %s\n", ok ? "PASS" : "FAIL", name.c_str(), detail.c_str());
}

}  // namespace mantra::bench
