// archive_replay: the read side only, with no engine. Set-up writes a
// seeded multi-month fleet archive (S shards x T targets of `.marc`, one
// `.mtel` per shard), compacts it into `.mroll`/`.mtrl` sidecars and opens
// it; the timed phases rebuild the fleet report from the archive and run a
// closed loop of queries with one client.
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <random>

#include "bench.hpp"
#include "core/archive.hpp"
#include "core/provenance.hpp"
#include "core/query.hpp"
#include "core/report.hpp"
#include "core/teltrace.hpp"

namespace mantra::perfbench {
namespace {

constexpr int kShards = 3;
constexpr int kTargetsPerShard = 4;
constexpr int kDays = 50;
constexpr auto kCycle = sim::Duration::hours(2);
/// Written with a daily key-frame, compacted to one every two cycles: the
/// decoded key-frames of the whole archive (3,600 of ~65 KB) are ~240 MB,
/// beyond the 64 MB BlockCache default, so random ranges miss the cache.
constexpr int kWriteKeyframeInterval = 12;
constexpr int kReadKeyframeInterval = 2;
constexpr int kSetups = 3;
constexpr int kMinRebuilds = 3;
/// Queries run in blocks of five decks of 100: a block deals 30 filtered
/// sweeps, two turns of the 15 metrics, so every block does the same mix
/// of work.
constexpr std::size_t kQueryBlock = 500;
constexpr std::size_t kMinQueries = 3 * kQueryBlock;
/// Coarse queries re-run down the raw path after the timed loop.
constexpr std::size_t kCrossChecks = 8;

net::Prefix route_prefix(std::uint32_t i) {
  return net::Prefix(net::Ipv4Address(0x0A000000u + (i << 8)), 24);
}

core::RouteRow make_route(std::uint32_t i, int metric) {
  core::RouteRow route;
  route.prefix = route_prefix(i);
  route.next_hop = net::Ipv4Address(0xC0A80002u + i % 7);
  route.interface = i % 2 == 0 ? "tunnel0" : "tunnel1";
  route.metric = metric;
  return route;
}

/// One target's archive: seeded table churn every cycle plus seeded
/// incident episodes (route floods, stale stretches, slow collection) that
/// the default alert rules fire on.
void write_target(const std::string& path, const std::string& name,
                  std::mt19937_64& rng) {
  core::ArchiveOptions options;
  options.keyframe_interval = kWriteKeyframeInterval;
  options.fsync_on_keyframe = false;
  core::ArchiveWriter writer(path, options);

  const std::uint32_t routes = 340 + static_cast<std::uint32_t>(rng() % 40);
  const std::uint32_t pairs = 65 + static_cast<std::uint32_t>(rng() % 10);
  core::Snapshot current;
  current.router_name = name;
  for (std::uint32_t i = 0; i < routes; ++i) {
    current.routes.upsert(make_route(i, 2 + static_cast<int>(rng() % 8)));
  }
  for (std::uint32_t i = 0; i < pairs; ++i) {
    core::PairRow pair;
    pair.source = net::Ipv4Address(0x0A010100u + i);
    pair.group = net::Ipv4Address(0xE0020000u + i % 60);
    pair.current_kbps = static_cast<double>(rng() % 3000) / 10.0;
    pair.average_kbps = pair.current_kbps;
    current.pairs.upsert(pair);
  }
  for (std::uint32_t i = 0; i < 40; ++i) {
    core::SaRow entry;
    entry.source = net::Ipv4Address(0x0A010100u + i);
    entry.group = net::Ipv4Address(0xE0020000u + i % 60);
    entry.origin_rp = net::Ipv4Address(10, 0, 1, 1);
    entry.via_peer = net::Ipv4Address(10, 0, 2, 1);
    current.sa_cache.upsert(entry);
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    core::MbgpRow route;
    route.prefix = net::Prefix(net::Ipv4Address(0x0B000000u + (i << 16)), 16);
    route.next_hop = net::Ipv4Address(10, 0, 2, 1);
    route.as_path = std::to_string(64500 + i % 9);
    current.mbgp_routes.upsert(route);
  }

  const int cycles = kDays * 24 * 60 / static_cast<int>(kCycle.total_minutes());
  int flood_left = 0;
  int stale_left = 0;
  int slow_left = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (cycle > 0) {
      current.pairs.advance_derived(kCycle);
      current.routes.advance_derived(kCycle);
      current.sa_cache.advance_derived(kCycle);
      for (int churn = 0; churn < 6; ++churn) {
        current.routes.upsert(make_route(static_cast<std::uint32_t>(rng() % routes),
                                         2 + static_cast<int>(rng() % 12)));
      }
      for (int churn = 0; churn < 3; ++churn) {
        core::PairRow pair;
        pair.source =
            net::Ipv4Address(0x0A010100u + static_cast<std::uint32_t>(rng() % pairs));
        pair.group =
            net::Ipv4Address(0xE0020000u + static_cast<std::uint32_t>(rng() % 60));
        pair.current_kbps = static_cast<double>(rng() % 3000) / 10.0;
        current.pairs.upsert(pair);
      }
      // Incident episodes, each a few times a month per target.
      const auto roll = rng() % 1000;
      if (flood_left == 0 && roll < 3) flood_left = 6;
      if (stale_left == 0 && roll >= 3 && roll < 6) stale_left = 12;
      if (slow_left == 0 && roll >= 6 && roll < 9) slow_left = 10;
      if (flood_left > 0) {
        // A Fig 9-style redistribution: hundreds of routes appear, then go.
        for (std::uint32_t i = 0; i < 120; ++i) {
          const std::uint32_t index =
              routes + 1000 + i + 120 * static_cast<std::uint32_t>(flood_left);
          if (flood_left > 1) {
            current.routes.upsert(make_route(index, 1));
          }
        }
        if (--flood_left == 0) {
          for (std::uint32_t i = 0; i < 1000; ++i) {
            current.routes.erase(route_prefix(routes + 1000 + i));
          }
        }
      }
    }
    current.captured = sim::TimePoint::start() + kCycle * std::int64_t{cycle};
    core::ArchiveCycleMeta meta;
    meta.cycle_seq = static_cast<std::uint64_t>(cycle + 1);
    meta.capture_attempts = 7;
    meta.collection_latency = sim::Duration::milliseconds(840);
    if (stale_left > 0) {
      --stale_left;
      meta.stale = true;
      meta.stale_tables = 1;
      meta.collection_failures = 1;
      meta.capture_attempts = 9;
    }
    if (slow_left > 0) {
      --slow_left;
      meta.collection_latency = sim::Duration::seconds(150);
    }
    writer.append(current, meta);
  }
  writer.close();
}

/// One shard's self-telemetry, sampled once per cycle by a real SelfMonitor.
void write_shard_telemetry(const std::string& path, const std::string& shard,
                           std::mt19937_64& rng) {
  core::TelemetryConfig telemetry_config;
  telemetry_config.enabled = true;
  core::Telemetry telemetry(telemetry_config);
  core::SelfMonitorConfig config;
  config.enabled = true;
  config.name = shard;
  config.path = path;
  core::SelfMonitor monitor(config, &telemetry);
  core::MetricsRegistry& metrics = telemetry.metrics();
  const int cycles = kDays * 24 * 60 / static_cast<int>(kCycle.total_minutes());
  int slow_left = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (slow_left == 0 && rng() % 400 == 0) slow_left = 8;
    const double base = 0.2 + static_cast<double>(rng() % 100) / 100.0;
    metrics.histogram("mantra_cycle_duration_seconds")
        .observe(slow_left > 0 ? base + 7.0 : base);
    if (slow_left > 0) --slow_left;
    metrics.gauge("mantra_pool_queue_depth_peak")
        .set(static_cast<double>(rng() % 24));
    metrics.counter("mantra_capture_status_total", {{"status", "ok"}})
        .inc(kTargetsPerShard * 6);
    if (rng() % 10 == 0) {
      metrics.counter("mantra_capture_status_total", {{"status", "failed"}}).inc();
    }
    monitor.sample(sim::TimePoint::start() + kCycle * std::int64_t{cycle});
  }
  monitor.close();
}

using Layout = std::map<std::string, std::vector<std::string>>;  ///< shard -> targets

struct Fleet {
  Layout layout;
  /// One engine (one 64 MB block cache) over every target of the fleet.
  std::unique_ptr<core::QueryEngine> engine = std::make_unique<core::QueryEngine>();
  core::TelemetryQueryEngine telemetry;
  double open_s = 0.0;
};

std::unique_ptr<Fleet> open_fleet(const std::string& dir, const Layout& layout) {
  auto fleet = std::make_unique<Fleet>();
  fleet->layout = layout;
  const auto start = Clock::now();
  for (const auto& [shard, targets] : layout) {
    for (const std::string& target : targets) {
      fleet->engine->add_archive(target, dir + "/" + shard + "/" + target + ".marc");
    }
    fleet->telemetry.add_archive(shard, dir + "/" + shard + "/monitor.mtel");
  }
  fleet->open_s = seconds_since(start);
  return fleet;
}

/// Timed phase (a): the fleet report and its explanations rebuilt from the
/// archives alone.
struct Rebuild {
  double seconds = 0.0;
  double replay_s = 0.0;  ///< per-target replays + fleet_report_data_from_replay
  double render_s = 0.0;
  double explain_s = 0.0;
  std::vector<double> target_replay_s;
  std::size_t records = 0;
  std::size_t provenance = 0;
  std::string html;
  std::string explanations;
};

Rebuild rebuild_report(const Fleet& fleet, SpanLog& spans) {
  Rebuild rebuild;
  SpanLog::Scope scope = spans.span("report.rebuild");
  const auto start = Clock::now();
  std::vector<core::FleetShardReplay> shards;
  {
    SpanLog::Scope replay_scope = spans.span("fleet.replay");
    for (const auto& [shard, targets] : fleet.layout) {
      core::FleetShardReplay replay;
      replay.shard = shard;
      replay.rules = core::default_alert_rules();
      const core::QueryEngine& engine = *fleet.engine;
      for (const std::string& target : targets) {
        const auto target_start = Clock::now();
        replay.targets.push_back({target, engine.replay(target).results});
        rebuild.target_replay_s.push_back(seconds_since(target_start));
        rebuild.records += replay.targets.back().results.size();
      }
      replay.samples = fleet.telemetry.reader(shard)->samples();
      replay.health = core::monitor_health_from_samples(shard, replay.samples);
      shards.push_back(std::move(replay));
    }
  }
  core::FleetReportData data;
  {
    SpanLog::Scope data_scope = spans.span("fleet.report_data");
    data = core::fleet_report_data_from_replay(std::move(shards));
  }
  rebuild.replay_s = seconds_since(start);
  const auto render_start = Clock::now();
  {
    SpanLog::Scope render_scope = spans.span("report.render");
    rebuild.html = core::render_fleet_html_report(data);
  }
  rebuild.render_s = seconds_since(render_start);
  const auto explain_start = Clock::now();
  {
    SpanLog::Scope explain_scope = spans.span("provenance.explain");
    const core::FleetProvenance merged = core::fleet_provenance_from(data);
    rebuild.provenance = merged.records.size();
    rebuild.explanations = core::render_explanations(
        merged.records, core::ExplainFilter{}, &merged.shards);
  }
  rebuild.explain_s = seconds_since(explain_start);
  rebuild.seconds = seconds_since(start);
  return rebuild;
}

/// Timed phase (b): one client, closed loop, seeded query mix.
struct QueryMix {
  QueryLoop loop;
  std::vector<double> raw_s;
  std::vector<double> rollup_s;
  std::vector<double> mtel_s;
  std::uint64_t marc_queries = 0;
  std::uint64_t rollup_served = 0;
  std::uint64_t records_decoded = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t errors = 0;
  std::vector<core::Query> coarse;  ///< rollup-served queries, for the cross-check
  /// `.marc` queries dealt so far per class (coarse unfiltered, coarse
  /// filtered, hot, random): each class cycles through the metrics in turn.
  std::array<std::size_t, 4> dealt{};
};

/// Appends `count` queries to `mix`; `block` selects an independent seeded
/// stream.
void run_queries(const Fleet& fleet, std::uint64_t seed, std::uint64_t block,
                 std::size_t count, SpanLog& spans, QueryMix& mix) {
  std::vector<std::pair<std::string, std::string>> targets;  // (shard, target)
  for (const auto& [shard, names] : fleet.layout) {
    for (const std::string& name : names) targets.emplace_back(shard, name);
  }
  const std::int64_t span_ms = std::int64_t{kDays} * core::kDayMs;
  std::mt19937_64 rng((seed ^ 0x6172636869766500ULL) + block * 0x9e3779b97f4a7c15ULL);
  std::vector<int> deck(100);
  std::iota(deck.begin(), deck.end(), 0);
  SpanLog::Scope scope = spans.span("query.loop");
  for (std::size_t issued = 0; issued < count; ++issued) {
    // Mix, in exact proportions per 100 queries (dealt in seeded order).
    // The 92 `.marc` queries keep the 3:1 coarse-to-raw mix of the repo's
    // query_scale benchmark: 69 coarse sweeps over the whole archive in its
    // three kinds (day/mean, hour/max, hour/mean), of which 6 are filtered
    // (stale cycles excluded, which the rollups cannot answer), and 23 raw
    // 12-hour windows, 12 over the hot recent end of three dashboard
    // targets and 11 anywhere. The other 8 are `.mtel` series queries.
    if (issued % deck.size() == 0) {
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[static_cast<std::size_t>(rng() % (i + 1))]);
      }
    }
    const int kind = deck[issued % deck.size()];
    if (kind >= 92) {
      const auto& [shard, unused] = targets[rng() % targets.size()];
      core::TelemetryQuery query;
      query.source = shard;
      query.series = rng() % 2 == 0 ? "mantra_cycle_duration_seconds:p95"
                                    : "mantra_pool_queue_depth_peak";
      query.resolution = rng() % 2 == 0 ? core::QueryResolution::raw
                                        : core::QueryResolution::hour;
      query.aggregate = core::QueryAggregate::max;
      const auto query_start = Clock::now();
      const core::QueryResult answer = fleet.telemetry.run(query);
      const double s = seconds_since(query_start);
      mix.loop.latency_s.push_back(s);
      mix.mtel_s.push_back(s);
      if (answer.points.empty()) ++mix.errors;
      continue;
    }
    const bool hot = kind >= 69 && kind < 81;
    const auto& [shard, target] =
        hot ? targets[rng() % 3] : targets[rng() % targets.size()];
    // A query's cost depends on its metric (route changes diff every cycle,
    // session metrics re-derive the session table), so each class deals the
    // metrics in turn rather than at random.
    const std::size_t query_class = kind < 63 ? 0 : kind < 69 ? 1 : hot ? 2 : 3;
    core::Query query;
    query.target = target;
    query.metric = static_cast<core::QueryMetric>(mix.dealt[query_class]++ %
                                                  core::kQueryMetricCount);
    constexpr std::int64_t kWindow = 12 * core::kHourMs;
    if (kind < 69) {
      query.resolution = kind % 3 == 0 ? core::QueryResolution::day
                                       : core::QueryResolution::hour;
      query.aggregate = kind % 3 == 1 ? core::QueryAggregate::max
                                      : core::QueryAggregate::mean;
      if (kind >= 63) query.include_stale = false;
    } else if (hot) {
      query.from = sim::TimePoint::from_ms(span_ms - kWindow);
    } else {
      const std::int64_t from = static_cast<std::int64_t>(
          rng() % static_cast<std::uint64_t>(span_ms - kWindow));
      query.from = sim::TimePoint::from_ms(from);
      query.to = sim::TimePoint::from_ms(from + kWindow);
    }
    const auto query_start = Clock::now();
    const core::QueryResult answer = fleet.engine->run(query);
    const double s = seconds_since(query_start);
    mix.loop.latency_s.push_back(s);
    ++mix.marc_queries;
    (answer.from_rollup ? mix.rollup_s : mix.raw_s).push_back(s);
    mix.rollup_served += answer.from_rollup ? 1 : 0;
    mix.records_decoded += answer.records_decoded;
    mix.cache_hits += answer.cache_hits;
    mix.cache_misses += answer.cache_misses;
    if (answer.points.empty()) ++mix.errors;
    if (answer.from_rollup && mix.coarse.size() < kCrossChecks) {
      mix.coarse.push_back(query);
    }
  }
}

/// Untimed: rollup-served answers must equal the raw scan bit for bit.
void cross_check(const Fleet& fleet, const QueryMix& mix, RunResult& result) {
  for (core::Query query : mix.coarse) {
    ++result.attempted;
    const core::QueryEngine& engine = *fleet.engine;
    const core::QueryResult rolled = engine.run(query);
    query.allow_rollup = false;
    const core::QueryResult raw = engine.run(query);
    bool same = rolled.points.size() == raw.points.size();
    for (std::size_t i = 0; same && i < raw.points.size(); ++i) {
      same = rolled.points[i].t == raw.points[i].t &&
             std::memcmp(&rolled.points[i].value, &raw.points[i].value,
                         sizeof(double)) == 0 &&
             rolled.points[i].samples == raw.points[i].samples;
    }
    if (!same) {
      result.fail("rollup answer differs from the raw scan for " + query.target);
    }
  }
}

void check_rebuild(const Rebuild& rebuild, const std::string& reference_html,
                   RunResult& result) {
  ++result.attempted;
  if (rebuild.html.empty() || rebuild.provenance == 0) {
    result.fail("fleet report rebuilt empty or without any explained alert");
  }
  if (!reference_html.empty() && rebuild.html != reference_html) {
    result.fail("fleet report bytes differ between rebuilds");
  }
}

}  // namespace

std::map<std::string, std::vector<std::string>> write_fleet_archive(
    std::uint64_t seed, const std::string& dir, int shards, int targets_per_shard) {
  std::map<std::string, std::vector<std::string>> layout;
  std::mt19937_64 rng(seed);
  std::filesystem::create_directories(dir + "/raw");
  for (int s = 0; s < shards; ++s) {
    const std::string shard = "shard" + std::to_string(s);
    std::filesystem::create_directories(dir + "/" + shard);
    for (int t = 0; t < targets_per_shard; ++t) {
      const std::string target = "bdr" + std::to_string(s * targets_per_shard + t);
      const std::string raw = dir + "/raw/" + target + ".marc";
      write_target(raw, target, rng);
      // Compaction rewrites the write-optimized archive read-optimized, with
      // dense key-frames, and builds the `.mroll` sidecar.
      core::CompactionOptions options;
      options.keyframe_interval = kReadKeyframeInterval;
      core::compact_archive(raw, dir + "/" + shard + "/" + target + ".marc", options);
      layout[shard].push_back(target);
    }
    const std::string raw = dir + "/raw/" + shard + ".mtel";
    write_shard_telemetry(raw, shard, rng);
    core::compact_telemetry_archive(raw, dir + "/" + shard + "/monitor.mtel");
  }
  std::filesystem::remove_all(dir + "/raw");
  return layout;
}

RunResult run_archive_replay(const Options& options) {
  RunResult result;
  const std::string dir = options.workdir + "/fleet";
  const auto setup = [&] {
    std::filesystem::remove_all(dir);
    return open_fleet(dir, write_fleet_archive(options.seed, dir, kShards,
                                               kTargetsPerShard));
  };

  if (!options.trace) {
    EndToEnd e2e;
    std::unique_ptr<Fleet> fleet;
    for (int i = 0; i < kSetups; ++i) {
      fleet.reset();
      const auto start = Clock::now();
      fleet = setup();
      e2e.setup_s.push_back(seconds_since(start));
    }
    // Rebuilds and blocks of queries alternate, so each metric samples the
    // whole run rather than one stretch of a shared host.
    std::string reference_html;
    Rebuild last;
    QueryMix mix;
    const auto start = Clock::now();
    for (std::uint64_t block = 0;
         static_cast<int>(e2e.rebuild_s.size()) < kMinRebuilds ||
         mix.loop.latency_s.size() < kMinQueries ||
         seconds_since(start) < 0.9 * options.seconds;
         ++block) {
      last = rebuild_report(*fleet, SpanLog::off());
      check_rebuild(last, reference_html, result);
      reference_html = last.html;
      e2e.rebuild_s.push_back(last.seconds);
      // A "cycle" here is one target's archive replayed into results.
      double replay_s = 0.0;
      for (const double s : last.target_replay_s) replay_s += s;
      e2e.cycle_s.insert(e2e.cycle_s.end(), last.target_replay_s.begin(),
                         last.target_replay_s.end());
      e2e.target_cycles_per_s.push_back(static_cast<double>(last.records) / replay_s);
      e2e.sim_days_per_s.push_back(static_cast<double>(kDays) / last.seconds);
      run_queries(*fleet, options.seed, block, kQueryBlock,
                  SpanLog::off(), mix);
    }
    result.digests["fleet_report"] = [&] {
      Digest digest;
      digest.add(last.html);
      return digest.hex();
    }();
    result.digests["explanations"] = [&] {
      Digest digest;
      digest.add(last.explanations);
      return digest.hex();
    }();
    result.attempted += mix.loop.latency_s.size();
    for (std::uint64_t i = 0; i < mix.errors; ++i) {
      result.fail("a query returned no points");
    }
    cross_check(*fleet, mix, result);
    e2e.query_s = mix.loop.latency_s;
    set_end_to_end(result, e2e);
    return result;
  }

  // Traced run. After an untimed warm-up pass, untraced (A) and traced (B)
  // passes of the same work, each on a freshly opened fleet, run in the
  // order A B B A, so that warm-up and drift fall on both sides of the
  // tracing overhead B/A. The last B pass is probed layer by layer.
  const Layout layout = setup()->layout;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  const auto untraced_pass = [&](std::vector<double>& walls) {
    const std::unique_ptr<Fleet> fleet = open_fleet(dir, layout);
    const auto start = Clock::now();
    Rebuild rebuild = rebuild_report(*fleet, SpanLog::off());
    QueryMix mix;
    run_queries(*fleet, options.seed, 0, kMinQueries, SpanLog::off(), mix);
    walls.push_back(seconds_since(start));
    return rebuild;
  };
  std::unique_ptr<SpanLog> spans_owner;
  std::unique_ptr<Fleet> fleet;
  Rebuild rebuild;
  QueryMix mix;
  Clock::time_point pass_start;
  const auto traced_pass = [&] {
    fleet.reset();
    spans_owner = std::make_unique<SpanLog>(true);
    mix = QueryMix{};
    pass_start = Clock::now();
    {
      SpanLog::Scope scope = spans_owner->span("archive.open");
      fleet = open_fleet(dir, layout);
    }
    const auto start = Clock::now();
    rebuild = rebuild_report(*fleet, *spans_owner);
    run_queries(*fleet, options.seed, 0, kMinQueries, *spans_owner, mix);
    traced_s.push_back(seconds_since(start));
  };
  std::vector<double> warmup_s;
  (void)untraced_pass(warmup_s);
  const Rebuild untraced = untraced_pass(untraced_s);
  traced_pass();
  if (rebuild.html != untraced.html) {
    result.fail("traced and untraced passes rendered different fleet reports");
  }
  traced_pass();
  SpanLog& spans = *spans_owner;
  check_rebuild(rebuild, untraced.html, result);
  if (rebuild.explanations != untraced.explanations) {
    result.fail("traced rebuild rendered different explanations");
  }
  result.digests["fleet_report"] = [&] {
    Digest digest;
    digest.add(rebuild.html);
    return digest.hex();
  }();
  result.digests["explanations"] = [&] {
    Digest digest;
    digest.add(rebuild.explanations);
    return digest.hex();
  }();
  result.attempted += mix.loop.latency_s.size();
  for (std::uint64_t i = 0; i < mix.errors; ++i) {
    result.fail("a query returned no points");
  }
  {
    SpanLog::Scope scope = spans.span("query.cross_check");
    cross_check(*fleet, mix, result);
  }
  const core::BlockCache::Stats cache = fleet->engine->cache().stats();
  std::cerr << "archive_replay: block cache " << cache.bytes << " B resident in "
            << cache.entries << " blocks, " << cache.evictions << " evictions\n";

  // The alert layer alone, over the replayed results of each shard.
  std::uint64_t decoded = 0;
  double eval_s = 0.0;
  std::size_t fired = 0;
  std::size_t records = 0;
  for (const auto& [shard, targets] : layout) {
    const core::QueryEngine& engine = *fleet->engine;
    std::vector<std::vector<core::CycleResult>> results;
    {
      SpanLog::Scope scope = spans.span("archive.replay");
      for (const std::string& target : targets) {
        results.push_back(engine.replay(target).results);
        decoded += engine.reader(target)->records_decoded();
      }
    }
    std::vector<std::pair<std::string, const std::vector<core::CycleResult>*>> streams;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      streams.emplace_back(targets[i], &results[i]);
    }
    SpanLog::Scope scope = spans.span("alert.evaluate_history");
    const auto start = Clock::now();
    core::AlertEngine alerts(core::default_alert_rules());
    core::evaluate_history(alerts, streams);
    eval_s += seconds_since(start);
    fired += alerts.history().size();
    records += alerts.provenance().size();
  }
  if (records != rebuild.provenance) {
    result.fail("evaluate_history explained a different number of alerts than "
                "the report");
  }

  std::uint64_t mtel_bytes = 0;
  std::uint64_t samples = 0;
  for (const auto& [shard, targets] : layout) {
    mtel_bytes += std::filesystem::file_size(dir + "/" + shard + "/monitor.mtel");
    samples += fleet->telemetry.reader(shard)->size();
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto queries = static_cast<double>(mix.marc_queries);
  result.set("archive.open_s", fleet->open_s, "s");
  result.set("archive.records_decoded", static_cast<double>(decoded), "count");
  result.set("alert.eval_s", eval_s, "s");
  result.set("alert.fired", static_cast<double>(fired), "count");
  result.set("provenance.records", static_cast<double>(records), "count");
  result.set("provenance.explain_s", rebuild.explain_s, "s");
  result.set("teltrace.bytes_per_cycle",
             ratio(static_cast<double>(mtel_bytes), static_cast<double>(samples)), "B");
  result.set("teltrace.query_ms_p50", percentile(mix.mtel_s, 0.5) * 1e3, "ms");
  result.set("query.cache_hit_rate",
             ratio(static_cast<double>(mix.cache_hits),
                   static_cast<double>(mix.cache_hits + mix.cache_misses)),
             "ratio");
  result.set("query.rollup_served_ratio",
             ratio(static_cast<double>(mix.rollup_served), queries), "ratio");
  result.set("query.records_decoded_per_query",
             ratio(static_cast<double>(mix.records_decoded), queries), "count");
  result.set("query.raw_ms_p50", percentile(mix.raw_s, 0.5) * 1e3, "ms");
  result.set("query.rollup_ms_p50", percentile(mix.rollup_s, 0.5) * 1e3, "ms");
  result.set("fleet.replay_s", rebuild.replay_s, "s");
  result.set("report.render_s", rebuild.render_s, "s");
  result.set("report.bytes", static_cast<double>(rebuild.html.size()), "B");
  // Layer time: the rebuild's replay, render and explain phases, each query
  // as issued, and the harness's other layer spans.
  double layer_s = rebuild.replay_s + rebuild.render_s + rebuild.explain_s +
                   spans.root_s({"report.rebuild", "query.loop"});
  for (const double s : mix.loop.latency_s) layer_s += s;
  result.set("trace.unattributed_ratio",
             1.0 - ratio(layer_s, seconds_since(pass_start)), "ratio");
  spans.write_jsonl(options.workdir + "/spans_archive_replay.jsonl");
  fleet.reset();
  if (untraced_pass(untraced_s).html != untraced.html) {
    result.fail("untraced passes rendered different fleet reports");
  }
  result.set("trace.overhead_ratio", median(traced_s) / median(untraced_s), "ratio");
  fill_unexercised_layers(result);
  return result;
}

}  // namespace mantra::perfbench
