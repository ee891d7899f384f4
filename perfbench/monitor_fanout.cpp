// monitor_fanout: one scenario, ~100 monitored targets on 2-minute cycles
// with the full deployment stack (alerts + provenance, `.marc` archives,
// telemetry + SelfMonitor `.mtel`). The monitor does most of the work here:
// collection, parsing, logging and the archive write path.
//
// The end-to-end run collects sequentially (worker_threads = 0): on a shared
// host the CPU actually available to a 4-worker pool swings between ~1 and
// ~4 cores from one minute to the next, so pooled cycle times would measure
// the neighbours. Results are byte-identical for any pool width; the traced
// run measures the pool's speedup next to the host's parallel capacity.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <random>

#include "bench.hpp"
#include "core/archive.hpp"
#include "core/provenance.hpp"
#include "core/query.hpp"
#include "core/teltrace.hpp"

namespace mantra::perfbench {
namespace {

constexpr std::size_t kTargets = 100;
/// The gate covers the first cycles of every run.
constexpr std::size_t kGateCycles = 20;
/// Each repetition sets up afresh and measures the same cycles (fixed work:
/// per-cycle cost grows as sessions accumulate); pooled over the
/// repetitions, ten cycles lie beyond the p95.
constexpr int kRepetitions = 3;
constexpr std::size_t kDriveCycles = 70;
/// Cycles of each pass of the traced run.
constexpr std::size_t kTraceCycles = 40;
constexpr std::size_t kMinQueries = 1000;

/// Output digests at the gate: results, `.marc` prefixes, alert history
/// and explanation text (`.mtel` values carry wall-clock time and are left
/// out).
struct Gate {
  std::string results;
  std::string alerts;
  std::string explanations;
  std::map<std::string, std::uint64_t> marc_bytes;  ///< prefix per target
};

Gate take_gate(const core::Mantra& monitor) {
  Gate gate;
  for (const std::string& name : monitor.target_names()) {
    const core::Mantra::TargetView view = monitor.target_view(name);
    for (const core::CycleResult& r : view.results()) {
      append_result_row(gate.results, name, r);
    }
    gate.marc_bytes[name] = view.archive()->bytes_written();
  }
  gate.alerts = monitor.alerts().history_table().render();
  gate.explanations =
      core::render_explanations(monitor.alerts().provenance(), core::ExplainFilter{});
  return gate;
}

std::string file_prefix(const std::string& path, std::uint64_t bytes) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data.substr(0, static_cast<std::size_t>(bytes));
}

void record_gate(const Gate& gate, const std::string& dir, RunResult& result) {
  const auto hex = [](std::string_view bytes) {
    Digest digest;
    digest.add(bytes);
    return digest.hex();
  };
  Digest marc;
  for (const auto& [name, bytes] : gate.marc_bytes) {
    const std::string prefix = file_prefix(dir + "/marc/" + name + ".marc", bytes);
    if (prefix.size() != bytes) result.fail(name + ".marc is shorter than written");
    marc.add(prefix);
  }
  result.digests["results"] = hex(gate.results);
  result.digests["marc"] = marc.hex();
  result.digests["alerts"] = hex(gate.alerts);
  result.digests["explanations"] = hex(gate.explanations);
}

using LiveResults = std::map<std::string, std::vector<core::CycleResult>>;

LiveResults copy_results(const core::Mantra& monitor) {
  LiveResults results;
  for (const std::string& name : monitor.target_names()) {
    results[name] = monitor.target_view(name).results();
  }
  return results;
}

/// Invariants that hold at every seed: shuffled rows parse like ordered
/// ones, clean transports never go stale, and every cycle the monitor
/// recorded replays from its `.marc` to the identical result.
void check_run(const SimRun& run, const LiveResults& live, const std::string& dir,
               RunResult& result) {
  core::QueryEngine engine;
  for (const auto& [name, results] : live) {
    ++result.attempted;
    const std::string& kind = run.transport_kind.at(name);
    for (const core::CycleResult& r : results) {
      if (kind != "faulty" && (r.stale || r.parse_warnings > 0)) {
        result.fail(name + " (" + kind + "): stale or unparsed cycle");
        break;
      }
    }
    engine.add_archive(name, dir + "/marc/" + name + ".marc");
    if (engine.replay(name).results != results) {
      result.fail(name + ": replay of the .marc differs from the live results");
    }
  }
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// The archive layer read back and written again: open and stream every
/// target's `.marc`, appending each record to a scratch writer.
void archive_layers(const std::string& dir, const std::vector<std::string>& names,
                    SpanLog& spans, RunResult& result) {
  double open_s = 0.0;
  double append_s = 0.0;
  std::uint64_t decoded = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  core::ArchiveOptions options;
  options.fsync_on_keyframe = false;
  for (const std::string& name : names) {
    const std::string path = dir + "/marc/" + name + ".marc";
    bytes += std::filesystem::file_size(path);
    auto start = Clock::now();
    std::unique_ptr<core::ArchiveReader> reader;
    {
      SpanLog::Scope scope = spans.span("archive.open");
      reader = std::make_unique<core::ArchiveReader>(path);
    }
    open_s += seconds_since(start);
    core::ArchiveWriter writer(dir + "/rewrite.marc", options);
    SpanLog::Scope scope = spans.span("archive.rewrite");
    reader->for_each([&](std::size_t, const core::Snapshot& snapshot,
                         const core::ArchiveCycleMeta& meta) {
      const auto append_start = Clock::now();
      writer.append(snapshot, meta);
      append_s += seconds_since(append_start);
      ++records;
    });
    decoded += reader->records_decoded();
  }
  std::filesystem::remove(dir + "/rewrite.marc");
  result.set("archive.open_s", open_s, "s");
  result.set("archive.append_s", append_s, "s");
  result.set("archive.records_decoded", static_cast<double>(decoded), "count");
  result.set("archive.bytes_per_cycle",
             records > 0 ? static_cast<double>(bytes) / static_cast<double>(records)
                         : 0.0,
             "B");
}

}  // namespace

RunResult run_monitor_fanout(const Options& options) {
  RunResult result;
  if (!options.trace) {
    // The read phases run in slices after every repetition, so each metric
    // samples the whole run rather than one stretch of a shared host.
    EndToEnd e2e;
    const std::string dir = options.workdir + "/fanout";
    std::unique_ptr<SimRun> run;
    Gate gate;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      // Each repetition times two set-ups, the first thrown away unused, so
      // that setup_s is the median of six.
      for (int setup = 0; setup < 2; ++setup) {
        run.reset();
        reset_dir(dir);
        const auto start = Clock::now();
        run = build_fanout_run(options.seed, 0, dir, kTargets);
        e2e.setup_s.push_back(seconds_since(start));
      }
      DriveStats stats = drive(*run, kGateCycles, false);
      Gate rep_gate = take_gate(*run->monitor);
      if (rep > 0 && (rep_gate.results != gate.results || rep_gate.alerts != gate.alerts ||
                      rep_gate.explanations != gate.explanations)) {
        result.fail("gate outputs differ between repetitions of the same run");
      }
      gate = std::move(rep_gate);
      merge(stats, drive(*run, kDriveCycles - kGateCycles, false));
      e2e.sim_days_per_s.push_back(stats.sim_days / stats.wall_s);
      std::cerr << "repetition " << rep << ": setup_s=" << e2e.setup_s.back()
                << " drive_s=" << stats.wall_s << '\n';
      e2e.target_cycles_per_s.push_back(
          static_cast<double>(run->cycle_s.size() * kTargets) / stats.wall_s);
      e2e.cycle_s.insert(e2e.cycle_s.end(), run->cycle_s.begin(), run->cycle_s.end());
      result.attempted += run->cycle_s.size() * kTargets;

      const ReportRebuild rebuild = rebuild_live_report(
          *run->monitor, 1, 0.03 * options.seconds, SpanLog::off());
      // Rebuilds of one monitor must agree; across repetitions the report's
      // "Monitor health" section carries wall-clock cycle durations.
      if (!rebuild.stable) result.fail("live report bytes differ between rebuilds");
      e2e.rebuild_s.insert(e2e.rebuild_s.end(), rebuild.seconds.begin(),
                           rebuild.seconds.end());
      const QueryLoop queries =
          live_queries(*run->monitor, options.seed + static_cast<std::uint64_t>(rep),
                       0.06 * options.seconds, kMinQueries / kRepetitions + 1,
                       SpanLog::off());
      e2e.query_s.insert(e2e.query_s.end(), queries.latency_s.begin(),
                         queries.latency_s.end());
    }
    result.attempted += e2e.rebuild_s.size() + e2e.query_s.size();

    const LiveResults live = copy_results(*run->monitor);
    run->monitor.reset();  // closes the archives
    check_run(*run, live, dir, result);
    record_gate(gate, dir, result);
    set_end_to_end(result, e2e);
    return result;
  }

  // Traced run. After an untimed warm-up pass, pooled (C, min(nproc, 4)
  // workers), sequential untraced (A) and sequential traced (B) passes of
  // the same cycles run in the order C A B B A C, so that warm-up and drift
  // fall on both sides of each ratio: B/A is the tracing overhead, A/C the
  // pool's speedup. The last B pass is probed layer by layer before the
  // closing A and C passes.
  struct Pass {
    double cycles_s = 0.0;  ///< Σ harness cycle walls
    DriveStats stats;
    LiveResults results;
  };
  const auto untraced_pass = [&](std::size_t workers, std::size_t cycles) {
    const std::string scratch = options.workdir + "/fanout_untraced";
    reset_dir(scratch);
    std::unique_ptr<SimRun> untraced =
        build_fanout_run(options.seed, workers, scratch, kTargets);
    Pass pass;
    pass.stats = drive(*untraced, cycles, workers > 0);
    for (const double s : untraced->cycle_s) pass.cycles_s += s;
    pass.results = copy_results(*untraced->monitor);
    return pass;
  };
  const std::string dir = options.workdir + "/fanout";
  std::unique_ptr<SpanLog> spans_owner;
  std::unique_ptr<SimRun> run;
  Gate gate;
  const auto traced_pass = [&] {
    run.reset();
    reset_dir(dir);
    spans_owner = std::make_unique<SpanLog>(true);
    {
      SpanLog::Scope scope = spans_owner->span("setup");
      run = build_fanout_run(options.seed, 0, dir, kTargets);
    }
    run->spans = spans_owner.get();
    DriveStats stats = drive(*run, kGateCycles, true);
    gate = take_gate(*run->monitor);
    merge(stats, drive(*run, kTraceCycles - kGateCycles, true));
    return stats;
  };

  (void)untraced_pass(0, kGateCycles);
  std::vector<Pass> pooled{untraced_pass(pool_width(), kTraceCycles)};
  std::vector<Pass> sequential{untraced_pass(0, kTraceCycles)};
  if (sequential.front().results != pooled.front().results) {
    result.fail("pooled and sequential passes recorded different results");
  }
  std::vector<double> traced_s{traced_pass().wall_s};
  if (copy_results(*run->monitor) != sequential.front().results) {
    result.fail("traced pass recorded different results than the untraced pass");
  }
  run.reset();
  const auto pass_start = Clock::now();
  const DriveStats stats = traced_pass();
  traced_s.push_back(stats.wall_s);
  SpanLog& spans = *spans_owner;
  const std::size_t cycles = kTraceCycles;

  const ReportRebuild rebuild = rebuild_live_report(*run->monitor, 1, 0.0, spans);
  const QueryLoop queries =
      live_queries(*run->monitor, options.seed, 0.0, kMinQueries, spans);
  result.attempted += 1 + queries.latency_s.size() + cycles * kTargets;
  report_sim_layers(*run, stats, spans, result);
  result.set("report.render_s", rebuild.render_s, "s");
  result.set("report.bytes", static_cast<double>(rebuild.html.size()), "B");

  // Alert layer over the recorded results, as archive replay evaluates it.
  const LiveResults live = copy_results(*run->monitor);
  {
    SpanLog::Scope scope = spans.span("alert.evaluate_history");
    const auto start = Clock::now();
    core::AlertEngine engine(core::default_alert_rules());
    std::vector<std::pair<std::string, const std::vector<core::CycleResult>*>> streams;
    for (const auto& [name, results] : live) streams.emplace_back(name, &results);
    core::evaluate_history(engine, streams);
    result.set("alert.eval_s", seconds_since(start), "s");
    result.set("alert.fired", static_cast<double>(engine.history().size()), "count");
    result.set("provenance.records", static_cast<double>(engine.provenance().size()),
               "count");
    const auto explain_start = Clock::now();
    const std::string text =
        core::render_explanations(engine.provenance(), core::ExplainFilter{});
    result.set("provenance.explain_s", seconds_since(explain_start), "s");
    if (engine.provenance().size() != run->monitor->alerts().provenance().size()) {
      result.fail("evaluate_history fired a different number of alerts than the live run");
    }
  }

  const std::size_t samples = run->monitor->self_monitor()->samples().size();
  {
    SpanLog::Scope scope = spans.span("mantra.close");
    run->monitor.reset();  // closes the archives
  }
  if (live != sequential.front().results) {
    result.fail("traced pass recorded different results than the untraced pass");
  }
  {
    SpanLog::Scope scope = spans.span("archive.replay");
    check_run(*run, live, dir, result);
  }
  record_gate(gate, dir, result);
  std::vector<std::string> names;
  for (const auto& [name, results] : live) names.push_back(name);
  archive_layers(dir, names, spans, result);
  result.set("teltrace.bytes_per_cycle",
             samples > 0 ? static_cast<double>(std::filesystem::file_size(
                               dir + "/monitor.mtel")) /
                               static_cast<double>(samples)
                         : 0.0,
             "B");
  {
    core::TelemetryQueryEngine engine;
    engine.add_archive("monitor", dir + "/monitor.mtel");
    const std::vector<std::string> series = core::telemetry_series_names(
        engine.reader("monitor")->samples().back().metrics);
    std::mt19937_64 rng(options.seed);
    std::vector<double> latency;
    SpanLog::Scope scope = spans.span("teltrace.query");
    for (int i = 0; i < 200; ++i) {
      core::TelemetryQuery query;
      query.source = "monitor";
      query.series = series[rng() % series.size()];
      const auto start = Clock::now();
      const core::QueryResult answer = engine.run(query);
      latency.push_back(seconds_since(start));
      if (answer.points.empty()) result.fail("empty .mtel series " + query.series);
    }
    result.set("teltrace.query_ms_p50", percentile(latency, 0.5) * 1e3, "ms");
  }

  result.set("trace.unattributed_ratio",
             1.0 - sim_attributed_s(result, spans) / seconds_since(pass_start),
             "ratio");
  spans.write_jsonl(options.workdir + "/spans_monitor_fanout.jsonl");

  sequential.push_back(untraced_pass(0, kTraceCycles));
  pooled.push_back(untraced_pass(pool_width(), kTraceCycles));
  std::vector<double> untraced_s;
  std::vector<double> sequential_cycles_s;
  std::vector<double> pooled_cycles_s;
  std::size_t queue_peak = 0;
  for (const Pass& pass : sequential) {
    untraced_s.push_back(pass.stats.wall_s);
    sequential_cycles_s.push_back(pass.cycles_s);
  }
  for (const Pass& pass : pooled) {
    pooled_cycles_s.push_back(pass.cycles_s);
    queue_peak = std::max(queue_peak, pass.stats.queue_peak);
  }
  result.set("parallel.speedup", median(sequential_cycles_s) / median(pooled_cycles_s),
             "x");
  result.set("parallel.queue_peak", static_cast<double>(queue_peak), "count");
  result.set("trace.overhead_ratio", median(traced_s) / median(untraced_s), "ratio");
  fill_unexercised_layers(result);
  return result;
}

}  // namespace mantra::perfbench
