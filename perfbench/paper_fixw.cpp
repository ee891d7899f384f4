// paper_fixw: the paper's FIXW deployment at paper scale (bench::MacroConfig
// defaults, scenario seed 1998), driven through the first days of the
// 180-day schedule. The simulator does nearly all the work here; the monitor
// is a sliver.
//
// The scenario seed stays the paper's: at paper scale one simulated day
// costs up to 2.2x more on one scenario seed than on another (a few large
// dense-mode sessions dominate), far beyond the benchmark's spread bound.
// The run's --seed drives the read-side query mix instead.
#include <iostream>

#include "bench.hpp"
#include "macro_run.hpp"

namespace mantra::perfbench {
namespace {

/// Each repetition sets the scenario up afresh and simulates the same first
/// day (fixed work: the cost of a simulated day grows as sessions
/// accumulate, so a time-bounded window would move with the host's speed).
/// Rates are medians over the repetitions; the gate covers the whole day.
constexpr std::size_t kDriveCycles = 48;
constexpr std::size_t kGateCycles = 48;
constexpr int kRepetitions = 5;
constexpr std::size_t kMinQueries = 1000;
constexpr std::uint64_t kPaperSeed = bench::MacroConfig{}.seed;

/// Macro rows of the first `cycles` cycles of both targets.
std::string gate_rows(const SimRun& run, std::size_t cycles) {
  std::string rows;
  for (const std::string& name : run.monitor->target_names()) {
    const auto& results = run.monitor->target_view(name).results();
    for (std::size_t i = 0; i < cycles && i < results.size(); ++i) {
      append_macro_row(rows, name, results[i]);
    }
  }
  return rows;
}

/// Clean transports: every cycle of every target records a fresh result.
void check_cycles(const SimRun& run, RunResult& result) {
  for (const std::string& name : run.monitor->target_names()) {
    const auto& results = run.monitor->target_view(name).results();
    result.attempted += run.cycle_s.size();
    if (results.size() != run.cycle_s.size()) {
      result.fail(name + ": " + std::to_string(run.cycle_s.size() - results.size()) +
                  " dark cycles on a clean transport");
    }
    for (const core::CycleResult& r : results) {
      if (r.stale || r.parse_warnings > 0) {
        result.fail(name + ": stale or unparsed cycle at t=" +
                    std::to_string(r.t.total_ms()) + "ms");
      }
    }
  }
}

}  // namespace

RunResult run_paper_fixw(const Options& options) {
  RunResult result;
  EndToEnd e2e;
  if (!options.trace) {
    // The read phases run in slices after every repetition, so each metric
    // samples the whole run rather than one stretch of a shared host.
    std::string html;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      std::unique_ptr<SimRun> run;
      const auto start = Clock::now();
      run = build_paper_run(kPaperSeed, false, true);
      e2e.setup_s.push_back(seconds_since(start));
      const DriveStats stats = drive(*run, kDriveCycles, false);
      check_cycles(*run, result);
      Digest digest;
      digest.add(gate_rows(*run, kGateCycles));
      if (rep > 0 && digest.hex() != result.digests["macro_rows"]) {
        result.fail("macro rows differ between repetitions of the same run");
      }
      result.digests["macro_rows"] = digest.hex();
      e2e.sim_days_per_s.push_back(stats.sim_days / stats.wall_s);
      std::cerr << "repetition " << rep << ": setup_s=" << e2e.setup_s.back()
                << " drive_s=" << stats.wall_s << '\n';
      e2e.target_cycles_per_s.push_back(
          static_cast<double>(run->cycle_s.size() * 2) / stats.wall_s);
      e2e.cycle_s.insert(e2e.cycle_s.end(), run->cycle_s.begin(), run->cycle_s.end());

      const ReportRebuild rebuild = rebuild_live_report(
          *run->monitor, 1, 0.02 * options.seconds, SpanLog::off());
      if (!rebuild.stable || (rep > 0 && rebuild.html != html)) {
        result.fail("live report bytes differ between rebuilds");
      }
      html = rebuild.html;
      e2e.rebuild_s.insert(e2e.rebuild_s.end(), rebuild.seconds.begin(),
                           rebuild.seconds.end());
      const QueryLoop queries =
          live_queries(*run->monitor, options.seed + static_cast<std::uint64_t>(rep),
                       0.05 * options.seconds, kMinQueries / kRepetitions,
                       SpanLog::off());
      if (queries.latency_s.empty()) result.fail("live queries returned nothing");
      e2e.query_s.insert(e2e.query_s.end(), queries.latency_s.begin(),
                         queries.latency_s.end());
    }
    result.attempted += e2e.rebuild_s.size() + e2e.query_s.size();
    set_end_to_end(result, e2e);
    return result;
  }

  // Traced run. After an untimed warm-up pass, untraced (A) and traced (B)
  // passes of the same cycles run in the order A B B A, so that warm-up and
  // drift fall on both sides; B runs with the program's telemetry and the
  // harness spans on. The last B pass is then probed layer by layer.
  const auto untraced_pass = [&](std::vector<double>& walls, std::string& rows) {
    std::unique_ptr<SimRun> untraced = build_paper_run(kPaperSeed, false, true);
    walls.push_back(drive(*untraced, kDriveCycles, false).wall_s);
    rows = gate_rows(*untraced, kDriveCycles);
  };
  std::vector<double> warmup_s;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::string untraced_rows;
  std::string rows;
  untraced_pass(warmup_s, untraced_rows);
  untraced_pass(untraced_s, untraced_rows);

  std::unique_ptr<SpanLog> spans_owner;
  std::unique_ptr<SimRun> run;
  DriveStats stats;
  double pass_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    run.reset();
    spans_owner = std::make_unique<SpanLog>(true);
    const auto pass_start = Clock::now();
    {
      SpanLog::Scope scope = spans_owner->span("setup");
      run = build_paper_run(kPaperSeed, true, true);
    }
    run->spans = spans_owner.get();
    stats = drive(*run, kDriveCycles, true);
    pass_s = seconds_since(pass_start);
    traced_s.push_back(stats.wall_s);
    if (gate_rows(*run, kDriveCycles) != untraced_rows) {
      result.fail("traced pass produced different macro rows than the untraced pass");
    }
  }
  untraced_pass(untraced_s, rows);
  if (rows != untraced_rows) {
    result.fail("untraced passes produced different macro rows");
  }
  SpanLog& spans = *spans_owner;
  const auto probe_start = Clock::now();
  check_cycles(*run, result);
  Digest digest;
  digest.add(gate_rows(*run, kGateCycles));
  result.digests["macro_rows"] = digest.hex();

  const ReportRebuild rebuild = rebuild_live_report(*run->monitor, 1, 0.0, spans);
  const QueryLoop queries =
      live_queries(*run->monitor, options.seed, 0.0, kMinQueries, spans);
  result.attempted += 1 + queries.latency_s.size();
  report_sim_layers(*run, stats, spans, result);
  result.set("report.render_s", rebuild.render_s, "s");
  result.set("report.bytes", static_cast<double>(rebuild.html.size()), "B");
  pass_s += seconds_since(probe_start);
  result.set("trace.overhead_ratio", median(traced_s) / median(untraced_s), "ratio");
  result.set("trace.unattributed_ratio",
             1.0 - sim_attributed_s(result, spans) / pass_s, "ratio");
  fill_unexercised_layers(result);
  if (!options.workdir.empty()) {
    spans.write_jsonl(options.workdir + "/spans_paper_fixw.jsonl");
  }
  return result;
}

}  // namespace mantra::perfbench
