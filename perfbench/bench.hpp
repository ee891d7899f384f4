// Mantra's repository benchmark: three seeded workloads driven through the
// program's public API, each timed end to end (untraced) or split by layer
// (traced). Nothing here reaches into src/ beyond public headers; the
// per-layer split comes from spans the harness records around its own calls
// into each layer plus the spans and registry the program already keeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/mantra.hpp"
#include "core/transport.hpp"
#include "sim/random.hpp"
#include "workload/scenario.hpp"

namespace mantra::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;         ///< scratch space for archives and the span dump
  std::string reference_file;  ///< recorded output digests (reference seeds)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Output digests, one per gate, compared against the reference file at
  /// the workload's reference seed.
  std::map<std::string, std::string> digests;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed check: counts it and prints why on stderr.
  void fail(const std::string& why);
};

// --- Harness spans -----------------------------------------------------------

/// In-memory span recorder for the traced run: name, start, end and parent,
/// kept until the run ends and then written out as JSON lines. A disabled
/// log hands out inert scopes that never read the clock.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    Scope(Scope&& other) noexcept : log_(other.log_), index_(other.index_) {
      other.log_ = nullptr;
    }
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    ~Scope();

   private:
    SpanLog* log_;
    int index_;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// A shared disabled log, the default for untraced runs.
  [[nodiscard]] static SpanLog& off();

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope span(std::string name);

  /// Wall seconds covered by root spans (spans without a parent), leaving
  /// out the roots named in `except`.
  [[nodiscard]] double root_s(std::initializer_list<std::string_view> except = {}) const;
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Shared measurement helpers ---------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
class Digest {
 public:
  void add(std::string_view bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Peak resident set (VmHWM) of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The widest pool a workload may use: min(hardware threads, 4).
[[nodiscard]] std::size_t pool_width();

/// Host capacity probe: the same CPU spin on 1 thread and on `threads`
/// threads, threads x t1 / tN (≈ threads on an idle host), as the median of
/// five rounds: on a shared virtual machine the vCPUs actually available
/// change from one second to the next.
[[nodiscard]] double parallel_capacity(std::size_t threads);

/// One macro-row line per result, in bench_cache's column format.
void append_macro_row(std::string& out, std::string_view router,
                      const core::CycleResult& result);

/// Every CycleResult field, one line per result (the fan-out gate).
void append_result_row(std::string& out, std::string_view router,
                       const core::CycleResult& result);

// --- Transports --------------------------------------------------------------

/// Returns each router's own render with its table rows (a row line plus its
/// indented continuation lines) in seeded shuffled order. IOS promises no
/// row order, so the parsed tables must not change.
class ShuffledTransport : public core::Transport {
 public:
  explicit ShuffledTransport(std::uint64_t seed) : rng_(seed) {}

  void connect_into(const router::MulticastRouter& router, sim::TimePoint now,
                    core::TransportResult& out) override;
  void execute_into(const router::MulticastRouter& router,
                    std::string_view command, sim::TimePoint now,
                    core::TransportResult& out) override;
  void disconnect() override {}

 private:
  sim::Rng rng_;
};

// --- Workloads ---------------------------------------------------------------

/// A simulated deployment under monitoring: the scenario, the monitor, and
/// the harness-owned cycle timer that calls Mantra::run_cycle_now() (null
/// when Mantra::start() drives the cycle instead).
struct SimRun {
  std::unique_ptr<workload::FixwScenario> scenario;
  std::unique_ptr<core::Mantra> monitor;
  std::unique_ptr<sim::PeriodicTimer> timer;
  std::vector<double> cycle_s;  ///< wall of each harness-driven cycle
  SpanLog* spans = &SpanLog::off();  ///< each harness cycle is a span
  std::map<std::string, std::string> transport_kind;  ///< target -> kind
};

/// The paper's FIXW deployment at bench::MacroConfig defaults (two targets,
/// 30-minute cycles, the 180-day schedule). `harness_timer` selects the
/// harness-owned cycle timer (the benchmark's path) over Mantra::start().
[[nodiscard]] std::unique_ptr<SimRun> build_paper_run(std::uint64_t seed,
                                                      bool telemetry,
                                                      bool harness_timer);

/// The monitor_fanout deployment: `targets` monitored routers on one
/// scenario (seed 1998) with mixed sparse/dense planes from t=0, warmed up
/// for one simulated hour, on 2-minute cycles. `seed` picks which quarter
/// of the borders collect through a FaultInjectingTransport and which
/// quarter through a ShuffledTransport, and seeds both; alerts, `.marc`
/// archives and self-telemetry write under `dir`.
[[nodiscard]] std::unique_ptr<SimRun> build_fanout_run(
    std::uint64_t seed, std::size_t worker_threads, const std::string& dir,
    std::size_t targets);

/// What one drive of the engine did: wall time, simulated time, engine
/// events, and peaks sampled after every step (the network peaks only when
/// `sample_network` was set).
struct DriveStats {
  double wall_s = 0.0;
  double run_until_s = 0.0;  ///< wall inside Engine::run_until
  double sim_days = 0.0;
  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
  std::size_t sessions_peak = 0;
  std::size_t flows_peak = 0;
  std::size_t tree_nodes_peak = 0;
  std::size_t mfc_entries_peak = 0;
  std::size_t queue_peak = 0;  ///< deepest worker-pool queue of any cycle
};

/// Adds `part` (a later drive of the same run) into `total`.
void merge(DriveStats& total, const DriveStats& part);

/// Advances the engine one monitoring period per step until `cycles`
/// harness cycles have run.
DriveStats drive(SimRun& run, std::size_t cycles, bool sample_network);

/// Per-layer metrics of a traced simulated pass: sim, router, dvmrp,
/// workload, collect/transport, parse, process, log, telemetry and mantra.
void report_sim_layers(SimRun& run, const DriveStats& drive, SpanLog& spans,
                       RunResult& result);

/// Wall seconds of a traced simulated pass that its per-layer metrics
/// account for: sim.busy_s, collect.busy_s, parse.busy_s, process.derive_s,
/// log.record_s, mantra.post_join_s and the harness's probe spans (every
/// root span but the engine drive). The rest of the pass is unattributed:
/// the program's `process` span beyond parse, derive and record (usage and
/// density statistics, the spike detector, the archive append), the
/// `target_cycle` span beyond capture and process, and the harness's own
/// bookkeeping.
[[nodiscard]] double sim_attributed_s(const RunResult& result, const SpanLog& spans);

/// The report an operator rebuilds from a live monitor: report_data_from +
/// render_html_report + render_explanations, timed in batches of back-to-back
/// rebuilds until both `min_samples` batches and `min_wall_s` are reached.
struct ReportRebuild {
  std::vector<double> seconds;  ///< per-rebuild wall of each batch
  double render_s = 0.0;        ///< of which render_html_report, per rebuild
  std::string html;
  std::string explanations;
  bool stable = true;  ///< every rebuild rendered the same bytes
};

[[nodiscard]] ReportRebuild rebuild_live_report(const core::Mantra& monitor,
                                                int min_samples, double min_wall_s,
                                                SpanLog& spans);

/// Latencies of a closed loop with one client; the next query is issued
/// only after the previous one returned.
struct QueryLoop {
  std::vector<double> latency_s;
};

/// One client refreshing an operator's dashboard over the live monitor's
/// read surface: the views examples/quickstart.cpp and
/// examples/fixw_monitor.cpp print, for one seeded target per refresh. Runs
/// until both `min_queries` and `min_wall_s` are reached.
[[nodiscard]] QueryLoop live_queries(const core::Mantra& monitor,
                                     std::uint64_t seed, double min_wall_s,
                                     std::size_t min_queries, SpanLog& spans);

/// The raw samples behind the end-to-end metrics; every workload fills all
/// of them (README.md states what "cycle" and "query" mean in each). Rates
/// are kept per repetition and reported as medians, latencies pooled.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> sim_days_per_s;
  std::vector<double> cycle_s;
  std::vector<double> target_cycles_per_s;
  std::vector<double> rebuild_s;
  std::vector<double> query_s;  ///< every query of the closed loop, in order
};

/// Sets the end-to-end metrics from the samples (medians and percentiles).
void set_end_to_end(RunResult& result, const EndToEnd& e2e);

/// Fills every per-layer metric the run did not set with 0: the layer did
/// no work in this workload.
void fill_unexercised_layers(RunResult& result);

/// Writes the archive_replay fleet archive (S shards x T targets of `.marc`,
/// one `.mtel` per shard) under `dir` and compacts it. Returns the shard
/// layout: shard name -> target names.
[[nodiscard]] std::map<std::string, std::vector<std::string>>
write_fleet_archive(std::uint64_t seed, const std::string& dir, int shards,
                    int targets_per_shard);

[[nodiscard]] RunResult run_paper_fixw(const Options& options);
[[nodiscard]] RunResult run_monitor_fanout(const Options& options);
[[nodiscard]] RunResult run_archive_replay(const Options& options);

/// Dispatches on options.workload, adds host facts, and checks digests at
/// the reference seed. Throws std::invalid_argument for unknown workloads.
[[nodiscard]] RunResult run_workload(const Options& options);

}  // namespace mantra::perfbench
