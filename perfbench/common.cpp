#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/collect.hpp"
#include "core/parallel.hpp"
#include "router/cli.hpp"

namespace mantra::perfbench {

void RunResult::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::cerr << "perfbench: CHECK FAILED: " << why << '\n';
}

// --- SpanLog -----------------------------------------------------------------

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_ns = log_->now_ns();
  log_->open_.pop_back();
}

SpanLog& SpanLog::off() {
  static SpanLog disabled(false);
  return disabled;
}

SpanLog::Scope SpanLog::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0,
                        open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return Scope(this, index);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

double SpanLog::root_s(std::initializer_list<std::string_view> except) const {
  std::int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0 &&
        std::find(except.begin(), except.end(), span.name) == except.end()) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) / 1e9;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << "}\n";
  }
}

// --- Measurement helpers -----------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void Digest::add(std::string_view bytes) {
  for (const char ch : bytes) {
    hash_ ^= static_cast<unsigned char>(ch);
    hash_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(hash_));
  return text;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::size_t pool_width() {
  return std::min<std::size_t>(core::parallel::hardware_threads(), 4);
}

namespace {

std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

double parallel_capacity(std::size_t threads) {
  constexpr std::uint64_t kIterations = 40'000'000;
  constexpr int kRounds = 5;
  std::vector<std::uint64_t> sink(threads + 1, 0);
  std::vector<double> rounds;
  for (int round = 0; round < kRounds; ++round) {
    const auto one = Clock::now();
    sink[threads] ^= spin(kIterations, 7 + static_cast<std::uint64_t>(round));
    const double t1 = seconds_since(one);

    const auto many = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers.emplace_back([&sink, i] { sink[i] ^= spin(kIterations, 11 + i); });
    }
    for (std::thread& worker : workers) worker.join();
    const double tn = seconds_since(many);
    rounds.push_back(tn > 0.0 ? static_cast<double>(threads) * t1 / tn : 0.0);
  }
  // A volatile store keeps the spins from being optimized away.
  static volatile std::uint64_t observed = 0;
  for (const std::uint64_t value : sink) observed = observed ^ value;
  return median(rounds);
}

void append_macro_row(std::string& out, std::string_view router,
                      const core::CycleResult& r) {
  std::ostringstream row;
  row << router << ',' << r.t.total_ms() << ',' << r.usage.sessions << ','
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
  out += row.str();
}

void append_result_row(std::string& out, std::string_view router,
                       const core::CycleResult& r) {
  char tail[512];
  std::snprintf(
      tail, sizeof tail,
      "%zu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%zu,%zu,"
      "%zu,%zu,%d,%lld\n",
      r.cycle_seq, r.usage.avg_density, r.usage.bandwidth_kbps,
      r.usage.unicast_equivalent_kbps, r.usage.saved_multiple,
      r.usage.pct_sessions_active, r.usage.pct_participants_senders,
      r.route_spike_score, r.density_single_fraction,
      r.density_at_most_two_fraction, r.stale ? 1 : 0, r.stale_tables,
      r.collection_failures, r.consecutive_failures, r.capture_attempts,
      r.usage.sessions + r.usage.participants,
      static_cast<long long>(r.collection_latency.total_ms()));
  append_macro_row(out, router, r);
  out += tail;
}

// --- ShuffledTransport -------------------------------------------------------

namespace {

bool starts_row(std::string_view command, std::string_view line) {
  if (line.empty()) return false;
  if (command == "show ip mroute count") return line.rfind("Group:", 0) == 0;
  if (command == "show ip mbgp") return line.rfind("*>", 0) == 0;
  if (command == "show ip msdp sa-cache" || command == "show ip mroute") {
    return line[0] == '(';
  }
  return line[0] >= '0' && line[0] <= '9';  // dvmrp routes, igmp groups
}

/// Shuffles the table rows of one rendered transcript in place.
void shuffle_rows(std::string_view command, std::string& text, sim::Rng& rng) {
  std::vector<std::string_view> lines;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t end = rest.find('\n');
    const std::size_t take = end == std::string_view::npos ? rest.size() : end + 1;
    lines.push_back(rest.substr(0, take));
    rest.remove_prefix(take);
  }
  // A row is a row-start line plus its indented or blank continuation lines;
  // the rows region ends at the first line that is neither (the prompt).
  std::size_t first = 0;
  while (first < lines.size() && !starts_row(command, lines[first])) ++first;
  std::vector<std::pair<std::size_t, std::size_t>> rows;  // [begin, end)
  std::size_t i = first;
  while (i < lines.size() && starts_row(command, lines[i])) {
    std::size_t j = i + 1;
    while (j < lines.size() && !starts_row(command, lines[j]) &&
           (lines[j][0] == ' ' || lines[j][0] == '\n')) {
      ++j;
    }
    rows.emplace_back(i, j);
    i = j;
  }
  if (rows.size() < 2) return;
  auto& engine = rng.engine();
  for (std::size_t k = rows.size() - 1; k > 0; --k) {
    std::swap(rows[k], rows[static_cast<std::size_t>(engine() % (k + 1))]);
  }
  std::string shuffled;
  shuffled.reserve(text.size());
  for (std::size_t k = 0; k < first; ++k) shuffled += lines[k];
  for (const auto& [begin, end] : rows) {
    for (std::size_t k = begin; k < end; ++k) shuffled += lines[k];
  }
  for (std::size_t k = i; k < lines.size(); ++k) shuffled += lines[k];
  text = std::move(shuffled);
}

}  // namespace

void ShuffledTransport::connect_into(const router::MulticastRouter& /*router*/,
                                     sim::TimePoint /*now*/,
                                     core::TransportResult& out) {
  out.reset();
  out.latency = sim::Duration::milliseconds(120);
  record_operation("sessions", out.status);
}

void ShuffledTransport::execute_into(const router::MulticastRouter& router,
                                     std::string_view command,
                                     sim::TimePoint now,
                                     core::TransportResult& out) {
  out.reset();
  router::cli::telnet_capture_into(router, command, now, out.text);
  shuffle_rows(command, out.text, rng_);
  out.latency = sim::Duration::milliseconds(120);
  record_operation("commands", out.status);
}

// --- Per-layer metric names ---------------------------------------------------

namespace {

/// Every per-layer metric the traced run reports, with its unit; the order
/// follows the layer table in BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"sim.busy_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.pending_peak", "count"},
      {"router.flows_peak", "count"},
      {"router.tree_nodes_peak", "count"},
      {"router.mfc_entries_peak", "count"},
      {"router.recompute_all_ms", "ms"},
      {"router.render_us", "us"},
      {"router.render_bytes", "B"},
      {"dvmrp.routes", "count"},
      {"dvmrp.rpf_lookup_ns", "ns"},
      {"workload.sessions_live_peak", "count"},
      {"collect.busy_s", "s"},
      {"collect.attempts", "count"},
      {"collect.retry_ratio", "ratio"},
      {"collect.unfresh_ratio", "ratio"},
      {"transport.faults", "count"},
      {"parse.busy_s", "s"},
      {"parse.shuffled_busy_s", "s"},
      {"parse.rows", "count"},
      {"parse.rows_per_s", "1/s"},
      {"parse.warnings", "count"},
      {"process.derive_s", "s"},
      {"log.record_s", "s"},
      {"log.stored_bytes", "B"},
      {"log.naive_bytes", "B"},
      {"archive.append_s", "s"},
      {"archive.bytes_per_cycle", "B"},
      {"archive.open_s", "s"},
      {"archive.records_decoded", "count"},
      {"alert.eval_s", "s"},
      {"alert.fired", "count"},
      {"provenance.records", "count"},
      {"provenance.explain_s", "s"},
      {"telemetry.spans_dropped", "count"},
      {"teltrace.bytes_per_cycle", "B"},
      {"teltrace.query_ms_p50", "ms"},
      {"mantra.busy_s", "s"},
      {"mantra.share", "ratio"},
      {"mantra.post_join_s", "s"},
      {"parallel.speedup", "x"},
      {"parallel.queue_peak", "count"},
      {"host.parallel_capacity", "x"},
      {"host.pool_width", "count"},
      {"query.cache_hit_rate", "ratio"},
      {"query.rollup_served_ratio", "ratio"},
      {"query.records_decoded_per_query", "count"},
      {"query.raw_ms_p50", "ms"},
      {"query.rollup_ms_p50", "ms"},
      {"fleet.replay_s", "s"},
      {"report.render_s", "s"},
      {"report.bytes", "B"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.unattributed_ratio", "ratio"},
  };
  return metrics;
}

}  // namespace

void set_end_to_end(RunResult& result, const EndToEnd& e2e) {
  // One client, closed loop: throughput is the queries over their summed
  // latency.
  double query_wall = 0.0;
  for (const double s : e2e.query_s) query_wall += s;
  result.set("setup_s", median(e2e.setup_s), "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set("sim_days_per_s", median(e2e.sim_days_per_s), "1/s");
  result.set("cycle_ms_p50", percentile(e2e.cycle_s, 0.50) * 1e3, "ms");
  result.set("cycle_ms_p95", percentile(e2e.cycle_s, 0.95) * 1e3, "ms");
  result.set("target_cycles_per_s", median(e2e.target_cycles_per_s), "1/s");
  result.set("report_rebuild_s", median(e2e.rebuild_s), "s");
  result.set("query_ms_p50", percentile(e2e.query_s, 0.50) * 1e3, "ms");
  result.set("query_ms_p99", percentile(e2e.query_s, 0.99) * 1e3, "ms");
  result.set("queries_per_s",
             query_wall > 0.0 ? static_cast<double>(e2e.query_s.size()) / query_wall
                              : 0.0,
             "1/s");
  std::cerr << "samples: setups=" << e2e.setup_s.size()
            << " repetitions=" << e2e.sim_days_per_s.size()
            << " cycles=" << e2e.cycle_s.size()
            << " rebuilds=" << e2e.rebuild_s.size()
            << " queries=" << e2e.query_s.size() << '\n';
}

void fill_unexercised_layers(RunResult& result) {
  for (const auto& [name, unit] : layer_metrics()) {
    if (result.metrics.count(name) == 0) result.set(name, 0.0, unit);
  }
}

// --- Dispatch ----------------------------------------------------------------

namespace {

/// Reference digests: "<workload> <seed> <gate> <digest>" per line; seed
/// "*" applies to every seed.
std::map<std::string, std::string> reference_digests(const Options& options) {
  std::map<std::string, std::string> gates;
  std::ifstream in(options.reference_file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string seed;
    std::string gate;
    std::string digest;
    if (!(fields >> workload >> seed >> gate >> digest)) continue;
    if (workload == options.workload &&
        (seed == "*" || seed == std::to_string(options.seed))) {
      gates[gate] = digest;
    }
  }
  return gates;
}

}  // namespace

RunResult run_workload(const Options& options) {
  RunResult result;
  if (options.workload == "paper_fixw") {
    result = run_paper_fixw(options);
  } else if (options.workload == "monitor_fanout") {
    result = run_monitor_fanout(options);
  } else if (options.workload == "archive_replay") {
    result = run_archive_replay(options);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }

  for (const auto& [gate, digest] : result.digests) {
    std::cerr << "digest " << options.workload << ' ' << options.seed << ' '
              << gate << ' ' << digest << '\n';
  }
  const std::map<std::string, std::string> reference = reference_digests(options);
  for (const auto& [gate, expected] : reference) {
    ++result.attempted;
    const auto it = result.digests.find(gate);
    if (it == result.digests.end() || it->second != expected) {
      result.fail("output digest '" + gate + "' differs from the reference (" +
                  (it == result.digests.end() ? "missing" : it->second) +
                  " != " + expected + ")");
    }
  }
  if (!reference.empty()) {
    std::cerr << "perfbench: reference seed: " << reference.size()
              << " output digests compared\n";
  }

  // Every run, traced or not, records the host's parallel capacity; a host
  // that cannot run the pool's width in parallel is named, never hidden.
  const std::size_t width = pool_width();
  const double capacity = parallel_capacity(width);
  std::cerr << "host: nproc=" << core::parallel::hardware_threads()
            << " pool_width=" << width << " parallel_capacity=" << capacity
            << '\n';
  if (capacity < 0.75 * static_cast<double>(width)) {
    std::cerr << "host: WARNING parallel capacity " << capacity
              << " is below the pool width " << width
              << "; pooled figures of this run are capacity-bound\n";
  }
  if (options.trace) {
    result.set("host.parallel_capacity", capacity, "x");
    result.set("host.pool_width", static_cast<double>(width), "count");
  }
  return result;
}

}  // namespace mantra::perfbench
