// The benchmark's own tests, at small sizes: the harness must measure the
// program it claims to measure, and its inputs must follow its seed.
//
// Build from the repository root, then run from the build directory (the
// tests write their scratch files under perfbench_test_work/ there):
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   cd .bench_build/perfbench && ./perfbench_test
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "core/collect.hpp"
#include "core/parse.hpp"

namespace mantra::perfbench {
namespace {

std::string work_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::current_path() / "perfbench_test_work" / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::map<std::string, std::vector<core::CycleResult>> results_of(const SimRun& run) {
  std::map<std::string, std::vector<core::CycleResult>> results;
  for (const std::string& name : run.monitor->target_names()) {
    results[name] = run.monitor->target_view(name).results();
  }
  return results;
}

TEST(Perfbench, HarnessTimerMatchesMantraStart) {
  std::unique_ptr<SimRun> harness = build_paper_run(7, false, true);
  std::unique_ptr<SimRun> reference = build_paper_run(7, false, false);
  const sim::TimePoint until = sim::TimePoint::start() + sim::Duration::hours(5);
  harness->scenario->engine().run_until(until);
  reference->scenario->engine().run_until(until);

  EXPECT_EQ(harness->cycle_s.size(), 10u);
  const auto expected = results_of(*reference);
  ASSERT_EQ(expected.at("fixw").size(), 10u);
  EXPECT_EQ(results_of(*harness), expected);
  EXPECT_EQ(harness->scenario->engine().events_processed(),
            reference->scenario->engine().events_processed());
}

TEST(Perfbench, ShuffledTransportParsesLikeInOrderRender) {
  std::unique_ptr<SimRun> run = build_fanout_run(3, 0, work_dir("shuffle"), 8);
  drive(*run, 3, false);
  const sim::TimePoint now = run->scenario->engine().now();
  const std::vector<std::string> names = run->monitor->target_names();

  std::size_t reordered = 0;
  for (const auto& [node, router] : run->scenario->network().routers()) {
    if (std::find(names.begin(), names.end(), router->hostname()) == names.end()) {
      continue;
    }
    core::CliTransport ordered;
    ShuffledTransport shuffled(11);
    const auto text = [&](core::Transport& transport, const char* command) {
      return core::preprocess(transport.execute(*router, command, now).text);
    };
    for (const char* command : {"show ip mroute count", "show ip dvmrp route",
                                "show ip msdp sa-cache", "show ip mbgp"}) {
      const std::string in_order = text(ordered, command);
      const std::string reshuffled = text(shuffled, command);
      EXPECT_EQ(in_order.size(), reshuffled.size()) << command;
      if (in_order != reshuffled) ++reordered;

      std::vector<std::string> warnings;
      core::Snapshot a;
      core::Snapshot b;
      const std::string_view cmd = command;
      if (cmd == "show ip mroute count") {
        core::parse_mroute_count(in_order, a.pairs, &warnings);
        core::parse_mroute_count(reshuffled, b.pairs, &warnings);
        EXPECT_EQ(a.pairs, b.pairs);
      } else if (cmd == "show ip dvmrp route") {
        core::parse_dvmrp_route(in_order, a.routes, &warnings);
        core::parse_dvmrp_route(reshuffled, b.routes, &warnings);
        EXPECT_EQ(a.routes, b.routes);
      } else if (cmd == "show ip msdp sa-cache") {
        core::parse_msdp_sa_cache(in_order, a.sa_cache, &warnings);
        core::parse_msdp_sa_cache(reshuffled, b.sa_cache, &warnings);
        EXPECT_EQ(a.sa_cache, b.sa_cache);
      } else {
        core::parse_mbgp(in_order, a.mbgp_routes, &warnings);
        core::parse_mbgp(reshuffled, b.mbgp_routes, &warnings);
        EXPECT_EQ(a.mbgp_routes, b.mbgp_routes);
      }
      EXPECT_TRUE(warnings.empty()) << command;
    }
  }
  EXPECT_GT(reordered, 8u);  // the shuffle really reorders rows
}

class TracedVsUntraced : public ::testing::TestWithParam<const char*> {};

TEST_P(TracedVsUntraced, SameOutputDigests) {
  Options options;
  options.workload = GetParam();
  options.seed = 5;
  options.seconds = 0.0;  // each workload's minimum amount of work
  options.workdir = work_dir(std::string("digests_") + GetParam());
  const RunResult untraced = run_workload(options);
  options.trace = true;
  const RunResult traced = run_workload(options);
  EXPECT_TRUE(untraced.correct);
  EXPECT_TRUE(traced.correct);
  EXPECT_FALSE(untraced.digests.empty());
  EXPECT_EQ(untraced.digests, traced.digests);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedVsUntraced,
                         ::testing::Values("paper_fixw", "monitor_fanout",
                                           "archive_replay"));

TEST(Perfbench, SeedChangesGeneratedInputs) {
  // monitor_fanout: the seed picks and seeds the faulty and shuffled targets.
  std::unique_ptr<SimRun> one = build_fanout_run(1, 0, work_dir("seed_1"), 16);
  std::unique_ptr<SimRun> two = build_fanout_run(2, 0, work_dir("seed_2"), 16);
  EXPECT_NE(one->transport_kind, two->transport_kind);
  drive(*one, 10, false);
  drive(*two, 10, false);
  EXPECT_NE(results_of(*one), results_of(*two));

  // archive_replay: the seed writes a different fleet archive, and the same
  // seed the same bytes.

  const std::string a = work_dir("seed_a");
  const std::string b = work_dir("seed_b");
  const auto layout_a = write_fleet_archive(1, a, 1, 2);
  const auto layout_b = write_fleet_archive(2, b, 1, 2);
  ASSERT_EQ(layout_a, layout_b);
  const std::string target = layout_a.at("shard0").front();
  EXPECT_NE(read_file(a + "/shard0/" + target + ".marc"),
            read_file(b + "/shard0/" + target + ".marc"));
  const std::string again = work_dir("seed_a_again");
  (void)write_fleet_archive(1, again, 1, 2);
  EXPECT_EQ(read_file(a + "/shard0/" + target + ".marc"),
            read_file(again + "/shard0/" + target + ".marc"));
}

}  // namespace
}  // namespace mantra::perfbench
