// Golden digest of the flow-level distribution-tree walk.
//
// A seeded, reduced-scale FIXW run exercises every path of
// Network::recompute_flow: dense flood-and-prune flows, sparse-plane flows
// after a transition, wildcard re-walks caused by lossy DVMRP reports, and an
// administrative toggle of a source DR's LAN interface (which moves the
// first-hop router of every host on that LAN). The test serialises the
// resulting forwarding state and flow trees and pins a digest of it, so any
// change to the walk that alters side effects (advance() calls, prunes,
// SPT switchovers, scheduled events) fails here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "router/network.hpp"
#include "workload/scenario.hpp"

namespace mantra::router {
namespace {

/// Recorded with the std::set / std::deque walk that the flat-vector walk
/// replaced; the walk must keep reproducing it bit for bit.
constexpr std::uint64_t kGoldenDigest = 0x3a4da5a094b2f033ULL;
constexpr std::uint64_t kGoldenEvents = 68088;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void append(std::string& out, const char* format, auto... args) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, format, args...);
  out += buffer;
}

template <typename Nodes>
void append_nodes(std::string& out, const char* label, const Nodes& nodes) {
  append(out, " %s[%zu]", label, nodes.size());
  for (const net::NodeId node : nodes) append(out, " %u", node);
}

/// Every router's MFC in visit order, then every flow's tree sets.
std::string serialise(const Network& network, sim::TimePoint now) {
  std::string out;
  for (const auto& [node, router] : network.routers()) {
    append(out, "router %u mfc=%zu\n", node, router->mfc().size());
    router->mfc().visit([&out](const MfcEntry& entry) {
      append(out, "  (%s,%s) mode=%d iif=%u oifs=", entry.source.to_string().c_str(),
             entry.group.to_string().c_str(), static_cast<int>(entry.mode), entry.iif);
      for (const net::IfIndex oif : entry.oifs) append(out, "%u,", oif);
      out += " prunes=";
      for (const auto& [ifindex, from] : entry.prunes) {
        append(out, "%u:", ifindex);
        for (const net::Ipv4Address address : from) {
          append(out, "%s;", address.to_string().c_str());
        }
      }
      append(out, " up_pruned=%d rate=%a bytes=%" PRIu64 " pkts=%" PRIu64
                  " adv=%" PRId64 "\n",
             entry.upstream_pruned ? 1 : 0, entry.rate_kbps, entry.bytes,
             entry.packets, entry.last_advance.total_ms());
    });
  }
  for (const Flow* flow : network.flows()) {
    append(out, "flow (%s,%s) host=%u plane=%d active=%d rate=%a",
           flow->source.to_string().c_str(), flow->group.to_string().c_str(),
           flow->host, static_cast<int>(flow->plane), flow->active ? 1 : 0,
           flow->rate_kbps);
    append_nodes(out, "on_tree", flow->on_tree);
    append_nodes(out, "touched", flow->ever_touched);
    append_nodes(out, "reached", flow->reached_hosts);
    out += '\n';
  }
  append(out, "now=%" PRId64 "\n", now.total_ms());
  return out;
}

workload::ScenarioConfig golden_config() {
  workload::ScenarioConfig config;
  config.seed = 2024;
  config.domains = 6;
  config.hosts_per_domain = 12;
  config.dvmrp_prefixes_per_domain = 6;
  config.report_loss = 0.15;  // route expiries -> wildcard re-walks
  config.timer_scale = 40;
  config.full_timers = false;  // trace-scale mode, as in the paper runs
  config.generator.session_arrivals_per_hour = 80.0;
  return config;
}

TEST(NetworkGolden, TreeWalkStateDigestIsPinned) {
  workload::FixwScenario scenario(golden_config());
  const sim::TimePoint start = sim::TimePoint::start();
  // Half the new sessions move onto the sparse plane during hours 1-3.
  scenario.schedule_transition(start + sim::Duration::hours(1),
                               sim::Duration::hours(2), 0.5);
  scenario.start();
  Network& network = scenario.network();

  // Take one source DR's LAN interface down and bring it back: hosts on that
  // LAN lose, then regain, their first-hop router.
  const net::NodeId dr = scenario.border_nodes().at(2);
  const net::IfIndex lan_if = 1;  // interface 0 is the tunnel to FIXW
  const net::LinkId lan = scenario.topology().node(dr).interface(lan_if)->link;
  const net::NodeId lan_host = scenario.topology().link(lan).attachments.back().node;
  scenario.engine().run_until(start + sim::Duration::hours(5));
  network.set_interface_enabled(dr, lan_if, false);
  EXPECT_EQ(network.first_hop_router(lan_host), net::kInvalidNode);
  scenario.engine().run_until(start + sim::Duration::hours(6));

  // While the LAN is cut off, no active flow sourced on it has a tree.
  std::size_t stranded = 0;
  for (const Flow* flow : network.flows()) {
    if (!flow->active || network.first_hop_router(flow->host) != net::kInvalidNode) {
      continue;
    }
    ++stranded;
    EXPECT_TRUE(flow->on_tree.empty()) << flow->source.to_string();
  }
  EXPECT_GT(stranded, 0u);

  network.set_interface_enabled(dr, lan_if, true);
  EXPECT_EQ(network.first_hop_router(lan_host), dr);
  scenario.engine().run_until(start + sim::Duration::hours(16));

  const std::string state = serialise(network, scenario.engine().now());
  const std::uint64_t digest = fnv1a(state);
  const std::uint64_t events = scenario.engine().events_processed();
  std::printf("golden digest 0x%016" PRIx64 " events %" PRIu64 " bytes %zu\n",
              digest, events, state.size());
  EXPECT_EQ(events, kGoldenEvents);
  EXPECT_EQ(digest, kGoldenDigest);
}

}  // namespace
}  // namespace mantra::router
