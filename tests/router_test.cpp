#include <gtest/gtest.h>

#include "router/cli.hpp"
#include "router/mfc.hpp"
#include "router/network.hpp"
#include "router/router.hpp"
#include "router/unicast.hpp"

namespace mantra::router {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }
const net::Ipv4Address kGroup{224, 2, 0, 5};

// --- Unicast (global Dijkstra) ------------------------------------------------

class UnicastTest : public ::testing::Test {
 protected:
  // a --- b --- c, with a stub LAN on c.
  UnicastTest() {
    a_ = topo_.add_router("a");
    b_ = topo_.add_router("b");
    c_ = topo_.add_router("c");
    topo_.connect(a_, b_, P("192.168.0.0/30"));
    topo_.connect(b_, c_, P("192.168.0.4/30"));
    lan_ = topo_.create_lan(P("10.3.1.0/24"));
    topo_.attach_to_lan(c_, lan_);
  }

  net::Topology topo_;
  net::NodeId a_, b_, c_;
  net::LinkId lan_;
};

TEST_F(UnicastTest, DirectlyConnectedRoutesHaveNoNextHop) {
  const auto ribs = compute_global_routes(topo_);
  const UnicastRoute* route = ribs[a_].lookup(net::Ipv4Address(192, 168, 0, 2));
  ASSERT_NE(route, nullptr);
  EXPECT_TRUE(route->next_hop.is_unspecified());
  EXPECT_EQ(route->metric, 0);
}

TEST_F(UnicastTest, RemoteSubnetRoutesViaShortestPath) {
  const auto ribs = compute_global_routes(topo_);
  const UnicastRoute* route = ribs[a_].lookup(net::Ipv4Address(10, 3, 1, 7));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, net::Ipv4Address(192, 168, 0, 2));  // via b
  EXPECT_EQ(route->metric, 2);
}

TEST_F(UnicastTest, MetricsSteerPathSelection) {
  // Add a parallel expensive a--c link; shortest path should stay via b.
  topo_.connect(a_, c_, P("192.168.0.8/30"), net::LinkKind::kPointToPoint, 1,
                /*metric=*/10);
  const auto ribs = compute_global_routes(topo_);
  const UnicastRoute* route = ribs[a_].lookup(net::Ipv4Address(10, 3, 1, 7));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, net::Ipv4Address(192, 168, 0, 2));
}

TEST_F(UnicastTest, DisabledInterfaceBreaksPath) {
  topo_.set_interface_enabled(b_, 1, false);  // b's link to c
  const auto ribs = compute_global_routes(topo_);
  EXPECT_EQ(ribs[a_].lookup(net::Ipv4Address(10, 3, 1, 7)), nullptr);
}

TEST_F(UnicastTest, NextHopNodeWalksPath) {
  EXPECT_EQ(next_hop_node(topo_, a_, c_), b_);
  EXPECT_EQ(next_hop_node(topo_, a_, b_), b_);
  EXPECT_EQ(next_hop_node(topo_, a_, a_), a_);
}

// --- Mfc ---------------------------------------------------------------------

TEST(Mfc, EnsureCreatesAndFindsEntries) {
  Mfc mfc;
  const net::Ipv4Address source(10, 1, 1, 2);
  MfcEntry& entry = mfc.ensure(source, kGroup, MfcMode::kDense, 1,
                               sim::TimePoint::from_ms(1000));
  EXPECT_EQ(entry.iif, 1u);
  EXPECT_EQ(mfc.size(), 1u);
  EXPECT_EQ(mfc.find(source, kGroup), &entry);
  // ensure() is idempotent and keeps existing state.
  entry.rate_kbps = 9.0;
  MfcEntry& again = mfc.ensure(source, kGroup, MfcMode::kDense, 1,
                               sim::TimePoint::from_ms(5000));
  EXPECT_EQ(again.rate_kbps, 9.0);
  EXPECT_EQ(again.created, sim::TimePoint::from_ms(1000));
}

TEST(Mfc, CountersAccrueAtRate) {
  Mfc mfc;
  const net::Ipv4Address source(10, 1, 1, 2);
  MfcEntry& entry = mfc.ensure(source, kGroup, MfcMode::kDense, 1,
                               sim::TimePoint::start());
  entry.rate_kbps = 80.0;  // 10 KB/s
  entry.advance(sim::TimePoint::start() + sim::Duration::seconds(10));
  EXPECT_EQ(entry.bytes, 100'000u);
  EXPECT_NEAR(static_cast<double>(entry.packets), 100'000.0 / 512.0, 1.0);
  // Average over lifetime.
  EXPECT_NEAR(entry.average_rate_kbps(sim::TimePoint::start() + sim::Duration::seconds(10)),
              80.0, 0.1);
}

TEST(Mfc, AdvanceIsIdempotentAtSameInstant) {
  Mfc mfc;
  const net::Ipv4Address source(10, 1, 1, 2);
  MfcEntry& entry = mfc.ensure(source, kGroup, MfcMode::kDense, 1,
                               sim::TimePoint::start());
  entry.rate_kbps = 80.0;
  const auto t = sim::TimePoint::start() + sim::Duration::seconds(5);
  entry.advance(t);
  const auto bytes = entry.bytes;
  entry.advance(t);
  EXPECT_EQ(entry.bytes, bytes);
}

TEST(Mfc, GroupCountAndTotalRate) {
  Mfc mfc;
  mfc.ensure(net::Ipv4Address(10, 1, 1, 2), kGroup, MfcMode::kDense, 1,
             sim::TimePoint::start())
      .rate_kbps = 10.0;
  mfc.ensure(net::Ipv4Address(10, 1, 1, 3), kGroup, MfcMode::kDense, 1,
             sim::TimePoint::start())
      .rate_kbps = 20.0;
  mfc.ensure(net::Ipv4Address(10, 1, 1, 2), net::Ipv4Address(224, 2, 0, 6),
             MfcMode::kSparse, 1, sim::TimePoint::start())
      .rate_kbps = 5.0;
  EXPECT_EQ(mfc.size(), 3u);
  EXPECT_EQ(mfc.group_count(), 2u);
  EXPECT_DOUBLE_EQ(mfc.total_rate_kbps(), 35.0);
}

// --- Integrated router over a tiny Network ------------------------------------

class RouterFixture : public ::testing::Test {
 protected:
  // r1 --- r2, with a host LAN on each side. DVMRP + PIM everywhere,
  // r1 is the RP.
  RouterFixture() : rng_(5), network_(engine_, topo_, rng_, NetworkConfig{}) {
    r1_ = topo_.add_router("r1");
    r2_ = topo_.add_router("r2");
    topo_.connect(r1_, r2_, P("192.168.0.0/30"));
    lan1_ = topo_.create_lan(P("10.1.1.0/24"));
    lan2_ = topo_.create_lan(P("10.2.1.0/24"));
    topo_.attach_to_lan(r1_, lan1_);
    topo_.attach_to_lan(r2_, lan2_);
    h1_ = topo_.add_host("h1");
    h2_ = topo_.add_host("h2");
    topo_.attach_to_lan(h1_, lan1_);
    topo_.attach_to_lan(h2_, lan2_);

    RouterConfig config;
    config.dvmrp_enabled = true;
    config.dvmrp.timers_enabled = false;
    config.pim_enabled = true;
    config.pim.timers_enabled = false;
    config.pim.rp_map = {{net::kMulticastRange, net::Ipv4Address(10, 1, 1, 1)}};
    config.igmp.timers_enabled = false;
    network_.add_router(r1_, config);
    network_.add_router(r2_, config);
    network_.start();
    // Exchange DVMRP reports once so RPF tables exist.
    network_.router(r1_)->dvmrp()->send_reports_now();
    network_.router(r2_)->dvmrp()->send_reports_now();
    engine_.run_until(engine_.now() + sim::Duration::seconds(2));
    network_.router(r1_)->dvmrp()->send_reports_now();
    network_.router(r2_)->dvmrp()->send_reports_now();
    engine_.run_until(engine_.now() + sim::Duration::seconds(2));
  }

  sim::Engine engine_;
  sim::Rng rng_;
  net::Topology topo_;
  Network network_;
  net::NodeId r1_, r2_, h1_, h2_;
  net::LinkId lan1_, lan2_;
};

TEST_F(RouterFixture, DvmrpRoutesConverge) {
  // r1 should know r2's LAN via the p2p link.
  const dvmrp::Route* route =
      network_.router(r1_)->dvmrp()->routes().rpf_lookup(net::Ipv4Address(10, 2, 1, 9));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->metric, 2);
}

TEST_F(RouterFixture, RpfDenseResolvesLocalAndRemote) {
  MulticastRouter* r1 = network_.router(r1_);
  const auto local = r1->rpf_dense(net::Ipv4Address(10, 1, 1, 2));
  ASSERT_TRUE(local.has_value());
  EXPECT_TRUE(local->neighbor.is_unspecified());  // directly connected

  const auto remote = r1->rpf_dense(net::Ipv4Address(10, 2, 1, 2));
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->neighbor, net::Ipv4Address(192, 168, 0, 2));
}

TEST_F(RouterFixture, RpfSparseUsesUnicastRib) {
  const auto rpf = network_.router(r1_)->rpf_sparse(net::Ipv4Address(10, 2, 1, 2));
  ASSERT_TRUE(rpf.has_value());
  EXPECT_EQ(rpf->neighbor, net::Ipv4Address(192, 168, 0, 2));
}

TEST_F(RouterFixture, DenseAcceptRpfFailureDrops) {
  MulticastRouter* r1 = network_.router(r1_);
  // Source on r1's own LAN but claimed to arrive from the p2p interface.
  const MfcEntry* entry = r1->dense_accept(net::Ipv4Address(10, 1, 1, 2), kGroup, 0);
  EXPECT_EQ(entry, nullptr);
  EXPECT_EQ(r1->mfc().size(), 0u);
}

TEST_F(RouterFixture, DenseAcceptForwardsTowardDownstreamRouters) {
  MulticastRouter* r1 = network_.router(r1_);
  // Source on r1's LAN (ifindex 1), traffic should flood to r2 via if 0.
  const MfcEntry* entry = r1->dense_accept(net::Ipv4Address(10, 1, 1, 2), kGroup, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->oifs.count(0), 1u);
  EXPECT_EQ(r1->mfc().size(), 1u);
}

TEST_F(RouterFixture, LeafWithoutMembersPrunesUpstream) {
  MulticastRouter* r1 = network_.router(r1_);
  MulticastRouter* r2 = network_.router(r2_);
  // Flood order matters: r1 forwards first (creating its entry), then the
  // flow reaches r2, whose LAN has no members and no downstream routers ->
  // empty oifs and an upstream prune. (A prune for a still-unknown (S,G)
  // would be ignored, as in mrouted.)
  r1->dense_accept(net::Ipv4Address(10, 1, 1, 2), kGroup, 1);
  const MfcEntry* leaf = r2->dense_accept(net::Ipv4Address(10, 1, 1, 2), kGroup, 0);
  ASSERT_NE(leaf, nullptr);
  EXPECT_TRUE(leaf->oifs.empty());
  engine_.run_until(engine_.now() + sim::Duration::seconds(1));
  // r1 received the prune, recorded it, and stopped forwarding to r2.
  const MfcEntry* entry = r1->mfc().find(net::Ipv4Address(10, 1, 1, 2), kGroup);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->prunes.empty());
  EXPECT_TRUE(entry->oifs.empty());
}

TEST_F(RouterFixture, GraftRestoresPrunedBranch) {
  MulticastRouter* r1 = network_.router(r1_);
  MulticastRouter* r2 = network_.router(r2_);
  const net::Ipv4Address source(10, 1, 1, 2);
  r1->dense_accept(source, kGroup, 1);
  r2->dense_accept(source, kGroup, 0);
  engine_.run_until(engine_.now() + sim::Duration::seconds(1));
  ASSERT_TRUE(r1->mfc().find(source, kGroup)->oifs.empty());

  // A member appears on r2's LAN -> graft flows upstream.
  network_.host_join(h2_, kGroup);
  engine_.run_until(engine_.now() + sim::Duration::seconds(2));
  EXPECT_EQ(r1->mfc().find(source, kGroup)->oifs.count(0), 1u);
  EXPECT_FALSE(r2->mfc().find(source, kGroup)->upstream_pruned);
}

TEST_F(RouterFixture, IsDrPicksLowestAddressOnSharedLan) {
  // Single router per LAN here, so both are DRs on their LAN interfaces.
  EXPECT_TRUE(network_.router(r1_)->is_dr(1));
  EXPECT_TRUE(network_.router(r2_)->is_dr(1));
}

TEST_F(RouterFixture, InterfaceNames) {
  EXPECT_EQ(network_.router(r1_)->interface_name(0), "eth0");
  EXPECT_EQ(network_.router(r1_)->interface_name(net::kInvalidIf), "Null0");
}

// --- CLI rendering -------------------------------------------------------------

TEST_F(RouterFixture, CliDvmrpRouteRendering) {
  const std::string text =
      cli::show_ip_dvmrp_route(*network_.router(r1_), engine_.now());
  EXPECT_NE(text.find("DVMRP Routing Table"), std::string::npos);
  EXPECT_NE(text.find("10.2.1.0/24"), std::string::npos);
  EXPECT_NE(text.find("via 192.168.0.2"), std::string::npos);
}

TEST_F(RouterFixture, CliMrouteRendersEntries) {
  network_.router(r1_)->dense_accept(net::Ipv4Address(10, 1, 1, 2), kGroup, 1);
  const std::string text = cli::show_ip_mroute(*network_.router(r1_), engine_.now());
  EXPECT_NE(text.find("(10.1.1.2, 224.2.0.5)"), std::string::npos);
  EXPECT_NE(text.find("Outgoing interface list"), std::string::npos);
}

TEST_F(RouterFixture, CliMrouteCountIncludesRates) {
  MulticastRouter* r1 = network_.router(r1_);
  r1->dense_accept(net::Ipv4Address(10, 1, 1, 2), kGroup, 1);
  r1->mfc().find(net::Ipv4Address(10, 1, 1, 2), kGroup)->rate_kbps = 123.5;
  const std::string text = cli::show_ip_mroute_count(*r1, engine_.now());
  EXPECT_NE(text.find("Group: 224.2.0.5"), std::string::npos);
  EXPECT_NE(text.find("/123.50"), std::string::npos);
}

TEST_F(RouterFixture, CliUnknownCommandYieldsIosError) {
  const std::string text =
      cli::execute_show(*network_.router(r1_), "show ip ospf", engine_.now());
  EXPECT_NE(text.find("% Invalid input"), std::string::npos);
}

TEST_F(RouterFixture, TelnetCaptureHasBannerAndPrompt) {
  const std::string text = cli::telnet_capture(*network_.router(r1_),
                                               "show ip mroute", engine_.now());
  EXPECT_NE(text.find("Password:"), std::string::npos);
  EXPECT_NE(text.find("r1>"), std::string::npos);
  EXPECT_NE(text.find("\r\n"), std::string::npos);
}

// --- NodeSet (flow tree sets) ---------------------------------------------------

TEST(NodeSet, IteratesSortedAndDeduplicates) {
  NodeSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(7));
  EXPECT_TRUE(set.insert(2));
  EXPECT_TRUE(set.insert(11));
  EXPECT_FALSE(set.insert(7));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(std::vector<net::NodeId>(set.begin(), set.end()),
            (std::vector<net::NodeId>{2, 7, 11}));
  EXPECT_EQ(set.count(2), 1u);
  EXPECT_EQ(set.count(11), 1u);
  EXPECT_EQ(set.count(5), 0u);

  // assign() takes walk order with repeats and keeps the std::set view.
  set.assign({9, 3, 9, 1, 3});
  EXPECT_EQ(std::vector<net::NodeId>(set.begin(), set.end()),
            (std::vector<net::NodeId>{1, 3, 9}));
  EXPECT_EQ(set.count(7), 0u);
  EXPECT_EQ(set.count(9), 1u);
  set.assign({});
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.begin(), set.end());
}

TEST(CliUptime, Formats) {
  EXPECT_EQ(cli::uptime_string(sim::Duration::seconds(3725)), "01:02:05");
  EXPECT_EQ(cli::uptime_string(sim::Duration::days(2) + sim::Duration::hours(3)),
            "2d03h");
}

}  // namespace
}  // namespace mantra::router
