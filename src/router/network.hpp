// Simulation harness tying routers together: protocol message delivery over
// topology links (with delay and a configurable DVMRP-report loss model),
// host-level join/leave and flow start/stop, and flow-level distribution
// tree computation that walks the routers' *actual* forwarding state.
//
// Data traffic is modelled as rate-based flows, not packets: a flow's tree
// is (re)walked whenever relevant control state changes, and every router on
// the tree accrues byte counters at the flow rate. Control-plane reactions
// that real packets would trigger (dense-mode state creation and prunes,
// PIM-SM SPT switchover at last-hop routers) are triggered by the walk, so
// router state evolves the same way it would under packet forwarding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "net/topology.hpp"
#include "router/router.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace mantra::router {

struct NetworkConfig {
  /// Loss probability applied to each DVMRP report delivery (per neighbor);
  /// per-link overrides via set_link_loss. Losing 2-3 consecutive reports
  /// expires routes — this is the mechanism behind Fig 7's instability.
  double dvmrp_report_loss = 0.0;

  /// One-way delay for unicast control messages (register tunnel, MBGP and
  /// MSDP peerings), which are multi-hop TCP in reality.
  sim::Duration unicast_delay = sim::Duration::milliseconds(5);

  /// Coalescing window for distribution-tree recomputation after control
  /// state changes (immediate mode).
  sim::Duration recompute_delay = sim::Duration::milliseconds(100);

  /// Lazy mode: when nonzero, dirty groups are re-walked on this fixed
  /// period instead of shortly after each state change. Used by the
  /// multi-month trace-scale runs, where per-event re-walks would dominate;
  /// rates/trees are then at most this much out of date, well inside the
  /// monitoring cycle.
  sim::Duration lazy_recompute_interval;

  /// How long (S,G) forwarding entries linger after their flow stops
  /// (mrouted cache timeout); sessions stay visible to Mantra this long.
  sim::Duration mfc_retention = sim::Duration::minutes(5);

  /// Sparse-plane flows below this rate do not establish interdomain
  /// (S,G) state: their packets are too sporadic to keep data-driven PIM
  /// state alive (3.5-minute entry timeout vs multi-minute RTCP intervals
  /// in large sessions), so remote RPs and last-hop routers never hold a
  /// live tree for them. Dense-mode flood-and-prune state is not affected.
  double sparse_min_rate_kbps = 0.5;

  /// Member hosts periodically re-send IGMP reports (responses to the
  /// querier) at this interval. Required when router IGMP timers are
  /// enabled, or membership would falsely expire; zero disables (the
  /// trace-scale mode, where router IGMP timers are off too).
  sim::Duration host_report_interval;
};

/// A set of node ids kept as a sorted, de-duplicated flat vector. It reads
/// like std::set<NodeId> (ascending iteration, count, size) but membership is
/// a binary search and re-assigning it reuses the vector's storage, so the
/// tree walk can rebuild a flow's sets without touching the heap.
class NodeSet {
 public:
  using const_iterator = std::vector<net::NodeId>::const_iterator;

  /// Adds `node`; returns false if it was already present.
  bool insert(net::NodeId node) {
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it != nodes_.end() && *it == node) return false;
    nodes_.insert(it, node);
    return true;
  }

  /// Replaces the contents with `nodes` (any order, duplicates allowed).
  void assign(const std::vector<net::NodeId>& nodes) {
    nodes_.assign(nodes.begin(), nodes.end());
    if (!std::is_sorted(nodes_.begin(), nodes_.end())) {
      std::sort(nodes_.begin(), nodes_.end());
    }
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  }

  [[nodiscard]] std::size_t count(net::NodeId node) const {
    return std::binary_search(nodes_.begin(), nodes_.end(), node) ? 1 : 0;
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] const_iterator begin() const { return nodes_.begin(); }
  [[nodiscard]] const_iterator end() const { return nodes_.end(); }

 private:
  std::vector<net::NodeId> nodes_;
};

/// A rate-based data flow from one source host to a group.
struct Flow {
  net::NodeId host = net::kInvalidNode;
  net::Ipv4Address source;
  net::Ipv4Address group;
  double rate_kbps = 0.0;
  MfcMode plane = MfcMode::kDense;
  sim::TimePoint started;
  bool active = true;
  /// Routers whose MFC currently carries this flow.
  NodeSet on_tree;
  /// Every router that ever held an MFC entry for this flow (the initial
  /// dense flood reaches routers that later prune off; their entries keep
  /// prune state and are only torn down when the flow is retired).
  NodeSet ever_touched;
  /// Member hosts the flow currently reaches.
  NodeSet reached_hosts;
};

class Network final : public RouterEnv {
 public:
  Network(sim::Engine& engine, net::Topology& topology, sim::Rng& rng,
          NetworkConfig config = {});

  /// Registers a router on a topology node. Call before start().
  MulticastRouter& add_router(net::NodeId node, RouterConfig config);

  /// Computes unicast RIBs and starts every protocol instance.
  void start();

  // --- Host-level API (driven by the workload generator) ---
  void host_join(net::NodeId host, net::Ipv4Address group);
  void host_leave(net::NodeId host, net::Ipv4Address group);

  /// Starts a flow from `host` to `group` at `rate_kbps` on the given
  /// routing plane. One flow per (host, group).
  void flow_start(net::NodeId host, net::Ipv4Address group, double rate_kbps,
                  MfcMode plane);
  void flow_set_rate(net::NodeId host, net::Ipv4Address group, double rate_kbps);
  void flow_stop(net::NodeId host, net::Ipv4Address group);

  void set_link_loss(net::LinkId link, double probability);

  /// Declares which plane carries a group. Call before the first join/flow
  /// for the group; defaults to dense. Drives the routers' membership
  /// handling (DVMRP graft/prune vs PIM join/prune).
  void set_group_plane(net::Ipv4Address group, MfcMode plane);

  /// Administrative interface toggle; wraps the topology call and refreshes
  /// the adjacency caches.
  void set_interface_enabled(net::NodeId node, net::IfIndex ifindex, bool enabled);

  // --- Introspection ---
  [[nodiscard]] MulticastRouter* router(net::NodeId node);
  [[nodiscard]] const MulticastRouter* router(net::NodeId node) const;
  [[nodiscard]] const std::map<net::NodeId, std::unique_ptr<MulticastRouter>>&
  routers() const {
    return routers_;
  }
  [[nodiscard]] const Flow* flow(net::Ipv4Address source, net::Ipv4Address group) const;
  [[nodiscard]] std::vector<const Flow*> flows() const;
  [[nodiscard]] const std::set<net::NodeId>* group_members(net::Ipv4Address group) const;
  [[nodiscard]] net::Ipv4Address host_address(net::NodeId host) const;

  /// Designated (lowest-address) router on the host's LAN; kInvalidNode if
  /// the host has no router.
  [[nodiscard]] net::NodeId first_hop_router(net::NodeId host) const;

  /// Forces an immediate synchronous recomputation of every active flow's
  /// tree (tests; the monitoring loop relies on the scheduled path).
  void recompute_all_now();

  /// Convenience: run the event engine for a simulated duration.
  void run_for(sim::Duration duration) {
    engine_.run_until(engine_.now() + duration);
  }

  // --- RouterEnv ---
  sim::Engine& engine() override { return engine_; }
  const net::Topology& topology() const override { return topology_; }
  void deliver_dvmrp_report(net::NodeId from, net::IfIndex ifindex,
                            const dvmrp::RouteReport& report) override;
  void deliver_prune(net::NodeId from, net::IfIndex ifindex, net::Ipv4Address to,
                     const dvmrp::Prune& prune) override;
  void deliver_graft(net::NodeId from, net::IfIndex ifindex, net::Ipv4Address to,
                     const dvmrp::Graft& graft) override;
  void deliver_join_prune(net::NodeId from, net::IfIndex ifindex,
                          const pim::JoinPrune& message) override;
  void deliver_register(net::NodeId from, net::Ipv4Address rp,
                        const pim::Register& message) override;
  void deliver_register_stop(net::NodeId from, net::Ipv4Address dr,
                             const pim::RegisterStop& message) override;
  void deliver_mbgp(net::NodeId from, net::Ipv4Address peer,
                    const mbgp::Update& update) override;
  void deliver_msdp(net::NodeId from, net::Ipv4Address peer,
                    const msdp::SourceActive& message) override;
  void multicast_state_changed(net::NodeId node, net::Ipv4Address group) override;
  const std::vector<net::Attachment>& router_neighbors(
      net::NodeId node, net::IfIndex ifindex) const override;
  MfcMode group_plane(net::Ipv4Address group) const override;

 private:
  using FlowKey = std::pair<net::Ipv4Address, net::Ipv4Address>;  ///< (S, G)

  /// A host's first-hop router and that router's interface on the host's
  /// LAN; current while `generation` equals first_hop_generation_.
  struct FirstHop {
    net::NodeId router = net::kInvalidNode;
    net::IfIndex entry_if = net::kInvalidIf;
    std::uint64_t generation = 0;
  };

  [[nodiscard]] double link_loss(net::LinkId link) const;
  [[nodiscard]] MulticastRouter* router_by_address(net::Ipv4Address address);
  void send_igmp_reports(net::NodeId host, net::Ipv4Address group);
  void schedule_host_rereport(net::NodeId host, net::Ipv4Address group);
  void schedule_recompute(net::Ipv4Address group);
  void process_pending_recomputes();
  void recompute_group(net::Ipv4Address group);
  /// Fills member_hosts_ and member_links_ for `group`.
  void collect_members(net::Ipv4Address group);
  /// Re-walks one flow's tree; member_hosts_/member_links_ must hold the
  /// flow's group (recompute_group collects them once for all its flows).
  void recompute_flow(Flow& flow);
  void retire_flow(const FlowKey& key);
  void rebuild_adjacency_cache();
  /// Cached first_hop_router() plus the entry interface the walk starts on.
  const FirstHop& first_hop(net::NodeId host);
  /// Marks every member host on `link` (other than `except`) as reached.
  void reach_members(net::LinkId link, net::NodeId except);

  sim::Engine& engine_;
  net::Topology& topology_;
  sim::Rng& rng_;
  NetworkConfig config_;
  std::map<net::NodeId, std::unique_ptr<MulticastRouter>> routers_;
  /// routers_ indexed by node id (nullptr where no router is registered).
  std::vector<MulticastRouter*> router_index_;
  std::map<FlowKey, Flow> flows_;
  std::map<net::Ipv4Address, std::set<net::NodeId>> members_;
  std::map<net::Ipv4Address, MfcMode> group_planes_;
  std::map<net::LinkId, double> link_loss_;
  /// adjacency_[node][ifindex] -> attached *routers* (hosts excluded).
  std::vector<std::vector<std::vector<net::Attachment>>> adjacency_;
  std::unique_ptr<sim::PeriodicTimer> lazy_timer_;
  /// Groups with a recompute pending (coalescing); unspecified address means
  /// "all groups".
  std::set<net::Ipv4Address> pending_recompute_;
  bool recompute_scheduled_ = false;
  bool started_ = false;

  /// Per-host first-hop cache; bumping the generation invalidates it.
  std::vector<FirstHop> first_hop_cache_;
  std::uint64_t first_hop_generation_ = 1;

  // Tree-walk scratch, reused by every walk so a warm dense walk does not
  // allocate.
  /// walk_mark_[node] == walk_epoch_ once the current walk put node on tree;
  /// reached_mark_[host] == walk_epoch_ once it delivered to member host.
  std::vector<std::uint32_t> walk_mark_;
  std::vector<std::uint32_t> reached_mark_;
  std::uint32_t walk_epoch_ = 0;
  /// FIFO of (router, arrival interface), consumed front to back.
  std::vector<std::pair<net::NodeId, net::IfIndex>> walk_queue_;
  std::vector<net::NodeId> walk_tree_;     ///< routers put on tree, walk order
  std::vector<net::NodeId> walk_reached_;  ///< reached members, ascending
  /// The walked group's member hosts, ascending, and (link, member) for
  /// every link they are attached to, sorted so one link's members are an
  /// equal_range: delivery onto a link never scans non-member attachments.
  std::vector<net::NodeId> member_hosts_;
  std::vector<std::pair<net::LinkId, net::NodeId>> member_links_;
};

}  // namespace mantra::router
