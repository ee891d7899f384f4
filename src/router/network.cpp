#include "router/network.hpp"

#include <algorithm>

namespace mantra::router {

Network::Network(sim::Engine& engine, net::Topology& topology, sim::Rng& rng,
                 NetworkConfig config)
    : engine_(engine), topology_(topology), rng_(rng), config_(config) {}

MulticastRouter& Network::add_router(net::NodeId node, RouterConfig config) {
  auto router = std::make_unique<MulticastRouter>(*this, node, std::move(config));
  MulticastRouter& ref = *router;
  routers_[node] = std::move(router);
  if (node >= router_index_.size()) router_index_.resize(node + 1, nullptr);
  router_index_[node] = &ref;
  ++first_hop_generation_;
  return ref;
}

void Network::start() {
  rebuild_adjacency_cache();
  for (auto& [node, router] : routers_) {
    router->rib() = compute_routes(topology_, node);
  }
  ++first_hop_generation_;  // the topology may have grown since add_router
  started_ = true;
  if (!config_.lazy_recompute_interval.is_zero()) {
    lazy_timer_ = std::make_unique<sim::PeriodicTimer>(
        engine_, config_.lazy_recompute_interval,
        [this] { process_pending_recomputes(); });
    lazy_timer_->start();
  }
  for (auto& [node, router] : routers_) router->start();
}

void Network::rebuild_adjacency_cache() {
  adjacency_.assign(topology_.node_count(), {});
  for (const net::Node& node : topology_.nodes()) {
    auto& per_if = adjacency_[node.id];
    per_if.resize(node.interfaces.size());
    for (const net::Interface& iface : node.interfaces) {
      for (const net::Attachment& att : topology_.neighbors(node.id, iface.ifindex)) {
        if (topology_.node(att.node).kind == net::NodeKind::kRouter) {
          per_if[iface.ifindex].push_back(att);
        }
      }
    }
  }
}

const std::vector<net::Attachment>& Network::router_neighbors(
    net::NodeId node, net::IfIndex ifindex) const {
  static const std::vector<net::Attachment> kEmpty;
  if (node >= adjacency_.size() || ifindex >= adjacency_[node].size()) return kEmpty;
  return adjacency_[node][ifindex];
}

MfcMode Network::group_plane(net::Ipv4Address group) const {
  const auto it = group_planes_.find(group);
  return it == group_planes_.end() ? MfcMode::kDense : it->second;
}

void Network::set_group_plane(net::Ipv4Address group, MfcMode plane) {
  group_planes_[group] = plane;
}

void Network::set_interface_enabled(net::NodeId node, net::IfIndex ifindex,
                                    bool enabled) {
  topology_.set_interface_enabled(node, ifindex, enabled);
  rebuild_adjacency_cache();
  ++first_hop_generation_;
  schedule_recompute(net::Ipv4Address{});
}

MulticastRouter* Network::router(net::NodeId node) {
  return node < router_index_.size() ? router_index_[node] : nullptr;
}

const MulticastRouter* Network::router(net::NodeId node) const {
  return node < router_index_.size() ? router_index_[node] : nullptr;
}

MulticastRouter* Network::router_by_address(net::Ipv4Address address) {
  const auto attachment = topology_.find_by_address(address);
  if (!attachment) return nullptr;
  return router(attachment->node);
}

net::Ipv4Address Network::host_address(net::NodeId host) const {
  return topology_.node(host).primary_address();
}

net::NodeId Network::first_hop_router(net::NodeId host) const {
  const net::Node& node = topology_.node(host);
  net::NodeId best = net::kInvalidNode;
  net::Ipv4Address best_addr;
  for (const net::Interface& iface : node.interfaces) {
    if (!iface.enabled || iface.link == net::kInvalidLink) continue;
    for (const net::Attachment& att : topology_.neighbors(host, iface.ifindex)) {
      const net::Node& peer = topology_.node(att.node);
      if (peer.kind != net::NodeKind::kRouter) continue;
      if (router(att.node) == nullptr) continue;
      const net::Ipv4Address addr = peer.interface(att.ifindex)->address;
      if (best == net::kInvalidNode || addr < best_addr) {
        best = att.node;
        best_addr = addr;
      }
    }
  }
  return best;
}

const Network::FirstHop& Network::first_hop(net::NodeId host) {
  if (host >= first_hop_cache_.size()) first_hop_cache_.resize(host + 1);
  FirstHop& cached = first_hop_cache_[host];
  if (cached.generation == first_hop_generation_) return cached;
  cached.router = first_hop_router(host);
  cached.entry_if = net::kInvalidIf;
  if (cached.router != net::kInvalidNode) {
    // Interface of the first-hop router on the source's LAN.
    for (const net::Interface& iface : topology_.node(host).interfaces) {
      if (iface.link == net::kInvalidLink) continue;
      for (const net::Attachment& att : topology_.link(iface.link).attachments) {
        if (att.node == cached.router) cached.entry_if = att.ifindex;
      }
    }
  }
  cached.generation = first_hop_generation_;
  return cached;
}

double Network::link_loss(net::LinkId link) const {
  const auto it = link_loss_.find(link);
  return it == link_loss_.end() ? config_.dvmrp_report_loss : it->second;
}

void Network::set_link_loss(net::LinkId link, double probability) {
  link_loss_[link] = probability;
}

// ---------------------------------------------------------------------------
// Host API
// ---------------------------------------------------------------------------

void Network::send_igmp_reports(net::NodeId host, net::Ipv4Address group) {
  const net::Ipv4Address reporter = host_address(host);
  const net::Node& node = topology_.node(host);
  // IGMP reports are link-multicast: every router on the LAN hears them.
  for (const net::Interface& iface : node.interfaces) {
    if (!iface.enabled || iface.link == net::kInvalidLink) continue;
    const int delay = topology_.link(iface.link).delay_ms;
    for (const net::Attachment& att : topology_.neighbors(host, iface.ifindex)) {
      MulticastRouter* target = router(att.node);
      if (target == nullptr) continue;
      const net::IfIndex rif = att.ifindex;
      engine_.schedule_after(sim::Duration::milliseconds(delay),
                             [target, rif, group, reporter] {
                               target->on_igmp_report(rif, group, reporter);
                             });
    }
  }
}

void Network::schedule_host_rereport(net::NodeId host, net::Ipv4Address group) {
  engine_.schedule_after(config_.host_report_interval, [this, host, group] {
    const auto it = members_.find(group);
    if (it == members_.end() || it->second.find(host) == it->second.end()) {
      return;  // no longer a member; the refresh chain ends
    }
    send_igmp_reports(host, group);
    schedule_host_rereport(host, group);
  });
}

void Network::host_join(net::NodeId host, net::Ipv4Address group) {
  if (!members_[group].insert(host).second) return;
  send_igmp_reports(host, group);
  if (!config_.host_report_interval.is_zero()) {
    schedule_host_rereport(host, group);
  }
  schedule_recompute(group);
}

void Network::host_leave(net::NodeId host, net::Ipv4Address group) {
  const auto it = members_.find(group);
  if (it == members_.end() || it->second.erase(host) == 0) return;
  if (it->second.empty()) members_.erase(it);
  const net::Ipv4Address reporter = host_address(host);
  const net::Node& node = topology_.node(host);
  for (const net::Interface& iface : node.interfaces) {
    if (!iface.enabled || iface.link == net::kInvalidLink) continue;
    const int delay = topology_.link(iface.link).delay_ms;
    for (const net::Attachment& att : topology_.neighbors(host, iface.ifindex)) {
      MulticastRouter* target = router(att.node);
      if (target == nullptr) continue;
      const net::IfIndex rif = att.ifindex;
      engine_.schedule_after(sim::Duration::milliseconds(delay),
                             [target, rif, group, reporter] {
                               target->on_igmp_leave(rif, group, reporter);
                             });
    }
  }
  schedule_recompute(group);
}

void Network::flow_start(net::NodeId host, net::Ipv4Address group,
                         double rate_kbps, MfcMode plane) {
  const net::Ipv4Address source = host_address(host);
  Flow& flow = flows_[FlowKey{source, group}];
  flow.host = host;
  flow.source = source;
  flow.group = group;
  flow.rate_kbps = rate_kbps;
  flow.plane = plane;
  flow.started = engine_.now();
  flow.active = true;
  group_planes_.try_emplace(group, plane);

  if (plane == MfcMode::kSparse && rate_kbps >= config_.sparse_min_rate_kbps) {
    const net::NodeId dr_node = first_hop(host).router;
    if (MulticastRouter* dr = router(dr_node); dr != nullptr && dr->pim() != nullptr) {
      engine_.schedule_after(sim::Duration::milliseconds(1),
                             [dr, source, group] {
                               dr->pim()->local_source_active(source, group);
                             });
    }
  }
  schedule_recompute(group);
}

void Network::flow_set_rate(net::NodeId host, net::Ipv4Address group,
                            double rate_kbps) {
  const FlowKey key{host_address(host), group};
  const auto it = flows_.find(key);
  if (it == flows_.end() || !it->second.active) return;
  Flow& flow = it->second;
  flow.rate_kbps = rate_kbps;
  for (net::NodeId node : flow.on_tree) {
    MulticastRouter* r = router(node);
    if (r == nullptr) continue;
    if (MfcEntry* entry = r->mfc().find(flow.source, flow.group)) {
      entry->advance(engine_.now());
      entry->rate_kbps = rate_kbps;
    }
  }
}

void Network::flow_stop(net::NodeId host, net::Ipv4Address group) {
  const FlowKey key{host_address(host), group};
  const auto it = flows_.find(key);
  if (it == flows_.end() || !it->second.active) return;
  Flow& flow = it->second;
  flow.active = false;
  for (net::NodeId node : flow.on_tree) {
    MulticastRouter* r = router(node);
    if (r == nullptr) continue;
    if (MfcEntry* entry = r->mfc().find(flow.source, flow.group)) {
      entry->advance(engine_.now());
      entry->rate_kbps = 0.0;
    }
  }

  if (flow.plane == MfcMode::kSparse) {
    // Register path teardown at the DR, SA/interest teardown at the RPs.
    // (With protocol timers enabled this also happens by expiry; doing it
    // explicitly keeps trace-scale runs correct with timers disabled.)
    const net::NodeId dr_node = first_hop(host).router;
    const net::Ipv4Address source = flow.source;
    if (MulticastRouter* dr = router(dr_node); dr != nullptr && dr->pim() != nullptr) {
      dr->pim()->local_source_gone(source, group);
    }
    for (auto& [node, r] : routers_) {
      if (r->msdp() != nullptr) {
        r->msdp()->stop_originating(source, group);
        r->msdp()->flush(source, group);
      } else if (r->pim() != nullptr && r->pim()->is_rp_for(group)) {
        r->pim()->remote_source_gone(source, group);
      }
    }
  }

  // The MFC entries linger (mrouted cache timeout), then the flow record and
  // all its state are retired.
  const FlowKey retire_key = key;
  engine_.schedule_after(config_.mfc_retention,
                         [this, retire_key] { retire_flow(retire_key); });
  schedule_recompute(group);
}

void Network::retire_flow(const FlowKey& key) {
  const auto it = flows_.find(key);
  if (it == flows_.end() || it->second.active) return;  // restarted meanwhile
  for (net::NodeId node : it->second.ever_touched) {
    MulticastRouter* r = router(node);
    if (r != nullptr) r->mfc().erase(key.first, key.second);
  }
  flows_.erase(it);
}

const Flow* Network::flow(net::Ipv4Address source, net::Ipv4Address group) const {
  const auto it = flows_.find(FlowKey{source, group});
  return it == flows_.end() ? nullptr : &it->second;
}

std::vector<const Flow*> Network::flows() const {
  std::vector<const Flow*> out;
  out.reserve(flows_.size());
  for (const auto& [key, flow] : flows_) out.push_back(&flow);
  return out;
}

const std::set<net::NodeId>* Network::group_members(net::Ipv4Address group) const {
  const auto it = members_.find(group);
  return it == members_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Distribution tree computation
// ---------------------------------------------------------------------------

void Network::schedule_recompute(net::Ipv4Address group) {
  pending_recompute_.insert(group);
  if (!config_.lazy_recompute_interval.is_zero()) return;  // timer drains it
  if (recompute_scheduled_) return;
  recompute_scheduled_ = true;
  engine_.schedule_after(config_.recompute_delay, [this] {
    recompute_scheduled_ = false;
    process_pending_recomputes();
  });
}

void Network::process_pending_recomputes() {
  std::set<net::Ipv4Address> pending;
  pending.swap(pending_recompute_);
  if (pending.find(net::Ipv4Address{}) != pending.end()) {
    // Wildcard: a routing table changed somewhere; re-walk everything.
    std::set<net::Ipv4Address> groups;
    for (const auto& [key, flow] : flows_) groups.insert(key.second);
    for (net::Ipv4Address group : groups) recompute_group(group);
  } else {
    for (net::Ipv4Address group : pending) recompute_group(group);
  }
}

void Network::recompute_all_now() {
  std::set<net::Ipv4Address> groups;
  for (const auto& [key, flow] : flows_) groups.insert(key.second);
  for (net::Ipv4Address group : groups) recompute_group(group);
}

void Network::recompute_group(net::Ipv4Address group) {
  bool members_collected = false;
  for (auto& [key, flow] : flows_) {
    if (key.second != group || !flow.active) continue;
    if (!members_collected) {
      collect_members(group);
      members_collected = true;
    }
    recompute_flow(flow);
  }
}

void Network::collect_members(net::Ipv4Address group) {
  member_hosts_.clear();
  member_links_.clear();
  const auto members = members_.find(group);
  if (members == members_.end()) return;
  for (const net::NodeId member : members->second) {
    member_hosts_.push_back(member);
    for (const net::Interface& iface : topology_.node(member).interfaces) {
      if (iface.link != net::kInvalidLink) member_links_.emplace_back(iface.link, member);
    }
  }
  std::sort(member_links_.begin(), member_links_.end());
}

void Network::reach_members(net::LinkId link, net::NodeId except) {
  const auto [first, last] = std::equal_range(
      member_links_.begin(), member_links_.end(),
      std::pair{link, net::NodeId{0}},
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto it = first; it != last; ++it) {
    if (it->second != except) reached_mark_[it->second] = walk_epoch_;
  }
}

void Network::recompute_flow(Flow& flow) {
  const sim::TimePoint now = engine_.now();

  // Zero the previous contribution; entries keep their prune/counter state.
  for (net::NodeId node : flow.on_tree) {
    MulticastRouter* r = router(node);
    if (r == nullptr) continue;
    if (MfcEntry* entry = r->mfc().find(flow.source, flow.group)) {
      entry->advance(now);
      entry->rate_kbps = 0.0;
    }
  }

  walk_tree_.clear();
  if (walk_mark_.size() < topology_.node_count()) {
    walk_mark_.resize(topology_.node_count(), 0);
    reached_mark_.resize(topology_.node_count(), 0);
  }
  if (++walk_epoch_ == 0) {  // wrapped: forget every old mark
    std::fill(walk_mark_.begin(), walk_mark_.end(), 0);
    std::fill(reached_mark_.begin(), reached_mark_.end(), 0);
    walk_epoch_ = 1;
  }

  // Members on the sender's own LAN hear the transmission directly; no
  // router is involved in same-link delivery.
  for (const net::Interface& iface : topology_.node(flow.host).interfaces) {
    if (iface.link == net::kInvalidLink || !iface.enabled) continue;
    reach_members(iface.link, flow.host);
  }

  const FirstHop& entry_point = first_hop(flow.host);
  const net::NodeId first_hop = entry_point.router;
  if (first_hop != net::kInvalidNode) {
    walk_queue_.clear();
    walk_queue_.emplace_back(first_hop, entry_point.entry_if);

    for (std::size_t head = 0; head < walk_queue_.size(); ++head) {
      const auto [node, iif] = walk_queue_[head];
      if (walk_mark_[node] == walk_epoch_) continue;  // already on tree
      MulticastRouter* r = router(node);
      if (r == nullptr) continue;

      MfcEntry* entry = nullptr;
      if (flow.plane == MfcMode::kDense) {
        entry = r->dense_accept(flow.source, flow.group, iif);
        if (entry == nullptr) continue;  // RPF failure
      } else {
        const bool first_hop_entry = node == first_hop;
        // Sub-threshold sparse flows never sustain state past the DR (see
        // NetworkConfig::sparse_min_rate_kbps).
        if (flow.rate_kbps < config_.sparse_min_rate_kbps && !first_hop_entry) break;
        std::set<net::IfIndex> oifs = r->sparse_oifs(flow.source, flow.group, iif);
        if (flow.rate_kbps < config_.sparse_min_rate_kbps) oifs.clear();
        if (oifs.empty() && !first_hop_entry) continue;  // off-tree
        entry = &r->mfc().ensure(flow.source, flow.group, flow.plane, iif, now);
        entry->oifs = std::move(oifs);
      }

      walk_mark_[node] = walk_epoch_;
      walk_tree_.push_back(node);
      flow.ever_touched.insert(node);
      entry->advance(now);
      entry->iif = iif;
      entry->rate_kbps = flow.rate_kbps;

      // Nothing below touches the MFC, so the entry's own oif set is read
      // in place rather than copied.
      for (net::IfIndex oif : entry->oifs) {
        const net::Interface* iface = topology_.node(node).interface(oif);
        if (iface == nullptr || !iface->enabled) continue;

        // SPT switchover: data reaching a last-hop router with members.
        if (flow.plane == MfcMode::kSparse && r->pim() != nullptr &&
            r->igmp().has_members(oif, flow.group)) {
          r->pim()->on_data_arrival(flow.source, flow.group);
        }

        // Routers continue the walk (cached adjacency; no allocation).
        for (const net::Attachment& att : router_neighbors(node, oif)) {
          if (router(att.node) != nullptr) walk_queue_.emplace_back(att.node, att.ifindex);
        }
        // Member hosts on the oif's link receive the flow.
        if (iface->link != net::kInvalidLink) reach_members(iface->link, node);
      }
    }
  }

  // Reached members, in member (ascending id) order.
  walk_reached_.clear();
  for (const net::NodeId member : member_hosts_) {
    if (reached_mark_[member] == walk_epoch_) walk_reached_.push_back(member);
  }
  flow.on_tree.assign(walk_tree_);
  flow.reached_hosts.assign(walk_reached_);
}

// ---------------------------------------------------------------------------
// RouterEnv: message delivery
// ---------------------------------------------------------------------------

void Network::deliver_dvmrp_report(net::NodeId from, net::IfIndex ifindex,
                                   const dvmrp::RouteReport& report) {
  const net::Interface* iface = topology_.node(from).interface(ifindex);
  if (iface == nullptr || !iface->enabled || iface->link == net::kInvalidLink) return;
  const net::Link& link = topology_.link(iface->link);
  const double loss = link_loss(link.id);
  auto shared = std::make_shared<dvmrp::RouteReport>(report);
  shared->sender = iface->address;

  for (const net::Attachment& att : topology_.neighbors(from, ifindex)) {
    MulticastRouter* target = router(att.node);
    if (target == nullptr || target->dvmrp() == nullptr) continue;
    if (loss > 0.0 && rng_.bernoulli(loss)) continue;  // report lost
    const net::IfIndex rif = att.ifindex;
    engine_.schedule_after(sim::Duration::milliseconds(link.delay_ms),
                           [target, rif, shared] {
                             target->on_dvmrp_report(rif, shared->sender, *shared);
                           });
  }
}

void Network::deliver_prune(net::NodeId from, net::IfIndex ifindex,
                            net::Ipv4Address to, const dvmrp::Prune& prune) {
  const net::Interface* iface = topology_.node(from).interface(ifindex);
  if (iface == nullptr || iface->link == net::kInvalidLink) return;
  const net::Link& link = topology_.link(iface->link);
  const net::Ipv4Address sender = iface->address;
  for (const net::Attachment& att : topology_.neighbors(from, ifindex)) {
    const net::Interface* peer = topology_.node(att.node).interface(att.ifindex);
    if (peer == nullptr || peer->address != to) continue;
    MulticastRouter* target = router(att.node);
    if (target == nullptr) continue;
    const net::IfIndex rif = att.ifindex;
    engine_.schedule_after(sim::Duration::milliseconds(link.delay_ms),
                           [target, rif, sender, prune] {
                             target->on_prune(rif, sender, prune);
                           });
  }
}

void Network::deliver_graft(net::NodeId from, net::IfIndex ifindex,
                            net::Ipv4Address to, const dvmrp::Graft& graft) {
  const net::Interface* iface = topology_.node(from).interface(ifindex);
  if (iface == nullptr || iface->link == net::kInvalidLink) return;
  const net::Link& link = topology_.link(iface->link);
  const net::Ipv4Address sender = iface->address;
  for (const net::Attachment& att : topology_.neighbors(from, ifindex)) {
    const net::Interface* peer = topology_.node(att.node).interface(att.ifindex);
    if (peer == nullptr || peer->address != to) continue;
    MulticastRouter* target = router(att.node);
    if (target == nullptr) continue;
    const net::IfIndex rif = att.ifindex;
    engine_.schedule_after(sim::Duration::milliseconds(link.delay_ms),
                           [target, rif, sender, graft] {
                             target->on_graft(rif, sender, graft);
                           });
  }
}

void Network::deliver_join_prune(net::NodeId from, net::IfIndex ifindex,
                                 const pim::JoinPrune& message) {
  const net::Interface* iface = topology_.node(from).interface(ifindex);
  if (iface == nullptr || !iface->enabled || iface->link == net::kInvalidLink) return;
  const net::Link& link = topology_.link(iface->link);
  // Join/prune is multicast to ALL-PIM-ROUTERS; everyone on the link hears
  // it and filters on upstream_neighbor.
  for (const net::Attachment& att : topology_.neighbors(from, ifindex)) {
    MulticastRouter* target = router(att.node);
    if (target == nullptr || target->pim() == nullptr) continue;
    const net::IfIndex rif = att.ifindex;
    engine_.schedule_after(sim::Duration::milliseconds(link.delay_ms),
                           [target, rif, message] {
                             target->on_join_prune(rif, message);
                           });
  }
}

void Network::deliver_register(net::NodeId /*from*/, net::Ipv4Address rp,
                               const pim::Register& message) {
  MulticastRouter* target = router_by_address(rp);
  if (target == nullptr) return;
  engine_.schedule_after(config_.unicast_delay,
                         [target, message] { target->on_register(message); });
}

void Network::deliver_register_stop(net::NodeId /*from*/, net::Ipv4Address dr,
                                    const pim::RegisterStop& message) {
  MulticastRouter* target = router_by_address(dr);
  if (target == nullptr) return;
  engine_.schedule_after(config_.unicast_delay, [target, message] {
    target->on_register_stop(message);
  });
}

void Network::deliver_mbgp(net::NodeId /*from*/, net::Ipv4Address peer,
                           const mbgp::Update& update) {
  MulticastRouter* target = router_by_address(peer);
  if (target == nullptr) return;
  auto shared = std::make_shared<mbgp::Update>(update);
  engine_.schedule_after(config_.unicast_delay, [target, shared] {
    target->on_mbgp_update(*shared);
  });
}

void Network::deliver_msdp(net::NodeId /*from*/, net::Ipv4Address peer,
                           const msdp::SourceActive& message) {
  MulticastRouter* target = router_by_address(peer);
  if (target == nullptr) return;
  engine_.schedule_after(config_.unicast_delay,
                         [target, message] { target->on_msdp_sa(message); });
}

void Network::multicast_state_changed(net::NodeId /*node*/, net::Ipv4Address group) {
  if (!started_) return;
  schedule_recompute(group);
}

}  // namespace mantra::router
