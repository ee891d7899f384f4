#include "router/unicast.hpp"

#include <limits>
#include <map>
#include <queue>

namespace mantra::router {

namespace {

struct DijkstraResult {
  std::vector<int> distance;
  /// First hop out of the source node towards each node: (ifindex on the
  /// source, neighbor attachment).
  std::vector<net::IfIndex> first_if;
  std::vector<net::Ipv4Address> first_nbr;
  std::vector<net::NodeId> prev_node;
};

DijkstraResult dijkstra(const net::Topology& topology, net::NodeId source) {
  constexpr int kUnreachable = std::numeric_limits<int>::max();
  const std::size_t n = topology.node_count();
  DijkstraResult result;
  result.distance.assign(n, kUnreachable);
  result.first_if.assign(n, net::kInvalidIf);
  result.first_nbr.assign(n, net::Ipv4Address{});
  result.prev_node.assign(n, net::kInvalidNode);
  result.distance[source] = 0;

  using Item = std::pair<int, net::NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0, source);

  while (!heap.empty()) {
    const auto [dist, node] = heap.top();
    heap.pop();
    if (dist > result.distance[node]) continue;
    for (const net::Interface& iface : topology.node(node).interfaces) {
      if (!iface.enabled || iface.link == net::kInvalidLink) continue;
      // The link's other enabled attachments (Topology::neighbors, without
      // building a vector per visit).
      for (const net::Attachment& nbr : topology.link(iface.link).attachments) {
        if (nbr.node == node && nbr.ifindex == iface.ifindex) continue;
        const net::Interface* peer = topology.node(nbr.node).interface(nbr.ifindex);
        if (peer == nullptr || !peer->enabled) continue;
        const int cost = dist + iface.metric;
        if (cost >= result.distance[nbr.node]) continue;
        result.distance[nbr.node] = cost;
        result.prev_node[nbr.node] = node;
        if (node == source) {
          result.first_if[nbr.node] = iface.ifindex;
          result.first_nbr[nbr.node] =
              topology.node(nbr.node).interface(nbr.ifindex)->address;
        } else {
          result.first_if[nbr.node] = result.first_if[node];
          result.first_nbr[nbr.node] = result.first_nbr[node];
        }
        heap.emplace(cost, nbr.node);
      }
    }
  }
  return result;
}

}  // namespace

UnicastRib compute_routes(const net::Topology& topology, net::NodeId id) {
  const DijkstraResult paths = dijkstra(topology, id);
  UnicastRib rib;

  // Directly connected subnets.
  for (const net::Interface& iface : topology.node(id).interfaces) {
    if (!iface.enabled) continue;
    rib.install(UnicastRoute{iface.subnet, iface.ifindex, net::Ipv4Address{}, 0});
  }

  // Remote subnets via shortest paths to their owning nodes. A subnet can
  // be attached to several nodes (LANs); keep the closest attachment.
  std::map<net::Prefix, int> best_metric;
  for (const net::Interface& iface : topology.node(id).interfaces) {
    if (iface.enabled) best_metric[iface.subnet] = 0;
  }
  for (net::NodeId other = 0; other < topology.node_count(); ++other) {
    if (other == id || paths.first_if[other] == net::kInvalidIf) continue;
    for (const net::Interface& iface : topology.node(other).interfaces) {
      if (!iface.enabled) continue;
      const auto [it, fresh] = best_metric.try_emplace(iface.subnet, paths.distance[other]);
      if (!fresh) {
        if (it->second <= paths.distance[other]) continue;
        it->second = paths.distance[other];
      }
      rib.install(UnicastRoute{iface.subnet, paths.first_if[other],
                               paths.first_nbr[other],
                               paths.distance[other]});
    }
  }
  return rib;
}

std::vector<UnicastRib> compute_global_routes(const net::Topology& topology) {
  std::vector<UnicastRib> ribs;
  ribs.reserve(topology.node_count());
  for (net::NodeId id = 0; id < topology.node_count(); ++id) {
    ribs.push_back(compute_routes(topology, id));
  }
  return ribs;
}

std::optional<net::NodeId> next_hop_node(const net::Topology& topology,
                                         net::NodeId from, net::NodeId target) {
  if (from == target) return target;
  const DijkstraResult paths = dijkstra(topology, from);
  if (paths.first_if[target] == net::kInvalidIf) return std::nullopt;
  // Walk back from target to find the node adjacent to `from`.
  net::NodeId cursor = target;
  while (paths.prev_node[cursor] != from) {
    cursor = paths.prev_node[cursor];
    if (cursor == net::kInvalidNode) return std::nullopt;
  }
  return cursor;
}

}  // namespace mantra::router
