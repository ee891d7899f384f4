// Unicast routing substrate. The simulator computes shortest paths globally
// (Dijkstra over the topology's interface metrics) and installs the results
// into each router's RIB — the standard simulator stand-in for an IGP. PIM
// RPF checks and MSDP peer-RPF resolve through this RIB (and through MBGP
// for interdomain prefixes, which takes precedence when present).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"
#include "net/topology.hpp"

namespace mantra::router {

struct UnicastRoute {
  net::Prefix prefix;
  net::IfIndex ifindex = net::kInvalidIf;
  net::Ipv4Address next_hop;  ///< unspecified when directly connected
  int metric = 0;
};

class UnicastRib {
 public:
  void install(const UnicastRoute& route) { trie_.insert(route.prefix, route); }
  void remove(const net::Prefix& prefix) { trie_.erase(prefix); }
  void clear() { trie_.clear(); }

  [[nodiscard]] const UnicastRoute* lookup(net::Ipv4Address target) const {
    const auto match = trie_.longest_match(target);
    return match ? match->second : nullptr;
  }

  [[nodiscard]] std::vector<UnicastRoute> routes() const {
    std::vector<UnicastRoute> out;
    out.reserve(trie_.size());
    trie_.visit([&out](const net::Prefix&, const UnicastRoute& r) { out.push_back(r); });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return trie_.size(); }

 private:
  net::PrefixTrie<UnicastRoute> trie_;
};

/// Computes shortest paths from `node` to every subnet and returns its RIB.
/// Metrics are per-interface costs; of several attachments of one subnet,
/// the closest (then lowest node id) wins.
[[nodiscard]] UnicastRib compute_routes(const net::Topology& topology, net::NodeId node);

/// compute_routes for every node, indexed by NodeId.
[[nodiscard]] std::vector<UnicastRib> compute_global_routes(const net::Topology& topology);

/// Shortest-path next hop from `from` towards `target` (node-level), or
/// nullopt if unreachable. Utility used by tests and the register tunnel.
[[nodiscard]] std::optional<net::NodeId> next_hop_node(const net::Topology& topology,
                                                       net::NodeId from,
                                                       net::NodeId target);

}  // namespace mantra::router
