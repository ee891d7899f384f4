// Binary (Patricia-style, one bit per level) trie keyed by CIDR prefix,
// supporting exact match, longest-prefix match and ordered traversal.
//
// Used by the unicast RIB (RPF lookups), the DVMRP route table and the MBGP
// Loc-RIB. Node count is bounded by 32 * entries, which is fine at the scale
// of this simulator (a few thousand routes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace mantra::net {

template <typename Value>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or replaces the value for `prefix`. Returns true if the entry
  /// was newly created, false if an existing value was replaced.
  bool insert(const Prefix& prefix, Value value) {
    Node* node = descend_or_create(prefix);
    const bool created = !node->value.has_value();
    node->value = std::move(value);
    if (created) ++size_;
    return created;
  }

  /// Removes the exact entry. Returns true if it existed.
  bool erase(const Prefix& prefix) {
    Node* node = descend(prefix);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const Value* find(const Prefix& prefix) const {
    const Node* node = descend(prefix);
    return (node != nullptr && node->value.has_value()) ? &*node->value : nullptr;
  }

  [[nodiscard]] Value* find(const Prefix& prefix) {
    return const_cast<Value*>(std::as_const(*this).find(prefix));
  }

  /// Longest-prefix match for a host address. Returns the matching prefix
  /// and a pointer to its value, or nullopt if nothing (not even a default
  /// route) covers the address.
  [[nodiscard]] std::optional<std::pair<Prefix, const Value*>> longest_match(
      Ipv4Address addr) const {
    const Node* node = root_.get();
    std::optional<std::pair<Prefix, const Value*>> best;
    for (int depth = 0;; ++depth) {
      if (node->value.has_value()) {
        best = {Prefix(addr, depth), &*node->value};
      }
      if (depth == 32) break;
      const int bit = (addr.value() >> (31 - depth)) & 1;
      const Node* child = node->child[bit].get();
      if (child == nullptr) break;
      node = child;
    }
    return best;
  }

  /// Most specific entry covering `addr` whose value satisfies `pred`, or
  /// nullptr. Use when the best match needs additional filtering (e.g.
  /// skipping hold-down routes during RPF); one descent, no allocation.
  template <typename Pred>
  [[nodiscard]] const Value* longest_match_if(Ipv4Address addr, Pred&& pred) const {
    const Node* node = root_.get();
    const Value* best = nullptr;
    for (int depth = 0;; ++depth) {
      if (node->value.has_value() && pred(*node->value)) best = &*node->value;
      if (depth == 32) break;
      const int bit = (addr.value() >> (31 - depth)) & 1;
      const Node* child = node->child[bit].get();
      if (child == nullptr) break;
      node = child;
    }
    return best;
  }

  /// Visits all entries in address order (pre-order over the trie, which for
  /// canonical prefixes is lexicographic by (address, length)). Templated so
  /// per-node calls inline instead of going through std::function.
  template <typename Fn>
  void visit(Fn&& fn) const {
    visit_node(root_.get(), 0, 0, fn);
  }

  /// Collects all (prefix, value) pairs in address order.
  [[nodiscard]] std::vector<std::pair<Prefix, Value>> entries() const {
    std::vector<std::pair<Prefix, Value>> out;
    out.reserve(size_);
    visit([&out](const Prefix& p, const Value& v) { out.emplace_back(p, v); });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    root_ = std::make_unique<Node>();
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<Value> value;
    std::unique_ptr<Node> child[2];
  };

  const Node* descend(const Prefix& prefix) const {
    const Node* node = root_.get();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (prefix.address().value() >> (31 - depth)) & 1;
      node = node->child[bit].get();
      if (node == nullptr) return nullptr;
    }
    return node;
  }

  Node* descend(const Prefix& prefix) {
    return const_cast<Node*>(std::as_const(*this).descend(prefix));
  }

  Node* descend_or_create(const Prefix& prefix) {
    Node* node = root_.get();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (prefix.address().value() >> (31 - depth)) & 1;
      if (!node->child[bit]) node->child[bit] = std::make_unique<Node>();
      node = node->child[bit].get();
    }
    return node;
  }

  template <typename Fn>
  void visit_node(const Node* node, std::uint32_t bits, int depth,
                  Fn&& fn) const {
    if (node->value.has_value()) {
      fn(Prefix(Ipv4Address(bits), depth), *node->value);
    }
    for (int bit = 0; bit < 2; ++bit) {
      if (node->child[bit]) {
        const std::uint32_t child_bits =
            bit == 0 ? bits : (bits | (std::uint32_t{1} << (31 - depth)));
        visit_node(node->child[bit].get(), child_bits, depth + 1, fn);
      }
    }
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace mantra::net
