#include "topology/topology.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace tbon {
namespace {

std::size_t parse_size(std::string_view text) {
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw ParseError("expected a number, got '" + std::string(text) + "'");
  }
  return value;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t pos = 0;
  while (true) {
    const auto next = text.find(sep, pos);
    if (next == std::string_view::npos) {
      parts.push_back(text.substr(pos));
      return parts;
    }
    parts.push_back(text.substr(pos, next - pos));
    pos = next + 1;
  }
}

}  // namespace

Topology::Topology(std::vector<TopologyNode> nodes) : nodes_(std::move(nodes)) {
  validate();
  index_leaves();
}

void Topology::validate() const {
  if (nodes_.empty()) throw TopologyError("empty topology");
  if (nodes_[0].parent != kNoNode) throw TopologyError("node 0 must be the root");
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    const auto parent = nodes_[id].parent;
    if (parent == kNoNode) throw TopologyError("multiple roots");
    if (parent >= nodes_.size()) throw TopologyError("dangling parent link");
    const auto& siblings = nodes_[parent].children;
    if (std::find(siblings.begin(), siblings.end(), id) == siblings.end()) {
      throw TopologyError("parent/child links disagree");
    }
  }
  // Reachability from root (also rejects cycles: a cycle is unreachable
  // because every node has exactly one parent and node 0 has none).
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack = {0};
  seen[0] = true;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    ++visited;
    for (NodeId child : nodes_[id].children) {
      if (child >= nodes_.size()) throw TopologyError("dangling child link");
      if (nodes_[child].parent != id) throw TopologyError("child link without parent link");
      if (seen[child]) throw TopologyError("node with two parents");
      seen[child] = true;
      stack.push_back(child);
    }
  }
  if (visited != nodes_.size()) throw TopologyError("unreachable nodes (cycle or forest)");
}

void Topology::index_leaves() {
  // DFS in child order gives deterministic back-end ranks.
  std::vector<NodeId> stack = {0};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (nodes_[id].children.empty()) {
      leaves_.push_back(id);
    } else {
      // Push children reversed so the leftmost child is visited first.
      for (auto it = nodes_[id].children.rbegin(); it != nodes_[id].children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
}

Topology Topology::single() { return Topology({TopologyNode{}}); }

Topology Topology::flat(std::size_t leaves) {
  if (leaves == 0) throw TopologyError("flat topology needs at least one leaf");
  std::vector<TopologyNode> nodes(1 + leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    const NodeId id = static_cast<NodeId>(1 + i);
    nodes[id].parent = 0;
    nodes[0].children.push_back(id);
  }
  return Topology(std::move(nodes));
}

Topology Topology::balanced(std::size_t fanout, std::size_t depth) {
  std::vector<std::size_t> fanouts(depth, fanout);
  return from_fanouts(fanouts);
}

Topology Topology::balanced_for_leaves(std::size_t fanout, std::size_t leaves) {
  if (fanout < 2) throw TopologyError("balanced_for_leaves needs fanout >= 2");
  if (leaves == 0) throw TopologyError("need at least one leaf");
  if (leaves <= fanout) return flat(leaves);
  // Level sizes bottom-up: each level holds ceil(below / fanout) nodes, so
  // no node exceeds `fanout` children and no internal node is wasted.
  const auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
  std::vector<std::size_t> level_sizes = {leaves};
  while (level_sizes.back() > fanout) {
    level_sizes.push_back(ceil_div(level_sizes.back(), fanout));
  }
  // Build top-down (root, then level_sizes in reverse), distributing each
  // level's nodes round-robin over the level above so sibling counts differ
  // by at most one.
  std::vector<TopologyNode> nodes(1);
  std::vector<NodeId> level = {0};
  for (auto it = level_sizes.rbegin(); it != level_sizes.rend(); ++it) {
    std::vector<NodeId> next;
    next.reserve(*it);
    for (std::size_t i = 0; i < *it; ++i) {
      const NodeId parent = level[i % level.size()];
      const NodeId id = static_cast<NodeId>(nodes.size());
      nodes.push_back(TopologyNode{.parent = parent, .children = {}, .host = "localhost"});
      nodes[parent].children.push_back(id);
      next.push_back(id);
    }
    level = std::move(next);
  }
  return Topology(std::move(nodes));
}

Topology Topology::from_fanouts(std::span<const std::size_t> fanouts) {
  std::vector<TopologyNode> nodes(1);
  std::vector<NodeId> level = {0};
  for (std::size_t fanout : fanouts) {
    if (fanout == 0) throw TopologyError("zero fanout level");
    std::vector<NodeId> next;
    next.reserve(level.size() * fanout);
    for (NodeId parent : level) {
      for (std::size_t i = 0; i < fanout; ++i) {
        const NodeId id = static_cast<NodeId>(nodes.size());
        nodes.push_back(TopologyNode{.parent = parent, .children = {}, .host = "localhost"});
        nodes[parent].children.push_back(id);
        next.push_back(id);
      }
    }
    level = std::move(next);
  }
  return Topology(std::move(nodes));
}

Topology Topology::knomial(std::size_t k, std::size_t dim) {
  if (k < 2) throw TopologyError("knomial needs k >= 2");
  // A k-nomial tree of dimension d has k^d nodes.  The root has d*(k-1)
  // children; the subtree rooted at the child created in round i is a
  // k-nomial tree of dimension i.  We build it recursively.
  std::vector<TopologyNode> nodes(1);
  // build(parent, dimension): append a k-nomial subtree under `parent`.
  auto build = [&](auto&& self, NodeId parent, std::size_t dimension) -> void {
    for (std::size_t round = 0; round < dimension; ++round) {
      for (std::size_t copy = 0; copy < k - 1; ++copy) {
        const NodeId id = static_cast<NodeId>(nodes.size());
        nodes.push_back(TopologyNode{.parent = parent, .children = {}, .host = "localhost"});
        nodes[parent].children.push_back(id);
        self(self, id, round);
      }
    }
  };
  build(build, 0, dim);
  return Topology(std::move(nodes));
}

Topology Topology::from_parents(std::span<const NodeId> parents) {
  std::vector<TopologyNode> nodes(parents.size());
  for (NodeId id = 0; id < parents.size(); ++id) {
    nodes[id].parent = parents[id];
    if (parents[id] != kNoNode) {
      if (parents[id] >= parents.size()) throw TopologyError("dangling parent link");
      nodes[parents[id]].children.push_back(id);
    }
  }
  return Topology(std::move(nodes));
}

// ---- TopologyOptions --------------------------------------------------------

TopologyOptions TopologyOptions::single() { return {}; }

TopologyOptions TopologyOptions::flat(std::size_t leaves) {
  TopologyOptions options;
  options.shape_ = Shape::kFlat;
  options.arg0_ = leaves;
  return options;
}

TopologyOptions TopologyOptions::balanced(std::size_t fanout, std::size_t depth) {
  TopologyOptions options;
  options.shape_ = Shape::kBalanced;
  options.arg0_ = fanout;
  options.arg1_ = depth;
  return options;
}

TopologyOptions TopologyOptions::balanced_for_leaves(std::size_t fanout,
                                                     std::size_t leaves) {
  TopologyOptions options;
  options.shape_ = Shape::kBalancedForLeaves;
  options.arg0_ = fanout;
  options.arg1_ = leaves;
  return options;
}

TopologyOptions TopologyOptions::fanouts(std::vector<std::size_t> per_level) {
  TopologyOptions options;
  options.shape_ = Shape::kFanouts;
  options.per_level_ = std::move(per_level);
  return options;
}

TopologyOptions TopologyOptions::knomial(std::size_t k, std::size_t dim) {
  TopologyOptions options;
  options.shape_ = Shape::kKnomial;
  options.arg0_ = k;
  options.arg1_ = dim;
  return options;
}

TopologyOptions TopologyOptions::edges(std::vector<NodeId> parents) {
  TopologyOptions options;
  options.shape_ = Shape::kEdges;
  options.parents_ = std::move(parents);
  return options;
}

TopologyOptions TopologyOptions::from_spec(std::string_view spec) {
  if (spec == "single") return single();
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) throw ParseError("bad topology spec '" + std::string(spec) + "'");
  const auto kind = spec.substr(0, colon);
  const auto rest = spec.substr(colon + 1);
  if (kind == "flat") return flat(parse_size(rest));
  if (kind == "bal") {
    const auto x = rest.find('x');
    if (x == std::string_view::npos) throw ParseError("bal spec needs FANOUTxDEPTH");
    return balanced(parse_size(rest.substr(0, x)), parse_size(rest.substr(x + 1)));
  }
  if (kind == "auto") {
    const auto parts = split(rest, ':');
    if (parts.size() != 2) throw ParseError("auto spec needs FANOUT:LEAVES");
    return balanced_for_leaves(parse_size(parts[0]), parse_size(parts[1]));
  }
  if (kind == "fanouts") {
    std::vector<std::size_t> per_level;
    for (const auto part : split(rest, ',')) per_level.push_back(parse_size(part));
    return fanouts(std::move(per_level));
  }
  if (kind == "knomial") {
    const auto parts = split(rest, ':');
    if (parts.size() != 2) throw ParseError("knomial spec needs K:DIM");
    return knomial(parse_size(parts[0]), parse_size(parts[1]));
  }
  throw ParseError("unknown topology kind '" + std::string(kind) + "'");
}

Topology Topology::with_placements(
    std::span<const std::pair<NodeId, std::string>> placements) const {
  Topology out = *this;
  for (const auto& [id, host_port] : placements) {
    if (id >= out.nodes_.size()) {
      throw TopologyError("placement for node " + std::to_string(id) +
                          " is outside the tree");
    }
    if (!host_port.empty()) out.nodes_[id].host = host_port;
  }
  return out;
}

TopologyOptions& TopologyOptions::at(NodeId node, std::string host_port) {
  placements_.emplace_back(node, std::move(host_port));
  return *this;
}

TopologyOptions& TopologyOptions::hosts(std::vector<std::string> host_ports) {
  for (NodeId id = 0; id < host_ports.size(); ++id) {
    placements_.emplace_back(id, std::move(host_ports[id]));
  }
  return *this;
}

Topology TopologyOptions::build() const {
  if (!placements_.empty()) return build_shape().with_placements(placements_);
  return build_shape();
}

Topology TopologyOptions::build_shape() const {
  switch (shape_) {
    case Shape::kSingle:
      return Topology::single();
    case Shape::kFlat:
      return Topology::flat(arg0_);
    case Shape::kBalanced:
      return Topology::balanced(arg0_, arg1_);
    case Shape::kBalancedForLeaves:
      return Topology::balanced_for_leaves(arg0_, arg1_);
    case Shape::kFanouts:
      return Topology::from_fanouts(per_level_);
    case Shape::kKnomial:
      return Topology::knomial(arg0_, arg1_);
    case Shape::kEdges:
      return Topology::from_parents(parents_);
  }
  throw TopologyError("unreachable topology shape");
}

std::uint32_t Topology::leaf_rank(NodeId id) const {
  const auto it = std::find(leaves_.begin(), leaves_.end(), id);
  if (it == leaves_.end()) throw TopologyError("node is not a leaf");
  return static_cast<std::uint32_t>(it - leaves_.begin());
}

std::size_t Topology::num_internal() const noexcept {
  std::size_t count = 0;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (!nodes_[id].children.empty()) ++count;
  }
  return count;
}

double Topology::internal_overhead() const noexcept {
  return leaves_.empty() ? 0.0
                         : static_cast<double>(num_internal()) /
                               static_cast<double>(leaves_.size());
}

std::size_t Topology::depth() const noexcept {
  std::size_t deepest = 0;
  for (NodeId leaf : leaves_) {
    std::size_t hops = 0;
    for (NodeId id = leaf; nodes_[id].parent != kNoNode; id = nodes_[id].parent) ++hops;
    deepest = std::max(deepest, hops);
  }
  return deepest;
}

std::size_t Topology::max_fanout() const noexcept {
  std::size_t widest = 0;
  for (const auto& node : nodes_) widest = std::max(widest, node.children.size());
  return widest;
}

std::vector<NodeId> Topology::path_to_root(NodeId id) const {
  std::vector<NodeId> path;
  for (NodeId cur = id;; cur = nodes_.at(cur).parent) {
    path.push_back(cur);
    if (nodes_.at(cur).parent == kNoNode) break;
  }
  return path;
}

std::vector<std::uint32_t> Topology::subtree_leaf_ranks(NodeId id) const {
  std::vector<std::uint32_t> ranks;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    if (nodes_.at(cur).children.empty()) {
      ranks.push_back(leaf_rank(cur));
    } else {
      for (NodeId child : nodes_[cur].children) stack.push_back(child);
    }
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

void Topology::serialize(BinaryWriter& writer) const {
  writer.put(static_cast<std::uint32_t>(nodes_.size()));
  for (const auto& node : nodes_) {
    writer.put(node.parent);
    writer.put_string(node.host);
  }
}

Topology Topology::deserialize(BinaryReader& reader) {
  const auto count = reader.get<std::uint32_t>();
  // Each node needs at least its parent id plus a string length prefix.
  if (count > reader.remaining() / 8) {
    throw CodecError("topology node count exceeds remaining payload");
  }
  std::vector<NodeId> parents(count, kNoNode);
  std::vector<std::string> hosts(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    parents[i] = reader.get<NodeId>();
    hosts[i] = reader.get_string();
  }
  Topology topology = from_parents(parents);
  for (std::uint32_t i = 0; i < count; ++i) topology.nodes_[i].host = std::move(hosts[i]);
  return topology;
}

std::string Topology::to_dot() const {
  std::ostringstream out;
  out << "digraph tbon {\n  rankdir=TB;\n";
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const char* shape = is_root(id) ? "doubleoctagon" : (is_leaf(id) ? "box" : "ellipse");
    out << "  n" << id << " [shape=" << shape << "];\n";
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (NodeId child : nodes_[id].children) {
      out << "  n" << id << " -> n" << child << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace tbon
