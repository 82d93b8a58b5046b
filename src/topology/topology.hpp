// Process-tree topology specification.
//
// A Topology describes the shape of a TBON: node 0 is the front-end (root),
// the leaves are back-ends, and every other node is a communication process.
// MRNet lets tools specify "a tree organization of any shape or size
// including balanced (k-ary) and skewed (k-nomial) trees"; the builders
// below cover those shapes plus the flat one-to-many organization that the
// paper's evaluation uses as its baseline.
//
// Topologies are immutable after construction and validated (single root,
// acyclic, every non-root reachable from the root).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/error.hpp"

namespace tbon {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// A single process slot in the tree.
struct TopologyNode {
  NodeId parent = kNoNode;            ///< kNoNode for the root.
  std::vector<NodeId> children;       ///< ordered; empty for back-ends.
  /// Placement: "host" or "host:port".  Informational for the threaded and
  /// multi-process instantiations; in remote mode it names the machine
  /// the node's process is launched on and (optionally) the fixed port its
  /// child-facing listener binds (omitted/0 -> ephemeral).
  std::string host = "localhost";
};

class Topology {
 public:
  // ---- builders -----------------------------------------------------------

  /// The degenerate single-process "tree" (front-end only, doing all work
  /// itself); used as the paper's `single` baseline.
  static Topology single();

  /// One-to-many: the front-end is directly connected to `leaves` back-ends
  /// (the paper's "1-deep (shallow)" tree).
  static Topology flat(std::size_t leaves);

  /// Fully balanced tree with `fanout` children per internal node and
  /// `depth` hops from root to every leaf (depth 2 == the paper's "2-deep").
  static Topology balanced(std::size_t fanout, std::size_t depth);

  /// Balanced tree for a target number of leaves: depth is the smallest d
  /// with fanout^d >= leaves; the leaf level may be uneven (leaves are
  /// distributed round-robin over the last internal level).
  static Topology balanced_for_leaves(std::size_t fanout, std::size_t leaves);

  /// Tree built from explicit per-level fanouts; `fanouts[i]` is the number
  /// of children of every node at level i.
  static Topology from_fanouts(std::span<const std::size_t> fanouts);

  /// Skewed k-nomial tree of dimension `dim` (2-nomial == binomial): the
  /// classic "skewed" shape MRNet supports.  Has k^... no fixed arity; node
  /// degrees shrink along the tree.
  static Topology knomial(std::size_t k, std::size_t dim);

  /// Build from explicit parent links (parent[0] must be kNoNode).
  static Topology from_parents(std::span<const NodeId> parents);

  // ---- queries ------------------------------------------------------------

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  const TopologyNode& node(NodeId id) const { return nodes_.at(id); }
  NodeId root() const noexcept { return 0; }

  bool is_root(NodeId id) const noexcept { return id == 0; }
  bool is_leaf(NodeId id) const { return nodes_.at(id).children.empty(); }

  /// Back-ends in deterministic (DFS) order; index in this vector is the
  /// back-end's *rank*.
  const std::vector<NodeId>& leaves() const noexcept { return leaves_; }
  std::size_t num_leaves() const noexcept { return leaves_.size(); }

  /// Rank of a leaf node; throws if `id` is not a leaf.
  std::uint32_t leaf_rank(NodeId id) const;

  /// Communication processes: every node that is neither the root nor a
  /// leaf.  This matches the paper's §3.2 accounting ("16 (6.25%) internal
  /// nodes are needed to connect 256 back-ends").
  std::size_t num_internal() const noexcept;

  /// Internal nodes as a fraction of back-ends (the §3.2 overhead metric).
  double internal_overhead() const noexcept;

  /// Hops from the root to the deepest leaf (0 for single()).
  std::size_t depth() const noexcept;

  /// Largest number of children of any node.
  std::size_t max_fanout() const noexcept;

  /// All node ids on the path from `id` up to and including the root.
  std::vector<NodeId> path_to_root(NodeId id) const;

  /// Leaf ranks reachable in the subtree rooted at `id`.
  std::vector<std::uint32_t> subtree_leaf_ranks(NodeId id) const;

  /// Copy with updated placement strings ("host" or "host:port") for the
  /// given nodes; builder support for TopologyOptions::at()/hosts().
  Topology with_placements(
      std::span<const std::pair<NodeId, std::string>> placements) const;

  // ---- serialization / output ---------------------------------------------

  void serialize(BinaryWriter& writer) const;
  static Topology deserialize(BinaryReader& reader);

  /// Graphviz rendering for documentation and debugging.
  std::string to_dot() const;

  friend bool operator==(const Topology& a, const Topology& b) {
    if (a.nodes_.size() != b.nodes_.size()) return false;
    for (std::size_t i = 0; i < a.nodes_.size(); ++i) {
      if (a.nodes_[i].parent != b.nodes_[i].parent ||
          a.nodes_[i].children != b.nodes_[i].children ||
          a.nodes_[i].host != b.nodes_[i].host) {
        return false;
      }
    }
    return true;
  }

 private:
  explicit Topology(std::vector<TopologyNode> nodes);
  void validate() const;
  void index_leaves();

  std::vector<TopologyNode> nodes_;
  std::vector<NodeId> leaves_;
};

/// Typed topology specification.  Pick a shape with a named factory, then
/// pass the options anywhere a `Topology` is expected (the implicit
/// conversion runs the builder), e.g.
///
///   Network::create({.topology = TopologyOptions::balanced(16, 2)});
///
/// Validation happens in `build()`, so malformed options (zero fanout, a
/// dangling parent link) fail with the same TopologyError/ParseError the
/// direct builders throw.  `from_spec` accepts the legacy compact strings
/// for CLI tools that take the shape on the command line.
class TopologyOptions {
 public:
  /// Degenerate single-process tree (front-end only).
  static TopologyOptions single();

  /// One-to-many: the front-end directly parents `leaves` back-ends.
  static TopologyOptions flat(std::size_t leaves);

  /// Balanced k-ary tree: `fanout` children per internal node, `depth` hops
  /// from root to every leaf.
  static TopologyOptions balanced(std::size_t fanout, std::size_t depth);

  /// Balanced tree sized for a target leaf count (uneven last level).
  static TopologyOptions balanced_for_leaves(std::size_t fanout, std::size_t leaves);

  /// Explicit per-level fanouts: `per_level[i]` children for every node at
  /// level i.
  static TopologyOptions fanouts(std::vector<std::size_t> per_level);

  /// Skewed k-nomial tree of dimension `dim` (2-nomial == binomial).
  static TopologyOptions knomial(std::size_t k, std::size_t dim);

  /// Explicit edge list as parent links; `parents[0]` must be kNoNode.
  static TopologyOptions edges(std::vector<NodeId> parents);

  /// Parse a legacy compact spec string (the CLI-facing entry point):
  ///   "single"            -> single()
  ///   "flat:64"           -> flat(64)
  ///   "bal:16x2"          -> balanced(fanout 16, depth 2)
  ///   "auto:16:300"       -> balanced_for_leaves(16, 300)
  ///   "fanouts:4,8,2"     -> fanouts({4,8,2})
  ///   "knomial:2:6"       -> knomial(2, 6)
  static TopologyOptions from_spec(std::string_view spec);

  /// Place one node: `host_port` is "host" or "host:port" (the port fixes
  /// the node's child-facing listener in remote mode; otherwise the OS
  /// assigns one).  Unplaced nodes default to "localhost".
  TopologyOptions& at(NodeId node, std::string host_port);

  /// Bulk placement: `host_ports[i]` places node i.  Entries beyond the
  /// built tree's size throw TopologyError from build(); empty strings keep
  /// the default.
  TopologyOptions& hosts(std::vector<std::string> host_ports);

  /// Materialize (and validate) the topology.
  Topology build() const;
  operator Topology() const { return build(); }  // NOLINT(google-explicit-constructor)

 private:
  enum class Shape : std::uint8_t {
    kSingle, kFlat, kBalanced, kBalancedForLeaves, kFanouts, kKnomial, kEdges,
  };

  TopologyOptions() = default;

  Topology build_shape() const;

  Shape shape_ = Shape::kSingle;
  std::size_t arg0_ = 0;  ///< leaves / fanout / k, by shape.
  std::size_t arg1_ = 0;  ///< depth / target leaves / dim, by shape.
  std::vector<std::size_t> per_level_;
  std::vector<NodeId> parents_;
  std::vector<std::pair<NodeId, std::string>> placements_;
};

}  // namespace tbon
