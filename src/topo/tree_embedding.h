#ifndef CCUBE_TOPO_TREE_EMBEDDING_H_
#define CCUBE_TOPO_TREE_EMBEDDING_H_

/**
 * @file
 * Logical binary trees and their embedding onto physical topologies.
 *
 * The tree AllReduce algorithm (§II-C, §III) runs over a *logical*
 * binary tree; this header provides the tree structure, standard
 * constructions, and routed embeddings where each logical edge maps to
 * a physical path (possibly a detour through an intermediate GPU,
 * §IV-A).
 */

#include <memory>
#include <utility>
#include <vector>

#include "topo/graph.h"

namespace ccube {
namespace topo {

/**
 * A rooted binary tree over nodes 0..P-1.
 */
class BinaryTree
{
  public:
    /** Creates an empty (invalid) tree over @p num_nodes nodes. */
    explicit BinaryTree(int num_nodes);

    /**
     * Builds a balanced binary tree by inorder midpoint recursion over
     * ranks 0..P-1; depth is ⌈log2(P+1)⌉.
     */
    static BinaryTree inorder(int num_nodes);

    /**
     * Returns this tree relabeled by rank → P-1-rank (the "mirror"
     * construction from Sanders et al.'s two-tree algorithm): interior
     * nodes of one tree tend to be leaves of the other, balancing load.
     */
    BinaryTree mirrored() const;

    /**
     * Returns this tree relabeled by rank → (rank+shift) mod P; used
     * by NCCL-style double-tree constructions on power-of-two sizes.
     */
    BinaryTree shifted(int shift) const;

    /** Declares @p child a child of @p parent. */
    void addEdge(NodeId parent, NodeId child);

    /** Sets the root. */
    void setRoot(NodeId root);

    /** Number of nodes P. */
    int numNodes() const { return static_cast<int>(parent_.size()); }

    /** The root node. */
    NodeId root() const { return root_; }

    /** Parent of @p node, kInvalidNode for the root. */
    NodeId parent(NodeId node) const;

    /** Children of @p node (0, 1, or 2 entries). */
    const std::vector<NodeId>& children(NodeId node) const;

    /** Depth of @p node (root = 0). */
    int depthOf(NodeId node) const;

    /** Number of levels (max depth + 1). */
    int height() const;

    /** Nodes with no children. */
    std::vector<NodeId> leaves() const;

    /** Nodes with at least one child (includes the root). */
    std::vector<NodeId> interior() const;

    /** All (parent, child) edges, in BFS order from the root. */
    std::vector<std::pair<NodeId, NodeId>> edges() const;

    /** Nodes in BFS order starting at the root. */
    std::vector<NodeId> bfsOrder() const;

    /**
     * True when the tree spans all nodes, every non-root has exactly
     * one parent, arity ≤ 2, and there are no cycles.
     */
    bool valid() const;

  private:
    NodeId root_ = kInvalidNode;
    std::vector<NodeId> parent_;
    std::vector<std::vector<NodeId>> children_;
};

/**
 * A physical route implementing one logical edge, as the node sequence
 * from parent to child (length ≥ 2). Length > 2 means a detour through
 * intermediate forwarding nodes.
 */
struct Route {
    std::vector<NodeId> hops;

    /** Number of physical channels traversed. */
    int hopCount() const { return static_cast<int>(hops.size()) - 1; }

    /** True when this route needs a forwarding intermediate. */
    bool isDetour() const { return hops.size() > 2; }

    /** Intermediate (forwarding) nodes, empty for direct routes. */
    std::vector<NodeId> transits() const;

    /** The same route in the child → parent direction. */
    Route reversed() const;
};

/** Lazily-built forwarding-rule cache (defined in detour_router.h). */
struct ForwardingRuleCache;

/**
 * A logical tree plus the physical route for each edge.
 */
struct TreeEmbedding {
    BinaryTree tree;
    /** routes[i] corresponds to tree.edges()[i], parent → child. */
    std::vector<Route> routes;

    /**
     * Shared cache of the embedding's detour forwarding rules, filled
     * lazily by topo::cachedForwardingRules(). Copies of an embedding
     * share the cache; routes are expected to be immutable once the
     * embedding is in use (they are — embeddings are built once and
     * then only read by the collectives).
     */
    std::shared_ptr<ForwardingRuleCache> forwarding_cache;

    explicit TreeEmbedding(BinaryTree t);

    /** Route for the edge to @p child from its parent: a scan of
     *  routes, O(P). To map every node, walk routes once instead. */
    const Route& routeToChild(NodeId child) const;
};

/**
 * Embeds @p tree onto @p graph: direct channels where available,
 * otherwise the shortest NVLink-only detour (never through the host).
 * Panics when some edge is unreachable over NVLink.
 */
TreeEmbedding embedTree(const Graph& graph, BinaryTree tree);

/**
 * Embeds @p tree with every logical edge mapped to a direct route —
 * for purely logical experiments with no physical topology (e.g.
 * functional tests at arbitrary P, or fully-connected fabrics).
 */
TreeEmbedding directEmbedding(BinaryTree tree);

} // namespace topo
} // namespace ccube

#endif // CCUBE_TOPO_TREE_EMBEDDING_H_
