#ifndef CCUBE_TESTS_REFERENCE_COLLECTIVES_H_
#define CCUBE_TESTS_REFERENCE_COLLECTIVES_H_

/**
 * @file
 * Serial, order-faithful reference results for the functional
 * collectives — the engine-independent oracle of the byte-identity
 * tests.
 *
 * Float addition is commutative but not associative, so a reduced
 * value is fixed by the order in which partial sums meet. Each
 * function below replays exactly the order the algorithm's chunk
 * pipeline imposes, one element at a time, on one thread:
 *
 *  - ring: chunk c starts at ring position c and is folded along the
 *    ring, v = x_local + v, for P − 1 hops; the rank at position c − 1
 *    then owns it, and AllGather copies it everywhere;
 *  - tree: v = x_node, then v += v(child) for each child in order
 *    (post-order), up to the root; the broadcast copies the root's sum;
 *  - double tree: the lower half [0, total/2) over tree0, the upper
 *    half over tree1.
 *
 * Detour forwarders, chunk sizes, wire protocol and execution engine
 * move bytes but never reorder an add, so every engine × protocol
 * must match these buffers byte for byte.
 */

#include <cstddef>
#include <vector>

#include "ccl/allreduce.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace reference {

namespace detail {

/** Ring position of every rank. */
inline std::vector<int>
ringPositions(const topo::RingEmbedding& ring)
{
    std::vector<int> position(ring.order.size(), -1);
    for (int pos = 0; pos < ring.size(); ++pos)
        position[static_cast<std::size_t>(
            ring.order[static_cast<std::size_t>(pos)])] = pos;
    return position;
}

/**
 * Ring fold of chunk @p chunk (ring-position indexed) over the
 * @p terms positions starting at @p chunk: v = x_first, then
 * v = x_next + v along the ring.
 */
inline std::vector<float>
ringFold(const ccl::RankBuffers& in, const topo::RingEmbedding& ring,
         const ccl::ChunkSplit& split, int chunk, int terms)
{
    const int p = ring.size();
    const std::size_t begin = split.begin(chunk);
    const std::size_t end = split.end(chunk);
    const auto& first =
        in[static_cast<std::size_t>(ring.order[static_cast<std::size_t>(
            chunk)])];
    std::vector<float> v(first.begin() + static_cast<long>(begin),
                         first.begin() + static_cast<long>(end));
    for (int k = 1; k < terms; ++k) {
        const auto& x = in[static_cast<std::size_t>(
            ring.order[static_cast<std::size_t>((chunk + k) % p)])];
        for (std::size_t i = begin; i < end; ++i)
            v[i - begin] = x[i] + v[i - begin];
    }
    return v;
}

/** Post-order subtree sum of @p node over [begin, end). */
inline std::vector<float>
subtreeSum(const ccl::RankBuffers& in, const topo::BinaryTree& tree,
           topo::NodeId node, std::size_t begin, std::size_t end)
{
    const auto& x = in[static_cast<std::size_t>(node)];
    std::vector<float> v(x.begin() + static_cast<long>(begin),
                         x.begin() + static_cast<long>(end));
    for (topo::NodeId child : tree.children(node)) {
        const std::vector<float> w =
            subtreeSum(in, tree, child, begin, end);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] += w[i];
    }
    return v;
}

/** Writes the tree AllReduce of [begin, end) into every rank of @p out. */
inline void
treeAllReduceRegion(const ccl::RankBuffers& in,
                    const topo::BinaryTree& tree, std::size_t begin,
                    std::size_t end, ccl::RankBuffers& out)
{
    const std::vector<float> sum =
        subtreeSum(in, tree, tree.root(), begin, end);
    for (auto& b : out)
        for (std::size_t i = begin; i < end; ++i)
            b[i] = sum[i - begin];
}

} // namespace detail

/** Ring AllReduce: every rank holds the ring-folded sum. */
inline ccl::RankBuffers
ringAllReduce(const ccl::RankBuffers& in,
              const topo::RingEmbedding& ring)
{
    const int p = ring.size();
    const ccl::ChunkSplit split(in[0].size(), p);
    ccl::RankBuffers out = in;
    for (int c = 0; c < p; ++c) {
        const std::vector<float> v = detail::ringFold(in, ring, split,
                                                      c, p);
        for (auto& b : out)
            for (std::size_t i = split.begin(c); i < split.end(c); ++i)
                b[i] = v[i - split.begin(c)];
    }
    return out;
}

/**
 * Ring Reduce-Scatter partials: the rank at position pos holds, for
 * chunk c, the fold over positions c..pos — its own input for c = pos,
 * the full sum for c = pos + 1.
 */
inline ccl::RankBuffers
ringReduceScatter(const ccl::RankBuffers& in,
                  const topo::RingEmbedding& ring)
{
    const int p = ring.size();
    const ccl::ChunkSplit split(in[0].size(), p);
    const std::vector<int> position = detail::ringPositions(ring);
    ccl::RankBuffers out = in;
    for (std::size_t r = 0; r < out.size(); ++r) {
        const int pos = position[r];
        for (int c = 0; c < p; ++c) {
            const int terms = (pos - c + p) % p + 1;
            const std::vector<float> v =
                detail::ringFold(in, ring, split, c, terms);
            for (std::size_t i = split.begin(c); i < split.end(c); ++i)
                out[r][i] = v[i - split.begin(c)];
        }
    }
    return out;
}

/**
 * Ring AllGather: chunk c everywhere is the input of its owner, the
 * rank at ring position c − 1.
 */
inline ccl::RankBuffers
ringAllGather(const ccl::RankBuffers& in,
              const topo::RingEmbedding& ring)
{
    const int p = ring.size();
    const ccl::ChunkSplit split(in[0].size(), p);
    ccl::RankBuffers out = in;
    for (int c = 0; c < p; ++c) {
        const auto& owner = in[static_cast<std::size_t>(
            ring.order[static_cast<std::size_t>((c + p - 1) % p)])];
        for (auto& b : out)
            for (std::size_t i = split.begin(c); i < split.end(c); ++i)
                b[i] = owner[i];
    }
    return out;
}

/** Tree AllReduce (two-phase and overlapped alike). */
inline ccl::RankBuffers
treeAllReduce(const ccl::RankBuffers& in, const topo::BinaryTree& tree)
{
    ccl::RankBuffers out = in;
    detail::treeAllReduceRegion(in, tree, 0, in[0].size(), out);
    return out;
}

/** Tree reduce partials: every rank holds its subtree's sum. */
inline ccl::RankBuffers
treeReduce(const ccl::RankBuffers& in, const topo::BinaryTree& tree)
{
    ccl::RankBuffers out = in;
    for (std::size_t r = 0; r < out.size(); ++r)
        out[r] = detail::subtreeSum(in, tree,
                                    static_cast<topo::NodeId>(r), 0,
                                    in[0].size());
    return out;
}

/** Tree broadcast: every rank holds the root's input. */
inline ccl::RankBuffers
treeBroadcast(const ccl::RankBuffers& in, const topo::BinaryTree& tree)
{
    return ccl::RankBuffers(in.size(),
                            in[static_cast<std::size_t>(tree.root())]);
}

/** Double-tree AllReduce: lower half over tree0, upper over tree1. */
inline ccl::RankBuffers
doubleTreeAllReduce(const ccl::RankBuffers& in,
                    const topo::DoubleTreeEmbedding& embedding)
{
    const std::size_t total = in[0].size();
    const std::size_t half = total / 2;
    ccl::RankBuffers out = in;
    detail::treeAllReduceRegion(in, embedding.tree0.tree, 0, half, out);
    detail::treeAllReduceRegion(in, embedding.tree1.tree, half, total,
                                out);
    return out;
}

} // namespace reference
} // namespace ccube

#endif // CCUBE_TESTS_REFERENCE_COLLECTIVES_H_
