#include "ccl/primitives.h"

#include <memory>
#include <utility>
#include <vector>

#include "ccl/algorithm_tasks.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/ring_allreduce.h"
#include "ccl/tree_allreduce.h"
#include "ccl/tuner.h"
#include "topo/embedding_search.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

void
treeBroadcast(Communicator& comm, RankBuffers& buffers,
              const topo::TreeEmbedding& embedding, int num_chunks,
              FlowId flow, Protocol proto)
{
    checkBuffers(comm, buffers);
    const ChunkSplit split(buffers[0].size(), num_chunks);

    std::vector<std::unique_ptr<RankTask>> tasks;
    appendTreeTasks(tasks, comm, buffers, embedding, /*region_offset=*/0,
                    buffers[0].size(), split, TreePhaseMode::kTwoPhase,
                    TreeFlowIds{flow, flow}, TreeDirection::kBroadcast,
                    nullptr, /*chunk_id_offset=*/0, "tree", proto);
    comm.runTasks(std::move(tasks), "tree_broadcast", proto);
}

void
treeReduce(Communicator& comm, RankBuffers& buffers,
           const topo::TreeEmbedding& embedding, int num_chunks,
           FlowId flow, Protocol proto)
{
    checkBuffers(comm, buffers);
    const ChunkSplit split(buffers[0].size(), num_chunks);

    std::vector<std::unique_ptr<RankTask>> tasks;
    appendTreeTasks(tasks, comm, buffers, embedding, /*region_offset=*/0,
                    buffers[0].size(), split, TreePhaseMode::kTwoPhase,
                    TreeFlowIds{flow, flow}, TreeDirection::kReduce,
                    nullptr, /*chunk_id_offset=*/0, "tree", proto);
    comm.runTasks(std::move(tasks), "tree_reduce", proto);
}

void
ringReduceScatter(Communicator& comm, RankBuffers& buffers,
                  const topo::RingEmbedding& ring, Protocol proto)
{
    checkBuffers(comm, buffers);
    comm.runTasks(buildRingTasks(comm, buffers, ring,
                                 RingPhase::kReduceScatter, nullptr,
                                 proto),
                  "ring_reduce_scatter", proto);
}

void
ringAllGather(Communicator& comm, RankBuffers& buffers,
              const topo::RingEmbedding& ring, Protocol proto)
{
    checkBuffers(comm, buffers);
    comm.runTasks(buildRingTasks(comm, buffers, ring,
                                 RingPhase::kAllGather, nullptr, proto),
                  "ring_all_gather", proto);
}

AllReduceTrace
allReduce(Communicator& comm, RankBuffers& buffers,
          const topo::Graph& graph, const AllReduceOptions& options)
{
    const int p = comm.numRanks();
    // kAuto resolves through the tuner's selection table: for the
    // fixed algorithm the caller picked, choose the protocol the α-β
    // model (or a cached measurement) predicts fastest at this size.
    Protocol proto = options.protocol;
    if (proto == Protocol::kAuto)
        proto = Tuner::global().chooseProtocol(
            graph, p, buffers.empty() ? 0 : buffers[0].size(),
            options.algorithm);
    switch (options.algorithm) {
      case AllReduceAlgorithm::kRing: {
        const topo::RingEmbedding ring =
            topo::findHamiltonianRing(graph, p);
        CCUBE_CHECK(ring.size() == p,
                    "no Hamiltonian ring on this topology");
        return ringAllReduce(comm, buffers, ring, options.observer,
                             proto);
      }
      case AllReduceAlgorithm::kTree:
      case AllReduceAlgorithm::kOverlappedTree: {
        const topo::TreeEmbedding embedding =
            topo::embedTree(graph, topo::BinaryTree::inorder(p));
        const TreePhaseMode mode =
            options.algorithm == AllReduceAlgorithm::kTree
                ? TreePhaseMode::kTwoPhase
                : TreePhaseMode::kOverlapped;
        return treeAllReduce(comm, buffers, embedding,
                             options.num_chunks, mode, {},
                             options.observer, proto);
      }
      case AllReduceAlgorithm::kDoubleTree:
      case AllReduceAlgorithm::kCCubeDoubleTree: {
        topo::EmbeddingSearchOptions search;
        search.num_ranks = p;
        auto found = topo::findConflictFreeDoubleTree(graph, search);
        CCUBE_CHECK(found.has_value(),
                    "no conflict-free double tree on this topology");
        const TreePhaseMode mode =
            options.algorithm == AllReduceAlgorithm::kDoubleTree
                ? TreePhaseMode::kTwoPhase
                : TreePhaseMode::kOverlapped;
        return doubleTreeAllReduce(comm, buffers, *found,
                                   options.num_chunks, mode,
                                   options.observer, proto);
      }
    }
    util::panic("unknown AllReduce algorithm");
}

} // namespace ccl
} // namespace ccube
