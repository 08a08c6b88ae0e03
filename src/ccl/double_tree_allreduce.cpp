#include "ccl/double_tree_allreduce.h"

#include "ccl/algorithm_tasks.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

AllReduceTrace
doubleTreeAllReduce(Communicator& comm, RankBuffers& buffers,
                    const topo::DoubleTreeEmbedding& embedding,
                    int chunks_per_tree, TreePhaseMode mode,
                    AllReduceTrace::Observer observer, Protocol proto,
                    const SkipMask& resume)
{
    const int p = comm.numRanks();
    CCUBE_CHECK(static_cast<int>(buffers.size()) == p,
                "one buffer per rank required");
    CCUBE_CHECK(embedding.tree0.tree.numNodes() == p &&
                    embedding.tree1.tree.numNodes() == p,
                "tree/communicator size mismatch");
    for (const auto& b : buffers) {
        CCUBE_CHECK(b.size() == buffers[0].size(),
                    "all buffers must be equally sized");
    }

    const std::size_t total = buffers[0].size();
    const std::size_t half = total / 2;
    CCUBE_CHECK(half >= static_cast<std::size_t>(chunks_per_tree) &&
                    total - half >= static_cast<std::size_t>(
                                        chunks_per_tree),
                "buffer too small for the requested chunking");

    AllReduceTrace trace(p);
    trace.setObserver(std::move(observer));

    comm.runTasks(buildDoubleTreeTasks(comm, buffers, embedding,
                                       chunks_per_tree, mode, trace,
                                       proto, resume),
                  "double_tree_allreduce", proto);
    return trace;
}

} // namespace ccl
} // namespace ccube
