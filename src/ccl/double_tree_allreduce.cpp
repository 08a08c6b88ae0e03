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
    checkBuffers(comm, buffers);
    const std::size_t total = buffers[0].size();
    const std::size_t half = total / 2;
    CCUBE_CHECK(half >= static_cast<std::size_t>(chunks_per_tree) &&
                    total - half >= static_cast<std::size_t>(
                                        chunks_per_tree),
                "buffer too small for the requested chunking");

    AllReduceTrace trace(comm.numRanks());
    trace.setObserver(std::move(observer));

    comm.runTasks(buildDoubleTreeTasks(comm, buffers, embedding,
                                       chunks_per_tree, mode, trace,
                                       proto, resume),
                  "double_tree_allreduce", proto);
    return trace;
}

} // namespace ccl
} // namespace ccube
