#include "ccl/tree_allreduce.h"

#include <memory>
#include <utility>
#include <vector>

#include "ccl/algorithm_tasks.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

AllReduceTrace
treeAllReduce(Communicator& comm, RankBuffers& buffers,
              const topo::TreeEmbedding& embedding, int num_chunks,
              TreePhaseMode mode, TreeFlowIds flows,
              AllReduceTrace::Observer observer, Protocol proto,
              const SkipMask& resume)
{
    const int p = comm.numRanks();
    CCUBE_CHECK(static_cast<int>(buffers.size()) == p,
                "one buffer per rank required");
    CCUBE_CHECK(embedding.tree.numNodes() == p,
                "tree/communicator size mismatch");
    for (const auto& b : buffers) {
        CCUBE_CHECK(b.size() == buffers[0].size(),
                    "all buffers must be equally sized");
    }

    AllReduceTrace trace(p);
    trace.setObserver(std::move(observer));
    const ChunkSplit split(buffers[0].size(), num_chunks);

    std::vector<std::unique_ptr<RankTask>> tasks;
    appendTreeTasks(tasks, comm, buffers, embedding,
                    /*region_offset=*/0, buffers[0].size(), split, mode,
                    flows, TreeDirection::kAllReduce, &trace,
                    /*chunk_id_offset=*/0, "tree", proto, resume);
    comm.runTasks(std::move(tasks), "tree_allreduce", proto);
    return trace;
}

} // namespace ccl
} // namespace ccube
