#include "ccl/tree_allreduce.h"

#include <memory>
#include <utility>
#include <vector>

#include "ccl/algorithm_tasks.h"

namespace ccube {
namespace ccl {

AllReduceTrace
treeAllReduce(Communicator& comm, RankBuffers& buffers,
              const topo::TreeEmbedding& embedding, int num_chunks,
              TreePhaseMode mode, TreeFlowIds flows,
              AllReduceTrace::Observer observer, Protocol proto,
              const SkipMask& resume)
{
    checkBuffers(comm, buffers);
    AllReduceTrace trace(comm.numRanks());
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
