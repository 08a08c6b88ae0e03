#include "ccl/ring_allreduce.h"

#include <utility>

#include "ccl/algorithm_tasks.h"

namespace ccube {
namespace ccl {

AllReduceTrace
ringAllReduce(Communicator& comm, RankBuffers& buffers,
              const topo::RingEmbedding& ring,
              AllReduceTrace::Observer observer, Protocol proto,
              const SkipMask& resume)
{
    checkBuffers(comm, buffers);
    AllReduceTrace trace(comm.numRanks());
    trace.setObserver(std::move(observer));
    comm.runTasks(buildRingTasks(comm, buffers, ring,
                                 RingPhase::kAllReduce, &trace, proto,
                                 resume),
                  "ring_allreduce", proto);
    return trace;
}

} // namespace ccl
} // namespace ccube
