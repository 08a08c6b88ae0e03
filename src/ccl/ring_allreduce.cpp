#include "ccl/ring_allreduce.h"

#include <utility>

#include "ccl/algorithm_tasks.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

AllReduceTrace
ringAllReduce(Communicator& comm, RankBuffers& buffers,
              const topo::RingEmbedding& ring,
              AllReduceTrace::Observer observer, Protocol proto,
              const SkipMask& resume)
{
    const int p = comm.numRanks();
    CCUBE_CHECK(static_cast<int>(buffers.size()) == p,
                "one buffer per rank required");
    CCUBE_CHECK(ring.size() == p, "ring/communicator size mismatch");
    for (const auto& b : buffers) {
        CCUBE_CHECK(b.size() == buffers[0].size(),
                    "all buffers must be equally sized");
    }

    AllReduceTrace trace(p);
    trace.setObserver(std::move(observer));
    comm.runTasks(buildRingTasks(comm, buffers, ring,
                                 RingPhase::kAllReduce, &trace, proto,
                                 resume),
                  "ring_allreduce", proto);
    return trace;
}

} // namespace ccl
} // namespace ccube
