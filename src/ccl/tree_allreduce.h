#ifndef CCUBE_CCL_TREE_ALLREDUCE_H_
#define CCUBE_CCL_TREE_ALLREDUCE_H_

/**
 * @file
 * Functional tree AllReduce: baseline (two-phase) and overlapped (C1).
 *
 * Baseline (paper Fig. 5(a)): pipelined reduction up the tree, and
 * only after the full reduction completes does the pipelined broadcast
 * descend. Overlapped (Fig. 5(c), §III-C): a chunk starts its
 * broadcast the moment it is fully reduced at the root, using the
 * otherwise-idle downlinks (Observations #1 and #2).
 *
 * Detour edges of the embedding are serviced by forwarding tasks on
 * the transit ranks — the analog of the paper's static forwarding
 * kernels (§IV-A).
 */

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace ccl {

/** Phase organisation of the tree algorithm. */
enum class TreePhaseMode {
    kTwoPhase,   ///< baseline: broadcast strictly after reduction
    kOverlapped, ///< C1: reduction-broadcast chaining
};

/** Flow ids used by one tree instance. */
struct TreeFlowIds {
    FlowId reduce = kFlowTree0Reduce;
    FlowId broadcast = kFlowTree0Broadcast;
};

/**
 * Runs tree AllReduce over @p buffers (one per rank, equal length,
 * indexed by rank id) split into @p num_chunks chunks. On return every
 * buffer holds the elementwise sum. @p resume skips chunks already
 * final at every rank — a supervised retry resuming from a
 * ccl::ChunkCheckpoint; ids match the trace's (chunk_id_offset 0).
 */
AllReduceTrace treeAllReduce(Communicator& comm, RankBuffers& buffers,
                             const topo::TreeEmbedding& embedding,
                             int num_chunks, TreePhaseMode mode,
                             TreeFlowIds flows = {},
                             AllReduceTrace::Observer observer = {},
                             Protocol proto = Protocol::kSimple,
                             const SkipMask& resume = {});

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_TREE_ALLREDUCE_H_
