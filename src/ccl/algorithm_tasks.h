#ifndef CCUBE_CCL_ALGORITHM_TASKS_H_
#define CCUBE_CCL_ALGORITHM_TASKS_H_

/**
 * @file
 * Step-program generators for the collective algorithms — the one
 * encoding of every functional collective. ringAllReduce,
 * treeAllReduce, doubleTreeAllReduce and the primitives build these
 * task sets and hand them to Communicator::runTasks, which runs them
 * on whichever engine the communicator was created with: the shared
 * state-machine pool (StateMachineEngine) or one dedicated thread per
 * task (RankExecutor::runTasks).
 *
 * Each builder compiles one collective into one step program per
 * rank role (ring body; tree reducer/broadcaster, two per non-root
 * rank of an overlapped AllReduce; one forwarder per detour rule), the
 * analog of the paper compiling its data movement into a static plan
 * that persistent kernels replay (§IV-A), and of SCCL's per-step
 * send/recv programs. A program is a mailbox table resolved at build
 * time (the chunk loops do no registry lookups) plus an ordered list
 * of 8-byte steps:
 *
 *   - send, recv-reduce, recv-copy: one chunk on one mailbox;
 *   - forward: peek the upstream chunk in place, send it on, release
 *     it (a detour transit's zero-copy forwarding kernel);
 *   - record: the chunk is final here (AllReduceTrace);
 *   - span begin/end: the phase spans ("ring.reduce_scatter",
 *     "tree.reduce", "tree.forward U->D", ...).
 *
 * One RankTask subclass interprets every program. A yield flag on a
 * step marks the kContinue fairness boundary after it; a failed op
 * returns the StepContext wait and is retried at the same step. Ring
 * vs tree, two-phase vs overlapped, AllReduce vs one-phase primitive
 * and the resume mask are generator parameters only: a chunk already
 * final at every rank (ccl::SkipMask) gets no steps at all.
 *
 * Protocol fidelity: each rank performs its mailbox operations in one
 * fixed order per pipeline (same Fig. 11 post/wait sequence, same
 * reduction order over children, same chunk tags) on either engine,
 * so float results are byte-identical across engines and protocols,
 * and FaultInjector at-op indices mean the same thing everywhere.
 *
 * Wire protocol: every builder takes a ccl::Protocol. Under kLL the
 * mailbox never posts a semaphore, so a task cannot park on one — a
 * failed LL try* op polls its flag (StepContext::awaitArrival /
 * awaitFreeSlot take the protocol) instead of registering a waiter
 * that would never be woken.
 */

#include <memory>
#include <vector>

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "ccl/state_machine.h"
#include "ccl/tree_allreduce.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace ccl {

/** Panics unless @p buffers holds one buffer per rank of @p comm, all
 *  of one length — the precondition of every builder below. */
void checkBuffers(const Communicator& comm, const RankBuffers& buffers);

/** Which phases of the ring protocol the tasks execute. */
enum class RingPhase {
    kReduceScatter, ///< ringReduceScatter primitive
    kAllGather,     ///< ringAllGather primitive
    kAllReduce,     ///< full AllReduce (RS + AG, completion recorded)
};

/**
 * One task per rank running the ring body. @p trace is recorded only
 * for RingPhase::kAllReduce (may be null otherwise). @p resume skips
 * chunks already final at every rank (see ccl::ChunkCheckpoint); it is
 * read only while the programs are generated.
 */
std::vector<std::unique_ptr<RankTask>>
buildRingTasks(Communicator& comm, RankBuffers& buffers,
               const topo::RingEmbedding& ring, RingPhase phase,
               AllReduceTrace* trace,
               Protocol proto = Protocol::kSimple,
               const SkipMask& resume = {});

/** Which direction(s) of the tree protocol the tasks execute. */
enum class TreeDirection {
    kReduce,    ///< treeReduce primitive (up only)
    kBroadcast, ///< treeBroadcast primitive (down only)
    kAllReduce, ///< full AllReduce (reduction chained into broadcast)
};

/**
 * Appends the task set of one tree instance operating on the buffer
 * region [region_offset, region_offset + region_size) of every rank:
 * per-rank tree tasks (two per non-root rank of an overlapped
 * AllReduce — the concurrent reducer/broadcaster pipelines) plus
 * forwarders for the embedding's detour rules. Chunk ids recorded
 * into @p trace (when non-null, kAllReduce only) are offset by
 * @p chunk_id_offset;
 * @p label names the main tree tasks in watchdog blame ("tree0",
 * "tree1", ...; a string literal, stored by pointer). The one-
 * direction primitives pass the same flow for both TreeFlowIds slots.
 * @p resume (consulted at global ids, i.e. after adding
 * @p chunk_id_offset) drops already-final chunks from every pipeline
 * and forwarder of this tree.
 */
void appendTreeTasks(std::vector<std::unique_ptr<RankTask>>& out,
                     Communicator& comm, RankBuffers& buffers,
                     const topo::TreeEmbedding& embedding,
                     std::size_t region_offset,
                     std::size_t region_size, const ChunkSplit& split,
                     TreePhaseMode mode, TreeFlowIds flows,
                     TreeDirection direction, AllReduceTrace* trace,
                     int chunk_id_offset, const char* label,
                     Protocol proto = Protocol::kSimple,
                     const SkipMask& resume = {});

/**
 * Full double-tree AllReduce task set: tree0 over the lower buffer
 * half, tree1 over the upper, with the standard flow-id split.
 */
std::vector<std::unique_ptr<RankTask>>
buildDoubleTreeTasks(Communicator& comm, RankBuffers& buffers,
                     const topo::DoubleTreeEmbedding& embedding,
                     int chunks_per_tree, TreePhaseMode mode,
                     AllReduceTrace& trace,
                     Protocol proto = Protocol::kSimple,
                     const SkipMask& resume = {});

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_ALGORITHM_TASKS_H_
