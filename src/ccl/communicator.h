#ifndef CCUBE_CCL_COMMUNICATOR_H_
#define CCUBE_CCL_COMMUNICATOR_H_

/**
 * @file
 * Communicator: the rank/"GPU" execution context of the functional
 * collective library.
 *
 * Each rank's collective program — a set of resumable RankTasks
 * (ccl/algorithm_tasks.h) — plays the role of one GPU running
 * persistent kernels, executed either on parked per-rank threads
 * (ccl/executor.h) or on a shared task pool (ccl/state_machine.h);
 * mailboxes play the role of
 * NVLink P2P receive buffers. Mailboxes are keyed by (src, dst, flow)
 * because one physical link may carry several logical flows (e.g. the
 * two trees of a double tree, or a detour passing through a transit
 * GPU) with independent buffer pools — exactly as NCCL allocates
 * per-channel buffers.
 *
 * The mailbox registry is a dense flat table indexed by
 * (src, dst, flow): after a mailbox's first use the per-chunk lookup
 * is one relaxed-ish atomic load plus an index computation — no mutex,
 * no std::map — matching the paper's statically-built channel plan.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "ccl/allreduce.h"
#include "ccl/executor.h"
#include "ccl/fault.h"
#include "ccl/mailbox.h"

namespace ccube {

namespace topo {
class Graph;
} // namespace topo

namespace ccl {

class RankTask;

/** Identifies a logical flow multiplexed over a physical direction. */
using FlowId = int;

/** Well-known flow ids used by the built-in algorithms. */
enum : FlowId {
    kFlowRing = 0,          ///< ring neighbor traffic
    kFlowTree0Reduce = 1,   ///< tree 0, reduction direction
    kFlowTree0Broadcast = 2,///< tree 0, broadcast direction
    kFlowTree1Reduce = 3,   ///< tree 1, reduction direction
    kFlowTree1Broadcast = 4,///< tree 1, broadcast direction
};

/**
 * A group of ranks that communicate through mailboxes.
 */
class Communicator
{
  public:
    /** Flow ids must be in [0, kMaxFlows). */
    static constexpr int kMaxFlows = 8;

    /**
     * Creates a communicator of @p num_ranks ranks whose mailboxes
     * have @p mailbox_slots receive buffers each. @p exec_mode selects
     * the execution engine (persistent parked threads by default, or
     * the shared state-machine pool).
     */
    explicit Communicator(int num_ranks, int mailbox_slots = 4,
                          RankExecutor::Mode exec_mode =
                              RankExecutor::defaultMode());

    ~Communicator();

    /** Number of participating ranks. */
    int numRanks() const { return num_ranks_; }

    /** Receive-buffer count per mailbox. */
    int mailboxSlots() const { return mailbox_slots_; }

    /**
     * The mailbox carrying flow @p flow from @p src to @p dst;
     * created on first use (thread-safe; lock-free after creation).
     */
    Mailbox& mailbox(int src, int dst, FlowId flow);

    /**
     * The persistent execution engine (created on first use; one
     * long-lived parked thread per rank plus the helper pool).
     */
    RankExecutor& executor();

    /**
     * Runs @p body concurrently on every rank — enqueued into the
     * executor's persistent rank threads — and waits for all of them.
     * Extra per-rank threads go through executor().submit(). The
     * collectives themselves use runTasks().
     *
     * @p op names the collective for watchdog/abort attribution (a
     * string literal; stored by pointer). When a deadline is set (see
     * setDeadline) a CommWatchdog watches the whole run: if any rank
     * wedges past the deadline the abort epoch trips, every bounded
     * spin unblocks, and run() throws a structured CollectiveError
     * naming the failed rank, op, and blocked mailbox — instead of
     * hanging. An abort poisons the communicator (like NCCL after
     * ncclCommAbort): further run() calls rethrow until clearAbort().
     *
     * @p proto is the wire protocol the collective's mailbox traffic
     * uses — recorded as a `ccl.proto.<name>` telemetry counter so
     * traces show which protocol each collective ran (the body itself
     * passes the protocol to its mailbox ops).
     */
    void run(const std::function<void(int rank)>& body,
             const char* op = "collective",
             Protocol proto = Protocol::kSimple);

    /**
     * Execution engine this communicator was created with; runTasks()
     * is where it takes effect.
     */
    RankExecutor::Mode engineMode() const { return exec_mode_; }

    /**
     * Runs one collective: drives @p tasks to completion on this
     * communicator's engine — the executor's threads
     * (RankExecutor::runTasks) or the shared StateMachineEngine pool
     * (Mode::kStateMachine) — under the same envelope as run():
     * poison check, watchdog arm/disarm, monitor collective edge,
     * abort-wins error surfacing. Every collective entry point goes
     * through here. @p op and @p proto as in run().
     */
    void runTasks(std::vector<std::unique_ptr<RankTask>> tasks,
                  const char* op = "collective",
                  Protocol proto = Protocol::kSimple);

    /**
     * Auto-tuned AllReduce: consults the ccl::Tuner's cached selection
     * table for (topology shape, P, message size) and runs the chosen
     * (algorithm × protocol × chunking) cell — the NCCL-style "just
     * give me the fastest schedule" entry point. Honors
     * CCUBE_CCL_PROTO=ll|simple as a protocol override. Defined in
     * tuner.cpp.
     */
    AllReduceTrace runAuto(RankBuffers& buffers,
                           const topo::Graph& graph);

    /**
     * Sense-reversing barrier across all ranks; callable only from
     * inside run().
     */
    void barrier();

    // ---- fault tolerance ----

    /**
     * Sets the per-collective watchdog deadline; zero disables the
     * watchdog (the default unless CCUBE_CCL_DEADLINE_MS is set).
     */
    void setDeadline(std::chrono::nanoseconds deadline);

    /** Current watchdog deadline (zero = disabled). */
    std::chrono::nanoseconds deadline() const { return deadline_; }

    /** Process default: CCUBE_CCL_DEADLINE_MS, else zero (disabled). */
    static std::chrono::nanoseconds defaultDeadline();

    /** Attaches a fault injector (borrowed; null detaches). */
    void setFaultInjector(FaultInjector* injector);

    /**
     * Trips the abort epoch with @p info: every rank blocked in a
     * bounded spin throws AbortedWait, the in-flight (or next) run()
     * surfaces a CollectiveError. Callable from any thread — this is
     * the ncclCommAbort analog the watchdog also uses.
     */
    void abort(CollectiveError::Info info);

    /** Whether the abort epoch is tripped. */
    bool aborted() const { return fault_.abortState().aborted(); }

    /**
     * Re-arms an aborted communicator for further collectives:
     * flushes every mailbox the dead collective may have left chunks
     * in, then retires the abort generation. An abort that trips
     * concurrently (Communicator::abort is callable from any thread)
     * is NOT silently erased: the clear is epoch-checked, and a
     * generation that tripped mid-flush gets its own flush before
     * being retired — clearAbort() returns with the communicator
     * clean and every generation it retired actually flushed.
     */
    void clearAbort();

    /**
     * Test-only: @p hook runs after each mailbox flush inside
     * clearAbort(), before the epoch-checked clear — the window the
     * abort-during-clear regression test races an abort into. Null
     * removes the hook.
     */
    void setClearAbortHook(std::function<void()> hook);

    /** The fault runtime shared with the sync primitives. */
    CommFaultContext& faultContext() { return fault_; }

  private:
    std::size_t tableIndex(int src, int dst, FlowId flow) const;

    /** Shared collective envelope of run()/runTasks(): poison check,
     *  watchdog arm/disarm, monitor edge, abort-wins surfacing around
     *  @p launch (which blocks until the collective finishes). */
    void runEnvelope(const char* op,
                     const std::function<void()>& launch);

    const int num_ranks_;
    const int mailbox_slots_;
    const RankExecutor::Mode exec_mode_;

    /** Dense (src, dst, flow) → Mailbox* table; slots fill on first
     *  use and stay valid for the communicator's lifetime. */
    std::vector<std::atomic<Mailbox*>> table_;
    std::mutex create_mutex_;
    std::vector<std::unique_ptr<Mailbox>> owned_;

    std::once_flag executor_once_;
    std::unique_ptr<RankExecutor> executor_;

    // Fault tolerance: abort epoch + per-rank progress table, the
    // watchdog (created on first deadline-armed run), the deadline.
    CommFaultContext fault_;
    std::chrono::nanoseconds deadline_ = defaultDeadline();
    std::once_flag watchdog_once_;
    std::unique_ptr<CommWatchdog> watchdog_;

    // Barrier state.
    std::atomic<int> barrier_count_{0};
    std::atomic<int> barrier_sense_{0};

    // Test-only interposition point inside clearAbort() (see
    // setClearAbortHook).
    std::function<void()> clear_abort_hook_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_COMMUNICATOR_H_
