#ifndef CCUBE_CCL_STATE_MACHINE_H_
#define CCUBE_CCL_STATE_MACHINE_H_

/**
 * @file
 * Async state-machine rank runtime: resumable per-rank collectives on
 * a small worker pool.
 *
 * Thread-per-rank caps the functional runtime at a few dozen ranks —
 * every rank (plus every forwarder and overlapped reducer) needs a
 * dedicated OS thread that mostly blocks in the Fig. 11 spin protocol.
 * Real stacks don't do that: NCCL multiplexes many channels' progress
 * onto a handful of proxy threads, and Motr-style request handlers
 * (the FOM pattern) run as non-blocking state machines that *park* on
 * a condition and are resumed by the post. This header is that
 * engine: each rank's collective body is a RankTask whose
 * step() advances until a mailbox would block, then parks on the
 * mailbox's semaphore via the SemaphoreWaiter registration in
 * sync_primitives.h. A post() pops the waiter and reschedules the
 * task onto the pool — so P=512–1024 functional ranks run on two
 * workers instead of a thousand threads.
 *
 * Park/wake protocol (exactly-once resume, no lost wakeups):
 *
 *   1. step() fails a try* mailbox op and calls StepContext::parkOn.
 *      The task's park_state goes kRunning → kParking and the task
 *      registers on the semaphore under the semaphore's own SpinLock,
 *      *rechecking the condition* there (a concurrent post between the
 *      failed try and the registration is observed; the task retries
 *      instead of parking).
 *   2. The worker, seeing kParked returned from step(), publishes the
 *      park with a CAS kParking → kParked and moves to other work.
 *   3. A poster pops the waiter node (list removal under the semaphore
 *      lock = exclusive wake ownership) and exchanges park_state to
 *      kWoken: if it observed kParked the poster enqueues the task; if
 *      it observed kParking the worker's CAS in (2) fails and the
 *      worker requeues the task itself. Either way exactly one side
 *      schedules the resume.
 *   4. The abort sweep (run() notices a tripped epoch) claims still-
 *      parked tasks through BoundedSemaphore::cancelPark — the same
 *      removal-is-ownership rule — and wakes them so their next step's
 *      abortPoll() throws AbortedWait and the batch unwinds. PR 5
 *      fault semantics carry over: the fault context travels with the
 *      batch (installed around every step), deadline/abort checks run
 *      at every park and resume point, and a parked task keeps its
 *      wait-site label published so the watchdog blames the right
 *      rank.
 *
 * Work stealing: each worker owns a deque; enqueues go to the task's
 * home worker (rank-affine), idle workers steal from the back of
 * other queues. Steals, parks, and resumes land in obs::RankCounters
 * and the engine exports live ccl.sm.* gauges to obs::Monitor.
 *
 * The same task graphs also run on the thread engine (RankExecutor):
 * there each task gets a dedicated thread and RankTask::runToCompletion
 * drives it, with every would-park wait done inline instead. A
 * collective is therefore written once, as a RankTask set, whichever
 * engine executes it.
 *
 * Along with executor.cpp, this is a translation unit in src/ccl/
 * allowed to construct std::thread (the pool workers).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ccl/protocol.h"
#include "ccl/sync_primitives.h"

namespace ccube {
namespace ccl {

class CommFaultContext;
class Mailbox;
class RankTask;
class StepContext;

/** What one step() invocation accomplished. */
enum class StepStatus {
    kDone,     ///< the task finished its whole protocol
    kContinue, ///< progress made; reschedule (fairness boundary)
    kParked,   ///< registered on a semaphore; resume on post
};

/**
 * The worker pool driving RankTask state machines. One engine is
 * shared per process (shared()) so N concurrent communicators
 * multiplex onto the same handful of threads; tests may build private
 * engines with explicit worker counts.
 */
class StateMachineEngine
{
  public:
    /** Pool with @p num_workers threads (min 1). */
    explicit StateMachineEngine(int num_workers);

    /** Joins the pool (all run() calls must have returned). */
    ~StateMachineEngine();

    StateMachineEngine(const StateMachineEngine&) = delete;
    StateMachineEngine& operator=(const StateMachineEngine&) = delete;

    /**
     * Process-wide engine, created on first use with
     * defaultWorkerCount() workers and never destroyed (it may be
     * referenced from static-destruction contexts).
     */
    static StateMachineEngine& shared();

    /**
     * Worker-count default: $CCUBE_CCL_SM_WORKERS when set (min 1),
     * else max(2, 2 × hardware_concurrency) — the "handful of
     * threads" the P=512 acceptance bound is measured against.
     */
    static int defaultWorkerCount();

    /**
     * Runs @p tasks to completion and returns. Thread-safe: multiple
     * run() batches (from different communicators) interleave on the
     * same pool. @p fault, when non-null, is installed around every
     * step of every task in this batch (ScopedFaultContext), and a
     * tripped abort epoch wakes the batch's parked tasks so the run
     * unwinds instead of hanging. Rethrows the first exception any
     * task threw — after every task of the batch has finished or
     * aborted, mirroring RankExecutor::run.
     */
    void run(std::vector<std::unique_ptr<RankTask>> tasks,
             CommFaultContext* fault);

    // ---- telemetry ----

    int workerCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /** step() invocations executed. */
    std::uint64_t stepsExecuted() const
    {
        return steps_.load(std::memory_order_relaxed);
    }

    /** Successful parks / resumes / steals across the pool. */
    std::uint64_t parks() const
    {
        return parks_.load(std::memory_order_relaxed);
    }
    std::uint64_t resumes() const
    {
        return resumes_.load(std::memory_order_relaxed);
    }
    std::uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /** Tasks currently parked on a semaphore. */
    int parkedNow() const
    {
        return parked_now_.load(std::memory_order_relaxed);
    }

    /** Tasks currently enqueued and runnable. */
    int runnableNow() const
    {
        return static_cast<int>(
            pending_.load(std::memory_order_relaxed));
    }

  private:
    friend class RankTask;
    friend class StepContext;

    struct Batch;

    /** One worker's run queue (owner pops front, thieves pop back). */
    struct WorkerQueue {
        std::mutex mutex;
        std::deque<RankTask*> tasks;
    };

    void enqueue(RankTask& task);

    /** Exactly-once resume of a parked/parking task (see protocol). */
    void wake(RankTask& task);

    /** Wakes every still-parked task of @p batch after an abort. */
    void sweepAborted(Batch& batch);

    void workerLoop(int index);
    RankTask* tryPop(int index, bool* stolen);
    void runTask(RankTask& task, int worker, bool stolen);
    void finishTask(RankTask& task, std::exception_ptr error);

    std::vector<WorkerQueue> queues_;
    std::vector<std::thread> workers_;

    std::mutex idle_mutex_;
    std::condition_variable idle_cv_;
    std::atomic<std::size_t> pending_{0}; ///< increments under idle_mutex_
    bool stop_ = false;                   ///< guarded by idle_mutex_

    std::atomic<std::uint64_t> steps_{0};
    std::atomic<std::uint64_t> parks_{0};
    std::atomic<std::uint64_t> resumes_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<int> parked_now_{0};

    int monitor_token_ = -1;
};

/**
 * A resumable per-rank protocol body — the FOM. Subclasses hold the
 * rank's entire mailbox plan and an explicit state/cursor set, and
 * advance it in step(): attempt non-blocking mailbox ops, return
 * kContinue at natural fairness boundaries (chunk completed), return
 * what StepContext::parkOn* gives back when an op would block, and
 * kDone when the protocol is finished. step() runs with the batch's
 * fault context installed and the task's rank set as the thread rank,
 * so mailbox telemetry, fault injection, and watchdog blame attribute
 * to the task's rank on either engine.
 *
 * Cache-line aligned: a collective's tasks are allocated back to back,
 * and each one's cursor is written by whichever thread drives it, so
 * two tasks must not share a line.
 */
class alignas(64) RankTask : public SemaphoreWaiter
{
  public:
    RankTask(int rank, const char* role) : rank_(rank), role_(role) {}

    /** Advances the protocol; see class comment. */
    virtual StepStatus step(StepContext& ctx) = 0;

    int rank() const { return rank_; }

    /** Role label ("rank", "tree1", "forward", ...). */
    const char* role() const { return role_; }

    /**
     * Whether this task is its rank's main pipeline. The builders mark
     * exactly one task per rank; the thread engine runs that one on
     * the rank's parked main thread and every other task of the rank
     * on a pooled helper. The pool ignores the mark.
     */
    bool isMain() const { return main_; }

    /** Marks (or unmarks) this task as its rank's main pipeline. */
    void setMain(bool main) { main_ = main; }

    /**
     * Drives the protocol on the calling thread until it is done —
     * how the thread engine (RankExecutor::runTasks) runs a task. The
     * StepContext it passes never parks: a blocked op waits inline,
     * on its semaphore or its LL flag, as the blocking Mailbox ops do.
     * Exceptions from step() (AbortedWait, RankKilled, ...) propagate
     * to the caller.
     */
    void runToCompletion();

  private:
    friend class StateMachineEngine;
    friend class StepContext;

    /** Park lifecycle (see the header protocol walkthrough). */
    enum : int { kRunning = 0, kParking = 1, kParked = 2, kWoken = 3 };

    /** SemaphoreWaiter: a poster popped our registration. */
    void semaphoreReady() final;

    const int rank_;
    const char* role_;
    bool main_ = false;
    std::atomic<int> park_state_{kRunning};
    BoundedSemaphore* parked_sem_ = nullptr; ///< for the abort sweep
    bool resuming_ = false; ///< next execution is a park resume
    // Steady-clock stamp of the last park, so the resume path can
    // attribute the parked interval to the rank in obs::Profiler.
    // Plain field: the park/wake handoff (queue + state CAS) orders
    // the write before any other worker reads it.
    std::uint64_t park_begin_ns_ = 0;
    int home_worker_ = 0;
    StateMachineEngine* engine_ = nullptr;
    StateMachineEngine::Batch* batch_ = nullptr;
};

/**
 * Per-step services handed to RankTask::step by whoever executes it:
 * a pool worker of a StateMachineEngine, or the dedicated thread of
 * RankTask::runToCompletion. Tasks call the same methods either way;
 * only the pool ever parks.
 */
class StepContext
{
  public:
    /**
     * Waits for @p box to have an arrived chunk. Call after a failed
     * tryRecv variant or tryPeek under @p proto and return the result
     * from step() immediately. Simple: parks the task on the arrival
     * semaphore (kParked), or returns kContinue when the chunk raced
     * in (retry the op on the next step). LL posts no semaphore, so
     * nothing can park: the pool polls the abort epoch and requeues
     * the task (kContinue). On a dedicated thread either protocol
     * waits inline until the op can succeed, then returns kContinue.
     */
    StepStatus awaitArrival(Mailbox& box, Protocol proto);

    /** As awaitArrival, for a free receive buffer (failed trySend). */
    StepStatus awaitFreeSlot(Mailbox& box, Protocol proto);

    /**
     * General form: parks on @p sem, publishing @p label / @p flow as
     * the task's blocked wait site for watchdog blame and @p peer as
     * the rank expected to post the semaphore (the wait-for graph
     * edge; -1 = unknown). Spins a bounded util::SpinWait ladder
     * first while the pool is otherwise idle — the small-message fast
     * path — then registers. On a dedicated thread it never
     * registers: it waits inline until @p sem is nonzero, exactly like
     * BoundedSemaphore::wait(), and returns kContinue.
     */
    StepStatus parkOn(BoundedSemaphore& sem, const char* label,
                      int flow, int peer = -1);

    /**
     * Trace track for the task's own phase spans: 0 on the pool (a
     * task migrates across workers, so all its phases share one row),
     * the driving thread's track on a dedicated thread (phases then
     * nest around that thread's mailbox spans).
     */
    int traceTrack() const;

  private:
    friend class StateMachineEngine;
    friend class RankTask;

    StepContext(StateMachineEngine* engine, RankTask& task)
        : engine_(engine), task_(task)
    {
    }

    StateMachineEngine* const engine_; ///< null: a dedicated thread
    RankTask& task_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_STATE_MACHINE_H_
