#ifndef CCUBE_CCL_EXECUTOR_H_
#define CCUBE_CCL_EXECUTOR_H_

/**
 * @file
 * Persistent rank executor: the host-side analog of the paper's
 * persistent kernels.
 *
 * The paper launches its collective as long-lived CUDA kernels exactly
 * once and then drives every AllReduce through device-side semaphores,
 * amortizing the per-invocation launch cost that dominates small
 * messages (Fig. 3). The functional runtime used to do the opposite:
 * every collective constructed and joined fresh std::threads per rank
 * (plus more per forwarding rule). This executor owns one long-lived
 * parked thread per rank plus a per-rank pool of helper threads
 * (forwarding kernels, the overlapped reducer, the second tree of a
 * double tree); collectives enqueue closures into the already-running
 * threads instead of spawning.
 *
 * Every collective is one set of resumable RankTasks
 * (ccl/algorithm_tasks.h). runTasks() gives each task a thread here:
 * a rank's main pipeline runs on its parked main thread, every other
 * task of the rank (the other tree, the overlapped reducer, detour
 * forwarders) on a pooled helper. The other engine, ccl/state_machine.h,
 * multiplexes the same tasks onto a small shared worker pool — the
 * engine that scales the functional runtime to P=512–1024. Selecting
 * it (Mode::kStateMachine) routes a communicator's collectives there;
 * run()/submit() callers still get persistent threads.
 *
 * Along with state_machine.cpp, this is one of the only two
 * translation units in src/ccl/ allowed to construct std::thread.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ccube {
namespace ccl {

class CommFaultContext;
class RankTask;

/**
 * One parked worker thread per rank plus an elastic-but-persistent
 * helper pool per rank. Thread-safe: run() is called from one external
 * thread at a time; submit() may be called from any executor-owned
 * thread while a run() is in flight.
 */
class RankExecutor
{
  public:
    /** Execution engine of a communicator's collectives. */
    enum class Mode {
        kPersistent,   ///< parked threads, reused across collectives
        kStateMachine, ///< resumable rank tasks on a shared pool
    };

    /**
     * Default mode: parseMode($CCUBE_CCL_EXECUTOR), read once per
     * process.
     */
    static Mode defaultMode();

    /**
     * Engine named by @p name: "statemachine" or "sm" select
     * kStateMachine; null or empty (the variable unset) selects
     * kPersistent. Any other name logs a warning listing the accepted
     * values and falls back to kPersistent.
     */
    static Mode parseMode(const char* name);

    /**
     * Completion tracker for a batch of helper tasks submitted by one
     * rank body (the analog of joining the forwarder threads).
     */
    class Group
    {
      public:
        Group() = default;
        Group(const Group&) = delete;
        Group& operator=(const Group&) = delete;

        /** Waits for completion of the whole batch. */
        ~Group();

        /**
         * Blocks until every task submitted through this group has
         * finished; rethrows the first exception any of them threw.
         */
        void wait();

      private:
        friend class RankExecutor;

        std::mutex mutex_;
        std::condition_variable cv_;
        int pending_ = 0;
        std::exception_ptr error_;
    };

    /**
     * Creates the executor for @p num_ranks ranks. The rank threads
     * start parked immediately; helper threads are created on first
     * demand and then reused forever.
     */
    explicit RankExecutor(int num_ranks);

    /** Stops and joins every owned thread. */
    ~RankExecutor();

    RankExecutor(const RankExecutor&) = delete;
    RankExecutor& operator=(const RankExecutor&) = delete;

    /** Number of ranks. */
    int numRanks() const { return num_ranks_; }

    /**
     * Runs @p body concurrently on every rank's persistent thread and
     * waits for all of them. Rethrows the first exception thrown by
     * any rank body (after every rank body has finished); the executor
     * stays usable afterwards.
     */
    void run(const std::function<void(int rank)>& body);

    /**
     * Runs @p tasks to completion, one thread each: every rank's main
     * pipeline (the one task its builder marked, RankTask::isMain) on
     * the rank's parked main thread, every other task of that rank on
     * a pooled helper, each driven by RankTask::runToCompletion with
     * @p fault installed. Rethrows the first exception any task threw,
     * after every task has finished (like run()).
     */
    void runTasks(std::vector<std::unique_ptr<RankTask>> tasks,
                  CommFaultContext* fault);

    /**
     * Enqueues @p fn onto a pooled helper thread attributed to
     * @p rank, tracked by @p group. @p role labels the thread's trace
     * track ("forward", "reduce", "tree1", ...). Safe to call from
     * inside rank bodies and from other helper tasks.
     */
    void submit(Group& group, int rank, const char* role,
                std::function<void()> fn);

    // ---- telemetry (used by tests and exported via obs) ----

    /** Live threads owned: rank mains + helpers ever created. */
    int threadCount() const;

    /** Helper threads ever created (persistent once created). */
    int helperCount() const;

    /** Tasks executed across all owned threads (bodies + helpers). */
    std::int64_t tasksExecuted() const;

  private:
    struct Worker;
    struct RunState;

    /** Hands @p task to @p worker (its task slot must be free). */
    void dispatch(Worker& worker, std::function<void()> task);

    /** Pops a parked helper for @p rank or creates a new one. */
    Worker& acquireHelper(int rank);

    /** Returns @p worker to its rank's free list. */
    void releaseHelper(Worker& worker);

    void workerLoop(Worker& worker);

    const int num_ranks_;

    /** Rank main workers, index = rank. */
    std::vector<std::unique_ptr<Worker>> mains_;

    /** Helper pool, all ranks (guarded by pool_mutex_). */
    std::mutex pool_mutex_;
    std::vector<std::unique_ptr<Worker>> helpers_;
    std::vector<std::vector<Worker*>> free_helpers_; ///< per rank
    std::vector<int> busy_helpers_;                  ///< per rank

    std::atomic<int> helper_count_{0};
    std::atomic<std::int64_t> tasks_executed_{0};
};

/**
 * Deadline watchdog for collectives: one lazy long-lived timer thread
 * that, once armed, invokes a caller-supplied expiry callback if the
 * deadline passes before disarm(). The Communicator arms it around
 * every run() with a callback that trips the abort epoch — the
 * host-side analog of NCCL's async error watchdog thread.
 *
 * arm()/disarm() pair per collective; disarm() blocks until any
 * in-flight expiry callback has returned, so the caller can safely
 * inspect fired() and tear down afterwards. Lives in the executor
 * header because executor.cpp is the only translation unit in
 * src/ccl/ allowed to construct std::thread.
 */
class CommWatchdog
{
  public:
    CommWatchdog();

    /** Stops and joins the timer thread (disarms first). */
    ~CommWatchdog();

    CommWatchdog(const CommWatchdog&) = delete;
    CommWatchdog& operator=(const CommWatchdog&) = delete;

    /**
     * Starts a watch: if @p deadline elapses before disarm(),
     * @p on_expire runs once on the watchdog thread. Must not be
     * called while already armed.
     */
    void arm(std::chrono::nanoseconds deadline,
             std::function<void()> on_expire);

    /**
     * Cancels the watch. Blocks until an expiry callback that already
     * started has returned, so after disarm() the callback is either
     * fully done (fired() == true) or will never run.
     */
    void disarm();

    /** Whether the most recent watch expired (callback ran). */
    bool fired() const;

  private:
    void loop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
    std::uint64_t generation_ = 0; ///< bumped by arm/disarm
    bool armed_ = false;
    bool stop_ = false;
    bool callback_running_ = false;
    bool fired_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    std::function<void()> on_expire_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_EXECUTOR_H_
