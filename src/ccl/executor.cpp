#include "ccl/executor.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "ccl/fault.h"
#include "ccl/state_machine.h"
#include "obs/context.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

namespace {

/** Writes "rank<r>/<role>" into @p buf. */
void
formatRole(char* buf, std::size_t len, int rank, const char* role)
{
    std::snprintf(buf, len, "rank%d/%s", rank, role);
}

} // namespace

/**
 * One owned thread: a task slot guarded by a mutex/condvar. The thread
 * parks on the condvar between tasks — the host-side stand-in for a
 * persistent kernel spinning on its semaphore.
 */
struct RankExecutor::Worker {
    Worker(RankExecutor& owner_in, int rank_in)
        : owner(owner_in), rank(rank_in)
    {
    }

    RankExecutor& owner;
    const int rank;

    std::mutex mutex;
    std::condition_variable cv;
    std::function<void()> task;
    bool stop = false;

    std::thread thread;
};

/** Join state of one run(): a latch plus the first exception. */
struct RankExecutor::RunState {
    std::mutex mutex;
    std::condition_variable cv;
    int remaining = 0;
    std::exception_ptr error;

    void
    finish(std::exception_ptr err)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (err && !error)
            error = err;
        if (--remaining == 0)
            cv.notify_all();
    }
};

RankExecutor::Mode
RankExecutor::defaultMode()
{
    static const Mode mode =
        parseMode(std::getenv("CCUBE_CCL_EXECUTOR"));
    return mode;
}

RankExecutor::Mode
RankExecutor::parseMode(const char* name)
{
    if (name == nullptr || *name == '\0')
        return Mode::kPersistent;
    if (std::strcmp(name, "statemachine") == 0 ||
        std::strcmp(name, "sm") == 0)
        return Mode::kStateMachine;
    util::logWarn("ccl", std::string("unknown CCUBE_CCL_EXECUTOR "
                                     "value '") +
                             name +
                             "' (accepted: statemachine, sm, or "
                             "unset); using the persistent engine");
    return Mode::kPersistent;
}

RankExecutor::Group::~Group()
{
    // A group abandoned without wait() would let helpers signal a dead
    // object; waiting here keeps misuse safe. Errors were either
    // observed by an explicit wait() or are swallowed (dtors must not
    // throw).
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&]() { return pending_ == 0; });
}

void
RankExecutor::Group::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&]() { return pending_ == 0; });
    if (error_) {
        std::exception_ptr err = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

RankExecutor::RankExecutor(int num_ranks)
    : num_ranks_(num_ranks),
      free_helpers_(static_cast<std::size_t>(num_ranks)),
      busy_helpers_(static_cast<std::size_t>(num_ranks), 0)
{
    CCUBE_CHECK(num_ranks >= 1, "executor needs at least one rank");
    mains_.reserve(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
        mains_.push_back(std::make_unique<Worker>(*this, r));
        Worker& worker = *mains_.back();
        worker.thread =
            std::thread([this, &worker]() { workerLoop(worker); });
    }
}

RankExecutor::~RankExecutor()
{
    auto stopWorker = [](Worker& worker) {
        {
            std::lock_guard<std::mutex> lock(worker.mutex);
            worker.stop = true;
        }
        worker.cv.notify_one();
        if (worker.thread.joinable())
            worker.thread.join();
    };
    for (auto& worker : mains_)
        stopWorker(*worker);
    for (auto& worker : helpers_)
        stopWorker(*worker);
}

void
RankExecutor::workerLoop(Worker& worker)
{
    obs::setThreadRank(worker.rank);
    obs::RankCounters& counters = obs::RankCounters::global();
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(worker.mutex);
            if (!worker.task && !worker.stop) {
                counters.addExecutorPark();
                worker.cv.wait(lock, [&]() {
                    return worker.task || worker.stop;
                });
                counters.addExecutorUnpark();
            }
            if (worker.task) {
                task = std::move(worker.task);
                worker.task = nullptr;
            } else if (worker.stop) {
                return;
            }
        }
        if (task) {
            // Counted before the body so a finished run()/Group::wait()
            // (whose latch fires inside the task) never observes a
            // stale count.
            tasks_executed_.fetch_add(1, std::memory_order_relaxed);
            task();
        }
    }
}

void
RankExecutor::dispatch(Worker& worker, std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(worker.mutex);
        CCUBE_CHECK(!worker.task,
                    "executor worker for rank " << worker.rank
                                                << " already busy");
        worker.task = std::move(task);
    }
    worker.cv.notify_one();
}

void
RankExecutor::run(const std::function<void(int rank)>& body)
{
    CCUBE_CHECK(body, "executor run() needs a body");
    RunState state;
    state.remaining = num_ranks_;

    auto makeTask = [this, &state, &body](int r) {
        // &body and &state outlive the task: run() blocks on the latch
        // until every rank body has finished.
        return [this, &state, &body, r]() {
            obs::setThreadRank(r);
            char label[32];
            formatRole(label, sizeof(label), r, "main");
            obs::labelThread(label);
            obs::RankCounters::global().addExecutorTask();
            std::exception_ptr err;
            try {
                body(r);
            } catch (...) {
                err = std::current_exception();
            }
            state.finish(err);
        };
    };

    for (int r = 0; r < num_ranks_; ++r)
        dispatch(*mains_[static_cast<std::size_t>(r)], makeTask(r));

    std::unique_lock<std::mutex> lock(state.mutex);
    state.cv.wait(lock, [&]() { return state.remaining == 0; });
    if (state.error)
        std::rethrow_exception(state.error);
}

void
RankExecutor::runTasks(std::vector<std::unique_ptr<RankTask>> tasks,
                       CommFaultContext* fault)
{
    // Group the tasks by rank on this thread, which just built them
    // and still has them in cache: rank r's slice of `order` is
    // [first[r], first[r+1]), its main pipeline first, then the rest
    // in build order. A rank thread then reads only its own slice
    // instead of scanning every task of the collective.
    std::vector<int> first(static_cast<std::size_t>(num_ranks_) + 1, 0);
    for (const std::unique_ptr<RankTask>& task : tasks) {
        CCUBE_CHECK(task->rank() >= 0 && task->rank() < num_ranks_,
                    "task for bad rank " << task->rank());
        ++first[static_cast<std::size_t>(task->rank()) + 1];
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(num_ranks_); ++r)
        first[r + 1] += first[r];
    std::vector<RankTask*> order(tasks.size(), nullptr);
    for (const std::unique_ptr<RankTask>& task : tasks) {
        if (!task->isMain())
            continue;
        RankTask*& slot =
            order[static_cast<std::size_t>(first[static_cast<std::size_t>(
                task->rank())])];
        CCUBE_CHECK(slot == nullptr,
                    "rank " << task->rank() << " has two main pipelines");
        slot = task.get();
    }
    std::vector<int> next(first.begin(), first.end() - 1);
    for (std::size_t r = 0; r < next.size(); ++r) {
        if (first[r] == first[r + 1])
            continue;
        CCUBE_CHECK(order[static_cast<std::size_t>(first[r])] != nullptr,
                    "rank " << r << " has no main pipeline");
        ++next[r];
    }
    for (const std::unique_ptr<RankTask>& task : tasks)
        if (!task->isMain())
            order[static_cast<std::size_t>(
                next[static_cast<std::size_t>(task->rank())]++)] =
                task.get();

    run([this, &order, &first, fault](int rank) {
        const int begin = first[static_cast<std::size_t>(rank)];
        const int end = first[static_cast<std::size_t>(rank) + 1];
        if (begin == end)
            return;
        // Helpers inherit this context through submit().
        ScopedFaultContext fault_scope(fault);
        // Declared before the main task runs: if it throws (abort), the
        // group's destructor joins the helpers before the tasks they
        // drive can be freed.
        Group helpers;
        for (int i = begin + 1; i < end; ++i) {
            RankTask* task = order[static_cast<std::size_t>(i)];
            submit(helpers, rank, task->role(),
                   [task]() { task->runToCompletion(); });
        }
        order[static_cast<std::size_t>(begin)]->runToCompletion();
        helpers.wait();
    });
}

RankExecutor::Worker&
RankExecutor::acquireHelper(int rank)
{
    std::lock_guard<std::mutex> lock(pool_mutex_);
    auto& free = free_helpers_[static_cast<std::size_t>(rank)];
    Worker* worker = nullptr;
    if (!free.empty()) {
        worker = free.back();
        free.pop_back();
    } else {
        helpers_.push_back(std::make_unique<Worker>(*this, rank));
        worker = helpers_.back().get();
        worker->thread =
            std::thread([this, worker]() { workerLoop(*worker); });
        helper_count_.fetch_add(1, std::memory_order_relaxed);
    }
    const int busy = ++busy_helpers_[static_cast<std::size_t>(rank)];
    obs::RankCounters::global().noteExecutorQueueDepth(
        rank, static_cast<std::uint64_t>(busy));
    return *worker;
}

void
RankExecutor::releaseHelper(Worker& worker)
{
    std::lock_guard<std::mutex> lock(pool_mutex_);
    free_helpers_[static_cast<std::size_t>(worker.rank)].push_back(
        &worker);
    --busy_helpers_[static_cast<std::size_t>(worker.rank)];
}

void
RankExecutor::submit(Group& group, int rank, const char* role,
                     std::function<void()> fn)
{
    CCUBE_CHECK(rank >= 0 && rank < num_ranks_,
                "bad helper rank " << rank);
    CCUBE_CHECK(fn, "executor submit() needs a task");
    // Helpers inherit the submitting thread's fault context so their
    // spins observe the same abort epoch as the rank body that spawned
    // them (otherwise an abort would unpark the mains but leave
    // forwarding helpers wedged).
    CommFaultContext* fault_ctx = CommFaultContext::current();
    {
        std::lock_guard<std::mutex> lock(group.mutex_);
        ++group.pending_;
    }

    auto finish = [&group](std::exception_ptr err) {
        std::lock_guard<std::mutex> lock(group.mutex_);
        if (err && !group.error_)
            group.error_ = err;
        if (--group.pending_ == 0)
            group.cv_.notify_all();
    };

    Worker& worker = acquireHelper(rank);
    dispatch(worker, [this, &worker, rank, role, fn = std::move(fn),
                      finish, fault_ctx]() {
        obs::setThreadRank(rank);
        ScopedFaultContext fault_scope(fault_ctx);
        char label[32];
        formatRole(label, sizeof(label), rank, role);
        obs::labelThread(label);
        obs::RankCounters::global().addExecutorTask();
        std::exception_ptr err;
        try {
            fn();
        } catch (...) {
            err = std::current_exception();
        }
        // Return to the pool before releasing the waiter so a
        // follow-up collective finds this thread free (no growth).
        releaseHelper(worker);
        finish(err);
    });
}

int
RankExecutor::threadCount() const
{
    return static_cast<int>(mains_.size()) +
           helper_count_.load(std::memory_order_relaxed);
}

int
RankExecutor::helperCount() const
{
    return helper_count_.load(std::memory_order_relaxed);
}

std::int64_t
RankExecutor::tasksExecuted() const
{
    return tasks_executed_.load(std::memory_order_relaxed);
}

CommWatchdog::CommWatchdog()
{
    thread_ = std::thread([this]() { loop(); });
}

CommWatchdog::~CommWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        armed_ = false;
        stop_ = true;
        ++generation_;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
CommWatchdog::arm(std::chrono::nanoseconds deadline,
                  std::function<void()> on_expire)
{
    CCUBE_CHECK(on_expire, "watchdog needs an expiry callback");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CCUBE_CHECK(!armed_, "watchdog already armed");
        armed_ = true;
        fired_ = false;
        ++generation_;
        deadline_ = std::chrono::steady_clock::now() + deadline;
        on_expire_ = std::move(on_expire);
    }
    cv_.notify_all();
}

void
CommWatchdog::disarm()
{
    std::unique_lock<std::mutex> lock(mutex_);
    armed_ = false;
    ++generation_;
    cv_.notify_all();
    // An expiry callback that already started keeps running without
    // the lock; wait it out so the caller can rely on fired() and on
    // the callback's side effects being complete.
    cv_.wait(lock, [&]() { return !callback_running_; });
}

bool
CommWatchdog::fired() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fired_;
}

void
CommWatchdog::loop()
{
    obs::labelThread("watchdog");
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [&]() { return armed_ || stop_; });
        if (stop_)
            return;
        const std::uint64_t generation = generation_;
        const auto deadline = deadline_;
        const bool expired = !cv_.wait_until(lock, deadline, [&]() {
            return generation_ != generation || stop_;
        });
        if (!expired)
            continue; // disarmed (or stopping) before the deadline
        // Deadline passed while still armed: run the callback without
        // the lock so it may take other locks (abort state, tracing).
        std::function<void()> callback = std::move(on_expire_);
        on_expire_ = nullptr;
        armed_ = false;
        fired_ = true;
        callback_running_ = true;
        lock.unlock();
        callback();
        lock.lock();
        callback_running_ = false;
        cv_.notify_all();
    }
}

} // namespace ccl
} // namespace ccube
