#include "ccl/state_machine.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "ccl/fault.h"
#include "ccl/mailbox.h"
#include "obs/context.h"
#include "obs/monitor.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/spin_wait.h"

namespace ccube {
namespace ccl {

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * A failed LL op of @p kind on @p box: requeue a pool task (after an
 * abort check), or wait inline on the LL flag like the blocking LL
 * ops.
 */
StepStatus
pollLL(bool pooled, Mailbox& box, Mailbox::OpKind kind)
{
    if (pooled)
        abortPoll();
    else
        box.llAwait(kind);
    return StepStatus::kContinue;
}

} // namespace

/**
 * One run() invocation: the tasks, their shared fault context, and
 * the completion latch. Stack-local to run(); outlives every task of
 * the batch because run() blocks until remaining hits zero.
 */
struct StateMachineEngine::Batch {
    CommFaultContext* fault = nullptr;
    std::vector<std::unique_ptr<RankTask>> tasks;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
};

StateMachineEngine::StateMachineEngine(int num_workers)
    : queues_(static_cast<std::size_t>(num_workers < 1 ? 1
                                                       : num_workers))
{
    const int count = static_cast<int>(queues_.size());
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        workers_.emplace_back([this, i]() { workerLoop(i); });

    // Live engine gauges for obs::Monitor snapshots: pool size,
    // parked/runnable task counts, cumulative park/steal activity.
    monitor_token_ = obs::Monitor::global().addSource(
        [this](double,
               std::vector<std::pair<std::string, double>>& out) {
            out.emplace_back("ccl.sm.workers",
                             static_cast<double>(workerCount()));
            out.emplace_back("ccl.sm.parked",
                             static_cast<double>(parkedNow()));
            out.emplace_back("ccl.sm.runnable",
                             static_cast<double>(runnableNow()));
            out.emplace_back("ccl.sm.parks",
                             static_cast<double>(parks()));
            out.emplace_back("ccl.sm.steals",
                             static_cast<double>(steals()));
        });
}

StateMachineEngine::~StateMachineEngine()
{
    obs::Monitor::global().removeSource(monitor_token_);
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        stop_ = true;
    }
    idle_cv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

StateMachineEngine&
StateMachineEngine::shared()
{
    // Intentionally leaked: communicators may be destroyed during
    // static destruction, after a stack-allocated engine would have
    // been torn down.
    static StateMachineEngine* engine =
        new StateMachineEngine(defaultWorkerCount());
    return *engine;
}

int
StateMachineEngine::defaultWorkerCount()
{
    static const int count = []() {
        if (const char* env = std::getenv("CCUBE_CCL_SM_WORKERS")) {
            const long n = std::strtol(env, nullptr, 10);
            if (n >= 1)
                return static_cast<int>(n);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        const int doubled = static_cast<int>(hw) * 2;
        return doubled < 2 ? 2 : doubled;
    }();
    return count;
}

void
StateMachineEngine::enqueue(RankTask& task)
{
    WorkerQueue& queue =
        queues_[static_cast<std::size_t>(task.home_worker_)];
    {
        std::lock_guard<std::mutex> lock(queue.mutex);
        queue.tasks.push_back(&task);
    }
    {
        // The increment happens under idle_mutex_ so a worker checking
        // the wait predicate can never miss it (decrements are
        // lock-free: a stale positive just causes one empty rescan).
        std::lock_guard<std::mutex> lock(idle_mutex_);
        pending_.fetch_add(1, std::memory_order_relaxed);
    }
    idle_cv_.notify_one();
}

void
StateMachineEngine::wake(RankTask& task)
{
    // Exactly-once handoff: the caller owns the wake (it removed the
    // waiter node from the semaphore list). Exchange tells us whether
    // the parking worker already published kParked — then we schedule
    // — or is still between registration and publication (kParking) —
    // then its failed CAS schedules.
    const int old = task.park_state_.exchange(
        RankTask::kWoken, std::memory_order_acq_rel);
    if (old == RankTask::kParked) {
        parked_now_.fetch_sub(1, std::memory_order_relaxed);
        enqueue(task);
    }
}

void
RankTask::semaphoreReady()
{
    engine_->wake(*this);
}

void
StateMachineEngine::sweepAborted(Batch& batch)
{
    // Claim still-parked tasks of this batch: cancelPark's removal is
    // the ownership handshake, so a racing poster and this sweep can
    // never both schedule the same task. Repeated every poll while
    // aborted, catching tasks that parked after the epoch tripped.
    for (const std::unique_ptr<RankTask>& task : batch.tasks) {
        if (task->park_state_.load(std::memory_order_acquire) !=
            RankTask::kParked)
            continue;
        BoundedSemaphore* sem = task->parked_sem_;
        if (sem != nullptr && sem->cancelPark(*task))
            wake(*task);
    }
}

RankTask*
StateMachineEngine::tryPop(int index, bool* stolen)
{
    WorkerQueue& own = queues_[static_cast<std::size_t>(index)];
    {
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            RankTask* task = own.tasks.front();
            own.tasks.pop_front();
            *stolen = false;
            return task;
        }
    }
    const int count = static_cast<int>(queues_.size());
    obs::ScopedProfPhase prof(obs::ProfPhase::kSteal, -1);
    for (int offset = 1; offset < count; ++offset) {
        WorkerQueue& victim =
            queues_[static_cast<std::size_t>((index + offset) % count)];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            // Thieves take the back — the task least likely to be
            // cache-warm on the victim.
            RankTask* task = victim.tasks.back();
            victim.tasks.pop_back();
            *stolen = true;
            return task;
        }
    }
    return nullptr;
}

void
StateMachineEngine::workerLoop(int index)
{
    obs::setThreadRank(-1);
    obs::labelThread(
        ("sm worker " + std::to_string(index)).c_str());
    while (true) {
        bool stolen = false;
        RankTask* task = tryPop(index, &stolen);
        if (task != nullptr) {
            pending_.fetch_sub(1, std::memory_order_relaxed);
            runTask(*task, index, stolen);
            continue;
        }
        obs::ScopedProfPhase prof(obs::ProfPhase::kIdle, -1);
        std::unique_lock<std::mutex> lock(idle_mutex_);
        if (stop_)
            return;
        idle_cv_.wait(lock, [this]() {
            return stop_ ||
                   pending_.load(std::memory_order_relaxed) > 0;
        });
        if (stop_ &&
            pending_.load(std::memory_order_relaxed) == 0)
            return;
    }
}

void
StateMachineEngine::runTask(RankTask& task, int worker, bool stolen)
{
    Batch* batch = task.batch_;
    task.park_state_.store(RankTask::kRunning,
                           std::memory_order_relaxed);
    // The resumed task inherits this worker, keeping its queue
    // affinity where it last ran.
    task.home_worker_ = worker;

    obs::setThreadRank(task.rank());
    ScopedFaultContext fault_scope(batch->fault);
    obs::RankCounters& counters = obs::RankCounters::global();
    if (stolen) {
        counters.addSmSteal();
        steals_.fetch_add(1, std::memory_order_relaxed);
    }
    if (task.resuming_) {
        task.resuming_ = false;
        counters.addSmResume();
        resumes_.fetch_add(1, std::memory_order_relaxed);
        if (batch->fault != nullptr)
            batch->fault->noteWaitEnd();
        // Exact parked-time attribution: a parked task occupies no
        // thread, so the sampler can't see it — the resume edge
        // measures the episode instead.
        if (task.park_begin_ns_ != 0) {
            const std::uint64_t now = steadyNowNs();
            if (now > task.park_begin_ns_)
                obs::Profiler::global().addParkedNs(
                    task.rank(), now - task.park_begin_ns_);
            task.park_begin_ns_ = 0;
        }
    }

    StepStatus status;
    try {
        // Abort/deadline check at every resume point — the state-
        // machine analog of the bounded spins' periodic abortPoll.
        abortPoll();
        steps_.fetch_add(1, std::memory_order_relaxed);
        StepContext ctx(this, task);
        obs::ScopedProfPhase prof(obs::ProfPhase::kStep, task.rank());
        status = task.step(ctx);
    } catch (...) {
        obs::setThreadRank(-1);
        finishTask(task, std::current_exception());
        return;
    }
    obs::setThreadRank(-1);

    switch (status) {
      case StepStatus::kDone:
        counters.addExecutorTask();
        finishTask(task, nullptr);
        return;
      case StepStatus::kContinue:
        enqueue(task);
        return;
      case StepStatus::kParked: {
        int expected = RankTask::kParking;
        if (task.park_state_.compare_exchange_strong(
                expected, RankTask::kParked,
                std::memory_order_acq_rel)) {
            // Parked for real; a poster (or the abort sweep) owns the
            // resume now.
            return;
        }
        // The waker beat our publication (state is kWoken): it left
        // the requeue to us.
        parked_now_.fetch_sub(1, std::memory_order_relaxed);
        enqueue(task);
        return;
      }
    }
}

void
StateMachineEngine::finishTask(RankTask& task, std::exception_ptr error)
{
    Batch* batch = task.batch_;
    std::lock_guard<std::mutex> lock(batch->mutex);
    if (error && !batch->error)
        batch->error = error;
    if (--batch->remaining == 0)
        batch->cv.notify_all();
}

void
StateMachineEngine::run(std::vector<std::unique_ptr<RankTask>> tasks,
                        CommFaultContext* fault)
{
    if (tasks.empty())
        return;

    Batch batch;
    batch.fault = fault;
    batch.tasks = std::move(tasks);
    batch.remaining = batch.tasks.size();

    const int worker_count = workerCount();
    int next_worker = 0;
    for (const std::unique_ptr<RankTask>& task : batch.tasks) {
        task->engine_ = this;
        task->batch_ = &batch;
        task->park_state_.store(RankTask::kRunning,
                                std::memory_order_relaxed);
        task->resuming_ = false;
        // Initial placement: round-robin over the pool; after that a
        // task sticks to the worker it last ran on (minus steals).
        task->home_worker_ = next_worker;
        next_worker = (next_worker + 1) % worker_count;
    }
    for (const std::unique_ptr<RankTask>& task : batch.tasks)
        enqueue(*task);

    std::unique_lock<std::mutex> lock(batch.mutex);
    while (batch.remaining > 0) {
        batch.cv.wait_for(lock, std::chrono::milliseconds(1));
        if (fault != nullptr && fault->abortState().aborted()) {
            // A watchdog or manual abort tripped the epoch: wake the
            // batch's parked tasks so their next step unwinds with
            // AbortedWait instead of waiting for a post that will
            // never come.
            lock.unlock();
            sweepAborted(batch);
            lock.lock();
        }
    }
    if (batch.error)
        std::rethrow_exception(batch.error);
}

void
RankTask::runToCompletion()
{
    // Every blocked op waits inline, so step() only ever returns
    // kContinue (progress made, or the awaited chunk/slot is there)
    // until the protocol is done.
    StepContext ctx(nullptr, *this);
    while (step(ctx) != StepStatus::kDone) {
    }
}

StepStatus
StepContext::awaitArrival(Mailbox& box, Protocol proto)
{
    if (proto == Protocol::kLL)
        return pollLL(engine_ != nullptr, box, Mailbox::OpKind::kRecv);
    // Waiting on a chunk arrival = waiting on the producer rank.
    return parkOn(box.arrivalSemaphore(), box.traceLabel().c_str(),
                  box.flowId(), box.srcRank());
}

StepStatus
StepContext::awaitFreeSlot(Mailbox& box, Protocol proto)
{
    if (proto == Protocol::kLL)
        return pollLL(engine_ != nullptr, box, Mailbox::OpKind::kSend);
    // Waiting on a free receive buffer = waiting on the consumer.
    if (engine_ == nullptr)
        obs::RankCounters::global().addSlotFullStall();
    return parkOn(box.freeSlotSemaphore(), box.traceLabel().c_str(),
                  box.flowId(), box.dstRank());
}

StepStatus
StepContext::parkOn(BoundedSemaphore& sem, const char* label, int flow,
                    int peer)
{
    if (engine_ == nullptr) {
        // A dedicated thread blocks as BoundedSemaphore::wait() does,
        // then retries the op.
        obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxWait);
        CommFaultContext* fault = CommFaultContext::current();
        if (fault != nullptr)
            fault->noteWaitBegin(label, flow, peer);
        sem.waitNonzero();
        if (fault != nullptr)
            fault->noteWaitEnd();
        return StepStatus::kContinue;
    }
    // Small-message fast path: while the pool has nothing else to run,
    // a bounded spin beats the park/resume round trip (PR 2 measured
    // the pure-spin protocol at a few microseconds per chunk). Under
    // load — more runnable tasks than workers — park immediately and
    // let the queue drain.
    if (engine_->runnableNow() <= engine_->workerCount()) {
        util::SpinWait spin;
        while (!spin.shouldPark()) {
            spin.once([]() { abortPoll(); });
            if (sem.value() > 0)
                return StepStatus::kContinue;
        }
    }

    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->noteWaitBegin(label, flow, peer);
    task_.park_state_.store(RankTask::kParking,
                            std::memory_order_relaxed);
    task_.parked_sem_ = &sem;
    task_.park_begin_ns_ = steadyNowNs();
    if (!sem.parkOnWait(task_)) {
        // The condition turned true between the failed try* and the
        // registration recheck: abandon the park and retry the op.
        task_.park_state_.store(RankTask::kRunning,
                                std::memory_order_relaxed);
        task_.park_begin_ns_ = 0;
        if (fault != nullptr)
            fault->noteWaitEnd();
        return StepStatus::kContinue;
    }
    // Registered. The wait-site label stays published while parked so
    // a deadline overrun blames this rank at this mailbox (the resume
    // path clears it). The worker publishes kParked on return.
    task_.resuming_ = true;
    obs::RankCounters::global().addSmPark();
    engine_->parks_.fetch_add(1, std::memory_order_relaxed);
    engine_->parked_now_.fetch_add(1, std::memory_order_relaxed);
    return StepStatus::kParked;
}

int
StepContext::traceTrack() const
{
    return engine_ == nullptr ? obs::threadTrack() : 0;
}

} // namespace ccl
} // namespace ccube
