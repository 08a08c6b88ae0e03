#include "ccl/communicator.h"

#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "ccl/state_machine.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

Communicator::Communicator(int num_ranks, int mailbox_slots,
                           RankExecutor::Mode exec_mode)
    : num_ranks_(num_ranks),
      mailbox_slots_(mailbox_slots),
      exec_mode_(exec_mode),
      table_(static_cast<std::size_t>(num_ranks) *
             static_cast<std::size_t>(num_ranks) * kMaxFlows),
      fault_(num_ranks)
{
    CCUBE_CHECK(num_ranks >= 1, "need at least one rank");
    CCUBE_CHECK(mailbox_slots >= 1, "need at least one mailbox slot");
    for (auto& entry : table_)
        entry.store(nullptr, std::memory_order_relaxed);
}

Communicator::~Communicator() = default;

std::size_t
Communicator::tableIndex(int src, int dst, FlowId flow) const
{
    return (static_cast<std::size_t>(src) *
                static_cast<std::size_t>(num_ranks_) +
            static_cast<std::size_t>(dst)) *
               kMaxFlows +
           static_cast<std::size_t>(flow);
}

Mailbox&
Communicator::mailbox(int src, int dst, FlowId flow)
{
    CCUBE_CHECK(src >= 0 && src < num_ranks_, "bad src rank " << src);
    CCUBE_CHECK(dst >= 0 && dst < num_ranks_, "bad dst rank " << dst);
    CCUBE_CHECK(src != dst, "no self mailboxes");
    CCUBE_CHECK(flow >= 0 && flow < kMaxFlows,
                "flow id " << flow << " out of range (max "
                           << kMaxFlows - 1 << ")");
    std::atomic<Mailbox*>& entry = table_[tableIndex(src, dst, flow)];
    // Fast path: one acquire load on an already-built channel.
    if (Mailbox* box = entry.load(std::memory_order_acquire))
        return *box;
    std::lock_guard<std::mutex> guard(create_mutex_);
    if (Mailbox* box = entry.load(std::memory_order_acquire))
        return *box;
    owned_.push_back(std::make_unique<Mailbox>(mailbox_slots_));
    Mailbox* box = owned_.back().get();
    box->setTraceLabel("mb " + std::to_string(src) + "->" +
                       std::to_string(dst) + "/f" +
                       std::to_string(flow));
    box->setFlowId(flow);
    box->setEndpoints(src, dst);
    entry.store(box, std::memory_order_release);
    return *box;
}

RankExecutor&
Communicator::executor()
{
    std::call_once(executor_once_, [this]() {
        executor_ = std::make_unique<RankExecutor>(num_ranks_);
    });
    return *executor_;
}

std::chrono::nanoseconds
Communicator::defaultDeadline()
{
    static const std::chrono::nanoseconds deadline = []() {
        const char* env = std::getenv("CCUBE_CCL_DEADLINE_MS");
        if (env == nullptr)
            return std::chrono::nanoseconds{0};
        const long ms = std::strtol(env, nullptr, 10);
        if (ms <= 0)
            return std::chrono::nanoseconds{0};
        return std::chrono::nanoseconds{
            std::chrono::milliseconds{ms}};
    }();
    return deadline;
}

void
Communicator::setDeadline(std::chrono::nanoseconds deadline)
{
    deadline_ = deadline;
}

void
Communicator::setFaultInjector(FaultInjector* injector)
{
    fault_.setInjector(injector);
}

void
Communicator::abort(CollectiveError::Info info)
{
    if (info.op.empty())
        info.op = fault_.currentOp();
    if (!fault_.abortState().trip(std::move(info)))
        return; // already aborted this generation
    const CollectiveError::Info& stored = fault_.abortState().info();
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        // Carry the wait-for chain verdict on the abort instant so
        // post-mortem analysis (obs::diff) can name the chain
        // terminus, not just the blamed channel endpoint.
        obs::TraceEvent event;
        event.name = "ccl.abort";
        event.cat = "ccl.fault";
        event.phase = 'i';
        event.pid = obs::pids::cclRank(stored.failed_rank);
        event.tid = 0;
        event.ts_us = recorder.wallNowUs();
        if (stored.chain_terminus >= 0) {
            event.args.emplace_back(
                "terminus",
                static_cast<double>(stored.chain_terminus));
            event.args.emplace_back(
                "chain_len", static_cast<double>(stored.chain_len));
        }
        recorder.record(std::move(event));
    }
    if (!stored.stall_chain.empty())
        util::logWarn("ccl", formatStallReport(stored));
    obs::MetricRegistry::global().addCounter("ccl.aborts", 1.0);
    obs::Monitor& monitor = obs::Monitor::global();
    if (monitor.enabled())
        monitor.noteWatchdogTrip(stored.failed_rank);
    std::ostringstream msg;
    msg << "aborting collective: " << CollectiveError(stored).what();
    util::logWarn("ccl", msg.str());
}

void
Communicator::setClearAbortHook(std::function<void()> hook)
{
    clear_abort_hook_ = std::move(hook);
}

void
Communicator::clearAbort()
{
    // By the time an abort surfaces, run() has joined every rank and
    // helper, so the mailboxes are quiescent — but they may still hold
    // chunks the dead collective posted and never consumed. Flush them
    // so the next collective starts from a clean channel state.
    //
    // The flush-then-clear pair is epoch-checked: capture the epoch
    // AND the trip-attempt count, flush, and clear only if that exact
    // generation is still live and untouched. An abort() racing in
    // between (it is callable from any thread) either advances the
    // epoch or — when it loses first-trip-wins on the already-tripped
    // generation — bumps the attempt count; both fail the conditional
    // clear and the loop flushes again. clearAbort() never retires a
    // generation it did not flush for, and never leaves a stale
    // tripped generation behind.
    for (;;) {
        const std::uint64_t observed_attempts =
            fault_.abortState().tripAttempts();
        const std::uint64_t observed = fault_.abortState().epoch();
        {
            std::lock_guard<std::mutex> guard(create_mutex_);
            for (const std::unique_ptr<Mailbox>& box : owned_)
                box->reset();
        }
        if (clear_abort_hook_)
            clear_abort_hook_();
        if (fault_.abortState().clearIfEpoch(observed,
                                             observed_attempts))
            return;
    }
}

namespace {

/** One counter per (protocol) so traces/benchmarks can confirm which
 *  wire protocol a collective actually ran (the tuner's pick under
 *  kAuto is otherwise invisible from outside). */
void
noteProtocol(Protocol proto)
{
    obs::MetricRegistry::global().addCounter(
        std::string("ccl.proto.") + protocolName(proto), 1.0);
}

} // namespace

void
Communicator::run(const std::function<void(int rank)>& body,
                  const char* op, Protocol proto)
{
    noteProtocol(proto);
    runEnvelope(op, [this, &body]() {
        executor().run([this, &body](int rank) {
            // Rank bodies (and, transitively, the helpers they submit)
            // observe this communicator's abort epoch.
            ScopedFaultContext fault_scope(&fault_);
            body(rank);
        });
    });
}

void
Communicator::runTasks(std::vector<std::unique_ptr<RankTask>> tasks,
                       const char* op, Protocol proto)
{
    noteProtocol(proto);
    // Either engine installs the fault context itself: the pool around
    // every step (tasks migrate across workers), the executor on every
    // thread it drives a task on.
    runEnvelope(op, [this, &tasks]() {
        if (exec_mode_ == RankExecutor::Mode::kStateMachine)
            StateMachineEngine::shared().run(std::move(tasks), &fault_);
        else
            executor().runTasks(std::move(tasks), &fault_);
    });
}

void
Communicator::runEnvelope(const char* op,
                          const std::function<void()>& launch)
{
    // A tripped epoch poisons the communicator until clearAbort(),
    // mirroring NCCL's post-abort semantics.
    if (fault_.abortState().aborted())
        throw CollectiveError(fault_.abortState().info());

    fault_.beginCollective(op);

    // Live-monitor collective edge: wall-clock latency of the whole
    // collective (all ranks), fed to the SLO engine. Run ordinal 0
    // marks wall-clock (non-deterministic) series entries.
    obs::Monitor& monitor = obs::Monitor::global();
    const bool monitored = monitor.enabled();
    const auto wall_start = std::chrono::steady_clock::now();

    CommWatchdog* watchdog = nullptr;
    const std::chrono::nanoseconds deadline = deadline_;
    if (deadline.count() > 0) {
        std::call_once(watchdog_once_, [this]() {
            watchdog_ = std::make_unique<CommWatchdog>();
        });
        watchdog = watchdog_.get();
        const double deadline_s =
            std::chrono::duration<double>(deadline).count();
        watchdog->arm(deadline, [this, deadline_s]() {
            // Watchdog thread: snapshot progress, blame the slowest
            // (or injector-killed) rank, trip the epoch so every
            // bounded spin unblocks.
            abort(fault_.deadlineInfo(deadline_s));
        });
    }

    std::exception_ptr err;
    try {
        launch();
    } catch (...) {
        err = std::current_exception();
    }

    if (watchdog != nullptr)
        watchdog->disarm(); // blocks out an in-flight expiry callback
    fault_.endCollective();

    if (monitored) {
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - wall_start;
        const bool completed =
            !fault_.abortState().aborted() && err == nullptr;
        monitor.collectiveComplete(op, 0.0, wall.count(), 0.0,
                                   completed);
    }

    // Abort wins over the underlying exception (which is typically the
    // AbortedWait/RankKilled that the abort itself provoked): callers
    // get one structured error with the blame attached.
    if (fault_.abortState().aborted())
        throw CollectiveError(fault_.abortState().info());
    if (err)
        std::rethrow_exception(err);
}

void
Communicator::barrier()
{
    obs::ScopedSpan span("barrier", "ccl.sync",
                         obs::pids::cclRank(obs::threadRank()),
                         obs::threadTrack());
    const int sense = barrier_sense_.load(std::memory_order_acquire);
    if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) ==
        num_ranks_ - 1) {
        barrier_count_.store(0, std::memory_order_relaxed);
        barrier_sense_.store(1 - sense, std::memory_order_release);
    } else {
        while (barrier_sense_.load(std::memory_order_acquire) ==
               sense) {
            abortPoll(); // a dead peer must not wedge the barrier
            std::this_thread::yield();
        }
    }
}

} // namespace ccl
} // namespace ccube
