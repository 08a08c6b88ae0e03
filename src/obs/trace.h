#ifndef CCUBE_OBS_TRACE_H_
#define CCUBE_OBS_TRACE_H_

/**
 * @file
 * Chrome/Perfetto trace recording — the unified span substrate for
 * all three execution layers.
 *
 * Emits the `trace_event` JSON format (`ph:"X"` complete events plus
 * process/thread metadata) that `chrome://tracing` and Perfetto load
 * directly. Producers are grouped into pid namespaces:
 *
 *   - `pids::simNode(n)`  — DES network nodes; spans carry *simulated*
 *     time (channel occupancy, queue wait, multi-hop flows);
 *   - `pids::cclRank(r)`  — functional-runtime rank threads; spans
 *     carry *wall-clock* time since the recorder was enabled (mailbox
 *     post/wait, allreduce roles, barrier);
 *   - `pids::core()`      — analytic iteration timelines (backward /
 *     allreduce-chunk / forward phases, trainer iterations).
 *
 * Successive DES runs all start at simulated t = 0; the recorder keeps
 * a *sim epoch offset* that callers advance between runs so each run
 * lands after the previous one on the trace timeline.
 *
 * Overhead discipline: every producer checks `enabled()` (one relaxed
 * atomic load) before building an event; a disabled recorder costs one
 * branch per call site and records nothing.
 *
 * Memory discipline: retention is bounded. Events land in one store
 * of at most `capacity()` events (setCapacity() or the
 * CCUBE_TRACE_CAPACITY environment variable) that keeps either the
 * head of the run — events past the cap are dropped — or, in flight
 * mode (setFlightCapacity()), the tail: a ring that evicts the oldest
 * event, the always-on "flight recorder" capture that cannot OOM and
 * keeps the part of a run that explains a hang. Either way the events
 * lost are counted in droppedEvents().
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccube {
namespace obs {

class MetricRegistry;

/** Pid namespaces separating the three producer layers in the UI. */
namespace pids {

/** Analytic iteration timeline (core::). */
constexpr int core() { return 1; }

/** DES network node @p node (simnet::). */
constexpr int simNode(int node) { return 100 + node; }

/** Functional-runtime rank @p rank (ccl::). */
constexpr int cclRank(int rank) { return 1000 + rank; }

} // namespace pids

/** Track (tid) used for multi-hop flow spans within a sim-node pid;
 *  channel occupancy spans use the channel id itself (small ints). */
constexpr int kFlowTrackBase = 1000;

/** One recorded event (complete span or instant). */
struct TraceEvent {
    std::string name;
    std::string cat;
    char phase = 'X'; ///< 'X' complete, 'i' instant
    int pid = 0;
    int tid = 0;
    double ts_us = 0.0;  ///< start, microseconds
    double dur_us = 0.0; ///< duration, microseconds ('X' only)
    std::vector<std::pair<std::string, double>> args;
};

/**
 * Thread-safe span/event recorder with Chrome trace JSON export.
 */
class TraceRecorder
{
  public:
    /** Default event cap when CCUBE_TRACE_CAPACITY is not set. */
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    TraceRecorder();
    ~TraceRecorder();
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /**
     * The recorder the instrumentation hooks feed: the process-wide
     * instance, unless the calling thread has an active
     * ScopedTraceRedirect — the mechanism the sweep runner uses to give
     * each parallel task a private capture that is later absorb()ed
     * into the parent in deterministic task order.
     */
    static TraceRecorder& global();

    /** The process-wide instance, ignoring any thread redirect. */
    static TraceRecorder& process();

    /**
     * Merges @p other into this recorder as if its events had been
     * recorded here sequentially after everything recorded so far:
     * event timestamps are shifted by this recorder's current sim
     * epoch offset, process/thread names are adopted (theirs win on
     * collision, matching later-run-overwrites semantics), the drop
     * count is added, and this recorder's sim epoch advances by
     * @p other's accumulated offset. Ignores the enabled() gate; the
     * retention cap still applies. @p other is left unchanged.
     */
    void absorb(const TraceRecorder& other);

    /** Starts recording; resets the wall-clock epoch. */
    void enable();

    /** Stops recording (already-recorded events are kept). */
    void disable();

    /** True while recording. Producers gate on this before building
     *  events — the disabled cost is this single relaxed load. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Wall-clock microseconds since enable() (0 when disabled). */
    double wallNowUs() const;

    /** Records a complete ('X') span. Timestamps in microseconds;
     *  the caller owns the time domain (simulated or wall-clock). */
    void completeEvent(
        std::string_view name, std::string_view cat, int pid, int tid,
        double ts_us, double dur_us,
        std::initializer_list<std::pair<std::string_view, double>>
            args = {});

    /** Records an instant ('i') event. */
    void instantEvent(std::string_view name, std::string_view cat,
                      int pid, int tid, double ts_us);

    /** Records a fully-built event (producers that batch args). */
    void record(TraceEvent event);

    /** Names a pid group in the trace UI (metadata event). */
    void setProcessName(int pid, std::string_view name);

    /** Names a (pid, tid) track in the trace UI (metadata event). */
    void setThreadName(int pid, int tid, std::string_view name);

    /**
     * Offset (µs) added by DES producers to their simulated
     * timestamps, so that successive simulation runs serialize on the
     * trace timeline instead of stacking at t = 0.
     */
    double simOffsetUs() const;

    /** Advances the sim epoch past @p run_end_us (relative time of the
     *  run's completion). Call once after each simulation run. */
    void advanceSimEpoch(double run_end_us);

    /** Number of recorded events (metadata excluded). */
    std::size_t eventCount() const;

    /** Snapshot of all recorded events (metadata excluded); oldest
     *  first in flight mode. */
    std::vector<TraceEvent> snapshot() const;

    /** Drops all events, metadata, the sim epoch, and the dropped-
     *  event counter (capacity and backend mode are kept). */
    void clear();

    /** Writes `{"traceEvents": [...]}` Chrome trace JSON. */
    void writeJson(std::ostream& out) const;

    /**
     * Caps retained events at @p capacity (≥ 1). Events recorded past
     * the cap are dropped (newest-dropped) and counted. Leaves flight
     * mode if it was active.
     */
    void setCapacity(std::size_t capacity);

    /** Current retention cap (either mode). */
    std::size_t capacity() const;

    /**
     * Switches to flight mode with room for @p capacity events:
     * recording never stops, the *oldest* events are evicted when
     * full. Retained events are kept, oldest evicted first.
     */
    void setFlightCapacity(std::size_t capacity);

    /** True while flight mode (keep the tail) is active. */
    bool flightMode() const;

    /**
     * Events lost to the retention bound: drop-newest rejections in
     * the default mode, ring evictions in flight mode.
     */
    std::uint64_t droppedEvents() const;

    /** Exports `trace.events`, `trace.dropped_events` counters into
     *  @p registry (unconditionally — callers gate on their own). */
    void exportTo(MetricRegistry& registry) const;

  private:
    /** Stores @p event under the retention policy; mutex_ held. */
    void pushLocked(TraceEvent&& event);

    /** Calls @p visit on every retained event, oldest first; mutex_
     *  held. */
    template <typename Visit>
    void forEachLocked(Visit&& visit) const
    {
        for (std::size_t i = 0; i < events_.size(); ++i)
            visit(events_[(head_ + i) % events_.size()]);
    }

    /** Rotates the ring so the oldest event is events_[0]; mutex_
     *  held. */
    void unwrapLocked();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_{};

    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_; ///< grows to capacity_, then wraps
                                     ///< in flight mode
    std::size_t head_ = 0;           ///< oldest event once wrapped
    std::size_t capacity_ = kDefaultCapacity;
    bool keep_tail_ = false; ///< flight mode
    std::uint64_t dropped_ = 0;
    std::map<int, std::string> process_names_;
    std::map<std::pair<int, int>, std::string> thread_names_;
    double sim_offset_us_ = 0.0;
};

/**
 * RAII thread-local redirect: while alive, TraceRecorder::global() on
 * this thread returns @p recorder instead of the process instance.
 * Redirects nest (restores the previous target on destruction); a
 * null recorder is a no-op. This is how sweep::run() gives each
 * worker-thread task a private capture.
 */
class ScopedTraceRedirect
{
  public:
    explicit ScopedTraceRedirect(TraceRecorder* recorder);
    ~ScopedTraceRedirect();

    ScopedTraceRedirect(const ScopedTraceRedirect&) = delete;
    ScopedTraceRedirect& operator=(const ScopedTraceRedirect&) = delete;

  private:
    TraceRecorder* previous_ = nullptr;
    bool active_ = false;
};

/**
 * RAII wall-clock span against a recorder: measures from construction
 * to destruction and records one complete event. A no-op (no clock
 * reads, no allocation) when the recorder is disabled at construction.
 */
class ScopedSpan
{
  public:
    ScopedSpan(TraceRecorder& recorder, std::string_view name,
               std::string_view cat, int pid, int tid);

    /** Convenience: spans the global recorder. */
    ScopedSpan(std::string_view name, std::string_view cat, int pid,
               int tid);

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Attaches a numeric argument to the span (recorded at close). */
    void arg(std::string_view key, double value);

  private:
    TraceRecorder* recorder_ = nullptr; ///< null when disabled
    std::string name_;
    std::string cat_;
    int pid_ = 0;
    int tid_ = 0;
    double start_us_ = 0.0;
    std::vector<std::pair<std::string, double>> args_;
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_TRACE_H_
