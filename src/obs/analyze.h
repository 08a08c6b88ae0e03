#ifndef CCUBE_OBS_ANALYZE_H_
#define CCUBE_OBS_ANALYZE_H_

/**
 * @file
 * Post-hoc trace analysis: turns the raw spans of a TraceRecorder
 * capture (either retention mode) into the observations the paper's
 * argument rests on.
 *
 *  - **Channel timelines / idle detection.** Every `simnet.channel`
 *    occupancy span feeds a per-channel busy timeline; the analyzer
 *    merges intervals and reports utilization and idle gaps over any
 *    window. Aggregating over the down-direction channels of a tree
 *    embedding reproduces Observation #2 mechanically: the baseline
 *    two-phase schedule leaves them idle for the whole reduction
 *    phase, the overlapped (C-Cube) schedule keeps them streaming.
 *
 *  - **Critical-path extraction.** Spans form a dependency DAG:
 *    FIFO order on each (pid, tid) track, DES hand-offs (a transfer
 *    whose request time coincides with another transfer's completion),
 *    and mailbox `post` → `wait` edges matched by label + sequence
 *    number. The longest busy chain through that DAG is the critical
 *    path; its spans are attributed to startup (α), serialization
 *    (βN), synchronization stalls (queue waits, mailbox waits), and
 *    reduction work.
 *
 *  - **α-β fitting.** A least-squares line through the observed
 *    (bytes, occupancy) transfer samples recovers the effective α and
 *    β of the fabric, which callers cross-check against the configured
 *    `model::AlphaBeta` to quantify sim-vs-model divergence.
 *
 * All timestamps are microseconds in the trace time base (simulated or
 * wall-clock — the analyzer is agnostic; mixing domains in one capture
 * is the caller's responsibility). Durations reported by the fit are
 * converted to seconds to match model::AlphaBeta.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "model/alpha_beta.h"
#include "obs/trace.h"

namespace ccube {
namespace obs {

/** Half-open-ish time interval [start_us, end_us], microseconds. */
struct TimeInterval {
    double start_us = 0.0;
    double end_us = 0.0;

    double durationUs() const { return end_us - start_us; }
};

/**
 * Busy timeline of one channel, rebuilt from its occupancy spans.
 */
struct ChannelTimeline {
    int channel = -1;  ///< channel id (the span tid)
    int pid = -1;      ///< owning sim-node pid
    std::string name;  ///< resource name from the span
    std::vector<TimeInterval> busy; ///< merged, time-sorted
    double busy_us = 0.0;           ///< total busy time
    double bytes = 0.0;             ///< total payload carried
    int transfers = 0;              ///< occupancy spans seen

    /** First busy instant (0 when never busy). */
    double firstBusyUs() const;

    /** Last busy instant (0 when never busy). */
    double lastBusyUs() const;

    /** Busy time that falls inside @p window. */
    double busyWithinUs(const TimeInterval& window) const;

    /** Fraction of @p window this channel was busy. */
    double utilization(const TimeInterval& window) const;

    /** Fraction of @p window this channel sat idle. */
    double idleFraction(const TimeInterval& window) const;

    /**
     * Idle intervals inside @p window longer than @p min_gap_us,
     * including the lead-in before the first transfer and the tail
     * after the last one.
     */
    std::vector<TimeInterval> idleIntervals(const TimeInterval& window,
                                            double min_gap_us
                                            = 0.0) const;
};

/** One observed point-to-point transfer (channel occupancy). */
struct TransferSample {
    int channel = -1;
    double ts_us = 0.0;         ///< grant (occupancy start)
    double dur_us = 0.0;        ///< occupancy = α + βN
    double bytes = 0.0;
    double queue_wait_us = 0.0; ///< time between request and grant
};

/**
 * Least-squares fit of occupancy = α + β·bytes over the observed
 * transfers.
 */
struct AlphaBetaFit {
    bool valid = false; ///< needs ≥ 2 distinct transfer sizes
    double alpha_s = 0.0;
    double beta_s_per_byte = 0.0;
    int samples = 0;
    double r2 = 0.0; ///< coefficient of determination

    /** Bandwidth implied by the fitted β (bytes/second). */
    double bandwidth() const
    {
        return beta_s_per_byte > 0.0 ? 1.0 / beta_s_per_byte : 0.0;
    }

    /** As a model parameter set. */
    model::AlphaBeta asModel() const
    {
        return model::AlphaBeta{alpha_s, beta_s_per_byte};
    }

    /** |fit α − reference α| / reference α. */
    double alphaRelError(const model::AlphaBeta& reference) const;

    /** |fit β − reference β| / reference β. */
    double betaRelError(const model::AlphaBeta& reference) const;
};

/** Where a critical-path span's time went. */
enum class CostKind {
    kStartup,       ///< per-transfer α
    kSerialization, ///< βN wire time
    kSyncStall,     ///< queue waits, mailbox/semaphore waits
    kReduction,     ///< reduce compute spans
    kOther,
};

/** Attribution of end-to-end time across cost kinds (microseconds). */
struct CostBreakdown {
    double startup_us = 0.0;
    double serialization_us = 0.0;
    double sync_stall_us = 0.0;
    double reduction_us = 0.0;
    double other_us = 0.0;

    double totalUs() const
    {
        return startup_us + serialization_us + sync_stall_us +
               reduction_us + other_us;
    }
};

/** One span on the critical path plus its dominant attribution. */
struct PathStep {
    TraceEvent span;
    CostKind kind = CostKind::kOther;
    double stall_before_us = 0.0; ///< wait between predecessor and span
};

/** The extracted critical path. */
struct CriticalPath {
    std::vector<PathStep> steps; ///< time-ordered
    CostBreakdown breakdown;
    double start_us = 0.0; ///< first step's (request) time
    double end_us = 0.0;   ///< last step's completion
    double busy_us = 0.0;  ///< sum of step durations

    bool empty() const { return steps.empty(); }
    double spanUs() const { return end_us - start_us; }
};

/**
 * The analysis engine. Construction indexes the events; queries are
 * cheap afterwards. The event vector is typically
 * `TraceRecorder::global().snapshot()`.
 */
class TraceAnalyzer
{
  public:
    explicit TraceAnalyzer(std::vector<TraceEvent> events);

    /** Convenience: analyzes @p recorder's current snapshot. */
    static TraceAnalyzer fromRecorder(const TraceRecorder& recorder);

    /** The events under analysis. */
    const std::vector<TraceEvent>& events() const { return events_; }

    // --- Channel occupancy ------------------------------------------

    /** Timelines of every channel that carried traffic, by id. */
    const std::vector<ChannelTimeline>& channels() const
    {
        return channels_;
    }

    /** Timeline of channel @p id; null when it carried no traffic. */
    const ChannelTimeline* channelById(int channel) const;

    /** [earliest request, latest completion] over all channel spans
     *  (zero interval when the trace has none). The default idle /
     *  utilization window. */
    TimeInterval channelWindow() const { return channel_window_; }

    /**
     * Aggregate idle fraction of @p channel_ids over @p window:
     * 1 − Σbusy / (n·window). Channels absent from the trace (no
     * traffic at all) are skipped; returns 0 when none of the ids
     * carried traffic.
     */
    double idleFraction(const std::vector<int>& channel_ids,
                        const TimeInterval& window) const;

    /** Same, over channelWindow(). */
    double idleFraction(const std::vector<int>& channel_ids) const;

    // --- Transfers and the α-β fit ----------------------------------

    /** Every observed channel occupancy, in trace order. */
    const std::vector<TransferSample>& transfers() const
    {
        return transfers_;
    }

    /** Least-squares α-β fit over transfers(). */
    AlphaBetaFit fitAlphaBeta() const;

    // --- Critical path ----------------------------------------------

    /**
     * Extracts the longest busy chain through the span dependency DAG
     * and attributes it. @p alpha_us is the per-transfer startup used
     * to split channel occupancies into α + βN; pass a negative value
     * to use the fitted α (or 0 when the fit is invalid).
     */
    CriticalPath criticalPath(double alpha_us = -1.0) const;

  private:
    std::vector<TraceEvent> events_;
    std::vector<ChannelTimeline> channels_; ///< sorted by channel id
    std::vector<TransferSample> transfers_;
    TimeInterval channel_window_{};
};

/** Cost-kind classification of one span (analysis + report share it). */
CostKind classifySpan(const TraceEvent& event);

/** Human-readable cost-kind name. */
const char* costKindName(CostKind kind);

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_ANALYZE_H_
