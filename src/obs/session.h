#ifndef CCUBE_OBS_SESSION_H_
#define CCUBE_OBS_SESSION_H_

/**
 * @file
 * Command-line wiring for the observability layer.
 *
 * Any bench or example constructs an ObsSession from its parsed flags;
 * `--trace-out=FILE` enables the global TraceRecorder and writes a
 * Chrome/Perfetto trace at the end of the run, `--metrics-out=FILE`
 * enables the global MetricRegistry and writes CSV (or JSON when the
 * path ends in `.json`), and `--report-out=FILE` enables the recorder
 * and writes the obs::TraceAnalyzer text report (channel utilization,
 * idle gaps, α-β fit, critical path). Two auxiliary flags shape
 * retention: `--trace-capacity=N` caps retained events and
 * `--trace-mode=flight` switches the recorder to its drop-oldest
 * ring.
 *
 * Live monitoring: `--monitor-out=FILE` enables the global
 * obs::Monitor and writes its JSONL snapshot series plus an
 * OpenMetrics-style text endpoint (`FILE.om`, overridable with
 * `--monitor-openmetrics=FILE`); `--monitor-interval=SECONDS` sets the
 * DES heartbeat period (simulated seconds; 0 = collective edges only);
 * `--slo-collective-ms` / `--slo-iteration-ms` arm the SLO budgets
 * (env fallbacks $CCUBE_SLO_COLLECTIVE_MS / $CCUBE_SLO_ITERATION_MS).
 * `--rootcause-out=FILE` enables the recorder and writes the ranked
 * obs::diff root-cause report at the end of the run.
 *
 * Profiling: `--profile-out=FILE` runs the obs::Profiler sampler for
 * the whole session and writes collapsed-stack flamegraph text
 * (flamegraph.pl-compatible) on finish; `--profile-hz=N` sets the
 * sampling rate (default Profiler::kDefaultHz). The capture summary
 * also folds into the metrics registry (profiler.* counters) and the
 * Chrome trace when those sinks are enabled.
 *
 * With no flag present the session is inert and the instrumented code
 * paths stay on their disabled fast path.
 */

#include <string>

#include "util/flags.h"

namespace ccube {
namespace obs {

/**
 * RAII capture session: enables the global recorder/registry on
 * construction, flushes them to the requested files on finish() or
 * destruction.
 */
class ObsSession
{
  public:
    /** Reads `--trace-out` / `--metrics-out` / `--report-out` /
     *  `--monitor-out` / `--monitor-interval` / `--monitor-openmetrics`
     *  / `--rootcause-out` / `--slo-collective-ms` /
     *  `--slo-iteration-ms` / `--trace-capacity` / `--trace-mode`
     *  from @p flags. */
    explicit ObsSession(const util::Flags& flags);

    /** Direct construction (empty path = facility off). */
    ObsSession(std::string trace_path, std::string metrics_path,
               std::string report_path = "");

    /** Flushes on scope exit when finish() was not called. */
    ~ObsSession();

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /** True when a trace file was requested. */
    bool tracing() const { return !trace_path_.empty(); }

    /** True when a metrics file was requested. */
    bool metrics() const { return !metrics_path_.empty(); }

    /** True when an analysis report was requested. */
    bool reporting() const { return !report_path_.empty(); }

    /** True when live monitoring output was requested. */
    bool monitoring() const { return !monitor_path_.empty(); }

    /** True when a root-cause report was requested. */
    bool rootCause() const { return !rootcause_path_.empty(); }

    /** True when a sampling-profiler capture was requested. */
    bool profiling() const { return !profile_path_.empty(); }

    /**
     * Writes the trace JSON, metrics, and analysis-report files,
     * folding the per-rank RankCounters and the recorder's drop
     * accounting into the registry first. Idempotent.
     */
    void finish();

  private:
    void start();

    std::string trace_path_;
    std::string metrics_path_;
    std::string report_path_;
    std::string monitor_path_;
    std::string openmetrics_path_;
    std::string rootcause_path_;
    std::string profile_path_;
    double monitor_interval_s_ = 0.0;
    double profile_hz_ = 0.0;
    bool finished_ = false;
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_SESSION_H_
