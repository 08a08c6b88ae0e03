/**
 * @file
 * Host benchmark entry point: one workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--reference <file>] [--trace-out <file>]
 *   perfbench --write-reference <file>
 *   perfbench --drift-cell <reps>
 *   perfbench --host-figures 1
 *
 * Set-up runs several times, in windows spread over the run, and
 * reports its median. The timed phase runs
 * whole rounds of the workload's fixed op mix until --seconds have
 * passed. With --trace 0 the last stdout line holds the end-to-end
 * metrics; with --trace 1 the run alternates untraced and traced
 * rounds, then runs the layer probes, writes a Chrome trace and
 * reports the per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string trace_out;
    std::string write_reference;
    int drift_reps = 0;
    bool host_figures = false;
};

bool
parseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag.c_str());
            return false;
        }
        const char* value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--reference")
            args.reference = value;
        else if (flag == "--trace-out")
            args.trace_out = value;
        else if (flag == "--write-reference")
            args.write_reference = value;
        else if (flag == "--drift-cell")
            args.drift_reps = std::atoi(value);
        else if (flag == "--host-figures")
            args.host_figures = std::strcmp(value, "0") != 0;
        else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    return !args.write_reference.empty() || args.drift_reps > 0 ||
           args.host_figures ||
           (!args.workload.empty() && args.seconds > 0.0);
}

/**
 * Measures the program's defaults: clears its tuning variables and,
 * with @p pin_pool, pins the state-machine pool to one worker fewer
 * than the CPUs this process may use. The spare CPU keeps the caller
 * and the rest of the host from preempting a worker that the other
 * ranks wait on, which made run-to-run times swing most at P=512.
 */
void
pinEnvironment(bool pin_pool)
{
    for (const char* name : {"CCUBE_CCL_PROTO", "CCUBE_TUNER_MEASURE",
                             "CCUBE_CCL_EXECUTOR", "CCUBE_CCL_DEADLINE_MS",
                             "CCUBE_CCL_SM_WORKERS"})
        unsetenv(name);
    if (pin_pool)
        setenv("CCUBE_CCL_SM_WORKERS",
               std::to_string(std::max(1, usableCpus() - 1)).c_str(), 1);
}

std::function<std::unique_ptr<Workload>()>
factory(const Args& args)
{
    const std::uint64_t seed = args.seed;
    if (args.workload == "dgx1_auto_small")
        return [seed] { return makeDgx1AutoSmall(seed); };
    if (args.workload == "dgx1_supervised_large")
        return [seed] { return makeDgx1SupervisedLarge(seed); };
    if (args.workload == "sm_p512_scale")
        return [seed] { return makeSmP512Scale(seed); };
    if (args.workload == "des_paper_grid") {
        const std::string reference = args.reference;
        return [reference] { return makeDesPaperGrid(reference); };
    }
    return nullptr;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

/**
 * Everything the timed phase measured. Rates are per host second spent
 * inside the operations (for des_paper_grid, whose ops run side by side
 * on the sweep pool, the sum of their individual times), so input
 * reloads and oracle checks between calls never count. They are taken
 * per round and reported as the median round, which rides out the
 * host's short slow spells.
 */
struct Phase {
    std::vector<double> op_us;
    std::vector<double> round_ops_per_s;
    std::vector<double> round_bus_bytes_per_s;
    double op_s = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Adds one round; returns its host seconds inside operations. */
    double add(const std::vector<OpSample>& ops)
    {
        double round_s = 0.0;
        double bus_bytes = 0.0;
        for (const OpSample& op : ops) {
            op_us.push_back(op.host_s * 1e6);
            round_s += op.host_s;
            bus_bytes += op.bus_bytes;
            ++attempted;
            failed += op.ok ? 0 : 1;
        }
        op_s += round_s;
        round_ops_per_s.push_back(static_cast<double>(ops.size()) / round_s);
        round_bus_bytes_per_s.push_back(bus_bytes / round_s);
        return round_s;
    }
};

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

/**
 * Prints the result line; returns the exit code. The run is correct
 * only when no busy thread is too many and every op met its oracles.
 */
int
printResult(bool threads_ok, const Phase& phase,
            const std::vector<Metric>& metrics)
{
    const bool correct = threads_ok && phase.failed == 0;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(phase.attempted) +
                       ", \"failed\": " + std::to_string(phase.failed) +
                       ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                                        "\"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/** Median, over the op spans, of op time minus its direct children. */
double
unattributedUs(const std::vector<Tracer::Span>& spans)
{
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Tracer::Span& s : spans) {
        if (s.parent >= 0)
            child_us[static_cast<std::size_t>(s.parent)] +=
                s.end_us - s.start_us;
    }
    std::vector<double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0 && spans[i].name.rfind("op.", 0) == 0)
            self.push_back(spans[i].end_us - spans[i].start_us -
                           child_us[i]);
    }
    return median(self);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
run(const Args& args)
{
    const auto make = factory(args);
    if (!make) {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }
    const int cpus = usableCpus();

    // The host's speed swings within seconds, so set-up is timed in
    // windows spread over the run: one before the timed phase, one each
    // time another eighth of it has passed (at a round boundary) and
    // one after it. A window sets up afresh at least once and for at
    // least 0.3 s, since single set-ups of the small workloads spread
    // 3x within one run; the rounds that follow use its last set-up.
    constexpr int kSetupWindows = 8;
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    int threads = 0;
    auto setupWindow = [&]() {
        if (workload)
            threads = std::max(threads, workload->threadsDuringOp());
        const Clock::time_point window = Clock::now();
        for (int reps = 0; reps < 1 || secondsSince(window) < 0.3; ++reps) {
            workload.reset();
            const Clock::time_point start = Clock::now();
            workload = make();
            workload->setup();
            setups.push_back(secondsSince(start));
        }
    };
    setupWindow();

    Phase phase;
    Tracer tracer;
    Counters traced_delta;
    std::uint64_t traced_ops = 0;
    std::vector<double> overhead;
    double timed_s = 0.0;
    double cpu_s = 0.0;
    int windows = 1;
    while (timed_s < args.seconds) {
        const Clock::time_point start = Clock::now();
        const double cpu_start = processCpuSeconds();
        std::vector<OpSample> ops;
        workload->runRound(ops, nullptr);
        const double untraced = phase.add(ops);
        if (args.trace) {
            // Paired traced round: counters are read around it only.
            ops.clear();
            const Counters before = workload->counters();
            workload->runRound(ops, &tracer);
            const Counters after = workload->counters();
            const double traced = phase.add(ops);
            for (const auto& [name, value] : after)
                traced_delta[name] += value - before.at(name);
            traced_ops += ops.size();
            overhead.push_back(ratio(traced, untraced));
        }
        cpu_s += processCpuSeconds() - cpu_start;
        timed_s += secondsSince(start);
        if (windows < kSetupWindows &&
            timed_s >= args.seconds * windows / kSetupWindows) {
            setupWindow();
            ++windows;
        }
    }
    setupWindow();
    workload.reset();

    // The caller blocks inside each call; every other thread may run.
    const int busy = threads - 1;
    const bool threads_ok = busy <= cpus;
    const std::size_t n = phase.op_us.size();
    std::printf("workload %s seed %llu: %llu ops in %.3f s of calls; "
                "os_threads %d, busy_threads %d, nproc %d%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(n), phase.op_s, threads,
                busy, cpus, threads_ok ? "" : " (more busy threads than nproc)");
    // The highest percentile with at least ten samples beyond it.
    if (n >= 1000)
        std::printf("latency_p99_us %.3f (n=%zu)\n",
                    quantile(phase.op_us, 0.99), n);
    else if (n >= 40)
        std::printf("latency_p%.1f_us %.3f (n=%zu)\n",
                    100.0 * (1.0 - 10.0 / static_cast<double>(n)),
                    quantile(phase.op_us, 1.0 - 10.0 / static_cast<double>(n)),
                    n);
    std::printf("cpu_us_per_op %.3f\n", ratio(cpu_s * 1e6, static_cast<double>(n)));

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"latency_p50_us", median(phase.op_us), "us"},
            {"ops_per_s", median(phase.round_ops_per_s), "1/s"},
            {"busbw_gbps", median(phase.round_bus_bytes_per_s) / 1e9, "GB/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMiB(), "MiB"},
        };
        return printResult(threads_ok, phase, metrics);
    }

    const std::vector<Tracer::Span> loop_spans = tracer.spans();
    const double unattributed = unattributedUs(loop_spans);
    std::map<std::string, double> probes;
    runLayerProbes(tracer, args.seed, args.reference, probes,
                   phase.attempted, phase.failed);
    if (!args.trace_out.empty() && !tracer.writeChrome(args.trace_out))
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());

    const Counters& d = traced_delta;
    auto get = [&d](const char* name) {
        const auto it = d.find(name);
        return it == d.end() ? 0.0 : it->second;
    };
    const double ops = static_cast<double>(traced_ops);
    metrics = {
        {"topo.embed_us", probes["topo.embed_us"], "us"},
        {"topo.fabric_build_ms", probes["topo.fabric_build_ms"], "ms"},
        {"ccl.tuner_us", probes["ccl.tuner_us"], "us"},
        {"ccl.collective_us", probes["ccl.collective_us"], "us"},
        {"ccl.collective_simple_us", probes["ccl.collective_simple_us"],
         "us"},
        {"ccl.mailbox_sends_per_op", ratio(get("ccl.mailbox_sends"), ops),
         "count"},
        {"ccl.wait_stall_us_per_op",
         ratio(get("ccl.wait_stall_ns") / 1e3, ops), "us"},
        {"ccl.post_stall_us_per_op",
         ratio(get("ccl.post_stall_ns") / 1e3, ops), "us"},
        {"ccl.cas_retries_per_op", ratio(get("ccl.cas_retries"), ops),
         "count"},
        {"ccl.ll_spin_us_per_op", ratio(get("ccl.ll_spin_ns") / 1e3, ops),
         "us"},
        {"ccl.sm.steps_per_op", ratio(get("ccl.sm.steps"), ops), "count"},
        {"ccl.sm.parks_per_op", ratio(get("ccl.sm.parks"), ops), "count"},
        {"ccl.sm.steals_per_op", ratio(get("ccl.sm.steals"), ops), "count"},
        {"ccl.reduce_gbps", probes["ccl.reduce_gbps"], "GB/s"},
        {"ccl.comm_create_ms", probes["ccl.comm_create_ms"], "ms"},
        {"ccl.p_scaling_exponent", probes["ccl.p_scaling_exponent"],
         "ratio"},
        {"core.supervisor_us", probes["core.supervisor_us"], "us"},
        {"core.self_us", probes["core.self_us"], "us"},
        {"core.iteration_eval_us", probes["core.iteration_eval_us"], "us"},
        {"sim.events_per_op", probes["sim.events_per_op"], "count"},
        {"sim.events_per_transfer", probes["sim.events_per_transfer"],
         "count"},
        {"simnet.transfers_per_op", probes["simnet.transfers_per_op"],
         "count"},
        {"sim.ns_per_event", probes["sim.ns_per_event"], "ns"},
        {"simnet.network_build_us", probes["simnet.network_build_us"], "us"},
        {"simnet.ring_s", probes["simnet.ring_s"], "s"},
        {"simnet.tree_overlapped_s", probes["simnet.tree_overlapped_s"], "s"},
        {"simnet.tree_two_phase_s", probes["simnet.tree_two_phase_s"], "s"},
        {"obs.monitor_overhead_ratio", probes["obs.monitor_overhead_ratio"],
         "ratio"},
        {"unattributed_us", unattributed, "us"},
        {"trace_overhead_ratio", median(overhead), "ratio"},
    };
    return printResult(threads_ok, phase, metrics);
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--reference <file>] "
                     "[--trace-out <file>]\n"
                     "       perfbench --write-reference <file>\n"
                     "       perfbench --drift-cell <reps>\n"
                     "       perfbench --host-figures 1\n");
        return 2;
    }
    pinEnvironment(!args.host_figures);
    try {
        if (args.host_figures) {
            printHostFigures(args.seed);
            return 0;
        }
        if (!args.write_reference.empty())
            return writeDesReference(args.write_reference) ? 0 : 1;
        if (args.drift_reps > 0) {
            std::uint64_t events = 0;
            const std::vector<double> seconds =
                driftCellSeconds(args.drift_reps, &events);
            std::printf("{\"drift_cell_s\": %.9f, \"events\": %llu}\n",
                        median(seconds),
                        static_cast<unsigned long long>(events));
            return 0;
        }
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
