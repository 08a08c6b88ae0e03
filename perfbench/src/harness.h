#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/**
 * @file
 * Shared pieces of the host benchmark: the workload interface, the
 * benchmark's own seeded inputs and oracles, and the span recorder of
 * the traced run.
 *
 * Nothing here reaches inside the library: workloads call its public
 * functions, and the traced run records a span around each call.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ccube {
namespace ccl {
class AllReduceTrace;
} // namespace ccl
} // namespace ccube

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Quantile @p q in [0, 1] of @p values, linear between ranks. */
double quantile(std::vector<double> values, double q);

/** Logical CPUs this process may run on (sched_getaffinity). */
int usableCpus();

/** The `Threads:` line of /proc/self/status. */
int osThreadCount();

/** Peak resident set size of this process (VmHWM), in MiB. */
double peakRssMiB();

/** SplitMix64: the benchmark's own generator, apart from the program's. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform integer in [-bound, bound]. */
    int smallInt(int bound);

  private:
    std::uint64_t state_;
};

/**
 * Seeded AllReduce input: small integers per rank, and their sum made
 * serially in double precision. With |x| <= 8 every partial sum of up
 * to 2^20 ranks is exact in float, so the program's result must equal
 * the sum exactly, whatever order it reduces in.
 */
struct SeededInput {
    std::vector<std::vector<std::int8_t>> ranks;
    std::vector<double> sum;

    SeededInput(std::uint64_t seed, int num_ranks, std::size_t elems);

    std::size_t elems() const { return sum.size(); }

    /** Overwrites @p buffers with the input (resizing them). */
    void load(std::vector<std::vector<float>>& buffers) const;

    /** Whether every element of every rank equals the serial sum. */
    bool matches(const std::vector<std::vector<float>>& buffers) const;
};

/** Chunk count and ordering promise of one AllReduce algorithm. */
struct ChunkPromise {
    int chunks = 0;        ///< global chunk ids [0, chunks)
    int trees = 0;         ///< 0: no order promised; 1 or 2 trees
};

/**
 * Whether every rank recorded every chunk exactly once and, per tree,
 * in ascending order (the property gradient queuing relies on).
 */
bool chunksComplete(const ccube::ccl::AllReduceTrace& trace,
                    int num_ranks, const ChunkPromise& promise);

/**
 * Spans of the traced run: name, start, end, parent and the id of the
 * operation they belong to. Kept in memory; written as a Chrome trace
 * when the run ends. Thread-safe (DES ops run on the sweep pool).
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        std::uint64_t op = 0;
        int parent = -1;
        double start_us = 0.0;
        double end_us = 0.0;
        int tid = 0;
    };

    Tracer();

    /** A fresh operation id. */
    std::uint64_t newOp();

    /** Opens a span; returns its index. */
    int open(const char* name, std::uint64_t op, int parent);

    /** Closes the span at @p index. */
    void close(int index);

    /** Number of spans recorded so far. */
    std::size_t size() const;

    /** Copy of the spans recorded from index @p first on. */
    std::vector<Span> spans(std::size_t first = 0) const;

    /** Writes the spans as a Chrome trace (chrome://tracing). */
    bool writeChrome(const std::string& path) const;

  private:
    double nowUs() const;

    const Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t next_op_ = 1;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
               int parent = -1)
        : tracer_(tracer),
          index_(tracer ? tracer->open(name, op, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int index() const { return index_; }

  private:
    Tracer* tracer_;
    int index_;
};

/** One timed operation's outcome. */
struct OpSample {
    double host_s = 0.0;    ///< host wall time of the call
    double bus_bytes = 0.0; ///< payload per rank × 2(P−1)/P
    bool ok = true;         ///< passed every oracle
};

/** Cumulative layer counters, by name. */
using Counters = std::map<std::string, double>;

/**
 * One benchmark workload: a closed loop with one caller, run as whole
 * rounds of a fixed operation mix.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything before the first timed op, including a cold call. */
    virtual void setup() = 0;

    /**
     * Runs one round, appending one sample per op to @p ops. With a
     * non-null @p tracer every call into a layer is wrapped in a span.
     */
    virtual void runRound(std::vector<OpSample>& ops, Tracer* tracer) = 0;

    /** Cumulative counters of the layers the ops run through. */
    virtual Counters counters() const = 0;

    /** OS threads alive while an op ran (0 before the first op). */
    int threadsDuringOp() const { return threads_during_op_.load(); }

  protected:
    /** Samples the thread count; call while the engine is live.
     *  Keeps the largest count seen. */
    void noteThreads();

  private:
    std::atomic<int> threads_during_op_{0};
};

/** Counters of the functional layers (obs::RankCounters, SM pool). */
Counters cclCounters();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
