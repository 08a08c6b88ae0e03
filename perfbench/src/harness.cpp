#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

#include "ccl/allreduce.h"
#include "ccl/state_machine.h"
#include "obs/context.h"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int count = CPU_COUNT(&set);
        if (count > 0)
            return count;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

/** Value of the `<key>` line of /proc/self/status (first number). */
long
procStatus(const char* key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t key_len = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, key_len, key) == 0)
            return std::strtol(line.c_str() + key_len, nullptr, 10);
    }
    return -1;
}

} // namespace

int
osThreadCount()
{
    return static_cast<int>(procStatus("Threads:"));
}

double
peakRssMiB()
{
    return static_cast<double>(procStatus("VmHWM:")) / 1024.0;
}

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

int
SplitMix64::smallInt(int bound)
{
    const auto span = static_cast<std::uint64_t>(2 * bound + 1);
    return static_cast<int>(next() % span) - bound;
}

SeededInput::SeededInput(std::uint64_t seed, int num_ranks,
                         std::size_t elems)
    : ranks(static_cast<std::size_t>(num_ranks)), sum(elems, 0.0)
{
    SplitMix64 rng(seed);
    for (auto& rank : ranks) {
        rank.resize(elems);
        for (std::size_t i = 0; i < elems; ++i) {
            rank[i] = static_cast<std::int8_t>(rng.smallInt(8));
            sum[i] += static_cast<double>(rank[i]);
        }
    }
}

void
SeededInput::load(std::vector<std::vector<float>>& buffers) const
{
    buffers.resize(ranks.size());
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        buffers[r].resize(ranks[r].size());
        std::transform(ranks[r].begin(), ranks[r].end(),
                       buffers[r].begin(),
                       [](std::int8_t v) { return static_cast<float>(v); });
    }
}

bool
SeededInput::matches(const std::vector<std::vector<float>>& buffers) const
{
    if (buffers.size() != ranks.size())
        return false;
    for (const auto& buffer : buffers) {
        if (buffer.size() != sum.size())
            return false;
        for (std::size_t i = 0; i < sum.size(); ++i) {
            if (static_cast<double>(buffer[i]) != sum[i])
                return false;
        }
    }
    return true;
}

bool
chunksComplete(const ccube::ccl::AllReduceTrace& trace, int num_ranks,
               const ChunkPromise& promise)
{
    const int per_tree =
        promise.trees > 0 ? promise.chunks / promise.trees : 0;
    for (int r = 0; r < num_ranks; ++r) {
        const std::vector<int>& order = trace.order(r);
        if (static_cast<int>(order.size()) != promise.chunks)
            return false;
        std::vector<char> seen(static_cast<std::size_t>(promise.chunks),
                               0);
        std::vector<int> last(2, -1);
        for (int chunk : order) {
            if (chunk < 0 || chunk >= promise.chunks ||
                seen[static_cast<std::size_t>(chunk)] != 0)
                return false;
            seen[static_cast<std::size_t>(chunk)] = 1;
            if (promise.trees == 0)
                continue;
            const std::size_t tree =
                static_cast<std::size_t>(chunk / per_tree);
            if (chunk <= last[tree])
                return false;
            last[tree] = chunk;
        }
    }
    return true;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
}

std::uint64_t
Tracer::newOp()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_op_++;
}

int
Tracer::open(const char* name, std::uint64_t op, int parent)
{
    const int tid = static_cast<int>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
    const double start = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, op, parent, start, start, tid});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::close(int index)
{
    const double end = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_us = end;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<Tracer::Span>
Tracer::spans(std::size_t first) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (first >= spans_.size())
        return {};
    return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(first),
                             spans_.end());
}

bool
Tracer::writeChrome(const std::string& path) const
{
    const std::vector<Span> all = spans();
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"op\":%llu,\"span\":%zu,"
                     "\"parent\":%d}}\n",
                     i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_us,
                     s.end_us - s.start_us,
                     static_cast<unsigned long long>(s.op), i, s.parent);
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

void
Workload::noteThreads()
{
    const int now = osThreadCount();
    int seen = threads_during_op_.load();
    while (now > seen &&
           !threads_during_op_.compare_exchange_weak(seen, now)) {
    }
}

Counters
cclCounters()
{
    const auto& rc = ccube::obs::RankCounters::global();
    double wait_ns = 0.0;
    double post_ns = 0.0;
    for (int r = -1; r < ccube::obs::RankCounters::kMaxRanks; ++r) {
        wait_ns += static_cast<double>(rc.waitStallNs(r));
        post_ns += static_cast<double>(rc.postStallNs(r));
    }
    const auto& engine = ccube::ccl::StateMachineEngine::shared();
    return Counters{
        {"ccl.mailbox_sends", static_cast<double>(rc.totalMailboxSends())},
        {"ccl.wait_stall_ns", wait_ns},
        {"ccl.post_stall_ns", post_ns},
        {"ccl.cas_retries", static_cast<double>(rc.totalCasRetries())},
        {"ccl.ll_spin_ns", static_cast<double>(rc.totalLLSpinNs())},
        {"ccl.sm.steps", static_cast<double>(engine.stepsExecuted())},
        {"ccl.sm.parks", static_cast<double>(engine.parks())},
        {"ccl.sm.steals", static_cast<double>(engine.steals())},
    };
}

} // namespace perfbench
