#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <ostream>

#include "obs/metrics.h"

namespace ccube {
namespace obs {

namespace {

/** Per-thread redirect target installed by ScopedTraceRedirect. */
thread_local TraceRecorder* t_redirect = nullptr;

/** Escapes a string for embedding in a JSON string literal. */
void
writeJsonString(std::ostream& out, std::string_view s)
{
    out << '"';
    for (char c : s) {
        switch (c) {
          case '"': out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\n': out << "\\n"; break;
          case '\t': out << "\\t"; break;
          case '\r': out << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(c)
                    << std::dec << std::setfill(' ');
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

void
writeEventCommon(std::ostream& out, std::string_view name,
                 std::string_view cat, char phase, int pid, int tid,
                 double ts_us)
{
    out << "{\"name\":";
    writeJsonString(out, name);
    out << ",\"cat\":";
    writeJsonString(out, cat);
    out << ",\"ph\":\"" << phase << "\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"ts\":" << ts_us;
}

/** CCUBE_TRACE_CAPACITY, or the compiled-in default when unset. */
std::size_t
envCapacity()
{
    const char* env = std::getenv("CCUBE_TRACE_CAPACITY");
    if (!env || !*env)
        return TraceRecorder::kDefaultCapacity;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (end == env || value == 0)
        return TraceRecorder::kDefaultCapacity;
    return static_cast<std::size_t>(value);
}

} // namespace

TraceRecorder::TraceRecorder() : capacity_(envCapacity()) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder&
TraceRecorder::global()
{
    return t_redirect ? *t_redirect : process();
}

TraceRecorder&
TraceRecorder::process()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::absorb(const TraceRecorder& other)
{
    if (&other == this)
        return;
    std::scoped_lock guard(mutex_, other.mutex_);
    const double shift = sim_offset_us_;
    other.forEachLocked([&](const TraceEvent& source) {
        TraceEvent event = source;
        event.ts_us += shift;
        pushLocked(std::move(event));
    });
    dropped_ += other.dropped_;
    for (const auto& [pid, name] : other.process_names_)
        process_names_[pid] = name;
    for (const auto& [key, name] : other.thread_names_)
        thread_names_[key] = name;
    sim_offset_us_ += other.sim_offset_us_;
}

ScopedTraceRedirect::ScopedTraceRedirect(TraceRecorder* recorder)
{
    if (!recorder)
        return;
    previous_ = t_redirect;
    t_redirect = recorder;
    active_ = true;
}

ScopedTraceRedirect::~ScopedTraceRedirect()
{
    if (active_)
        t_redirect = previous_;
}

void
TraceRecorder::enable()
{
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_release);
}

void
TraceRecorder::disable()
{
    enabled_.store(false, std::memory_order_release);
}

double
TraceRecorder::wallNowUs() const
{
    if (!enabled())
        return 0.0;
    const auto delta = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double, std::micro>(delta).count();
}

void
TraceRecorder::completeEvent(
    std::string_view name, std::string_view cat, int pid, int tid,
    double ts_us, double dur_us,
    std::initializer_list<std::pair<std::string_view, double>> args)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name.assign(name);
    event.cat.assign(cat);
    event.phase = 'X';
    event.pid = pid;
    event.tid = tid;
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.args.reserve(args.size());
    for (const auto& [key, value] : args)
        event.args.emplace_back(std::string(key), value);
    record(std::move(event));
}

void
TraceRecorder::record(TraceEvent event)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> guard(mutex_);
    pushLocked(std::move(event));
}

void
TraceRecorder::pushLocked(TraceEvent&& event)
{
    if (events_.size() < capacity_) {
        events_.push_back(std::move(event));
        return;
    }
    ++dropped_;
    if (!keep_tail_)
        return;
    events_[head_] = std::move(event);
    head_ = (head_ + 1) % events_.size();
}

void
TraceRecorder::unwrapLocked()
{
    std::rotate(events_.begin(),
                events_.begin() + static_cast<std::ptrdiff_t>(head_),
                events_.end());
    head_ = 0;
}

void
TraceRecorder::instantEvent(std::string_view name, std::string_view cat,
                            int pid, int tid, double ts_us)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name.assign(name);
    event.cat.assign(cat);
    event.phase = 'i';
    event.pid = pid;
    event.tid = tid;
    event.ts_us = ts_us;
    record(std::move(event));
}

void
TraceRecorder::setProcessName(int pid, std::string_view name)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> guard(mutex_);
    process_names_[pid].assign(name);
}

void
TraceRecorder::setThreadName(int pid, int tid, std::string_view name)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> guard(mutex_);
    thread_names_[{pid, tid}].assign(name);
}

double
TraceRecorder::simOffsetUs() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return sim_offset_us_;
}

void
TraceRecorder::advanceSimEpoch(double run_end_us)
{
    if (run_end_us < 0.0)
        return;
    std::lock_guard<std::mutex> guard(mutex_);
    // Small gap so consecutive runs are visually distinct.
    sim_offset_us_ += run_end_us * 1.05 + 1.0;
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return events_.size();
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    forEachLocked([&](const TraceEvent& event) { out.push_back(event); });
    return out;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    events_.clear();
    head_ = 0;
    dropped_ = 0;
    process_names_.clear();
    thread_names_.clear();
    sim_offset_us_ = 0.0;
}

void
TraceRecorder::setCapacity(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    std::lock_guard<std::mutex> guard(mutex_);
    unwrapLocked();
    keep_tail_ = false;
    capacity_ = capacity;
    // Keep the head: shrinking drops the newest retained events.
    if (events_.size() > capacity_) {
        dropped_ += events_.size() - capacity_;
        events_.resize(capacity_);
    }
}

std::size_t
TraceRecorder::capacity() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return capacity_;
}

void
TraceRecorder::setFlightCapacity(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    std::lock_guard<std::mutex> guard(mutex_);
    unwrapLocked();
    keep_tail_ = true;
    capacity_ = capacity;
    // Keep the tail: shrinking evicts the oldest retained events.
    if (events_.size() > capacity_) {
        const std::size_t evicted = events_.size() - capacity_;
        dropped_ += evicted;
        events_.erase(events_.begin(),
                      events_.begin() +
                          static_cast<std::ptrdiff_t>(evicted));
    }
}

bool
TraceRecorder::flightMode() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return keep_tail_;
}

std::uint64_t
TraceRecorder::droppedEvents() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return dropped_;
}

void
TraceRecorder::exportTo(MetricRegistry& registry) const
{
    registry.addCounter("trace.events",
                        static_cast<double>(eventCount()));
    registry.addCounter("trace.dropped_events",
                        static_cast<double>(droppedEvents()));
}

void
TraceRecorder::writeJson(std::ostream& out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",";
        first = false;
        out << "\n";
    };
    for (const auto& [pid, name] : process_names_) {
        sep();
        out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":0,\"args\":{\"name\":";
        writeJsonString(out, name);
        out << "}}";
    }
    for (const auto& [key, name] : thread_names_) {
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
            << key.first << ",\"tid\":" << key.second
            << ",\"args\":{\"name\":";
        writeJsonString(out, name);
        out << "}}";
    }
    forEachLocked([&](const TraceEvent& event) {
        sep();
        writeEventCommon(out, event.name, event.cat, event.phase,
                         event.pid, event.tid, event.ts_us);
        if (event.phase == 'X')
            out << ",\"dur\":" << event.dur_us;
        if (event.phase == 'i')
            out << ",\"s\":\"t\"";
        if (!event.args.empty()) {
            out << ",\"args\":{";
            bool first_arg = true;
            for (const auto& [key, value] : event.args) {
                if (!first_arg)
                    out << ",";
                first_arg = false;
                writeJsonString(out, key);
                out << ":" << value;
            }
            out << "}";
        }
        out << "}";
    });
    out << "\n]}\n";
}

ScopedSpan::ScopedSpan(TraceRecorder& recorder, std::string_view name,
                       std::string_view cat, int pid, int tid)
{
    if (!recorder.enabled())
        return;
    recorder_ = &recorder;
    name_.assign(name);
    cat_.assign(cat);
    pid_ = pid;
    tid_ = tid;
    start_us_ = recorder.wallNowUs();
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view cat,
                       int pid, int tid)
    : ScopedSpan(TraceRecorder::global(), name, cat, pid, tid)
{
}

ScopedSpan::~ScopedSpan()
{
    if (!recorder_)
        return;
    const double end_us = recorder_->wallNowUs();
    TraceEvent event;
    event.name = std::move(name_);
    event.cat = std::move(cat_);
    event.phase = 'X';
    event.pid = pid_;
    event.tid = tid_;
    event.ts_us = start_us_;
    event.dur_us = end_us > start_us_ ? end_us - start_us_ : 0.0;
    event.args = std::move(args_);
    recorder_->record(std::move(event));
}

void
ScopedSpan::arg(std::string_view key, double value)
{
    if (!recorder_)
        return;
    args_.emplace_back(std::string(key), value);
}

} // namespace obs
} // namespace ccube
