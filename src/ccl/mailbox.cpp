#include "ccl/mailbox.h"

#include <bit>
#include <chrono>
#include <utility>

#include "ccl/fault.h"
#include "ccl/reduce_kernels.h"
#include "obs/context.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/spin_wait.h"

namespace ccube {
namespace ccl {

namespace {

/** Span pid/tid for the calling thread (rank-attributed). */
int
spanPid()
{
    return obs::pids::cclRank(obs::threadRank());
}

/** Emits the consumer-side "wait" span for a non-blocking receive. */
void
traceTryWaitSpan(const std::string& label, std::int64_t seq)
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (!recorder.enabled())
        return;
    obs::ScopedSpan span(recorder, "wait " + label, "ccl.mailbox",
                         spanPid(), obs::threadTrack());
    span.arg("seq", static_cast<double>(seq));
}

/** Packs an LL line: payload word low, arrival flag high. */
std::uint64_t
llPack(std::uint32_t value, std::uint32_t flag)
{
    return static_cast<std::uint64_t>(value) |
           (static_cast<std::uint64_t>(flag) << 32);
}

std::uint32_t
llValue(std::uint64_t line)
{
    return static_cast<std::uint32_t>(line);
}

std::uint32_t
llLineFlag(std::uint64_t line)
{
    return static_cast<std::uint32_t>(line >> 32);
}

/**
 * Spins until @p pred holds. The fast path (already true) costs one
 * call; an actual spin runs the bounded SpinWait ladder with the
 * abort epoch polled, attributed to the kLLSpin profiler phase and
 * the ll_spin_ns rank counter — NOT wait_stall_ns, which stays the
 * semaphore path's stall account.
 */
template <typename Pred>
void
llSpinUntil(Pred&& pred)
{
    if (pred())
        return;
    obs::ScopedProfPhase prof(obs::ProfPhase::kLLSpin);
    const auto start = std::chrono::steady_clock::now();
    util::SpinWait spin;
    while (!pred())
        spin.once([] { abortPoll(); });
    const auto elapsed =
        std::chrono::steady_clock::now() - start;
    obs::RankCounters::global().addLLSpin(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
}

} // namespace

Mailbox::Mailbox(int slots)
    : ring_(static_cast<std::size_t>(slots)),
      full_(slots, 0),
      empty_(slots, slots),
      ll_ring_(std::make_unique<LLSlot[]>(
          static_cast<std::size_t>(slots)))
{
    CCUBE_CHECK(slots >= 1, "mailbox needs at least one slot");
}

void
Mailbox::reserve(std::size_t elems)
{
    for (Slot& slot : ring_) {
        if (slot.data.size() < elems)
            slot.data.resize(elems);
    }
    for (int i = 0; i < slots(); ++i) {
        LLSlot& slot = ll_ring_[static_cast<std::size_t>(i)];
        if (slot.capacity < elems) {
            slot.lines =
                std::make_unique<std::atomic<std::uint64_t>[]>(elems);
            slot.capacity = elems;
        }
    }
}

void
Mailbox::setTraceLabel(std::string label)
{
    trace_label_ = std::move(label);
}

void
Mailbox::reset()
{
    for (Slot& slot : ring_) {
        slot.size = 0;
        slot.tag = 0;
    }
    full_.reset(0);
    empty_.reset(slots());
    head_ = 0;
    tail_ = 0;
    front_claimed_ = false;
    post_seq_ = 0;
    wait_seq_ = 0;
    // LL lane: zero every published flag (a stale flag from the dead
    // collective would satisfy the first spin of the next epoch) and
    // restart the sequence space.
    for (int i = 0; i < slots(); ++i) {
        LLSlot& slot = ll_ring_[static_cast<std::size_t>(i)];
        slot.header.store(0, std::memory_order_relaxed);
        slot.tag_line.store(0, std::memory_order_relaxed);
        for (std::size_t w = 0; w < slot.capacity; ++w)
            slot.lines[w].store(0, std::memory_order_relaxed);
    }
    ll_post_seq_ = 0;
    ll_wait_seq_ = 0;
    ll_consumed_.store(0, std::memory_order_relaxed);
    ll_scratch_.size = 0;
    ll_scratch_.tag = 0;
    ll_front_ = false;
    delivered_.reset();
}

void
Mailbox::setFlowId(int flow)
{
    flow_ = flow;
}

void
Mailbox::setEndpoints(int src, int dst)
{
    src_ = src;
    dst_ = dst;
}

void
Mailbox::send(std::span<const float> data, int tag, Protocol proto)
{
    if (proto == Protocol::kLL) {
        llSend(data, tag);
        return;
    }
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxPost);
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->onMailboxOp(trace_label_, flow_); // may throw (injector)

    obs::RankCounters& counters = obs::RankCounters::global();
    counters.addMailboxSend();
    // Flow control (paper Fig. 11): all receive buffers occupied means
    // the producer stalls until the consumer frees one. The snapshot
    // is racy but only feeds telemetry, never the protocol.
    const bool stalled = empty_.value() == 0;
    if (stalled)
        counters.addSlotFullStall();

    const std::int64_t seq = post_seq_++;
    // A producer stalled on a full ring is waiting for the consumer
    // (dst_) to free a slot — that is its wait-for edge.
    if (fault != nullptr)
        fault->noteWaitBegin(trace_label_.c_str(), flow_, dst_);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        obs::ScopedSpan span(recorder, "post " + trace_label_,
                             "ccl.mailbox", spanPid(),
                             obs::threadTrack());
        span.arg("bytes", static_cast<double>(data.size() *
                                              sizeof(float)));
        span.arg("stalled", stalled ? 1.0 : 0.0);
        span.arg("seq", static_cast<double>(seq));
        empty_.wait(); // block while all receive buffers are occupied
    } else {
        empty_.wait();
    }
    if (fault != nullptr) {
        fault->noteWaitEnd();
        fault->notePosted(seq);
    }
    Slot& slot = ring_[head_];
    // Fixed-capacity fast path: the slot buffer grows at most once per
    // high-water chunk size and is then reused verbatim.
    if (slot.data.size() < data.size())
        slot.data.resize(data.size());
    kernels::copyInto(slot.data.data(), data.data(), data.size());
    slot.size = data.size();
    slot.tag = tag;
    head_ = (head_ + 1) % ring_.size();
    full_.post(); // signal arrival (paper: post on chunk arrival)
}

void
Mailbox::llWriteSlot(std::span<const float> data, int tag)
{
    LLSlot& slot = ll_ring_[static_cast<std::size_t>(
        ll_post_seq_ % static_cast<std::int64_t>(ring_.size()))];
    const std::uint32_t flag = llFlag(ll_post_seq_);
    // Growing lines is safe here: flow control guarantees the
    // consumer is done with this slot's previous message, and the
    // header release below publishes the new pointer before any flag
    // the consumer will accept.
    if (slot.capacity < data.size()) {
        slot.lines = std::make_unique<std::atomic<std::uint64_t>[]>(
            data.size());
        slot.capacity = data.size();
    }
    slot.tag_line.store(
        llPack(static_cast<std::uint32_t>(tag), flag),
        std::memory_order_relaxed);
    // Header first (after the tag line, which it covers): the
    // consumer may start streaming payload words while we are still
    // writing the tail.
    slot.header.store(
        llPack(static_cast<std::uint32_t>(data.size()), flag),
        std::memory_order_release);
    for (std::size_t i = 0; i < data.size(); ++i)
        slot.lines[i].store(
            llPack(std::bit_cast<std::uint32_t>(data[i]), flag),
            std::memory_order_release);
    ++ll_post_seq_;
}

void
Mailbox::llSend(std::span<const float> data, int tag)
{
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxPost);
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->onMailboxOp(trace_label_, flow_); // may throw (injector)

    obs::RankCounters& counters = obs::RankCounters::global();
    counters.addMailboxSend();
    const bool stalled = !llSlotFree();
    if (stalled)
        counters.addSlotFullStall();

    const std::int64_t seq = post_seq_++;
    if (fault != nullptr)
        fault->noteWaitBegin(trace_label_.c_str(), flow_, dst_);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        obs::ScopedSpan span(recorder, "post " + trace_label_,
                             "ccl.mailbox", spanPid(),
                             obs::threadTrack());
        span.arg("bytes", static_cast<double>(data.size() *
                                              sizeof(float)));
        span.arg("stalled", stalled ? 1.0 : 0.0);
        span.arg("seq", static_cast<double>(seq));
        span.arg("ll", 1.0);
        llSpinUntil([this] { return llSlotFree(); });
    } else {
        llSpinUntil([this] { return llSlotFree(); });
    }
    if (fault != nullptr) {
        fault->noteWaitEnd();
        fault->notePosted(seq);
    }
    llWriteSlot(data, tag);
}

bool
Mailbox::llTrySend(std::span<const float> data, int tag)
{
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxPost);
    if (!llSlotFree())
        return false;
    const std::int64_t seq = post_seq_++;
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->notePosted(seq);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        obs::ScopedSpan span(recorder, "post " + trace_label_,
                             "ccl.mailbox", spanPid(),
                             obs::threadTrack());
        span.arg("bytes", static_cast<double>(data.size() *
                                              sizeof(float)));
        span.arg("stalled", 0.0);
        span.arg("seq", static_cast<double>(seq));
        span.arg("ll", 1.0);
    }
    llWriteSlot(data, tag);
    return true;
}

Mailbox::LLHeader
Mailbox::llWaitHeader()
{
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxWait);
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->onMailboxOp(trace_label_, flow_); // may throw (injector)

    obs::RankCounters::global().addMailboxRecv();
    const std::int64_t seq = wait_seq_++;
    if (fault != nullptr)
        fault->noteWaitBegin(trace_label_.c_str(), flow_, src_);

    LLSlot& slot = ll_ring_[static_cast<std::size_t>(
        ll_wait_seq_ % static_cast<std::int64_t>(ring_.size()))];
    const auto arrived = [this] { return llReady(OpKind::kRecv); };
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        obs::ScopedSpan span(recorder, "wait " + trace_label_,
                             "ccl.mailbox", spanPid(),
                             obs::threadTrack());
        span.arg("seq", static_cast<double>(seq));
        span.arg("ll", 1.0);
        llSpinUntil(arrived);
    } else {
        llSpinUntil(arrived);
    }
    if (fault != nullptr)
        fault->noteWaitEnd();

    LLHeader header;
    header.size = llValue(slot.header.load(std::memory_order_acquire));
    // tag_line was written before the header we just acquired.
    header.tag = static_cast<int>(
        llValue(slot.tag_line.load(std::memory_order_relaxed)));
    return header;
}

bool
Mailbox::llPeekHeader(LLHeader* out)
{
    LLSlot& slot = ll_ring_[static_cast<std::size_t>(
        ll_wait_seq_ % static_cast<std::int64_t>(ring_.size()))];
    const std::uint32_t flag = llFlag(ll_wait_seq_);
    const std::uint64_t header =
        slot.header.load(std::memory_order_acquire);
    if (llLineFlag(header) != flag)
        return false;
    traceTryWaitSpan(trace_label_, wait_seq_++);
    out->size = llValue(header);
    out->tag = static_cast<int>(
        llValue(slot.tag_line.load(std::memory_order_relaxed)));
    return true;
}

void
Mailbox::llDecodeBody(std::size_t size, float* dst, bool reduce)
{
    LLSlot& slot = ll_ring_[static_cast<std::size_t>(
        ll_wait_seq_ % static_cast<std::int64_t>(ring_.size()))];
    const std::uint32_t flag = llFlag(ll_wait_seq_);
    // The producer committed the whole message with the header, so
    // these per-line spins are bounded by its remaining store loop.
    for (std::size_t i = 0; i < size; ++i) {
        std::uint64_t line;
        llSpinUntil([&] {
            line = slot.lines[i].load(std::memory_order_acquire);
            return llLineFlag(line) == flag;
        });
        const float value = std::bit_cast<float>(llValue(line));
        if (reduce)
            dst[i] += value;
        else
            dst[i] = value;
    }
}

void
Mailbox::llFinishConsume()
{
    ++ll_wait_seq_;
    ll_consumed_.store(ll_wait_seq_, std::memory_order_release);
    delivered_.post();
}

template <typename Fn>
int
Mailbox::consumeSlot(Fn&& consume)
{
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxWait);
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->onMailboxOp(trace_label_, flow_); // may throw (injector)

    obs::RankCounters::global().addMailboxRecv();
    const std::int64_t seq = wait_seq_++;
    // A consumer blocked on an empty ring is waiting for the
    // producer (src_) to post a chunk.
    if (fault != nullptr)
        fault->noteWaitBegin(trace_label_.c_str(), flow_, src_);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        obs::ScopedSpan span(recorder, "wait " + trace_label_,
                             "ccl.mailbox", spanPid(),
                             obs::threadTrack());
        span.arg("seq", static_cast<double>(seq));
        full_.wait();
    } else {
        full_.wait();
    }
    if (fault != nullptr)
        fault->noteWaitEnd();
    Slot& slot = ring_[tail_];
    const int tag = slot.tag;
    consume(slot);
    finishConsume();
    return tag;
}

void
Mailbox::noteOpBegin(OpKind kind)
{
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->onMailboxOp(trace_label_, flow_); // may throw (injector)
    obs::RankCounters& counters = obs::RankCounters::global();
    if (kind == OpKind::kSend)
        counters.addMailboxSend();
    else
        counters.addMailboxRecv();
}

bool
Mailbox::trySend(std::span<const float> data, int tag, Protocol proto)
{
    if (proto == Protocol::kLL)
        return llTrySend(data, tag);
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxPost);
    if (!empty_.tryWait())
        return false;
    // A slot is claimed — from here this is the tail of send():
    // stamp the post sequence, trace the post span (zero wait time on
    // this path, but the seq arg keeps post/wait edge pairing alive in
    // the analyzer), copy, publish.
    const std::int64_t seq = post_seq_++;
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->notePosted(seq);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        obs::ScopedSpan span(recorder, "post " + trace_label_,
                             "ccl.mailbox", spanPid(),
                             obs::threadTrack());
        span.arg("bytes", static_cast<double>(data.size() *
                                              sizeof(float)));
        span.arg("stalled", 0.0);
        span.arg("seq", static_cast<double>(seq));
    }
    Slot& slot = ring_[head_];
    if (slot.data.size() < data.size())
        slot.data.resize(data.size());
    kernels::copyInto(slot.data.data(), data.data(), data.size());
    slot.size = data.size();
    slot.tag = tag;
    head_ = (head_ + 1) % ring_.size();
    full_.post();
    return true;
}

void
Mailbox::finishConsume()
{
    tail_ = (tail_ + 1) % ring_.size();
    empty_.post();
    delivered_.post();
}

bool
Mailbox::tryRecvInto(std::span<float> out, int* tag, Protocol proto)
{
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxWait);
    if (proto == Protocol::kLL) {
        LLHeader header;
        if (!llPeekHeader(&header))
            return false;
        CCUBE_CHECK(header.size == out.size(),
                    "chunk size mismatch: " << header.size << " vs "
                                            << out.size());
        llDecodeBody(header.size, out.data(), /*reduce=*/false);
        if (tag != nullptr)
            *tag = header.tag;
        llFinishConsume();
        return true;
    }
    if (!full_.tryWait())
        return false;
    traceTryWaitSpan(trace_label_, wait_seq_++);
    Slot& slot = ring_[tail_];
    CCUBE_CHECK(slot.size == out.size(),
                "chunk size mismatch: " << slot.size << " vs "
                                        << out.size());
    kernels::copyInto(out.data(), slot.data.data(), slot.size);
    if (tag != nullptr)
        *tag = slot.tag;
    finishConsume();
    return true;
}

bool
Mailbox::tryRecvReduce(std::span<float> out, int* tag, Protocol proto)
{
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxWait);
    if (proto == Protocol::kLL) {
        LLHeader header;
        if (!llPeekHeader(&header))
            return false;
        CCUBE_CHECK(header.size == out.size(),
                    "chunk size mismatch: " << header.size << " vs "
                                            << out.size());
        llDecodeBody(header.size, out.data(), /*reduce=*/true);
        if (tag != nullptr)
            *tag = header.tag;
        llFinishConsume();
        return true;
    }
    if (!full_.tryWait())
        return false;
    traceTryWaitSpan(trace_label_, wait_seq_++);
    Slot& slot = ring_[tail_];
    CCUBE_CHECK(slot.size == out.size(),
                "chunk size mismatch: " << slot.size << " vs "
                                        << out.size());
    kernels::reduceAdd(out.data(), slot.data.data(), slot.size);
    if (tag != nullptr)
        *tag = slot.tag;
    finishConsume();
    return true;
}

bool
Mailbox::tryPeek(std::span<const float>* data, int* tag,
                 Protocol proto)
{
    obs::ScopedProfPhase prof(obs::ProfPhase::kMailboxWait);
    // Idempotent while the front is claimed: a forwarder that parked
    // on downstream capacity re-peeks the same chunk on resume.
    if (!front_claimed_) {
        if (proto == Protocol::kLL) {
            LLHeader header;
            if (!llPeekHeader(&header))
                return false;
            // Decode once into the staging slot; repeated peeks and
            // the eventual releaseFront() work off the copy.
            if (ll_scratch_.data.size() < header.size)
                ll_scratch_.data.resize(header.size);
            llDecodeBody(header.size, ll_scratch_.data.data(),
                         /*reduce=*/false);
            ll_scratch_.size = header.size;
            ll_scratch_.tag = header.tag;
            front_claimed_ = true;
            ll_front_ = true;
        } else {
            if (!full_.tryWait())
                return false;
            traceTryWaitSpan(trace_label_, wait_seq_++);
            front_claimed_ = true;
        }
    }
    const Slot& slot = ll_front_ ? ll_scratch_ : ring_[tail_];
    if (data != nullptr)
        *data = std::span<const float>(slot.data.data(), slot.size);
    if (tag != nullptr)
        *tag = slot.tag;
    return true;
}

void
Mailbox::llAwait(OpKind kind)
{
    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->noteWaitBegin(trace_label_.c_str(), flow_,
                             kind == OpKind::kSend ? dst_ : src_);
    llSpinUntil([this, kind] { return llReady(kind); });
    if (fault != nullptr)
        fault->noteWaitEnd();
}

bool
Mailbox::llReady(OpKind kind) const
{
    if (kind == OpKind::kSend)
        return llSlotFree();
    const LLSlot& slot = ll_ring_[static_cast<std::size_t>(
        ll_wait_seq_ % static_cast<std::int64_t>(ring_.size()))];
    return llLineFlag(slot.header.load(std::memory_order_acquire)) ==
           llFlag(ll_wait_seq_);
}

void
Mailbox::releaseFront()
{
    CCUBE_CHECK(front_claimed_, "releaseFront without tryPeek");
    front_claimed_ = false;
    if (ll_front_) {
        ll_front_ = false;
        llFinishConsume();
        return;
    }
    finishConsume();
}

int
Mailbox::recv(std::vector<float>& out, Protocol proto)
{
    if (proto == Protocol::kLL) {
        const LLHeader header = llWaitHeader();
        out.resize(header.size);
        llDecodeBody(header.size, out.data(), /*reduce=*/false);
        llFinishConsume();
        return header.tag;
    }
    return consumeSlot([&](Slot& slot) {
        // Copy out, keep the slot buffer (its capacity is the whole
        // point of the preallocated ring).
        out.resize(slot.size);
        kernels::copyInto(out.data(), slot.data.data(), slot.size);
    });
}

int
Mailbox::recvInto(std::span<float> out, Protocol proto)
{
    if (proto == Protocol::kLL) {
        const LLHeader header = llWaitHeader();
        CCUBE_CHECK(header.size == out.size(),
                    "chunk size mismatch: " << header.size << " vs "
                                            << out.size());
        llDecodeBody(header.size, out.data(), /*reduce=*/false);
        llFinishConsume();
        return header.tag;
    }
    return consumeSlot([&](Slot& slot) {
        CCUBE_CHECK(slot.size == out.size(),
                    "chunk size mismatch: " << slot.size << " vs "
                                            << out.size());
        kernels::copyInto(out.data(), slot.data.data(), slot.size);
    });
}

int
Mailbox::recvReduce(std::span<float> out, Protocol proto)
{
    if (proto == Protocol::kLL) {
        const LLHeader header = llWaitHeader();
        CCUBE_CHECK(header.size == out.size(),
                    "chunk size mismatch: " << header.size << " vs "
                                            << out.size());
        llDecodeBody(header.size, out.data(), /*reduce=*/true);
        llFinishConsume();
        return header.tag;
    }
    return consumeSlot([&](Slot& slot) {
        CCUBE_CHECK(slot.size == out.size(),
                    "chunk size mismatch: " << slot.size << " vs "
                                            << out.size());
        kernels::reduceAdd(out.data(), slot.data.data(), slot.size);
    });
}

int
Mailbox::consume(const Visitor& visit, Protocol proto)
{
    if (proto == Protocol::kLL) {
        const LLHeader header = llWaitHeader();
        if (ll_scratch_.data.size() < header.size)
            ll_scratch_.data.resize(header.size);
        llDecodeBody(header.size, ll_scratch_.data.data(),
                     /*reduce=*/false);
        ll_scratch_.size = header.size;
        ll_scratch_.tag = header.tag;
        llFinishConsume();
        visit(std::span<const float>(ll_scratch_.data.data(),
                                     ll_scratch_.size),
              ll_scratch_.tag);
        return header.tag;
    }
    return consumeSlot([&](Slot& slot) {
        visit(std::span<const float>(slot.data.data(), slot.size),
              slot.tag);
    });
}

} // namespace ccl
} // namespace ccube
