#ifndef CCUBE_CCL_MAILBOX_H_
#define CCUBE_CCL_MAILBOX_H_

/**
 * @file
 * P2P chunk mailbox: the receive-buffer abstraction between ranks.
 *
 * Models the per-channel receive buffers that the paper's persistent
 * kernels manage with device-side semaphores: a bounded single-
 * producer / single-consumer ring of float chunks. Flow control uses
 * exactly the post/wait protocol of Fig. 11.
 *
 * Fast path: slots are fixed-capacity buffers that are allocated once
 * (first use, or via reserve()) and then reused forever — a send never
 * resizes, and every consume variant reads in place out of the slot
 * buffer. consume() exposes the slot to the caller directly, so
 * forwarders move chunks downstream without a staging copy, mirroring
 * the LL-style "operate on the receive buffer" protocols of real NCCL.
 *
 * Two calling conventions share one ring:
 *
 *  - Blocking: send(), the recv variants and consume() spin in the
 *    Fig. 11 post/wait protocol on the calling thread.
 *  - Non-blocking (every collective, on either engine): a resumable
 *    rank task calls noteOpBegin() once per logical op (fault
 *    injection + telemetry, exactly like the blocking prologue), then
 *    retries trySend()/tryRecv*() and, when the ring says not-yet,
 *    parks on arrivalSemaphore()/freeSlotSemaphore() (state-machine
 *    pool) or waits on it inline (a dedicated executor thread).
 *    tryPeek()/releaseFront() let a forwarder hold the front slot
 *    zero-copy while it waits for downstream capacity.
 *
 * Protocols (ccl/protocol.h): every transfer op takes a Protocol.
 * kSimple (the default) is the fenced bulk path above. kLL switches
 * the op onto a parallel low-latency ring where each 32-bit payload
 * word rides in a 64-bit line next to an inline flag word carrying
 * the message sequence number: the receiver spins on the flags
 * directly and no semaphore is posted or waited on the data path.
 * The two rings share the fault hooks, trace sequence numbers and
 * delivered() count, so watchdog blame and post/wait span pairing
 * behave identically on both paths — but an LL message can only be
 * received by an LL op (the protocol is a property of the collective,
 * not negotiated per message). LL ops never touch arrival/free-slot
 * semaphores, so rank tasks poll instead of parking or waiting.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ccl/protocol.h"
#include "ccl/sync_primitives.h"

namespace ccube {
namespace ccl {

/**
 * Bounded SPSC queue of float chunks with an integer tag.
 */
class Mailbox
{
  public:
    /** In-place consumer: sees the arrived chunk and its tag. */
    using Visitor = std::function<void(std::span<const float> data,
                                       int tag)>;

    /** Creates a mailbox with @p slots receive buffers. */
    explicit Mailbox(int slots);

    Mailbox(const Mailbox&) = delete;
    Mailbox& operator=(const Mailbox&) = delete;

    /**
     * Preallocates every slot buffer to hold @p elems floats, so the
     * steady state never allocates (slot capacity only ever grows).
     */
    void reserve(std::size_t elems);

    /**
     * Copies @p data into the next free slot (blocking while all
     * receive buffers are occupied) and posts its arrival. Reuses the
     * slot's existing capacity; allocates only when the chunk is
     * larger than anything the slot has carried before.
     */
    void send(std::span<const float> data, int tag = 0,
              Protocol proto = Protocol::kSimple);

    /**
     * Blocks until a chunk arrives, copies it into @p out (resized to
     * match), frees the receive buffer, and returns the tag. The slot
     * buffer is retained for reuse.
     */
    int recv(std::vector<float>& out,
             Protocol proto = Protocol::kSimple);

    /**
     * Receives directly into @p out via a single vectorized copy; the
     * incoming chunk must have exactly out.size() elements.
     */
    int recvInto(std::span<float> out,
                 Protocol proto = Protocol::kSimple);

    /**
     * Receives and element-wise accumulates into @p out (the reduction
     * step of AllReduce) via a single vectorized accumulate loop over
     * the slot buffer; sizes must match. Returns the tag. On the LL
     * path the accumulation happens per element in ascending index
     * order as each flag arrives — the same per-element float adds in
     * the same order as the Simple path, so results stay
     * byte-identical across protocols.
     */
    int recvReduce(std::span<float> out,
                   Protocol proto = Protocol::kSimple);

    /**
     * Blocks until a chunk arrives and runs @p visit on the slot
     * buffer in place (zero staging copies), then frees the receive
     * buffer. The span is valid only during the visit (LL: the chunk
     * is decoded into an internal staging buffer first). Returns the
     * tag.
     */
    int consume(const Visitor& visit,
                Protocol proto = Protocol::kSimple);

    // ---- non-blocking surface (state-machine runtime) ----

    /** Which side of the ring a logical op touches. */
    enum class OpKind { kSend, kRecv };

    /**
     * The blocking prologue, split out for the non-blocking path:
     * runs the fault injector hook (may throw RankKilled, or block a
     * worker in an injected stall) and counts the op in the per-rank
     * telemetry. A rank task calls this exactly once per *logical*
     * op — before its first try* attempt — so injector at-op indices
     * count logical ops, as with the blocking calls.
     */
    void noteOpBegin(OpKind kind);

    /**
     * Non-blocking send(): returns false (no side effects) while all
     * receive buffers are occupied. On success the chunk is copied,
     * its arrival posted, and the post sequence advanced — identical
     * to send() minus the blocking prologue (see noteOpBegin).
     */
    bool trySend(std::span<const float> data, int tag = 0,
                 Protocol proto = Protocol::kSimple);

    /**
     * Non-blocking recvInto(): returns false while no chunk has
     * arrived; on success behaves exactly like recvInto(), storing
     * the tag in @p tag when non-null. The LL variant returns false
     * while the message header flag has not landed; once it has, the
     * producer is committed to the whole message, so the remaining
     * per-word flag spins are bounded.
     */
    bool tryRecvInto(std::span<float> out, int* tag = nullptr,
                     Protocol proto = Protocol::kSimple);

    /** Non-blocking recvReduce(); see tryRecvInto(). */
    bool tryRecvReduce(std::span<float> out, int* tag = nullptr,
                       Protocol proto = Protocol::kSimple);

    /**
     * Non-blocking zero-copy front access for forwarders: claims the
     * front chunk (without freeing its receive buffer) and exposes it
     * in place. Returns false while no chunk has arrived. Repeated
     * calls before releaseFront() return the same chunk. The span is
     * valid until releaseFront(). (LL: the chunk is decoded once into
     * an internal staging buffer; the slot stays claimed until
     * releaseFront().)
     */
    bool tryPeek(std::span<const float>* data, int* tag = nullptr,
                 Protocol proto = Protocol::kSimple);

    /** Frees the receive buffer claimed by tryPeek(). */
    void releaseFront();

    /**
     * Blocks until a failed LL op of @p kind could succeed: the front
     * LL message's header has landed (kRecv, consumer thread only) or
     * an LL slot is free (kSend, producer thread only). The LL
     * counterpart of BoundedSemaphore::waitNonzero, with the blocking
     * LL ops' accounting: wait site published, the spin charged to
     * ll_spin_ns, abort epoch polled. The caller then retries its op.
     */
    void llAwait(OpKind kind);

    /** Arrival semaphore (consumer side parks here on empty ring). */
    BoundedSemaphore& arrivalSemaphore() { return full_; }

    /** Free-slot semaphore (producer side parks here on full ring). */
    BoundedSemaphore& freeSlotSemaphore() { return empty_; }

    /** Trace label ("mb src->dst/fN"), for park blame reporting. */
    const std::string& traceLabel() const { return trace_label_; }

    /**
     * Names the producer and consumer ranks (set by the Communicator
     * at creation, like the trace label). These are the wait-for
     * graph edges: a consumer blocked here waits on srcRank(), a
     * producer blocked on a full ring waits on dstRank(). -1 when the
     * mailbox lives outside a communicator.
     */
    void setEndpoints(int src, int dst);

    /** Producer rank; -1 outside a communicator. */
    int srcRank() const { return src_; }

    /** Consumer rank; -1 outside a communicator. */
    int dstRank() const { return dst_; }

    // ---- introspection ----

    /** Number of receive buffers. */
    int slots() const { return static_cast<int>(ring_.size()); }

    /** Total chunks delivered (for telemetry/tests). */
    std::int64_t delivered() const { return delivered_.value(); }

    /**
     * Names this mailbox for trace spans (e.g. "mb 0->1/f2", set by
     * the Communicator at creation). Post/wait spans then carry the
     * label; an unlabeled mailbox still traces as "mb ?".
     */
    void setTraceLabel(std::string label);

    /**
     * Flow id this mailbox carries (Communicator::Flow), reported in
     * CollectiveError when a rank is caught blocked here. -1 when the
     * mailbox lives outside a communicator.
     */
    void setFlowId(int flow);

    int flowId() const { return flow_; }

    /**
     * Discards any undelivered chunks and reinitializes the flow-
     * control state, as if freshly constructed (slot capacity is
     * kept). Only valid while no thread is using the mailbox — the
     * Communicator calls this from clearAbort(), after an aborted
     * collective has fully unwound, so the next collective does not
     * consume stale in-flight messages.
     */
    void reset();

  private:
    struct Slot {
        std::vector<float> data; ///< capacity persists across reuse
        std::size_t size = 0;    ///< valid prefix of data
        int tag = 0;
    };

    /**
     * One LL receive buffer. Every 64-bit line packs a 32-bit value
     * in the low half and a 32-bit arrival flag (the message sequence
     * number + 1, so a freshly zeroed line never matches) in the high
     * half — the NCCL LL wire format. header carries the element
     * count, tag_line the tag, lines[i] payload word i. The producer
     * publishes header (release) after allocating lines and before
     * the payload words, so the consumer can stream: it spins on the
     * header flag, learns the size, then spins per line in ascending
     * index order while the producer is still writing the tail.
     */
    struct LLSlot {
        std::atomic<std::uint64_t> header{0};
        std::atomic<std::uint64_t> tag_line{0};
        std::unique_ptr<std::atomic<std::uint64_t>[]> lines;
        std::size_t capacity = 0; ///< allocated lines
    };

    /** Runs @p consume on the arrived slot, then releases it. */
    template <typename Fn>
    int consumeSlot(Fn&& consume);

    /** Shared tail of every successful receive: advance the consumer
     *  cursor, free the slot, count the delivery. */
    void finishConsume();

    // ---- LL lane ----

    /** Arrival flag for LL message @p seq (never 0 on first use). */
    static std::uint32_t llFlag(std::int64_t seq)
    {
        return static_cast<std::uint32_t>(seq) + 1u;
    }

    /** Whether a failed LL op of @p kind could now succeed (see
     *  llAwait). */
    bool llReady(OpKind kind) const;

    /** True while the producer's next LL slot is free to overwrite. */
    bool llSlotFree() const
    {
        return ll_post_seq_ -
                   ll_consumed_.load(std::memory_order_acquire) <
               static_cast<std::int64_t>(ring_.size());
    }

    /** Grows (if needed) and publishes the next LL slot. */
    void llWriteSlot(std::span<const float> data, int tag);

    /** Blocking LL send body (prologue already run by caller). */
    void llSend(std::span<const float> data, int tag);

    bool llTrySend(std::span<const float> data, int tag);

    struct LLHeader {
        std::size_t size = 0;
        int tag = 0;
    };

    /**
     * Blocking LL receive prologue: fault hook, telemetry, trace
     * span, then spins for the front message's header flag. Returns
     * its size and tag; the payload is still (possibly) in flight —
     * stream it with llDecodeBody, then llFinishConsume.
     */
    LLHeader llWaitHeader();

    /** Non-blocking header check; traces and fills @p out on hit. */
    bool llPeekHeader(LLHeader* out);

    /**
     * Streams the front LL message's payload words in ascending index
     * order, spinning per line (bounded once the header has landed),
     * copying or accumulating into @p dst. Per-element adds in index
     * order keep reductions byte-identical to the Simple path.
     */
    void llDecodeBody(std::size_t size, float* dst, bool reduce);

    /** Frees the consumer's LL slot and counts the delivery. */
    void llFinishConsume();

    std::vector<Slot> ring_;
    BoundedSemaphore full_;
    BoundedSemaphore empty_;
    std::size_t head_ = 0; ///< producer cursor (producer thread only)
    std::size_t tail_ = 0; ///< consumer cursor (consumer thread only)
    bool front_claimed_ = false; ///< tryPeek holds the front slot
    // Delivery sequence numbers stamped on post/wait trace spans so the
    // analyzer can pair them into cross-rank dependency edges. SPSC
    // FIFO order means wait #n always consumes post #n. Incremented
    // unconditionally (one add per op) so the pairing stays aligned
    // even when tracing is toggled mid-stream.
    std::int64_t post_seq_ = 0; ///< producer thread only
    std::int64_t wait_seq_ = 0; ///< consumer thread only
    // LL ring state. The lane keeps its own SPSC cursors (so Simple
    // and LL collectives interleaved on one mailbox cannot desync the
    // flag sequence) while still bumping post_seq_/wait_seq_ above for
    // trace-span pairing. ll_consumed_ is the only cross-thread word:
    // the consumer releases it past each finished message and the
    // producer acquires it for flow control (slot reuse safety).
    std::unique_ptr<LLSlot[]> ll_ring_;
    std::int64_t ll_post_seq_ = 0; ///< producer thread only
    std::int64_t ll_wait_seq_ = 0; ///< consumer thread only
    std::atomic<std::int64_t> ll_consumed_{0};
    Slot ll_scratch_;       ///< consumer staging (consume/tryPeek)
    bool ll_front_ = false; ///< tryPeek front came from the LL lane
    CheckableCounter delivered_;
    std::string trace_label_ = "mb ?";
    int flow_ = -1;
    int src_ = -1;
    int dst_ = -1;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_MAILBOX_H_
