#include "ccl/algorithm_tasks.h"

#include <span>
#include <string>
#include <utility>

#include "ccl/fault.h"
#include "obs/trace.h"
#include "topo/detour_router.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

namespace {

using topo::NodeId;
using topo::PhaseDirection;
using topo::Route;

/**
 * Trace span for resumable tasks. obs::ScopedSpan assumes a phase
 * runs start-to-finish on one OS thread; a task parks and migrates
 * across pool workers mid-phase, so the start stamp lives in task
 * state instead and one complete event is emitted at phase end with
 * explicit timestamps, on the track StepContext::traceTrack names
 * (on the pool, track 0 keeps every phase of a rank on a single trace
 * row regardless of which worker executed it).
 */
class PhaseSpan
{
  public:
    /** Stamps the phase start (no-op while tracing is disabled). */
    void begin()
    {
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        start_us_ = recorder.enabled() ? recorder.wallNowUs() : -1.0;
    }

    /** Whether begin() stamped a start that end() has yet to emit. */
    bool open() const { return start_us_ >= 0.0; }

    /** Emits the complete event; a no-op without a matching begin. */
    void end(const StepContext& ctx, std::string_view name, int rank)
    {
        if (start_us_ < 0.0)
            return;
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        if (recorder.enabled())
            recorder.completeEvent(name, "ccl.allreduce",
                                   obs::pids::cclRank(rank),
                                   ctx.traceTrack(), start_us_,
                                   recorder.wallNowUs() - start_us_);
        start_us_ = -1.0;
    }

  private:
    double start_us_ = -1.0;
};

/**
 * Resumable form of the ring body (ring_allreduce.cpp /
 * primitives.cpp): alternating send/recv steps with the same chunk
 * index formulas, one kContinue per completed pipeline step.
 */
class RingTask final : public RankTask
{
  public:
    RingTask(int rank, int pos, int p, std::span<float> buffer,
             const ChunkSplit& split, Mailbox& to_next,
             Mailbox& from_prev, RingPhase phase, AllReduceTrace* trace,
             Protocol proto, SkipMask resume)
        : RankTask(rank, "ring"), pos_(pos), p_(p), buffer_(buffer),
          split_(split), to_next_(to_next), from_prev_(from_prev),
          phase_(phase), trace_(trace), proto_(proto),
          resume_(std::move(resume))
    {
        if (phase_ == RingPhase::kAllGather)
            state_ = St::kAgSend;
        // Phase spans only for the full AllReduce (the one-phase
        // primitives trace nothing).
        if (phase_ == RingPhase::kAllReduce)
            span_.begin();
    }

    StepStatus step(StepContext& ctx) override
    {
        for (;;) {
            switch (state_) {
              case St::kRsSend: {
                if (s_ >= p_ - 1) {
                    finishReduceScatter(ctx);
                    break;
                }
                const int chunk = (pos_ - s_ + p_) % p_;
                // Resumed chunk: already final everywhere, both ends
                // of the hop skip it (same id per step on each side).
                if (resume_.done(chunk)) {
                    state_ = St::kRsRecv;
                    break;
                }
                if (!op_begun_) {
                    to_next_.noteOpBegin(Mailbox::OpKind::kSend);
                    op_begun_ = true;
                }
                if (!to_next_.trySend(
                        split_.slice(std::span<const float>(buffer_),
                                     chunk),
                        chunk, proto_))
                    return ctx.awaitFreeSlot(to_next_, proto_);
                op_begun_ = false;
                state_ = St::kRsRecv;
                break;
              }
              case St::kRsRecv: {
                const int chunk = (pos_ - s_ - 1 + p_) % p_;
                if (resume_.done(chunk)) {
                    ++s_;
                    state_ = St::kRsSend;
                    break;
                }
                if (!op_begun_) {
                    from_prev_.noteOpBegin(Mailbox::OpKind::kRecv);
                    op_begun_ = true;
                }
                int tag = -1;
                if (!from_prev_.tryRecvReduce(
                        split_.slice(buffer_, chunk), &tag, proto_))
                    return ctx.awaitArrival(from_prev_, proto_);
                op_begun_ = false;
                CCUBE_CHECK(tag == chunk,
                            "ring chunk out of sequence");
                ++s_;
                state_ = St::kRsSend;
                return StepStatus::kContinue;
              }
              case St::kAgSend: {
                if (s_ >= p_ - 1) {
                    if (phase_ == RingPhase::kAllReduce)
                        span_.end(ctx, "ring.allgather", rank());
                    state_ = St::kDone;
                    break;
                }
                const int chunk = (pos_ + 1 - s_ + p_) % p_;
                if (resume_.done(chunk)) {
                    state_ = St::kAgRecv;
                    break;
                }
                if (!op_begun_) {
                    to_next_.noteOpBegin(Mailbox::OpKind::kSend);
                    op_begun_ = true;
                }
                if (!to_next_.trySend(
                        split_.slice(std::span<const float>(buffer_),
                                     chunk),
                        chunk, proto_))
                    return ctx.awaitFreeSlot(to_next_, proto_);
                op_begun_ = false;
                state_ = St::kAgRecv;
                break;
              }
              case St::kAgRecv: {
                const int chunk = (pos_ - s_ + p_) % p_;
                if (resume_.done(chunk)) {
                    ++s_;
                    state_ = St::kAgSend;
                    break;
                }
                if (!op_begun_) {
                    from_prev_.noteOpBegin(Mailbox::OpKind::kRecv);
                    op_begun_ = true;
                }
                int tag = -1;
                if (!from_prev_.tryRecvInto(
                        split_.slice(buffer_, chunk), &tag, proto_))
                    return ctx.awaitArrival(from_prev_, proto_);
                op_begun_ = false;
                CCUBE_CHECK(tag == chunk,
                            "ring chunk out of sequence");
                if (phase_ == RingPhase::kAllReduce && trace_)
                    trace_->record(rank(), chunk);
                ++s_;
                state_ = St::kAgSend;
                return StepStatus::kContinue;
              }
              case St::kDone:
                return StepStatus::kDone;
            }
        }
    }

  private:
    enum class St { kRsSend, kRsRecv, kAgSend, kAgRecv, kDone };

    void finishReduceScatter(const StepContext& ctx)
    {
        if (phase_ == RingPhase::kReduceScatter) {
            state_ = St::kDone;
            return;
        }
        // This rank now owns the fully reduced chunk at ring position
        // (pos+1) mod P — the first chunk available here.
        if (trace_ && !resume_.done((pos_ + 1) % p_))
            trace_->record(rank(), (pos_ + 1) % p_);
        span_.end(ctx, "ring.reduce_scatter", rank());
        span_.begin();
        s_ = 0;
        state_ = St::kAgSend;
    }

    const int pos_;
    const int p_;
    const std::span<float> buffer_;
    const ChunkSplit split_;
    Mailbox& to_next_;
    Mailbox& from_prev_;
    const RingPhase phase_;
    AllReduceTrace* const trace_;
    const Protocol proto_;
    const SkipMask resume_;

    St state_ = St::kRsSend;
    int s_ = 0;
    bool op_begun_ = false;
    PhaseSpan span_;
};

/**
 * Tree AllReduce and the one-direction tree primitives. One task
 * covers one pipeline of one rank:
 *   - Role::kReduce — the reduction pipeline (at the AllReduce root it
 *     also records completion and, depending on the phase mode, fans
 *     the reduced chunk out to the children inline or in a tail loop);
 *   - Role::kBroadcast — the broadcast pipeline (the root variant
 *     sends its own buffer down, the treeBroadcast primitive);
 *   - Role::kBoth — two-phase non-root: reduction chained into
 *     broadcast in the same task, strictly one after the other.
 * Overlapped non-root ranks get one kReduce and one kBroadcast task:
 * the two pipelines run concurrently (paper §III-C).
 */
class TreeTask final : public RankTask
{
  public:
    enum class Role { kReduce, kBroadcast, kBoth };

    struct Plan {
        Plan(std::span<float> buffer, const ChunkSplit& split)
            : buffer(buffer), split(split)
        {
        }

        std::span<float> buffer;
        ChunkSplit split;
        bool is_root = false;
        bool root_broadcasts = false; ///< AllReduce root fans out
        TreePhaseMode mode = TreePhaseMode::kTwoPhase;
        Mailbox* up_parent = nullptr;
        Mailbox* down_parent = nullptr;
        std::vector<Mailbox*> up_children;
        std::vector<Mailbox*> down_children;
        AllReduceTrace* trace = nullptr;
        int chunk_offset = 0;
        Protocol proto = Protocol::kSimple;
        /** Local chunk ids this tree still moves, in pipeline order —
         *  all of them on a fresh run, the not-yet-final subset on a
         *  supervised retry. Every rank derives the same list from the
         *  same mask, so tags stay matched hop by hop; one list is
         *  shared by every task of the tree. */
        std::shared_ptr<const std::vector<int>> chunks;
    };

    TreeTask(int rank, const char* label, Role role, Plan plan)
        : RankTask(rank, label), role_(role), plan_(std::move(plan))
    {
        // Span placement: the reduction and non-root broadcast
        // pipelines each get a span; the two-phase root's tail fan-out
        // (kRootSend) traces nothing.
        if (role_ == Role::kBroadcast) {
            state_ = plan_.is_root ? St::kRootSend : St::kBcastRecv;
            if (!plan_.is_root)
                span_.begin();
        } else {
            span_.begin();
        }
        // Everything already final (a retry with a full checkpoint):
        // the pipeline has no chunks to move.
        if (plan_.chunks->empty())
            state_ = St::kDone;
    }

    StepStatus step(StepContext& ctx) override
    {
        for (;;) {
            switch (state_) {
              case St::kReduceRecv: {
                if (child_ >= plan_.up_children.size()) {
                    child_ = 0;
                    if (!plan_.is_root) {
                        state_ = St::kReduceSendUp;
                        break;
                    }
                    if (plan_.trace)
                        plan_.trace->record(
                            rank(), plan_.chunk_offset + chunkId());
                    if (plan_.root_broadcasts &&
                        plan_.mode == TreePhaseMode::kOverlapped) {
                        state_ = St::kInlineBcast;
                        break;
                    }
                    if (!advanceReduceChunk(ctx))
                        break;
                    return StepStatus::kContinue;
                }
                Mailbox& box = *plan_.up_children[child_];
                if (!op_begun_) {
                    box.noteOpBegin(Mailbox::OpKind::kRecv);
                    op_begun_ = true;
                }
                int tag = -1;
                if (!box.tryRecvReduce(
                        plan_.split.slice(plan_.buffer, chunkId()),
                        &tag, plan_.proto))
                    return ctx.awaitArrival(box, plan_.proto);
                op_begun_ = false;
                CCUBE_CHECK(tag == chunkId(),
                            "reduction chunk out of order");
                ++child_;
                break;
              }
              case St::kReduceSendUp: {
                if (!op_begun_) {
                    plan_.up_parent->noteOpBegin(Mailbox::OpKind::kSend);
                    op_begun_ = true;
                }
                if (!plan_.up_parent->trySend(constSlice(chunkId()),
                                              chunkId(), plan_.proto))
                    return ctx.awaitFreeSlot(*plan_.up_parent,
                                             plan_.proto);
                op_begun_ = false;
                if (!advanceReduceChunk(ctx))
                    break;
                return StepStatus::kContinue;
              }
              case St::kInlineBcast: {
                // Overlapped root: chunk fans out the moment it is
                // fully reduced, then the reduction pipeline resumes.
                if (child_ >= plan_.down_children.size()) {
                    child_ = 0;
                    if (!advanceReduceChunk(ctx))
                        break;
                    return StepStatus::kContinue;
                }
                if (!trySendChild(ctx, chunkId()))
                    return blocked_status_;
                break;
              }
              case St::kRootSend: {
                // Two-phase root tail / treeBroadcast root: push own
                // buffer down chunk by chunk.
                if (child_ >= plan_.down_children.size()) {
                    child_ = 0;
                    ++chunk_;
                    if (chunk_ >= activeCount()) {
                        state_ = St::kDone;
                        break;
                    }
                    return StepStatus::kContinue;
                }
                if (!trySendChild(ctx, chunkId()))
                    return blocked_status_;
                break;
              }
              case St::kBcastRecv: {
                Mailbox& box = *plan_.down_parent;
                if (!op_begun_) {
                    box.noteOpBegin(Mailbox::OpKind::kRecv);
                    op_begun_ = true;
                }
                int tag = -1;
                if (!box.tryRecvInto(
                        plan_.split.slice(plan_.buffer, chunkId()),
                        &tag, plan_.proto))
                    return ctx.awaitArrival(box, plan_.proto);
                op_begun_ = false;
                CCUBE_CHECK(tag == chunkId(),
                            "broadcast chunk out of order");
                if (plan_.trace)
                    plan_.trace->record(rank(),
                                        plan_.chunk_offset + chunkId());
                state_ = St::kBcastSendDown;
                break;
              }
              case St::kBcastSendDown: {
                if (child_ >= plan_.down_children.size()) {
                    child_ = 0;
                    ++chunk_;
                    if (chunk_ >= activeCount()) {
                        span_.end(ctx, "tree.broadcast", rank());
                        state_ = St::kDone;
                        break;
                    }
                    state_ = St::kBcastRecv;
                    return StepStatus::kContinue;
                }
                if (!trySendChild(ctx, chunkId()))
                    return blocked_status_;
                break;
              }
              case St::kDone:
                return StepStatus::kDone;
            }
        }
    }

  private:
    enum class St {
        kReduceRecv,
        kReduceSendUp,
        kInlineBcast,
        kRootSend,
        kBcastRecv,
        kBcastSendDown,
        kDone,
    };

    std::span<const float> constSlice(int chunk) const
    {
        return plan_.split.slice(
            std::span<const float>(plan_.buffer), chunk);
    }

    /** Chunks this pipeline still moves (plan_.chunks entries). */
    int activeCount() const
    {
        return static_cast<int>(plan_.chunks->size());
    }

    /** Local chunk id at pipeline position chunk_. */
    int chunkId() const
    {
        return (*plan_.chunks)[static_cast<std::size_t>(chunk_)];
    }

    /** Sends chunk @p chunk to down_children[child_]; false = blocked
     *  (the caller must return blocked_status_: kParked under Simple,
     *  kContinue under LL where parking is impossible; a racing post
     *  already turned the park into an immediate retry via the loop). */
    bool trySendChild(StepContext& ctx, int chunk)
    {
        Mailbox& box = *plan_.down_children[child_];
        if (!op_begun_) {
            box.noteOpBegin(Mailbox::OpKind::kSend);
            op_begun_ = true;
        }
        if (!box.trySend(constSlice(chunk), chunk, plan_.proto)) {
            const StepStatus blocked =
                ctx.awaitFreeSlot(box, plan_.proto);
            if (blocked == StepStatus::kParked ||
                plan_.proto == Protocol::kLL) {
                blocked_status_ = blocked;
                return false;
            }
            return true; // raced in: retry the send on the next loop
        }
        op_begun_ = false;
        ++child_;
        return true;
    }

    /** Advances the reduction pipeline to the next chunk; returns
     *  false when the reduction is over (state_ already moved on). */
    bool advanceReduceChunk(const StepContext& ctx)
    {
        ++chunk_;
        if (chunk_ < activeCount()) {
            state_ = St::kReduceRecv;
            return true;
        }
        chunk_ = 0;
        child_ = 0;
        span_.end(ctx, "tree.reduce", rank());
        if (plan_.is_root && plan_.root_broadcasts &&
            plan_.mode == TreePhaseMode::kTwoPhase) {
            state_ = St::kRootSend;
            return false;
        }
        if (role_ == Role::kBoth) {
            span_.begin();
            state_ = St::kBcastRecv;
            return false;
        }
        state_ = St::kDone;
        return false;
    }

    const Role role_;
    Plan plan_;

    St state_ = St::kReduceRecv;
    int chunk_ = 0;
    std::size_t child_ = 0;
    bool op_begun_ = false;
    StepStatus blocked_status_ = StepStatus::kParked;
    PhaseSpan span_;
};

/**
 * Detour forwarder — the software analog of the paper's static
 * forwarding kernels (§IV-A): peek the upstream chunk in place, send
 * it downstream, then release the upstream receive buffer — zero
 * staging copies.
 */
class ForwardTask final : public RankTask
{
  public:
    ForwardTask(int transit, int upstream, int downstream, Mailbox& in,
                Mailbox& out, int num_chunks, Protocol proto)
        : RankTask(transit, "forward"), in_(in), out_(out),
          num_chunks_(num_chunks), proto_(proto), upstream_(upstream),
          downstream_(downstream)
    {
        span_.begin();
    }

    StepStatus step(StepContext& ctx) override
    {
        for (;;) {
            switch (state_) {
              case St::kAwaitChunk: {
                if (chunk_ >= num_chunks_) {
                    if (span_.open())
                        span_.end(ctx,
                                  "tree.forward " +
                                      std::to_string(upstream_) + "->" +
                                      std::to_string(downstream_),
                                  rank());
                    state_ = St::kDone;
                    break;
                }
                if (!in_begun_) {
                    in_.noteOpBegin(Mailbox::OpKind::kRecv);
                    in_begun_ = true;
                }
                std::span<const float> data;
                int tag = -1;
                if (!in_.tryPeek(&data, &tag, proto_))
                    return ctx.awaitArrival(in_, proto_);
                state_ = St::kSendOn;
                break;
              }
              case St::kSendOn: {
                std::span<const float> data;
                int tag = -1;
                const bool have = in_.tryPeek(&data, &tag, proto_);
                CCUBE_CHECK(have, "claimed forward chunk vanished");
                if (!out_begun_) {
                    out_.noteOpBegin(Mailbox::OpKind::kSend);
                    out_begun_ = true;
                }
                if (!out_.trySend(data, tag, proto_))
                    return ctx.awaitFreeSlot(out_, proto_);
                in_.releaseFront();
                in_begun_ = false;
                out_begun_ = false;
                ++chunk_;
                state_ = St::kAwaitChunk;
                return StepStatus::kContinue;
              }
              case St::kDone:
                return StepStatus::kDone;
            }
        }
    }

  private:
    enum class St { kAwaitChunk, kSendOn, kDone };

    Mailbox& in_;
    Mailbox& out_;
    const int num_chunks_;
    const Protocol proto_;

    St state_ = St::kAwaitChunk;
    int chunk_ = 0;
    bool in_begun_ = false;
    bool out_begun_ = false;
    const int upstream_;
    const int downstream_;
    PhaseSpan span_;
};

} // namespace

std::vector<std::unique_ptr<RankTask>>
buildRingTasks(Communicator& comm, RankBuffers& buffers,
               const topo::RingEmbedding& ring, RingPhase phase,
               AllReduceTrace* trace, Protocol proto,
               const SkipMask& resume)
{
    const int p = comm.numRanks();
    const ChunkSplit split(buffers[0].size(), p);

    std::vector<int> position(static_cast<std::size_t>(p), -1);
    for (int pos = 0; pos < p; ++pos)
        position[static_cast<std::size_t>(
            ring.order[static_cast<std::size_t>(pos)])] = pos;

    std::vector<std::unique_ptr<RankTask>> tasks;
    tasks.reserve(static_cast<std::size_t>(p));
    for (int rank = 0; rank < p; ++rank) {
        const int pos = position[static_cast<std::size_t>(rank)];
        const int next =
            ring.order[static_cast<std::size_t>((pos + 1) % p)];
        const int prev =
            ring.order[static_cast<std::size_t>((pos + p - 1) % p)];
        tasks.push_back(std::make_unique<RingTask>(
            rank, pos, p,
            std::span<float>(buffers[static_cast<std::size_t>(rank)]),
            split, comm.mailbox(rank, next, kFlowRing),
            comm.mailbox(prev, rank, kFlowRing), phase, trace,
            proto, resume));
        tasks.back()->setMain(true);
    }
    return tasks;
}

void
appendTreeTasks(std::vector<std::unique_ptr<RankTask>>& out,
                Communicator& comm, RankBuffers& buffers,
                const topo::TreeEmbedding& embedding,
                std::size_t region_offset, std::size_t region_size,
                const ChunkSplit& split, TreePhaseMode mode,
                TreeFlowIds flows, TreeDirection direction,
                AllReduceTrace* trace, int chunk_id_offset,
                const char* label, Protocol proto,
                const SkipMask& resume)
{
    const topo::BinaryTree& tree = embedding.tree;
    const int p = comm.numRanks();
    const int num_chunks = split.count();
    const bool want_reduce = direction != TreeDirection::kBroadcast;
    const bool want_bcast = direction != TreeDirection::kReduce;

    // Active chunk list: the local chunk ids this tree still moves.
    // Every rank (and every forwarder) derives the same list from the
    // same global mask, so the pipelines stay in lockstep and tags
    // match hop by hop even when a retry skips finished chunks.
    auto active = std::make_shared<std::vector<int>>();
    active->reserve(static_cast<std::size_t>(num_chunks));
    for (int c = 0; c < num_chunks; ++c)
        if (!resume.done(chunk_id_offset + c))
            active->push_back(c);
    const int active_count = static_cast<int>(active->size());

    // Detour forwarders of this tree, filtered to the direction(s) in
    // play, each its own task on the transit rank.
    for (const topo::ForwardingRule& rule :
         topo::cachedForwardingRules(embedding, /*tree_index=*/0)) {
        const bool reduction =
            rule.phase == PhaseDirection::kReduction;
        if (reduction ? !want_reduce : !want_bcast)
            continue;
        const FlowId flow =
            reduction ? flows.reduce : flows.broadcast;
        out.push_back(std::make_unique<ForwardTask>(
            rule.transit, rule.upstream, rule.downstream,
            comm.mailbox(rule.upstream, rule.transit, flow),
            comm.mailbox(rule.transit, rule.downstream, flow),
            active_count, proto));
    }

    // Route of every node's edge from its parent, indexed by node,
    // resolved in one pass over the embedding (routeToChild rescans
    // every edge per lookup). A route runs parent → child, so its last
    // hop names the child.
    std::vector<const Route*> route_from_parent(
        static_cast<std::size_t>(p), nullptr);
    for (const Route& route : embedding.routes)
        route_from_parent[static_cast<std::size_t>(route.hops.back())] =
            &route;

    for (int rank = 0; rank < p; ++rank) {
        TreeTask::Plan plan(
            std::span<float>(buffers[static_cast<std::size_t>(rank)])
                .subspan(region_offset, region_size),
            split);
        plan.is_root = tree.root() == rank;
        plan.root_broadcasts =
            direction == TreeDirection::kAllReduce;
        plan.mode = mode;
        plan.trace =
            direction == TreeDirection::kAllReduce ? trace : nullptr;
        plan.chunk_offset = chunk_id_offset;
        plan.proto = proto;
        plan.chunks = active;

        if (!plan.is_root) {
            const Route& route =
                *route_from_parent[static_cast<std::size_t>(rank)];
            const NodeId parent_hop =
                route.hops[route.hops.size() - 2];
            if (want_reduce)
                plan.up_parent =
                    &comm.mailbox(rank, parent_hop, flows.reduce);
            if (want_bcast)
                plan.down_parent = &comm.mailbox(parent_hop, rank,
                                                 flows.broadcast);
        }
        for (NodeId child : tree.children(rank)) {
            const NodeId hop =
                route_from_parent[static_cast<std::size_t>(child)]
                    ->hops[1];
            if (want_reduce)
                plan.up_children.push_back(
                    &comm.mailbox(hop, rank, flows.reduce));
            if (want_bcast)
                plan.down_children.push_back(
                    &comm.mailbox(rank, hop, flows.broadcast));
        }

        switch (direction) {
          case TreeDirection::kReduce:
            out.push_back(std::make_unique<TreeTask>(
                rank, label, TreeTask::Role::kReduce,
                std::move(plan)));
            break;
          case TreeDirection::kBroadcast:
            out.push_back(std::make_unique<TreeTask>(
                rank, label, TreeTask::Role::kBroadcast,
                std::move(plan)));
            break;
          case TreeDirection::kAllReduce:
            if (plan.is_root) {
                out.push_back(std::make_unique<TreeTask>(
                    rank, label, TreeTask::Role::kReduce,
                    std::move(plan)));
            } else if (mode == TreePhaseMode::kTwoPhase) {
                out.push_back(std::make_unique<TreeTask>(
                    rank, label, TreeTask::Role::kBoth,
                    std::move(plan)));
            } else {
                // Overlapped non-root: concurrent reducer and
                // broadcaster pipelines, one task each, each with only
                // its own direction's mailboxes (no plan copy: every
                // call builds its tasks on the calling thread).
                TreeTask::Plan bcast_plan(plan.buffer, plan.split);
                bcast_plan.mode = mode;
                bcast_plan.down_parent = plan.down_parent;
                bcast_plan.down_children =
                    std::move(plan.down_children);
                bcast_plan.trace = plan.trace;
                bcast_plan.chunk_offset = chunk_id_offset;
                bcast_plan.proto = proto;
                bcast_plan.chunks = plan.chunks;
                out.push_back(std::make_unique<TreeTask>(
                    rank, "reduce", TreeTask::Role::kReduce,
                    std::move(plan)));
                out.push_back(std::make_unique<TreeTask>(
                    rank, label, TreeTask::Role::kBroadcast,
                    std::move(bcast_plan)));
            }
            break;
        }
        // The rank's pipeline task (the broadcaster when overlapped;
        // the reducer is a helper beside it) is appended last.
        out.back()->setMain(true);
    }
}

std::vector<std::unique_ptr<RankTask>>
buildDoubleTreeTasks(Communicator& comm, RankBuffers& buffers,
                     const topo::DoubleTreeEmbedding& embedding,
                     int chunks_per_tree, TreePhaseMode mode,
                     AllReduceTrace& trace, Protocol proto,
                     const SkipMask& resume)
{
    const std::size_t total = buffers[0].size();
    const std::size_t half = total / 2;
    const ChunkSplit split0(half, chunks_per_tree);
    const ChunkSplit split1(total - half, chunks_per_tree);

    std::vector<std::unique_ptr<RankTask>> tasks;
    appendTreeTasks(tasks, comm, buffers, embedding.tree0,
                    /*region_offset=*/0, half, split0, mode,
                    TreeFlowIds{kFlowTree0Reduce, kFlowTree0Broadcast},
                    TreeDirection::kAllReduce, &trace,
                    /*chunk_id_offset=*/0, "tree0", proto, resume);
    // One main pipeline per rank: its tree1 pipeline. Every tree0 task
    // runs beside it on a helper.
    for (std::unique_ptr<RankTask>& task : tasks)
        task->setMain(false);
    appendTreeTasks(tasks, comm, buffers, embedding.tree1,
                    /*region_offset=*/half, total - half, split1, mode,
                    TreeFlowIds{kFlowTree1Reduce, kFlowTree1Broadcast},
                    TreeDirection::kAllReduce, &trace,
                    /*chunk_id_offset=*/chunks_per_tree, "tree1",
                    proto, resume);
    return tasks;
}

} // namespace ccl
} // namespace ccube
