#include "ccl/algorithm_tasks.h"

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "topo/detour_router.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

namespace {

using topo::NodeId;
using topo::PhaseDirection;
using topo::Route;

/** One instruction of a rank's step program (8 bytes). */
struct Step {
    enum class Op : std::uint8_t {
        kSend,       ///< send chunk `chunk` of the buffer on `box`
        kRecvReduce, ///< receive on `box`, reduce into chunk `chunk`
        kRecvCopy,   ///< receive on `box`, copy into chunk `chunk`
        kForward,    ///< peek `box`, send it on box `aux`, release
        kRecord,     ///< AllReduceTrace::record(rank, global chunk)
        kSpanBegin,  ///< stamps the start of the next phase span
        kSpanEnd,    ///< emits the open phase span, named by `aux`
    };

    /** Flag bits. */
    enum : std::uint8_t {
        /** step() returns kContinue after this step (the fairness
         *  boundary). */
        kYield = 1,
        /** A Simple wait that resolves without parking retries the op
         *  within the same step() call instead of returning. */
        kRetryInline = 2,
    };

    /** Span names for kSpanEnd. kTreeForward names the span after
     *  the detour it serves, "tree.forward <src>-><dst>": the source
     *  of mailbox `box` and the destination of mailbox `chunk`. */
    enum SpanName : std::uint8_t {
        kRingReduceScatter,
        kRingAllGather,
        kTreeReduce,
        kTreeBroadcast,
        kTreeForward,
    };

    Op op;
    std::uint8_t flags;
    std::uint8_t box; ///< index into the task's mailbox table
    std::uint8_t aux;
    std::int32_t chunk; ///< local chunk id: buffer slice and wire tag
};
static_assert(sizeof(Step) == 8, "a step program stays compact");

/**
 * A rank role's step program under construction: its mailbox table
 * and ordered step list. Generators emit only the chunks still to
 * move, so the interpreter never consults a skip mask.
 */
struct Program {
    /** Largest table a role needs: a two-phase tree rank's up and
     *  down edge to its parent and to each of two children. */
    static constexpr std::size_t kMaxBoxes = 6;

    std::array<Mailbox*, kMaxBoxes> boxes{};
    std::uint8_t num_boxes = 0;
    std::vector<Step> steps;

    /** Adds @p mailbox to the table and returns its index. */
    std::uint8_t box(Mailbox& mailbox)
    {
        CCUBE_CHECK(num_boxes < kMaxBoxes, "mailbox table full");
        boxes[num_boxes] = &mailbox;
        return num_boxes++;
    }

    void add(Step::Op op, std::uint8_t box = 0, int chunk = 0,
             std::uint8_t flags = 0, std::uint8_t aux = 0)
    {
        steps.push_back(Step{op, flags, box, aux, chunk});
    }

    /** One pipeline stage per chunk of @p chunks: @p body emits the
     *  chunk's steps, the last of which is a fairness boundary unless
     *  the chunk is the pipeline's last. */
    template <typename Body>
    void perChunk(const std::vector<int>& chunks, Body body)
    {
        for (std::size_t i = 0; i < chunks.size(); ++i) {
            const std::size_t stage = steps.size();
            body(chunks[i]);
            if (i + 1 < chunks.size() && steps.size() > stage)
                steps.back().flags |= Step::kYield;
        }
    }
};

/**
 * The one task class: interprets a step program over one rank's buffer
 * region. Each mailbox op notes its begin once (FaultInjector op
 * indices), tries the non-blocking form, and on failure hands the
 * StepContext wait back to the engine; the retry resumes at the same
 * step.
 */
class ProgramTask final : public RankTask
{
  public:
    ProgramTask(int rank, const char* role, std::span<float> buffer,
                const ChunkSplit& split, Protocol proto,
                AllReduceTrace* trace, Program program)
        : RankTask(rank, role), buffer_(buffer), split_(split),
          proto_(proto), trace_(trace), boxes_(program.boxes),
          steps_(std::move(program.steps))
    {
    }

    StepStatus step(StepContext& ctx) override
    {
        while (pc_ < steps_.size()) {
            const Step& s = steps_[pc_];
            StepStatus blocked = StepStatus::kContinue;
            if (!tryExecute(s, ctx, &blocked)) {
                if (blocked == StepStatus::kContinue &&
                    (s.flags & Step::kRetryInline) != 0 &&
                    proto_ == Protocol::kSimple)
                    continue;
                return blocked;
            }
            ++pc_;
            begun_ = 0;
            if ((s.flags & Step::kYield) != 0)
                return StepStatus::kContinue;
        }
        return StepStatus::kDone;
    }

  private:
    /** Runs @p s; false = blocked, with the wait's status in
     *  @p blocked. */
    bool tryExecute(const Step& s, StepContext& ctx,
                    StepStatus* blocked)
    {
        switch (s.op) {
          case Step::Op::kSend: {
            Mailbox& box = *boxes_[s.box];
            noteBegin(box, Mailbox::OpKind::kSend, 1);
            if (box.trySend(split_.slice(std::span<const float>(buffer_),
                                         s.chunk),
                            s.chunk, proto_))
                return true;
            *blocked = ctx.awaitFreeSlot(box, proto_);
            return false;
          }
          case Step::Op::kRecvReduce:
          case Step::Op::kRecvCopy: {
            Mailbox& box = *boxes_[s.box];
            noteBegin(box, Mailbox::OpKind::kRecv, 1);
            const std::span<float> dst =
                split_.slice(buffer_, s.chunk);
            int tag = -1;
            const bool got = s.op == Step::Op::kRecvReduce
                                 ? box.tryRecvReduce(dst, &tag, proto_)
                                 : box.tryRecvInto(dst, &tag, proto_);
            if (!got) {
                *blocked = ctx.awaitArrival(box, proto_);
                return false;
            }
            CCUBE_CHECK(tag == s.chunk, "chunk out of sequence");
            return true;
          }
          case Step::Op::kForward: {
            // The paper's static forwarding kernel (§IV-A): peek the
            // upstream chunk in place, send it downstream, release the
            // upstream buffer — zero staging copies.
            Mailbox& in = *boxes_[s.box];
            Mailbox& out = *boxes_[s.aux];
            noteBegin(in, Mailbox::OpKind::kRecv, 1);
            std::span<const float> data;
            int tag = -1;
            if (!in.tryPeek(&data, &tag, proto_)) {
                CCUBE_CHECK(begun_ < 2,
                            "claimed forward chunk vanished");
                *blocked = ctx.awaitArrival(in, proto_);
                return false;
            }
            noteBegin(out, Mailbox::OpKind::kSend, 2);
            if (!out.trySend(data, tag, proto_)) {
                *blocked = ctx.awaitFreeSlot(out, proto_);
                return false;
            }
            in.releaseFront();
            return true;
          }
          case Step::Op::kRecord:
            trace_->record(rank(), s.chunk);
            return true;
          case Step::Op::kSpanBegin: {
            obs::TraceRecorder& recorder = obs::TraceRecorder::global();
            span_start_us_ =
                recorder.enabled() ? recorder.wallNowUs() : -1.0;
            return true;
          }
          case Step::Op::kSpanEnd:
            endSpan(ctx, s);
            return true;
        }
        return true;
    }

    /** Notes the begin of the step's @p nth mailbox op, once. */
    void noteBegin(Mailbox& box, Mailbox::OpKind kind, int nth)
    {
        if (begun_ >= nth)
            return;
        box.noteOpBegin(kind);
        begun_ = nth;
    }

    /**
     * Emits the open phase span. obs::ScopedSpan assumes a phase runs
     * start-to-finish on one OS thread; a task parks and migrates
     * across pool workers mid-phase, so the start stamp lives in the
     * task and one complete event is emitted at phase end, on the
     * track StepContext::traceTrack names (on the pool, track 0 keeps
     * every phase of a rank on one trace row).
     */
    void endSpan(const StepContext& ctx, const Step& s)
    {
        if (span_start_us_ < 0.0)
            return;
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        if (recorder.enabled())
            recorder.completeEvent(
                spanName(s), "ccl.allreduce", obs::pids::cclRank(rank()),
                ctx.traceTrack(), span_start_us_,
                recorder.wallNowUs() - span_start_us_);
        span_start_us_ = -1.0;
    }

    std::string spanName(const Step& s) const
    {
        switch (s.aux) {
          case Step::kRingReduceScatter: return "ring.reduce_scatter";
          case Step::kRingAllGather: return "ring.allgather";
          case Step::kTreeReduce: return "tree.reduce";
          case Step::kTreeBroadcast: return "tree.broadcast";
          default:
            return "tree.forward " +
                   std::to_string(boxes_[s.box]->srcRank()) + "->" +
                   std::to_string(boxes_[s.chunk]->dstRank());
        }
    }

    const std::span<float> buffer_;
    const ChunkSplit split_;
    const Protocol proto_;
    AllReduceTrace* const trace_;
    const std::array<Mailbox*, Program::kMaxBoxes> boxes_;
    const std::vector<Step> steps_;

    std::size_t pc_ = 0;
    int begun_ = 0; ///< mailbox ops of steps_[pc_] whose begin is noted
    double span_start_us_ = -1.0; ///< open phase span; < 0: none
};

} // namespace

void
checkBuffers(const Communicator& comm, const RankBuffers& buffers)
{
    CCUBE_CHECK(static_cast<int>(buffers.size()) == comm.numRanks(),
                "one buffer per rank required");
    for (const auto& b : buffers)
        CCUBE_CHECK(b.size() == buffers[0].size(),
                    "all buffers must be equally sized");
}

std::vector<std::unique_ptr<RankTask>>
buildRingTasks(Communicator& comm, RankBuffers& buffers,
               const topo::RingEmbedding& ring, RingPhase phase,
               AllReduceTrace* trace, Protocol proto,
               const SkipMask& resume)
{
    const int p = comm.numRanks();
    CCUBE_CHECK(ring.size() == p, "ring/communicator size mismatch");
    const ChunkSplit split(buffers[0].size(), p);
    const bool all_reduce = phase == RingPhase::kAllReduce;
    if (!all_reduce)
        trace = nullptr;

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
        Program prog;
        const std::uint8_t to_next =
            prog.box(comm.mailbox(rank, next, kFlowRing));
        const std::uint8_t from_prev =
            prog.box(comm.mailbox(prev, rank, kFlowRing));
        prog.steps.reserve(static_cast<std::size_t>(5 * p + 4));
        // One phase: P - 1 pipeline steps, each sending one chunk on,
        // taking the previous chunk id in, then yielding; the chunk
        // received is the next one sent. A chunk final everywhere is
        // skipped at both ends of the hop (same id per step on each
        // side).
        auto phaseSteps = [&](int send, Step::Op recv_op) {
            for (int s = 0; s < p - 1; ++s) {
                const int recv = send == 0 ? p - 1 : send - 1;
                if (!resume.done(send))
                    prog.add(Step::Op::kSend, to_next, send);
                send = recv;
                if (resume.done(recv))
                    continue;
                prog.add(recv_op, from_prev, recv);
                if (trace != nullptr && recv_op == Step::Op::kRecvCopy)
                    prog.add(Step::Op::kRecord, 0, recv);
                prog.steps.back().flags |= Step::kYield;
            }
        };

        if (phase != RingPhase::kAllGather) {
            if (all_reduce)
                prog.add(Step::Op::kSpanBegin);
            phaseSteps(pos, Step::Op::kRecvReduce);
            if (all_reduce) {
                // This rank now owns the fully reduced chunk at ring
                // position pos + 1 — the first chunk available here.
                const int owned = (pos + 1) % p;
                if (trace != nullptr && !resume.done(owned))
                    prog.add(Step::Op::kRecord, 0, owned);
                prog.add(Step::Op::kSpanEnd, 0, 0, 0,
                         Step::kRingReduceScatter);
                prog.add(Step::Op::kSpanBegin);
            }
        }
        if (phase != RingPhase::kReduceScatter) {
            phaseSteps((pos + 1) % p, Step::Op::kRecvCopy);
            if (all_reduce)
                prog.add(Step::Op::kSpanEnd, 0, 0, 0,
                         Step::kRingAllGather);
        }
        tasks.push_back(std::make_unique<ProgramTask>(
            rank, "ring",
            std::span<float>(buffers[static_cast<std::size_t>(rank)]),
            split, proto, trace, std::move(prog)));
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
    CCUBE_CHECK(tree.numNodes() == p,
                "tree/communicator size mismatch");
    const bool want_reduce = direction != TreeDirection::kBroadcast;
    const bool want_bcast = direction != TreeDirection::kReduce;
    const bool all_reduce = direction == TreeDirection::kAllReduce;
    if (!all_reduce)
        trace = nullptr;

    // The local chunk ids this tree still moves. Every rank (and every
    // forwarder) derives the same list from the same global mask, so
    // the pipelines stay in lockstep and tags match hop by hop even
    // when a retry skips finished chunks.
    std::vector<int> chunks;
    chunks.reserve(static_cast<std::size_t>(split.count()));
    for (int c = 0; c < split.count(); ++c)
        if (!resume.done(chunk_id_offset + c))
            chunks.push_back(c);

    auto makeTask = [&](int rank, const char* role, Program program) {
        return std::make_unique<ProgramTask>(
            rank, role,
            std::span<float>(buffers[static_cast<std::size_t>(rank)])
                .subspan(region_offset, region_size),
            split, proto, trace, std::move(program));
    };

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
        Program prog;
        const std::uint8_t in =
            prog.box(comm.mailbox(rule.upstream, rule.transit, flow));
        const std::uint8_t fwd =
            prog.box(comm.mailbox(rule.transit, rule.downstream, flow));
        prog.steps.reserve(chunks.size() + 2);
        prog.add(Step::Op::kSpanBegin);
        for (int chunk : chunks)
            prog.add(Step::Op::kForward, in, chunk, Step::kYield, fwd);
        prog.add(Step::Op::kSpanEnd, in, fwd, 0, Step::kTreeForward);
        out.push_back(makeTask(rule.transit, "forward", std::move(prog)));
    }

    // First and last physical hop of every node's edge from its
    // parent, in one pass over the routes (a route runs parent →
    // child, so its last hop names the child).
    std::vector<NodeId> hop_from_parent(static_cast<std::size_t>(p));
    std::vector<NodeId> hop_to_parent(static_cast<std::size_t>(p));
    for (const Route& route : embedding.routes) {
        const auto child = static_cast<std::size_t>(route.hops.back());
        hop_from_parent[child] = route.hops[1];
        hop_to_parent[child] = route.hops[route.hops.size() - 2];
    }

    const bool overlapped = mode == TreePhaseMode::kOverlapped;
    // Everything already final (a retry with a full checkpoint): the
    // pipelines have nothing to move and trace nothing.
    const bool moving = !chunks.empty();
    for (int rank = 0; rank < p; ++rank) {
        const bool is_root = tree.root() == rank;
        // Overlapped non-root AllReduce ranks run the reducer and the
        // broadcaster concurrently (paper §III-C), one task each with
        // its own direction's mailboxes.
        const bool split_roles = all_reduce && overlapped && !is_root;
        Program prog, bcast_prog;
        Program& bcast = split_roles ? bcast_prog : prog;

        std::uint8_t up_parent = 0, down_parent = 0;
        if (!is_root) {
            const NodeId hop =
                hop_to_parent[static_cast<std::size_t>(rank)];
            if (want_reduce)
                up_parent =
                    prog.box(comm.mailbox(rank, hop, flows.reduce));
            if (want_bcast)
                down_parent =
                    bcast.box(comm.mailbox(hop, rank, flows.broadcast));
        }
        // The edges to the children, in child order, take consecutive
        // table indices from up_first / down_first.
        const std::vector<NodeId>& children = tree.children(rank);
        auto hop = [&](NodeId child) {
            return hop_from_parent[static_cast<std::size_t>(child)];
        };
        const std::uint8_t up_first = prog.num_boxes;
        for (NodeId child : children)
            if (want_reduce)
                prog.box(comm.mailbox(hop(child), rank, flows.reduce));
        const std::uint8_t down_first = bcast.num_boxes;
        for (NodeId child : children)
            if (want_bcast)
                bcast.box(
                    comm.mailbox(rank, hop(child), flows.broadcast));
        const auto num_children =
            static_cast<std::uint8_t>(children.size());
        // Per chunk at most: a receive per child, a send or record, a
        // send per child (+ a receive and record when not split).
        const std::size_t per_chunk = 2u * num_children + 3;
        prog.steps.reserve(chunks.size() * per_chunk + 4);
        if (split_roles)
            bcast.steps.reserve(chunks.size() * per_chunk + 2);
        auto record = [&](Program& to, int chunk) {
            if (trace != nullptr)
                to.add(Step::Op::kRecord, 0, chunk_id_offset + chunk);
        };
        auto sendDown = [&](int chunk) {
            for (std::uint8_t k = 0; k < num_children; ++k)
                bcast.add(Step::Op::kSend, down_first + k, chunk,
                          Step::kRetryInline);
        };

        if (moving && want_reduce) {
            prog.add(Step::Op::kSpanBegin);
            prog.perChunk(chunks, [&](int chunk) {
                for (std::uint8_t k = 0; k < num_children; ++k)
                    prog.add(Step::Op::kRecvReduce, up_first + k, chunk);
                if (!is_root) {
                    prog.add(Step::Op::kSend, up_parent, chunk);
                    return;
                }
                record(prog, chunk);
                // Overlapped root: the chunk fans out the moment it is
                // fully reduced.
                if (all_reduce && overlapped)
                    sendDown(chunk);
            });
            prog.add(Step::Op::kSpanEnd, 0, 0, 0, Step::kTreeReduce);
        }
        if (moving && want_bcast && is_root &&
            !(all_reduce && overlapped)) {
            // Two-phase AllReduce root or treeBroadcast root: push the
            // root's buffer down chunk by chunk (no span).
            prog.perChunk(chunks, sendDown);
        } else if (moving && want_bcast && !is_root) {
            bcast.add(Step::Op::kSpanBegin);
            bcast.perChunk(chunks, [&](int chunk) {
                bcast.add(Step::Op::kRecvCopy, down_parent, chunk);
                record(bcast, chunk);
                sendDown(chunk);
            });
            bcast.add(Step::Op::kSpanEnd, 0, 0, 0, Step::kTreeBroadcast);
        }

        if (split_roles)
            out.push_back(makeTask(rank, "reduce", std::move(prog)));
        // The rank's pipeline task (the broadcaster when the roles are
        // split; the reducer is a helper beside it) is appended last.
        out.push_back(makeTask(rank, label, std::move(bcast)));
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
