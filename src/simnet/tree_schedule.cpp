#include "simnet/tree_schedule.h"

#include <algorithm>

#include "obs/monitor.h"
#include "util/logging.h"

namespace ccube {
namespace simnet {

using topo::NodeId;

TreeSchedule::TreeSchedule(Network& network,
                           const topo::TreeEmbedding& embedding,
                           double total_bytes, PhaseMode mode,
                           int num_chunks, int up_lane, int down_lane)
    : net_(network),
      engine_(network),
      embedding_(embedding),
      mode_(mode),
      num_chunks_(num_chunks),
      up_lane_(up_lane),
      down_lane_(down_lane < 0 ? up_lane : down_lane),
      chunk_bytes_(total_bytes / num_chunks)
{
    CCUBE_CHECK(num_chunks >= 1, "need at least one chunk");
    CCUBE_CHECK(total_bytes > 0.0, "non-positive payload");
    CCUBE_CHECK(embedding_.tree.valid(), "invalid tree");

    const int p = embedding_.tree.numNodes();
    up_routes_.resize(static_cast<std::size_t>(p));
    down_routes_.resize(static_cast<std::size_t>(p));
    // One pass over the routes; each runs parent → child.
    for (const topo::Route& down : embedding_.routes) {
        const auto child = static_cast<std::size_t>(down.hops.back());
        down_routes_[child] = down;
        up_routes_[child] = down.reversed();
    }
    reduce_arrivals_.assign(static_cast<std::size_t>(p),
                            std::vector<int>(
                                static_cast<std::size_t>(num_chunks), 0));
    available_at_.assign(static_cast<std::size_t>(p),
                         std::vector<double>(
                             static_cast<std::size_t>(num_chunks), -1.0));
    // Every (rank, chunk) pair must become available exactly once.
    pending_arrivals_ = p * num_chunks;
}

void
TreeSchedule::start(double at)
{
    net_.simulation().at(at, [this]() {
        for (NodeId leaf : embedding_.tree.leaves()) {
            for (int c = 0; c < num_chunks_; ++c)
                sendUp(leaf, c);
        }
        // Degenerate star roots (all nodes leaves) cannot occur in a
        // valid binary tree with P ≥ 2, but a 1-chunk, 2-node tree is
        // legal: the root's reduction completes purely on arrivals.
    });
}

void
TreeSchedule::sendUp(NodeId node, int chunk)
{
    const topo::Route& route = up_routes_[static_cast<std::size_t>(node)];
    CCUBE_CHECK(route.hops.size() >= 2, "sendUp from the root");
    const NodeId parent = route.hops.back();
    engine_.sendAlongRoute(route, chunk_bytes_,
                           [this, parent, chunk]() {
                               onReduceArrival(parent, chunk);
                           },
                           up_lane_);
}

void
TreeSchedule::onReduceArrival(NodeId node, int chunk)
{
    int& count =
        reduce_arrivals_[static_cast<std::size_t>(node)]
                        [static_cast<std::size_t>(chunk)];
    ++count;
    const int need = static_cast<int>(
        embedding_.tree.children(node).size());
    CCUBE_CHECK(count <= need, "too many reduce arrivals");
    if (count == need)
        chunkReduced(node, chunk);
}

void
TreeSchedule::chunkReduced(NodeId node, int chunk)
{
    if (node != embedding_.tree.root()) {
        sendUp(node, chunk);
        return;
    }
    // Fully reduced at the root: available here now.
    recordAvailable(node, chunk);
    if (mode_ == PhaseMode::kOverlapped) {
        // Chain straight into the broadcast (Observation #1: no
        // waiting for the rest of the reduction).
        sendDown(node, chunk);
    } else {
        ++root_chunks_done_;
        if (root_chunks_done_ == num_chunks_) {
            // Baseline: broadcast begins only now, chunks in order.
            for (int c = 0; c < num_chunks_; ++c)
                sendDown(node, c);
        }
    }
}

void
TreeSchedule::sendDown(NodeId node, int chunk)
{
    for (NodeId child : embedding_.tree.children(node)) {
        const topo::Route& route =
            down_routes_[static_cast<std::size_t>(child)];
        engine_.sendAlongRoute(route, chunk_bytes_,
                               [this, child, chunk]() {
                                   onBroadcastArrival(child, chunk);
                               },
                               down_lane_);
    }
}

void
TreeSchedule::onBroadcastArrival(NodeId node, int chunk)
{
    recordAvailable(node, chunk);
    sendDown(node, chunk); // no-op at leaves
}

void
TreeSchedule::recordAvailable(NodeId node, int chunk)
{
    double& slot = available_at_[static_cast<std::size_t>(node)]
                                [static_cast<std::size_t>(chunk)];
    CCUBE_CHECK(slot < 0.0, "chunk " << chunk << " delivered twice to "
                                     << node);
    slot = net_.simulation().now();
    --pending_arrivals_;
    if (pending_arrivals_ == 0)
        completion_time_ = net_.simulation().now();
}

ScheduleResult
TreeSchedule::result() const
{
    CCUBE_CHECK(finished(), "schedule has not completed");
    ScheduleResult out;
    out.num_chunks = num_chunks_;
    out.completion_time = completion_time_;
    out.chunk_at_rank = available_at_;
    out.chunk_ready.assign(static_cast<std::size_t>(num_chunks_), 0.0);
    for (int c = 0; c < num_chunks_; ++c) {
        double latest = 0.0;
        for (const auto& per_rank : available_at_)
            latest = std::max(latest,
                              per_rank[static_cast<std::size_t>(c)]);
        out.chunk_ready[static_cast<std::size_t>(c)] = latest;
    }
    return out;
}

ScheduleResult
TreeSchedule::partialResult(double stalled_at) const
{
    ScheduleResult out;
    out.num_chunks = num_chunks_;
    out.completion_time = finished() ? completion_time_ : stalled_at;
    out.chunk_at_rank = available_at_;
    out.chunk_ready.assign(static_cast<std::size_t>(num_chunks_), -1.0);
    for (int c = 0; c < num_chunks_; ++c) {
        double latest = 0.0;
        bool complete = true;
        for (const auto& per_rank : available_at_) {
            const double at = per_rank[static_cast<std::size_t>(c)];
            if (at < 0.0) {
                complete = false;
                break;
            }
            latest = std::max(latest, at);
        }
        if (complete)
            out.chunk_ready[static_cast<std::size_t>(c)] = latest;
    }
    return out;
}

std::vector<int>
treeChannelIds(const topo::Graph& graph,
               const topo::TreeEmbedding& embedding, int lane,
               bool down)
{
    std::vector<int> out;
    for (const topo::Route& route : embedding.routes) {
        for (std::size_t h = 0; h + 1 < route.hops.size(); ++h) {
            // Routes run parent → child; the up direction reverses
            // every hop.
            const NodeId a = route.hops[h];
            const NodeId b = route.hops[h + 1];
            const std::vector<int> ids =
                down ? graph.channelIds(a, b) : graph.channelIds(b, a);
            CCUBE_CHECK(!ids.empty(), "broken route in embedding");
            const int pick = std::clamp(
                lane, 0, static_cast<int>(ids.size()) - 1);
            out.push_back(ids[static_cast<std::size_t>(pick)]);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

ScheduleResult
runTreeSchedule(sim::Simulation& simulation, Network& network,
                const topo::TreeEmbedding& embedding, double total_bytes,
                PhaseMode mode, int num_chunks, int up_lane,
                int down_lane, ccl::Protocol proto)
{
    TreeSchedule schedule(network, embedding, total_bytes, mode,
                          num_chunks, up_lane, down_lane);
    schedule.setProtocol(proto);
    const double at = simulation.now();
    schedule.start(at);
    simulation.run();
    ScheduleResult result = schedule.result();
    obs::Monitor& monitor = obs::Monitor::global();
    if (monitor.enabled())
        monitor.collectiveComplete(
            mode == PhaseMode::kOverlapped ? "allreduce.tree_overlapped"
                                           : "allreduce.tree",
            at, result.completion_time, total_bytes);
    return result;
}

} // namespace simnet
} // namespace ccube
