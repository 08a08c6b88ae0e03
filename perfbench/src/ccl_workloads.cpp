/**
 * @file
 * The functional workloads. Each one runs on the state-machine engine,
 * whose pool main() pins to nproc - 1 workers, and is a closed
 * loop: one caller, one collective at a time. Inputs are reloaded and
 * outputs checked outside the timed call.
 */

#include <array>
#include <optional>
#include <stdexcept>

#include "ccl/double_tree_allreduce.h"
#include "ccl/primitives.h"
#include "ccl/ring_allreduce.h"
#include "ccl/tree_allreduce.h"
#include "core/supervisor.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/embedding_search.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "workloads.h"

namespace perfbench {

using namespace ccube;

namespace {

constexpr ccl::RankExecutor::Mode kEngine =
    ccl::RankExecutor::Mode::kStateMachine;

/** Bus bytes of an AllReduce of @p elems floats per rank over @p p. */
double
busBytes(std::size_t elems, int p)
{
    return static_cast<double>(elems * sizeof(float)) * 2.0 *
           static_cast<double>(p - 1) / static_cast<double>(p);
}

/** Seed of the input for size index @p index of a workload. */
std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t workload, std::size_t index)
{
    return seed * 0x100000001B3ull + workload * 64 + index;
}

/** Times @p call; returns seconds. */
template <typename Fn>
double
timed(Fn&& call)
{
    const Clock::time_point start = Clock::now();
    call();
    return secondsSince(start);
}

// ---------------------------------------------------------------------

class Dgx1AutoSmall final : public Workload
{
  public:
    explicit Dgx1AutoSmall(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        // A cold tuner table: every set-up pays for its own.
        ccl::Tuner::global().clearCache();
        graph_.emplace(topo::makeDgx1());
        for (std::size_t i = 0; i < kElems.size(); ++i)
            inputs_.emplace_back(inputSeed(seed_, 1, i), kRanks, kElems[i]);
        comm_.emplace(kRanks, 4, kEngine);
        std::vector<OpSample> cold;
        runRound(cold, nullptr);
        for (const OpSample& op : cold) {
            if (!op.ok)
                throw std::runtime_error("dgx1_auto_small: cold call failed");
        }
    }

    void runRound(std::vector<OpSample>& ops, Tracer* tracer) override
    {
        for (std::size_t i = 0; i < kElems.size(); ++i) {
            const SeededInput& input = inputs_[i];
            // The tuner's pick names the chunk promise to check; it is
            // cached, so asking again outside the timed call is free.
            const ccl::TunerChoice cell =
                ccl::Tuner::global().choose(*graph_, kRanks, input.elems());
            input.load(buffers_);
            std::optional<ccl::AllReduceTrace> trace;
            const std::uint64_t op = tracer ? tracer->newOp() : 0;
            OpSample sample;
            sample.host_s = timed([&] {
                ScopedSpan span(tracer, "op.runAuto", op);
                ScopedSpan call(tracer, "ccl.Communicator::runAuto", op,
                                span.index());
                trace.emplace(comm_->runAuto(buffers_, *graph_));
            });
            noteThreads();
            sample.bus_bytes = busBytes(input.elems(), kRanks);
            sample.ok = input.matches(buffers_) &&
                        chunksComplete(*trace, kRanks, promiseOf(cell, kRanks));
            ops.push_back(sample);
        }
    }

    Counters counters() const override { return cclCounters(); }

  private:
    static constexpr int kRanks = 8;
    // 1, 4, 16 and 64 KiB per rank.
    static constexpr std::array<std::size_t, 4> kElems{256, 1024, 4096,
                                                       16384};

    const std::uint64_t seed_;
    std::optional<topo::Graph> graph_;
    std::vector<SeededInput> inputs_;
    std::optional<ccl::Communicator> comm_;
    ccl::RankBuffers buffers_;
};

// ---------------------------------------------------------------------

class Dgx1SupervisedLarge final : public Workload
{
  public:
    explicit Dgx1SupervisedLarge(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        graph_.emplace(topo::makeDgx1());
        for (std::size_t i = 0; i < kElems.size(); ++i)
            inputs_.emplace_back(inputSeed(seed_, 2, i), kRanks, kElems[i]);
        comm_.emplace(kRanks, 4, kEngine);
        supervisor_.emplace(*comm_, *graph_);
        std::vector<OpSample> cold;
        runRound(cold, nullptr);
        for (const OpSample& op : cold) {
            if (!op.ok)
                throw std::runtime_error(
                    "dgx1_supervised_large: cold call failed");
        }
    }

    void runRound(std::vector<OpSample>& ops, Tracer* tracer) override
    {
        for (const SeededInput& input : inputs_) {
            input.load(buffers_);
            core::SupervisorReport report;
            const std::uint64_t op = tracer ? tracer->newOp() : 0;
            OpSample sample;
            sample.host_s = timed([&] {
                ScopedSpan span(tracer, "op.supervised", op);
                ScopedSpan call(tracer,
                                "core.ResilienceSupervisor::allReduce", op,
                                span.index());
                report = supervisor_->allReduce(buffers_);
            });
            noteThreads();
            sample.bus_bytes = busBytes(input.elems(), kRanks);
            // First attempt, no retry, no re-plan, and the exact sum.
            sample.ok = report.completed && report.attempts == 1 &&
                        report.replans == 0 && input.matches(buffers_);
            ops.push_back(sample);
        }
    }

    Counters counters() const override { return cclCounters(); }

  private:
    static constexpr int kRanks = 8;
    // 4, 8 and 16 MiB per rank.
    static constexpr std::array<std::size_t, 3> kElems{1u << 20, 2u << 20,
                                                       4u << 20};

    const std::uint64_t seed_;
    std::optional<topo::Graph> graph_;
    std::vector<SeededInput> inputs_;
    std::optional<ccl::Communicator> comm_;
    std::optional<core::ResilienceSupervisor> supervisor_;
    ccl::RankBuffers buffers_;
};

// ---------------------------------------------------------------------

class SmP512Scale final : public Workload
{
  public:
    explicit SmP512Scale(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        tree_.emplace(
            topo::directEmbedding(topo::BinaryTree::inorder(kRanks)),
            topo::directEmbedding(
                topo::BinaryTree::inorder(kRanks).mirrored()));
        input_.emplace(inputSeed(seed_, 3, 0), kRanks, kElems);
        comm_.emplace(kRanks, 4, kEngine);
        std::vector<OpSample> cold;
        runOp(cold, nullptr);
        if (!cold.front().ok)
            throw std::runtime_error("sm_p512_scale: cold call failed");
    }

    void runRound(std::vector<OpSample>& ops, Tracer* tracer) override
    {
        for (int i = 0; i < kOpsPerRound; ++i)
            runOp(ops, tracer);
    }

    Counters counters() const override { return cclCounters(); }

  private:
    static constexpr int kRanks = 512;
    static constexpr std::size_t kElems = 64;
    static constexpr int kChunksPerTree = 2;
    static constexpr int kOpsPerRound = 8;

    void runOp(std::vector<OpSample>& ops, Tracer* tracer)
    {
        input_->load(buffers_);
        std::optional<ccl::AllReduceTrace> trace;
        const std::uint64_t op = tracer ? tracer->newOp() : 0;
        OpSample sample;
        sample.host_s = timed([&] {
            ScopedSpan span(tracer, "op.p512", op);
            ScopedSpan call(tracer, "ccl.doubleTreeAllReduce", op,
                            span.index());
            trace.emplace(ccl::doubleTreeAllReduce(
                *comm_, buffers_, *tree_, kChunksPerTree,
                ccl::TreePhaseMode::kTwoPhase));
        });
        noteThreads();
        sample.bus_bytes = busBytes(kElems, kRanks);
        sample.ok = input_->matches(buffers_) &&
                    chunksComplete(*trace, kRanks,
                                   ChunkPromise{2 * kChunksPerTree, 2});
        ops.push_back(sample);
    }

    const std::uint64_t seed_;
    std::optional<topo::DoubleTreeEmbedding> tree_;
    std::optional<SeededInput> input_;
    std::optional<ccl::Communicator> comm_;
    ccl::RankBuffers buffers_;
};

} // namespace

ChunkPromise
promiseOf(const ccl::TunerChoice& cell, int p)
{
    switch (cell.algorithm) {
      case ccl::AllReduceAlgorithm::kRing:
        return ChunkPromise{p, 0};
      case ccl::AllReduceAlgorithm::kTree:
      case ccl::AllReduceAlgorithm::kOverlappedTree:
        return ChunkPromise{cell.num_chunks, 1};
      case ccl::AllReduceAlgorithm::kDoubleTree:
      case ccl::AllReduceAlgorithm::kCCubeDoubleTree:
        return ChunkPromise{2 * cell.num_chunks, 2};
    }
    return ChunkPromise{};
}

ccl::AllReduceTrace
runTunedCell(ccl::Communicator& comm, ccl::RankBuffers& buffers,
             const topo::Graph& graph, const ccl::TunerChoice& cell,
             Tracer* tracer, std::uint64_t op, int parent)
{
    const int p = comm.numRanks();
    switch (cell.algorithm) {
      case ccl::AllReduceAlgorithm::kRing: {
        std::optional<topo::RingEmbedding> ring;
        {
            ScopedSpan span(tracer, "topo.findHamiltonianRing", op, parent);
            ring.emplace(topo::findHamiltonianRing(graph, p));
        }
        ScopedSpan span(tracer, "ccl.ringAllReduce", op, parent);
        return ccl::ringAllReduce(comm, buffers, *ring, {}, cell.protocol);
      }
      case ccl::AllReduceAlgorithm::kTree:
      case ccl::AllReduceAlgorithm::kOverlappedTree: {
        std::optional<topo::TreeEmbedding> tree;
        {
            ScopedSpan span(tracer, "topo.embedTree", op, parent);
            tree.emplace(
                topo::embedTree(graph, topo::BinaryTree::inorder(p)));
        }
        ScopedSpan span(tracer, "ccl.treeAllReduce", op, parent);
        return ccl::treeAllReduce(
            comm, buffers, *tree, cell.num_chunks,
            cell.algorithm == ccl::AllReduceAlgorithm::kTree
                ? ccl::TreePhaseMode::kTwoPhase
                : ccl::TreePhaseMode::kOverlapped,
            {}, {}, cell.protocol);
      }
      case ccl::AllReduceAlgorithm::kDoubleTree:
      case ccl::AllReduceAlgorithm::kCCubeDoubleTree: {
        std::optional<topo::DoubleTreeEmbedding> found;
        {
            // The options ccl::allReduce searches with.
            ScopedSpan span(tracer, "topo.findConflictFreeDoubleTree", op,
                            parent);
            topo::EmbeddingSearchOptions search;
            search.num_ranks = p;
            found = topo::findConflictFreeDoubleTree(graph, search);
        }
        if (!found)
            throw std::runtime_error("no conflict-free double tree");
        ScopedSpan span(tracer, "ccl.doubleTreeAllReduce", op, parent);
        return ccl::doubleTreeAllReduce(
            comm, buffers, *found, cell.num_chunks,
            cell.algorithm == ccl::AllReduceAlgorithm::kDoubleTree
                ? ccl::TreePhaseMode::kTwoPhase
                : ccl::TreePhaseMode::kOverlapped,
            {}, cell.protocol);
      }
    }
    throw std::runtime_error("unknown AllReduce algorithm");
}

std::unique_ptr<Workload>
makeDgx1AutoSmall(std::uint64_t seed)
{
    return std::make_unique<Dgx1AutoSmall>(seed);
}

std::unique_ptr<Workload>
makeDgx1SupervisedLarge(std::uint64_t seed)
{
    return std::make_unique<Dgx1SupervisedLarge>(seed);
}

std::unique_ptr<Workload>
makeSmP512Scale(std::uint64_t seed)
{
    return std::make_unique<SmP512Scale>(seed);
}

} // namespace perfbench
