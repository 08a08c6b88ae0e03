/**
 * @file
 * Tests for the persistent RankExecutor: thread reuse across
 * back-to-back collectives (the whole point — no per-collective
 * spawning), correct results under every AllReduce algorithm,
 * exception propagation out of rank bodies with the executor left
 * usable, the CCUBE_CCL_EXECUTOR engine-name parse, and the
 * obs-exported telemetry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccl/algorithm_tasks.h"
#include "ccl/communicator.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/executor.h"
#include "ccl/overlapped_tree_allreduce.h"
#include "ccl/ring_allreduce.h"
#include "ccl/tree_allreduce.h"
#include "obs/context.h"
#include "topo/detour_router.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ccube {
namespace {

constexpr int kRanks = 8;
constexpr int kElems = 64;
constexpr int kChunks = 4;

struct Topologies {
    topo::Graph dgx1 = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(dgx1, kRanks);
    topo::TreeEmbedding tree =
        topo::embedTree(dgx1, topo::BinaryTree::inorder(kRanks));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(dgx1);
};

ccl::RankBuffers
randomBuffers(util::Rng& rng, std::vector<float>& expected)
{
    ccl::RankBuffers buffers(kRanks);
    expected.assign(kElems, 0.0f);
    for (auto& b : buffers) {
        b.resize(kElems);
        rng.fill(b, -1.0f, 1.0f);
        for (int i = 0; i < kElems; ++i)
            expected[static_cast<std::size_t>(i)] +=
                b[static_cast<std::size_t>(i)];
    }
    return buffers;
}

void
expectAllReduced(const ccl::RankBuffers& buffers,
                 const std::vector<float>& expected)
{
    for (int rank = 0; rank < kRanks; ++rank) {
        for (int i = 0; i < kElems; ++i) {
            EXPECT_NEAR(
                buffers[static_cast<std::size_t>(rank)]
                       [static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)], 1e-4f)
                << "rank " << rank << " elem " << i;
        }
    }
}

/** Runs one collective of each algorithm, verifying the sums. */
void
runAllAlgorithms(ccl::Communicator& comm, const Topologies& topo,
                 util::Rng& rng)
{
    std::vector<float> expected;
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::ringAllReduce(comm, buffers, topo.ring);
        expectAllReduced(buffers, expected);
    }
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::treeAllReduce(comm, buffers, topo.tree, kChunks,
                           ccl::TreePhaseMode::kTwoPhase);
        expectAllReduced(buffers, expected);
    }
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::overlappedTreeAllReduce(comm, buffers, topo.tree, kChunks);
        expectAllReduced(buffers, expected);
    }
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::doubleTreeAllReduce(comm, buffers, topo.double_tree,
                                 kChunks, ccl::TreePhaseMode::kOverlapped);
        expectAllReduced(buffers, expected);
    }
}

TEST(RankExecutor, PersistentModeAllAlgorithmsCorrect)
{
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    util::Rng rng(11);
    runAllAlgorithms(comm, topo, rng);
}

TEST(RankExecutor, EngineNameParse)
{
    using Mode = ccl::RankExecutor::Mode;
    std::ostringstream log;
    util::Logger::instance().setSink(&log);
    EXPECT_EQ(ccl::RankExecutor::parseMode(nullptr), Mode::kPersistent);
    EXPECT_EQ(ccl::RankExecutor::parseMode(""), Mode::kPersistent);
    EXPECT_EQ(ccl::RankExecutor::parseMode("statemachine"),
              Mode::kStateMachine);
    EXPECT_EQ(ccl::RankExecutor::parseMode("sm"), Mode::kStateMachine);
    EXPECT_TRUE(log.str().empty()) << log.str();

    // Unknown names — the removed "spawn" among them — fall back to
    // the persistent engine with one warning naming the accepted
    // values.
    for (const char* name : {"spawn", "bogus"}) {
        log.str("");
        EXPECT_EQ(ccl::RankExecutor::parseMode(name), Mode::kPersistent);
        const std::string line = log.str();
        EXPECT_NE(line.find(std::string("'") + name + "'"),
                  std::string::npos)
            << line;
        EXPECT_NE(line.find("statemachine, sm, or unset"),
                  std::string::npos)
            << line;
        EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1) << line;
    }
    util::Logger::instance().setSink(nullptr);
}

TEST(RankExecutor, NoThreadGrowthAcrossBackToBackRingCollectives)
{
    // The ring uses no helpers, so the thread census is exact: the
    // eight parked rank mains and nothing else, forever.
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    util::Rng rng(13);
    std::vector<float> expected;
    for (int iter = 0; iter < 10; ++iter) {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::ringAllReduce(comm, buffers, topo.ring);
        expectAllReduced(buffers, expected);
        EXPECT_EQ(comm.executor().threadCount(), kRanks);
        EXPECT_EQ(comm.executor().helperCount(), 0);
    }
}

/** Forwarding rules hosted on @p rank (helpers one collective needs). */
int
forwarderCount(const topo::TreeEmbedding& embedding, int rank)
{
    int count = 0;
    for (const topo::ForwardingRule& rule :
         topo::cachedForwardingRules(embedding, 0))
        if (rule.transit == rank)
            ++count;
    return count;
}

TEST(RankExecutor, HelperPoolBoundedAcrossBackToBackCollectives)
{
    // Helpers are created only when concurrent demand exceeds the
    // historical peak, so the thread census must stay bounded by the
    // worst-case per-rank demand of the algorithm suite — independent
    // of how many collectives run — while tasksExecuted keeps growing
    // linearly. That is the "no per-collective thread" property.
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    util::Rng rng(13);

    int bound = kRanks; // parked rank mains
    for (int r = 0; r < kRanks; ++r) {
        // Overlapped single tree: forwarders + one reducer.
        const int single = forwarderCount(topo.tree, r) + 1;
        // Double tree: the tree1 body plus, per tree, forwarders and
        // one overlapped reducer.
        const int dbl = 1 + forwarderCount(topo.double_tree.tree0, r) +
                        forwarderCount(topo.double_tree.tree1, r) + 2;
        bound += std::max(single, dbl);
    }

    constexpr int kIters = 10;
    for (int iter = 0; iter < kIters; ++iter) {
        runAllAlgorithms(comm, topo, rng);
        EXPECT_LE(comm.executor().threadCount(), bound);
    }
    // 4 collectives per iteration, at least one task per rank each.
    EXPECT_GE(comm.executor().tasksExecuted(),
              static_cast<std::int64_t>(kIters) * 4 * kRanks);
}

/**
 * Checks the contract RankExecutor::runTasks relies on: every rank has
 * exactly one main pipeline in @p tasks, and it is never a forwarder
 * or an overlapped reducer (those always get a helper thread). Returns
 * the main pipelines' roles, indexed by rank.
 */
std::vector<std::string>
expectOneMainPerRank(
    const std::vector<std::unique_ptr<ccl::RankTask>>& tasks)
{
    std::vector<std::string> roles(kRanks);
    std::vector<int> mains(kRanks, 0);
    for (const std::unique_ptr<ccl::RankTask>& task : tasks) {
        if (!task->isMain())
            continue;
        ++mains[static_cast<std::size_t>(task->rank())];
        roles[static_cast<std::size_t>(task->rank())] = task->role();
        EXPECT_STRNE(task->role(), "forward");
        EXPECT_STRNE(task->role(), "reduce");
    }
    for (int r = 0; r < kRanks; ++r)
        EXPECT_EQ(mains[static_cast<std::size_t>(r)], 1) << "rank " << r;
    return roles;
}

TEST(RankExecutor, BuildersMarkOneMainPipelinePerRank)
{
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    ccl::RankBuffers buffers(kRanks, std::vector<float>(kElems, 0.0f));
    ccl::AllReduceTrace trace(kRanks);
    int forwarders = 0;
    for (int r = 0; r < kRanks; ++r)
        forwarders += forwarderCount(topo.tree, r);
    ASSERT_GT(forwarders, 0)
        << "the tree must have detours for the forwarder check to bite";

    expectOneMainPerRank(ccl::buildRingTasks(
        comm, buffers, topo.ring, ccl::RingPhase::kAllReduce, &trace));
    for (ccl::TreePhaseMode mode : {ccl::TreePhaseMode::kTwoPhase,
                                    ccl::TreePhaseMode::kOverlapped}) {
        std::vector<std::unique_ptr<ccl::RankTask>> tasks;
        ccl::appendTreeTasks(tasks, comm, buffers, topo.tree,
                             /*region_offset=*/0, kElems,
                             ccl::ChunkSplit(kElems, kChunks), mode,
                             ccl::TreeFlowIds{},
                             ccl::TreeDirection::kAllReduce, &trace,
                             /*chunk_id_offset=*/0, "tree");
        expectOneMainPerRank(tasks);
    }
    // Double tree: each rank's tree1 pipeline is the main one.
    for (const std::string& role : expectOneMainPerRank(
             ccl::buildDoubleTreeTasks(comm, buffers, topo.double_tree,
                                       kChunks,
                                       ccl::TreePhaseMode::kOverlapped,
                                       trace)))
        EXPECT_EQ(role, "tree1");
}

TEST(RankExecutor, TasksExecutedAdvances)
{
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    const std::int64_t before = comm.executor().tasksExecuted();
    comm.run([](int) {});
    EXPECT_GE(comm.executor().tasksExecuted(), before + kRanks);
}

TEST(RankExecutor, RankBodyExceptionPropagatesAndExecutorSurvives)
{
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);

    EXPECT_THROW(comm.run([](int rank) {
                     if (rank == 3)
                         throw std::runtime_error("rank body failed");
                 }),
                 std::runtime_error);

    // The executor (and its parked threads) must remain usable.
    util::Rng rng(14);
    runAllAlgorithms(comm, topo, rng);
}

TEST(RankExecutor, HelperExceptionPropagatesThroughGroup)
{
    ccl::RankExecutor executor(2);
    executor.run([&](int rank) {
        if (rank != 0)
            return;
        ccl::RankExecutor::Group group;
        executor.submit(group, rank, "test", []() {
            throw std::logic_error("helper failed");
        });
        EXPECT_THROW(group.wait(), std::logic_error);
    });
}

TEST(RankExecutor, ExecutorTelemetryExportedViaObs)
{
    obs::RankCounters& counters = obs::RankCounters::global();
    counters.reset();
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    // Force executor creation and wait until rank 0's worker has
    // parked at least once, so the next dispatch is a guaranteed
    // park→unpark transition.
    comm.executor();
    for (int i = 0; i < 2000 && counters.executorParks(0) == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(counters.executorParks(0), 0u);

    comm.run([](int) {});
    EXPECT_GT(counters.executorTasks(0), 0u);
    EXPECT_GT(counters.executorUnparks(0), 0u);
}

} // namespace
} // namespace ccube
