/**
 * @file
 * Tests for the async state-machine rank runtime (state_machine.h):
 * byte-identical collective results across both engines and against
 * the serial reference, large-P functional runs on a handful of pool
 * threads, concurrent communicators multiplexed onto the shared engine,
 * fault kill/stall mid-park with correct watchdog blame, and the
 * park/resume/steal telemetry surfaced through obs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/executor.h"
#include "ccl/fault.h"
#include "ccl/overlapped_tree_allreduce.h"
#include "ccl/primitives.h"
#include "ccl/ring_allreduce.h"
#include "ccl/state_machine.h"
#include "ccl/tree_allreduce.h"
#include "obs/context.h"
#include "obs/monitor.h"
#include "reference_collectives.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {
namespace {

using namespace std::chrono_literals;
using ccl::RankExecutor;

constexpr int kChunks = 4;
constexpr int kSlots = 4;

/** DGX-1 topologies (P=8), as in ccl_executor_test. */
struct Dgx1Topologies {
    topo::Graph graph = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(graph, 8);
    topo::TreeEmbedding tree =
        topo::embedTree(graph, topo::BinaryTree::inorder(8));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(graph);
};

/**
 * Purely logical topologies at arbitrary P: every logical edge is a
 * direct route, so the protocol exercises mailboxes and ordering
 * without needing a physical graph of that size.
 */
struct LogicalTopologies {
    explicit LogicalTopologies(int ranks)
        : ring(topo::makeSequentialRing(ranks)),
          tree(topo::directEmbedding(topo::BinaryTree::inorder(ranks))),
          double_tree(
              topo::directEmbedding(topo::BinaryTree::inorder(ranks)),
              topo::directEmbedding(
                  topo::BinaryTree::inorder(ranks).mirrored()))
    {
    }

    topo::RingEmbedding ring;
    topo::TreeEmbedding tree;
    topo::DoubleTreeEmbedding double_tree;
};

ccl::RankBuffers
seededBuffers(int ranks, int elems, std::uint64_t seed)
{
    util::Rng rng(seed);
    ccl::RankBuffers buffers(static_cast<std::size_t>(ranks));
    for (auto& b : buffers) {
        b.resize(static_cast<std::size_t>(elems));
        rng.fill(b, -1.0f, 1.0f);
    }
    return buffers;
}

/**
 * Integer-valued buffers: every element is a small integer, so every
 * partial sum at P ≤ 1024 is exactly representable in float and the
 * reduced result is independent of reduction order, bit for bit.
 */
ccl::RankBuffers
integerBuffers(int ranks, int elems)
{
    ccl::RankBuffers buffers(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        auto& b = buffers[static_cast<std::size_t>(r)];
        b.resize(static_cast<std::size_t>(elems));
        for (int i = 0; i < elems; ++i)
            b[static_cast<std::size_t>(i)] =
                static_cast<float>((r * 7 + i * 13) % 17 - 8);
    }
    return buffers;
}

/** Exact (order-independent) AllReduce expectation for integerBuffers. */
std::vector<float>
integerSums(int ranks, int elems)
{
    std::vector<float> expected(static_cast<std::size_t>(elems));
    for (int i = 0; i < elems; ++i) {
        long sum = 0;
        for (int r = 0; r < ranks; ++r)
            sum += (r * 7 + i * 13) % 17 - 8;
        expected[static_cast<std::size_t>(i)] =
            static_cast<float>(sum);
    }
    return expected;
}

void
expectBytesIdentical(const ccl::RankBuffers& got,
                     const ccl::RankBuffers& want, const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << what;
        if (std::memcmp(got[r].data(), want[r].data(),
                        got[r].size() * sizeof(float)) != 0) {
            for (std::size_t i = 0; i < got[r].size(); ++i)
                ASSERT_EQ(got[r][i], want[r][i])
                    << what << ": rank " << r << " elem " << i
                    << " diverges";
        }
    }
}

/** One collective body, run identically under every engine mode. */
struct Scenario {
    const char* name;
    std::function<void(ccl::Communicator&, ccl::RankBuffers&)> run;
    /** Serial, order-faithful result for the given inputs
     *  (reference_collectives.h). */
    std::function<ccl::RankBuffers(const ccl::RankBuffers&)> reference;
};

/**
 * Runs @p scenario once per engine mode on fresh communicators and
 * identical seeded inputs, and requires the resulting buffers of every
 * mode to be byte-identical to the serial reference and to the
 * persistent-engine run.
 */
void
expectModesAgree(int ranks, int elems, const Scenario& scenario,
                 const std::vector<RankExecutor::Mode>& modes,
                 std::uint64_t seed)
{
    const ccl::RankBuffers serial =
        scenario.reference(seededBuffers(ranks, elems, seed));
    ccl::RankBuffers reference = seededBuffers(ranks, elems, seed);
    {
        ccl::Communicator comm(ranks, kSlots,
                               RankExecutor::Mode::kPersistent);
        scenario.run(comm, reference);
    }
    expectBytesIdentical(reference, serial,
                         (std::string(scenario.name) + "/persistent")
                             .c_str());
    for (RankExecutor::Mode mode : modes) {
        ccl::RankBuffers buffers = seededBuffers(ranks, elems, seed);
        ccl::Communicator comm(ranks, kSlots, mode);
        ASSERT_EQ(comm.engineMode(), mode);
        scenario.run(comm, buffers);
        expectBytesIdentical(buffers, reference, scenario.name);
        expectBytesIdentical(buffers, serial, scenario.name);
    }
}

// --------------------------- cross-engine byte identity (DGX-1, P=8)

std::vector<Scenario>
dgx1Scenarios(const Dgx1Topologies& topo)
{
    return {
        {"ring_allreduce",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::ringAllReduce(c, b, topo.ring);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringAllReduce(in, topo.ring);
         }},
        {"tree_allreduce_two_phase",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::treeAllReduce(c, b, topo.tree, kChunks,
                                ccl::TreePhaseMode::kTwoPhase);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"tree_allreduce_overlapped",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::overlappedTreeAllReduce(c, b, topo.tree, kChunks);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"double_tree_overlapped",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::doubleTreeAllReduce(c, b, topo.double_tree, kChunks,
                                      ccl::TreePhaseMode::kOverlapped);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::doubleTreeAllReduce(in, topo.double_tree);
         }},
        {"double_tree_two_phase",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::doubleTreeAllReduce(c, b, topo.double_tree, kChunks,
                                      ccl::TreePhaseMode::kTwoPhase);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::doubleTreeAllReduce(in, topo.double_tree);
         }},
        {"tree_broadcast",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::treeBroadcast(c, b, topo.tree, kChunks);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeBroadcast(in, topo.tree.tree);
         }},
        {"tree_reduce",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::treeReduce(c, b, topo.tree, kChunks);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeReduce(in, topo.tree.tree);
         }},
        {"ring_reduce_scatter",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::ringReduceScatter(c, b, topo.ring);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringReduceScatter(in, topo.ring);
         }},
        {"ring_all_gather",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::ringAllGather(c, b, topo.ring);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringAllGather(in, topo.ring);
         }},
    };
}

TEST(StateMachineByteIdentity, AllCollectivesAllEnginesOnDgx1)
{
    const Dgx1Topologies topo;
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kStateMachine,
    };
    std::uint64_t seed = 101;
    for (const Scenario& scenario : dgx1Scenarios(topo))
        expectModesAgree(8, 64, scenario, modes, seed++);
}

// ----------------------------- cross-engine byte identity at P = 64

TEST(StateMachineByteIdentity, LogicalTopologiesAtSixtyFourRanks)
{
    constexpr int kRanks = 64;
    const LogicalTopologies topo(kRanks);
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kStateMachine,
    };
    const std::vector<Scenario> scenarios = {
        {"ring_allreduce_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::ringAllReduce(c, b, topo.ring);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringAllReduce(in, topo.ring);
         }},
        {"tree_allreduce_two_phase_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::treeAllReduce(c, b, topo.tree, kChunks,
                                ccl::TreePhaseMode::kTwoPhase);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"tree_allreduce_overlapped_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::overlappedTreeAllReduce(c, b, topo.tree, kChunks);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"double_tree_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::doubleTreeAllReduce(c, b, topo.double_tree, kChunks,
                                      ccl::TreePhaseMode::kOverlapped);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::doubleTreeAllReduce(in, topo.double_tree);
         }},
    };
    std::uint64_t seed = 201;
    for (const Scenario& scenario : scenarios)
        expectModesAgree(kRanks, 128, scenario, modes, seed++);
}

// --------------------------------- large P on a handful of threads

TEST(StateMachineScaling, TwoHundredFiftySixRanksExactSums)
{
    // 256 functional ranks on the shared pool — far more tasks than
    // workers, so the run exercises park/resume heavily. Inputs are
    // integer-valued, making the expected sums exact in float
    // regardless of reduction order (and therefore equal to what any
    // engine mode computes, bit for bit).
    constexpr int kRanks = 256;
    constexpr int kElems = 256;
    const LogicalTopologies topo(kRanks);
    const std::vector<float> expected = integerSums(kRanks, kElems);
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();
    const std::uint64_t parks_before = engine.parks();
    const std::uint64_t steps_before = engine.stepsExecuted();

    const std::vector<Scenario> scenarios = {
        {"ring_allreduce_p256",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::ringAllReduce(c, b, topo.ring);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringAllReduce(in, topo.ring);
         }},
        {"double_tree_p256",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b) {
             ccl::doubleTreeAllReduce(c, b, topo.double_tree, 2,
                                      ccl::TreePhaseMode::kOverlapped);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::doubleTreeAllReduce(in, topo.double_tree);
         }},
    };
    for (const Scenario& scenario : scenarios) {
        ccl::RankBuffers buffers = integerBuffers(kRanks, kElems);
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kStateMachine);
        scenario.run(comm, buffers);
        expectBytesIdentical(
            buffers, scenario.reference(integerBuffers(kRanks, kElems)),
            scenario.name);
        for (int r = 0; r < kRanks; ++r)
            for (int i = 0; i < kElems; ++i)
                ASSERT_EQ(buffers[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)])
                    << scenario.name << ": rank " << r << " elem "
                    << i;
    }

    // With 256+ tasks on a handful of workers, tasks must have parked
    // (blocked ops with a busy pool skip the spin fast path).
    EXPECT_GT(engine.parks(), parks_before);
    EXPECT_GT(engine.stepsExecuted(), steps_before);
    EXPECT_GE(engine.workerCount(), 1);
}

// --------------------- concurrent communicators share one engine

TEST(StateMachineEngineSharing, ConcurrentCommunicatorsOneSharedPool)
{
    constexpr int kRanks = 16;
    constexpr int kElems = 64;
    constexpr int kClients = 4;
    constexpr int kIters = 2;
    const LogicalTopologies topo(kRanks);
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();
    const int workers_before = engine.workerCount();
    const std::uint64_t steps_before = engine.stepsExecuted();
    const std::vector<float> expected = integerSums(kRanks, kElems);

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&topo, &expected, &failures]() {
            ccl::Communicator comm(
                kRanks, kSlots, RankExecutor::Mode::kStateMachine);
            for (int iter = 0; iter < kIters; ++iter) {
                ccl::RankBuffers buffers =
                    integerBuffers(kRanks, kElems);
                ccl::overlappedTreeAllReduce(comm, buffers, topo.tree,
                                             kChunks);
                for (int r = 0; r < kRanks; ++r)
                    for (int i = 0; i < kElems; ++i)
                        if (buffers[static_cast<std::size_t>(r)]
                                   [static_cast<std::size_t>(i)] !=
                            expected[static_cast<std::size_t>(i)])
                            failures.fetch_add(1);
            }
        });
    }
    for (std::thread& t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    // All batches multiplexed onto the same pool: no thread growth.
    EXPECT_EQ(engine.workerCount(), workers_before);
    EXPECT_GT(engine.stepsExecuted(), steps_before);
}

// -------------------------------------- faults in state-machine mode

class StateMachineFault : public ::testing::Test
{
  protected:
    static constexpr int kRanks = 16;
    static constexpr int kElems = 64;
    static constexpr auto kDeadline = 300ms;

    /**
     * Arms @p fault on a state-machine communicator, requires the
     * tree AllReduce to surface a CollectiveError blaming the faulted
     * rank, then verifies clearAbort() makes the communicator (and
     * the shared pool) fully usable again.
     */
    void expectAbortAndRecovery(const ccl::FaultInjector::Fault& fault)
    {
        const LogicalTopologies topo(kRanks);
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kStateMachine);
        comm.setDeadline(kDeadline);
        ccl::FaultInjector injector;
        injector.arm(fault);
        comm.setFaultInjector(&injector);

        ccl::RankBuffers buffers = integerBuffers(kRanks, kElems);
        bool caught = false;
        try {
            ccl::treeAllReduce(comm, buffers, topo.tree, kChunks,
                               ccl::TreePhaseMode::kTwoPhase);
        } catch (const ccl::CollectiveError& error) {
            caught = true;
            EXPECT_EQ(error.info().failed_rank, fault.rank);
            EXPECT_EQ(error.info().op, "tree_allreduce");
            EXPECT_GT(error.info().deadline_s, 0.0);
        }
        EXPECT_TRUE(caught) << "collective completed despite fault";

        // Poisoned until cleared; then a clean retry must succeed.
        EXPECT_THROW(ccl::treeAllReduce(comm, buffers, topo.tree,
                                        kChunks,
                                        ccl::TreePhaseMode::kTwoPhase),
                     ccl::CollectiveError);
        comm.clearAbort();
        comm.setFaultInjector(nullptr);
        ccl::RankBuffers retry = integerBuffers(kRanks, kElems);
        ccl::treeAllReduce(comm, retry, topo.tree, kChunks,
                           ccl::TreePhaseMode::kTwoPhase);
        const std::vector<float> expected =
            integerSums(kRanks, kElems);
        for (int r = 0; r < kRanks; ++r)
            for (int i = 0; i < kElems; ++i)
                ASSERT_EQ(retry[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)]);
    }
};

TEST_F(StateMachineFault, KilledRankAbortsParkedPeersAndIsBlamed)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 5;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 2;
    expectAbortAndRecovery(fault);
}

TEST_F(StateMachineFault, StalledRankWedgesAWorkerAndIsBlamed)
{
    // The stall wedges one pool worker inside the injected op until
    // the watchdog trips the abort epoch; the sweep must then wake
    // every parked peer task so the batch unwinds.
    ccl::FaultInjector::Fault fault;
    fault.rank = 9;
    fault.action = ccl::FaultInjector::Action::kStall;
    fault.at_op = 3;
    expectAbortAndRecovery(fault);
}

// ------------------------------------------------------- telemetry

TEST(StateMachineTelemetry, ParkResumeCountersReachObs)
{
    constexpr int kRanks = 64;
    const LogicalTopologies topo(kRanks);
    obs::RankCounters& counters = obs::RankCounters::global();
    counters.reset();
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();
    const std::uint64_t parks_before = engine.parks();
    const std::uint64_t resumes_before = engine.resumes();

    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kStateMachine);
    ccl::RankBuffers buffers = integerBuffers(kRanks, 128);
    ccl::ringAllReduce(comm, buffers, topo.ring);

    // 64 ranks on a handful of workers: parks are certain, and every
    // successful park is eventually resumed exactly once.
    EXPECT_GT(engine.parks(), parks_before);
    EXPECT_GT(engine.resumes(), resumes_before);
    EXPECT_EQ(engine.parkedNow(), 0);
    EXPECT_GT(counters.totalSmParks(), 0u);
    EXPECT_GT(counters.totalSmResumes(), 0u);
}

TEST(StateMachineTelemetry, EngineGaugesAppearInMonitorSnapshots)
{
    constexpr int kRanks = 16;
    const LogicalTopologies topo(kRanks);
    // Force the shared engine (and its gauge registration on the
    // global monitor) to exist before enabling snapshots.
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();
    obs::Monitor& monitor = obs::Monitor::global();
    monitor.clear();
    monitor.enable();

    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kStateMachine);
    ccl::RankBuffers buffers = integerBuffers(kRanks, 64);
    ccl::ringAllReduce(comm, buffers, topo.ring);
    monitor.disable();

    const auto snapshots = monitor.snapshots();
    ASSERT_FALSE(snapshots.empty());
    bool saw_workers = false;
    bool saw_parks = false;
    for (const auto& [name, value] : snapshots.back().values) {
        if (name == "ccl.sm.workers") {
            saw_workers = true;
            EXPECT_EQ(value,
                      static_cast<double>(engine.workerCount()));
        }
        if (name == "ccl.sm.parks") {
            saw_parks = true;
            EXPECT_GT(value, 0.0);
        }
    }
    EXPECT_TRUE(saw_workers);
    EXPECT_TRUE(saw_parks);
    monitor.clear();
}

} // namespace
} // namespace ccube
