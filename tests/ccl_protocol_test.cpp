/**
 * @file
 * Tests for the LL/Simple wire-protocol split (ccl/protocol.h) and the
 * auto-tuner (ccl/tuner.h): byte-identical reduction results across
 * protocols, engine modes and the auto path; faults killed/stalled
 * mid-LL-collective get watchdog blame and a clean clearAbort retry
 * (LL never parks, so the abort epoch must unwedge pure pollers); the
 * tuner picks LL below the α-β crossover and Simple above it, on the
 * functional, analytic-model and DES paths alike.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/executor.h"
#include "ccl/fault.h"
#include "ccl/overlapped_tree_allreduce.h"
#include "ccl/primitives.h"
#include "ccl/protocol.h"
#include "ccl/ring_allreduce.h"
#include "ccl/tree_allreduce.h"
#include "ccl/tuner.h"
#include "model/ring_model.h"
#include "reference_collectives.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/ring_schedule.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/embedding_search.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {
namespace {

using namespace std::chrono_literals;
using ccl::Protocol;
using ccl::RankExecutor;

constexpr int kChunks = 4;
constexpr int kSlots = 4;

struct Dgx1Topologies {
    topo::Graph graph = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(graph, 8);
    topo::TreeEmbedding tree =
        topo::embedTree(graph, topo::BinaryTree::inorder(8));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(graph);
};

/** Direct-route logical topologies at arbitrary P (no physical graph
 *  needed), as in ccl_statemachine_test. */
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
                     const ccl::RankBuffers& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << what;
        if (std::memcmp(got[r].data(), want[r].data(),
                        got[r].size() * sizeof(float)) != 0) {
            for (std::size_t i = 0; i < got[r].size(); ++i)
                ASSERT_EQ(got[r][i], want[r][i])
                    << what << ": rank " << r << " elem " << i
                    << " diverges between protocols";
        }
    }
}

/** One collective body, parameterized on the wire protocol. */
struct Scenario {
    const char* name;
    std::function<void(ccl::Communicator&, ccl::RankBuffers&, Protocol)>
        run;
    /** Serial, order-faithful result for the given inputs
     *  (reference_collectives.h). */
    std::function<ccl::RankBuffers(const ccl::RankBuffers&)> reference;
};

std::vector<Scenario>
dgx1Scenarios(const Dgx1Topologies& topo)
{
    return {
        {"ring_allreduce",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::ringAllReduce(c, b, topo.ring, {}, p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringAllReduce(in, topo.ring);
         }},
        {"tree_allreduce_two_phase",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::treeAllReduce(c, b, topo.tree, kChunks,
                                ccl::TreePhaseMode::kTwoPhase, {}, {},
                                p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"tree_allreduce_overlapped",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::overlappedTreeAllReduce(c, b, topo.tree, kChunks, {},
                                          p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"double_tree_overlapped",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::doubleTreeAllReduce(c, b, topo.double_tree, kChunks,
                                      ccl::TreePhaseMode::kOverlapped,
                                      {}, p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::doubleTreeAllReduce(in, topo.double_tree);
         }},
    };
}

// ------------------- LL vs Simple byte identity (DGX-1, P=8, 2 engines)

TEST(ProtocolByteIdentity, LLMatchesSimpleAllEnginesOnDgx1)
{
    const Dgx1Topologies topo;
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kPersistent,
        RankExecutor::Mode::kStateMachine,
    };
    std::uint64_t seed = 301;
    for (const Scenario& scenario : dgx1Scenarios(topo)) {
        // Reference: Simple on the persistent engine.
        ccl::RankBuffers reference = seededBuffers(8, 64, seed);
        {
            ccl::Communicator comm(8, kSlots,
                                   RankExecutor::Mode::kPersistent);
            scenario.run(comm, reference, Protocol::kSimple);
        }
        const ccl::RankBuffers serial =
            scenario.reference(seededBuffers(8, 64, seed));
        for (RankExecutor::Mode mode : modes) {
            for (Protocol proto :
                 {Protocol::kSimple, Protocol::kLL}) {
                ccl::RankBuffers buffers = seededBuffers(8, 64, seed);
                ccl::Communicator comm(8, kSlots, mode);
                scenario.run(comm, buffers, proto);
                const std::string what = std::string(scenario.name) +
                                         "/" +
                                         ccl::protocolName(proto);
                expectBytesIdentical(buffers, reference, what);
                expectBytesIdentical(buffers, serial, what + "/serial");
            }
        }
        ++seed;
    }
}

// ------------------------------- auto protocol through the dispatcher

TEST(ProtocolByteIdentity, AutoMatchesSimpleThroughDispatcher)
{
    const Dgx1Topologies topo;
    const std::vector<ccl::AllReduceAlgorithm> algorithms = {
        ccl::AllReduceAlgorithm::kRing,
        ccl::AllReduceAlgorithm::kTree,
        ccl::AllReduceAlgorithm::kOverlappedTree,
        ccl::AllReduceAlgorithm::kCCubeDoubleTree,
    };
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kPersistent,
        RankExecutor::Mode::kStateMachine,
    };
    // The dispatcher searches its own double-tree embedding; the
    // serial reference reduces over the same one.
    topo::EmbeddingSearchOptions search;
    search.num_ranks = 8;
    const auto searched =
        topo::findConflictFreeDoubleTree(topo.graph, search);
    ASSERT_TRUE(searched.has_value());
    auto serialFor = [&](ccl::AllReduceAlgorithm algorithm,
                         const ccl::RankBuffers& in) {
        switch (algorithm) {
          case ccl::AllReduceAlgorithm::kRing:
            return reference::ringAllReduce(in, topo.ring);
          case ccl::AllReduceAlgorithm::kTree:
          case ccl::AllReduceAlgorithm::kOverlappedTree:
            return reference::treeAllReduce(in, topo.tree.tree);
          default:
            return reference::doubleTreeAllReduce(in, *searched);
        }
    };
    std::uint64_t seed = 401;
    for (ccl::AllReduceAlgorithm algorithm : algorithms) {
        const ccl::RankBuffers serial =
            serialFor(algorithm, seededBuffers(8, 96, seed));
        ccl::RankBuffers reference = seededBuffers(8, 96, seed);
        {
            ccl::Communicator comm(8, kSlots,
                                   RankExecutor::Mode::kPersistent);
            ccl::AllReduceOptions options;
            options.algorithm = algorithm;
            options.num_chunks = kChunks;
            options.protocol = Protocol::kSimple;
            ccl::allReduce(comm, reference, topo.graph, options);
        }
        for (RankExecutor::Mode mode : modes) {
            ccl::RankBuffers buffers = seededBuffers(8, 96, seed);
            ccl::Communicator comm(8, kSlots, mode);
            ccl::AllReduceOptions options;
            options.algorithm = algorithm;
            options.num_chunks = kChunks;
            options.protocol = Protocol::kAuto;
            ccl::allReduce(comm, buffers, topo.graph, options);
            const std::string what =
                std::string("auto/") + ccl::algorithmName(algorithm);
            expectBytesIdentical(buffers, reference, what);
            expectBytesIdentical(buffers, serial, what + "/serial");
        }
        ++seed;
    }
}

TEST(ProtocolByteIdentity, RunAutoComputesExactSums)
{
    const Dgx1Topologies topo;
    const std::vector<float> expected = integerSums(8, 64);
    for (RankExecutor::Mode mode : {RankExecutor::Mode::kPersistent,
                                    RankExecutor::Mode::kStateMachine}) {
        ccl::RankBuffers buffers = integerBuffers(8, 64);
        ccl::Communicator comm(8, kSlots, mode);
        comm.runAuto(buffers, topo.graph);
        for (int r = 0; r < 8; ++r)
            for (int i = 0; i < 64; ++i)
                ASSERT_EQ(buffers[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)])
                    << "rank " << r << " elem " << i;
    }
}

// ----------------------------------------- LL at P = 64 (state machine)

TEST(ProtocolByteIdentity, LLMatchesSimpleAtSixtyFourRanks)
{
    constexpr int kRanks = 64;
    const LogicalTopologies topo(kRanks);
    const std::vector<Scenario> scenarios = {
        {"ring_allreduce_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::ringAllReduce(c, b, topo.ring, {}, p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringAllReduce(in, topo.ring);
         }},
        {"tree_allreduce_two_phase_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::treeAllReduce(c, b, topo.tree, kChunks,
                                ccl::TreePhaseMode::kTwoPhase, {}, {},
                                p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"tree_allreduce_overlapped_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::overlappedTreeAllReduce(c, b, topo.tree, kChunks, {},
                                          p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::treeAllReduce(in, topo.tree.tree);
         }},
        {"double_tree_p64",
         [&topo](ccl::Communicator& c, ccl::RankBuffers& b,
                 Protocol p) {
             ccl::doubleTreeAllReduce(c, b, topo.double_tree, kChunks,
                                      ccl::TreePhaseMode::kOverlapped,
                                      {}, p);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::doubleTreeAllReduce(in, topo.double_tree);
         }},
    };
    std::uint64_t seed = 501;
    for (const Scenario& scenario : scenarios) {
        ccl::RankBuffers reference = seededBuffers(kRanks, 128, seed);
        {
            ccl::Communicator comm(kRanks, kSlots,
                                   RankExecutor::Mode::kPersistent);
            scenario.run(comm, reference, Protocol::kSimple);
        }
        const ccl::RankBuffers serial =
            scenario.reference(seededBuffers(kRanks, 128, seed));
        expectBytesIdentical(reference, serial,
                             std::string(scenario.name) + "/serial");
        ccl::RankBuffers buffers = seededBuffers(kRanks, 128, seed);
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kStateMachine);
        scenario.run(comm, buffers, Protocol::kLL);
        expectBytesIdentical(buffers, reference, scenario.name);
        expectBytesIdentical(buffers, serial,
                             std::string(scenario.name) + "/serial");
        ++seed;
    }
}

// ----------------------------------------- faults mid-LL-collective

class LLFault : public ::testing::Test
{
  protected:
    static constexpr int kRanks = 16;
    static constexpr int kElems = 64;
    static constexpr auto kDeadline = 300ms;

    /**
     * Arms @p fault, requires the LL tree AllReduce to surface a
     * CollectiveError blaming the faulted rank (LL pollers never park,
     * so only the abort epoch can unwedge them), then verifies
     * clearAbort() re-arms the communicator for a clean LL retry.
     */
    void expectAbortAndRecovery(const ccl::FaultInjector::Fault& fault,
                                RankExecutor::Mode mode)
    {
        const LogicalTopologies topo(kRanks);
        ccl::Communicator comm(kRanks, kSlots, mode);
        comm.setDeadline(kDeadline);
        ccl::FaultInjector injector;
        injector.arm(fault);
        comm.setFaultInjector(&injector);

        ccl::RankBuffers buffers = integerBuffers(kRanks, kElems);
        bool caught = false;
        try {
            ccl::treeAllReduce(comm, buffers, topo.tree, kChunks,
                               ccl::TreePhaseMode::kTwoPhase, {}, {},
                               Protocol::kLL);
        } catch (const ccl::CollectiveError& error) {
            caught = true;
            EXPECT_EQ(error.info().failed_rank, fault.rank);
            EXPECT_EQ(error.info().op, "tree_allreduce");
            EXPECT_GT(error.info().deadline_s, 0.0);
        }
        EXPECT_TRUE(caught) << "LL collective completed despite fault";

        // Poisoned until cleared; then a clean LL retry must succeed.
        EXPECT_THROW(ccl::treeAllReduce(comm, buffers, topo.tree,
                                        kChunks,
                                        ccl::TreePhaseMode::kTwoPhase,
                                        {}, {}, Protocol::kLL),
                     ccl::CollectiveError);
        comm.clearAbort();
        comm.setFaultInjector(nullptr);
        ccl::RankBuffers retry = integerBuffers(kRanks, kElems);
        ccl::treeAllReduce(comm, retry, topo.tree, kChunks,
                           ccl::TreePhaseMode::kTwoPhase, {}, {},
                           Protocol::kLL);
        const std::vector<float> expected =
            integerSums(kRanks, kElems);
        for (int r = 0; r < kRanks; ++r)
            for (int i = 0; i < kElems; ++i)
                ASSERT_EQ(retry[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)]);
    }
};

TEST_F(LLFault, KilledRankMidLLCollectiveIsBlamedStateMachine)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 5;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 2;
    expectAbortAndRecovery(fault, RankExecutor::Mode::kStateMachine);
}

TEST_F(LLFault, KilledRankMidLLCollectiveIsBlamedPersistent)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 3;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 2;
    expectAbortAndRecovery(fault, RankExecutor::Mode::kPersistent);
}

TEST_F(LLFault, StalledRankMidLLCollectiveIsBlamed)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 9;
    fault.action = ccl::FaultInjector::Action::kStall;
    fault.at_op = 3;
    expectAbortAndRecovery(fault, RankExecutor::Mode::kStateMachine);
}

// ------------------------------------------------- tuner crossover

TEST(Tuner, PicksLLBelowCrossoverAndSimpleAbove)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Tuner& tuner = ccl::Tuner::global();
    tuner.clearCache();
    // 1 KiB (256 floats): per-step chunks are far below the
    // 0.75·α/β ≈ 86 KB crossover of the DGX-1 NVLink — LL wins.
    for (ccl::AllReduceAlgorithm algorithm :
         {ccl::AllReduceAlgorithm::kRing,
          ccl::AllReduceAlgorithm::kCCubeDoubleTree}) {
        EXPECT_EQ(tuner.chooseProtocol(graph, 8, 256, algorithm),
                  Protocol::kLL)
            << ccl::algorithmName(algorithm) << " small";
        // 256 MiB: chunks are megabytes — the 2x LL wire inflation
        // dominates and Simple wins.
        EXPECT_EQ(tuner.chooseProtocol(graph, 8, 64 * 1024 * 1024,
                                       algorithm),
                  Protocol::kSimple)
            << ccl::algorithmName(algorithm) << " large";
    }
    // The full-cell pick agrees on protocol at the extremes.
    EXPECT_EQ(tuner.choose(graph, 8, 256).protocol, Protocol::kLL);
    EXPECT_EQ(tuner.choose(graph, 8, 64 * 1024 * 1024).protocol,
              Protocol::kSimple);
}

TEST(Tuner, TableIsCachedAndDeterministic)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Tuner& tuner = ccl::Tuner::global();
    tuner.clearCache();
    const std::string table1 = tuner.formatTable(graph, 8);
    const std::string table2 = tuner.formatTable(graph, 8);
    EXPECT_EQ(table1, table2);
    EXPECT_NE(table1.find("ll"), std::string::npos);
    EXPECT_NE(table1.find("simple"), std::string::npos);
    EXPECT_NE(table1.find("tuner table"), std::string::npos);
    tuner.clearCache();
    EXPECT_EQ(tuner.formatTable(graph, 8), table1)
        << "rebuilt table diverges from the cached one";
}

// ------------------------- crossover on the analytic-model path

TEST(ProtocolModel, AnalyticCrossoverMatchesCostShapes)
{
    const model::AlphaBeta base{4.6e-6, 4e-11};
    const ccl::ProtocolCosts ll = ccl::protocolCosts(Protocol::kLL);
    const model::AlphaBeta ll_link =
        model::applyProtocol(base, ll.payload_factor, ll.alpha_factor);
    const model::RingModel simple_ring(base);
    const model::RingModel ll_ring(ll_link);
    // Small message: latency-bound, LL's α/4 wins.
    EXPECT_LT(ll_ring.allReduceTime(8, 1024.0),
              simple_ring.allReduceTime(8, 1024.0));
    // Large message: bandwidth-bound, LL's 2x wire bytes lose.
    EXPECT_GT(ll_ring.allReduceTime(8, 64e6),
              simple_ring.allReduceTime(8, 64e6));
    // Simple's costs are the identity: the model is unchanged.
    const ccl::ProtocolCosts simple =
        ccl::protocolCosts(Protocol::kSimple);
    EXPECT_EQ(simple.payload_factor, 1.0);
    EXPECT_EQ(simple.alpha_factor, 1.0);
}

// --------------------------------- crossover on the DES (simnet) path

double
desRingCompletion(double total_bytes, Protocol proto)
{
    sim::Simulation sim;
    const topo::Graph graph = topo::makeDgx1();
    simnet::Network net(sim, graph);
    const topo::RingEmbedding ring =
        topo::findHamiltonianRing(graph, 8);
    return simnet::runRingSchedule(sim, net, ring, total_bytes, proto)
        .completion_time;
}

TEST(ProtocolDes, TimedScheduleReproducesCrossover)
{
    // Small message: the per-transfer α dominates and LL's α/4 wins.
    EXPECT_LT(desRingCompletion(1024.0, Protocol::kLL),
              desRingCompletion(1024.0, Protocol::kSimple));
    // Large message: serialization dominates and LL's 2x bytes lose.
    EXPECT_GT(desRingCompletion(64e6, Protocol::kLL),
              desRingCompletion(64e6, Protocol::kSimple));
    // Simple is byte-for-byte the pre-protocol schedule.
    EXPECT_EQ(desRingCompletion(1e6, Protocol::kSimple),
              desRingCompletion(1e6, Protocol::kSimple));
}

} // namespace
} // namespace ccube
