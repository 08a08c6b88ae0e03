/**
 * @file
 * core::ResilienceSupervisor end-to-end: retry/backoff on transient
 * faults, ladder descent on persistent channel failures, re-admission
 * after probation climbing back to the C-Cube embedding, checkpoint
 * restore semantics, and the `supervisor.rung` trace instants — over
 * both engines.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "ccl/checkpoint.h"
#include "ccl/communicator.h"
#include "ccl/fault.h"
#include "core/supervisor.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "topo/dgx1.h"
#include "topo/graph.h"

namespace ccube {
namespace core {
namespace {

using namespace std::chrono_literals;

constexpr int kRanks = 8;
constexpr std::size_t kElems = 64;
constexpr float kExpected = 36.0f; // 1+2+...+8

ccl::RankBuffers
makeBuffers()
{
    ccl::RankBuffers buffers(kRanks);
    for (std::size_t r = 0; r < buffers.size(); ++r)
        buffers[r].assign(kElems, static_cast<float>(r + 1));
    return buffers;
}

void
expectReduced(const ccl::RankBuffers& buffers)
{
    for (std::size_t r = 0; r < buffers.size(); ++r)
        for (float v : buffers[r])
            ASSERT_FLOAT_EQ(v, kExpected) << "rank " << r;
}

/** Small deterministic re-plan budget (mirrors topo_recovery_test). */
RecoveryOptions
testRecovery(const topo::Graph& graph)
{
    RecoveryOptions options;
    options.search.num_ranks = graph.nodeCount();
    options.search.max_attempts = 500;
    options.search.seed = 7;
    return options;
}

/**
 * DGX-1 NVLink fabric plus a PCIe peer ring 0-1-...-7-0. The stock
 * DGX-1 graph is NVLink-only, so losing every NVLink on one node
 * disconnects it outright and the ladder bottoms out at kNone — the
 * ring rung is unreachable. The PCIe ring models the host-mediated
 * fallback path real boxes keep: tree embeddings route NVLink-only,
 * so NVLink-isolating a node skips both tree rungs while a
 * Hamiltonian ring over the PCIe channels stays routable.
 */
topo::Graph
makeTestbed()
{
    topo::Graph graph = topo::makeDgx1();
    const topo::Dgx1Params params;
    for (int g = 0; g < kRanks; ++g)
        graph.addLink(g, (g + 1) % kRanks, params.pcie_bandwidth,
                      params.pcie_latency, topo::LinkKind::kPcie);
    return graph;
}

/**
 * A fail set that forces the ladder all the way down to kRing: the
 * whole NVLink fabric (an NVSwitch/fabric-manager outage). Partial
 * NVLink kills are NOT enough — the conflict-free search routes
 * around them over the victim's PCIe links and stays on kCCube — but
 * with zero NVLink channels no double tree is routable at all, while
 * the PCIe peer ring still carries a Hamiltonian cycle. Verified at
 * test time so the test tracks the ladder, not hard-coded behavior.
 */
std::vector<int>
ringForcingSet(const topo::Graph& graph)
{
    std::vector<int> failed;
    for (int id = 0; id < graph.channelCount(); ++id)
        if (graph.channel(id).kind == topo::LinkKind::kNvlink)
            failed.push_back(id);
    if (recoverSchedule(graph, failed, testRecovery(graph)).kind !=
        RecoveryKind::kRing)
        return {};
    return failed;
}

class SupervisedCollective
    : public ::testing::TestWithParam<ccl::RankExecutor::Mode>
{
  protected:
    SupervisorOptions baseOptions(const topo::Graph& graph) const
    {
        SupervisorOptions options;
        options.recovery = testRecovery(graph);
        options.backoff_base_s = 0.001;
        options.backoff_max_s = 0.01;
        options.health.probation_runs = 2;
        return options;
    }
};

TEST_P(SupervisedCollective, HealthyRunCompletesOnCCube)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(10s);
    ResilienceSupervisor supervisor(comm, graph, baseOptions(graph));

    EXPECT_EQ(supervisor.rung(), RecoveryKind::kCCube);
    ccl::RankBuffers buffers = makeBuffers();
    const SupervisorReport report = supervisor.allReduce(buffers);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.attempts, 1);
    EXPECT_EQ(report.replans, 0);
    EXPECT_EQ(report.rung, RecoveryKind::kCCube);
    EXPECT_DOUBLE_EQ(report.mttr_s, 0.0);
    EXPECT_TRUE(report.error.empty());
    expectReduced(buffers);
    EXPECT_EQ(supervisor.stats().completions, 1u);
}

TEST_P(SupervisedCollective, TransientKillRetriesOnSameTopology)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(1s); // kill detection latency = this deadline
    ccl::FaultInjector injector;
    ccl::FaultInjector::Fault fault;
    fault.rank = 3;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 2;
    injector.arm(fault); // fires exactly once: retry must succeed
    comm.setFaultInjector(&injector);

    ResilienceSupervisor supervisor(comm, graph, baseOptions(graph));

    obs::Monitor& monitor = obs::Monitor::global();
    monitor.clear();
    monitor.enable();

    ccl::RankBuffers buffers = makeBuffers();
    const SupervisorReport report = supervisor.allReduce(buffers);
    monitor.disable();

    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.attempts, 2);
    // No channel events: the abort classifies transient — same rung,
    // no re-plan.
    EXPECT_EQ(report.replans, 0);
    EXPECT_EQ(report.rung, RecoveryKind::kCCube);
    EXPECT_GT(report.mttr_s, 0.0);
    EXPECT_FALSE(report.error.empty());
    expectReduced(buffers);
    EXPECT_EQ(supervisor.stats().retries, 1u);
    EXPECT_GE(report.chunks_resumed, 0);

    // The recovery reached the monitor: one recovery, one retry,
    // MTTR histogram non-empty.
    EXPECT_EQ(monitor.recoveriesTotal(), 1u);
    EXPECT_EQ(monitor.recoveryRetriesTotal(), 1u);
    EXPECT_GT(monitor.recoveryMttr().count(), 0u);
    monitor.clear();
}

TEST_P(SupervisedCollective, PersistentFailureDescendsToRingMidCall)
{
    const topo::Graph graph = makeTestbed();
    const std::vector<int> dead = ringForcingSet(graph);
    ASSERT_FALSE(dead.empty()) << "no ring-forcing fail set on DGX-1";

    ccl::Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(1s);
    ccl::FaultInjector injector;
    ccl::FaultInjector::Fault fault;
    fault.rank = 2;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 1;
    injector.arm(fault);
    comm.setFaultInjector(&injector);

    ResilienceSupervisor supervisor(comm, graph, baseOptions(graph));

    // The fabric manager reports the dead channels while the abort is
    // being cleared — i.e. after the attempt failed, before the
    // supervisor classifies it. The hook runs inside clearAbort(), so
    // the events land exactly in that window and the supervisor must
    // take the persistent path: re-plan to kRing, then retry.
    std::atomic<bool> fed{false};
    comm.setClearAbortHook([&]() {
        if (fed.exchange(true))
            return;
        for (int id : dead)
            supervisor.noteChannelFail(id);
    });

    ccl::RankBuffers buffers = makeBuffers();
    const SupervisorReport report = supervisor.allReduce(buffers);
    comm.setClearAbortHook({});

    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.attempts, 2);
    EXPECT_GE(report.replans, 1);
    EXPECT_EQ(report.rung, RecoveryKind::kRing);
    expectReduced(buffers);
    EXPECT_GE(supervisor.stats().demotions, 1u);
}

TEST_P(SupervisedCollective, ReAdmissionClimbsBackToCCube)
{
    const topo::Graph graph = makeTestbed();
    const std::vector<int> dead = ringForcingSet(graph);
    ASSERT_FALSE(dead.empty()) << "no ring-forcing fail set on DGX-1";

    ccl::Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(10s);
    ResilienceSupervisor supervisor(comm, graph, baseOptions(graph));

    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.enable();

    // Healthy: C-Cube.
    ccl::RankBuffers healthy = makeBuffers();
    EXPECT_TRUE(supervisor.allReduce(healthy).completed);
    expectReduced(healthy);
    EXPECT_EQ(supervisor.rung(), RecoveryKind::kCCube);

    // Links die: descend to the ring fallback.
    for (int id : dead)
        supervisor.noteChannelFail(id);
    EXPECT_TRUE(supervisor.replanNow());
    EXPECT_EQ(supervisor.rung(), RecoveryKind::kRing);

    ccl::RankBuffers on_ring = makeBuffers();
    const SupervisorReport ring_report = supervisor.allReduce(on_ring);
    EXPECT_TRUE(ring_report.completed);
    EXPECT_EQ(ring_report.rung, RecoveryKind::kRing);
    expectReduced(on_ring); // byte-identical result on the fallback

    // Links restore: probation first — the rung must NOT climb until
    // probation_runs successful collectives have passed.
    for (int id : dead)
        supervisor.noteChannelRestore(id);
    for (int run = 0;
         run < supervisor.health().options().probation_runs; ++run) {
        ccl::RankBuffers probation = makeBuffers();
        const SupervisorReport report =
            supervisor.allReduce(probation);
        EXPECT_TRUE(report.completed);
        EXPECT_EQ(report.rung, RecoveryKind::kRing)
            << "climbed during probation (run " << run << ")";
        expectReduced(probation);
    }

    // Probation served: the next collective re-plans and runs on the
    // re-promoted C-Cube embedding with byte-identical results.
    ccl::RankBuffers promoted = makeBuffers();
    const SupervisorReport final_report =
        supervisor.allReduce(promoted);
    EXPECT_TRUE(final_report.completed);
    EXPECT_GE(final_report.replans, 1);
    EXPECT_EQ(final_report.rung, RecoveryKind::kCCube);
    expectReduced(promoted);
    EXPECT_GE(supervisor.stats().promotions, 1u);
    EXPECT_GE(supervisor.stats().demotions, 1u);

    // Every attempt traced its ladder position: instants exist for
    // both the ring phase and the re-promoted C-Cube phase.
    recorder.disable();
    bool saw_ring = false;
    bool saw_ccube = false;
    for (const obs::TraceEvent& event : recorder.snapshot()) {
        if (event.name != "supervisor.rung")
            continue;
        for (const auto& arg : event.args) {
            if (arg.first != "rung")
                continue;
            if (arg.second ==
                static_cast<double>(RecoveryKind::kRing))
                saw_ring = true;
            if (arg.second ==
                static_cast<double>(RecoveryKind::kCCube))
                saw_ccube = true;
        }
    }
    recorder.clear();
    EXPECT_TRUE(saw_ring);
    EXPECT_TRUE(saw_ccube);
}

TEST_P(SupervisedCollective, ExhaustedBudgetRestoresOriginalInputs)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(500ms);
    ccl::FaultInjector injector;
    ccl::FaultInjector::Fault first;
    first.rank = 4;
    first.action = ccl::FaultInjector::Action::kKill;
    first.at_op = 0;
    injector.arm(first);
    comm.setFaultInjector(&injector);

    SupervisorOptions options = baseOptions(graph);
    options.max_retries = 1;
    ResilienceSupervisor supervisor(comm, graph, options);

    // Helper threads serving the victim rank tick its injector op
    // counter too, so a second pre-armed op index could still fire
    // inside attempt 1. Arm the retry's kill from the clearAbort
    // window instead: at that point the engine is quiescent and
    // opsSeen() is exactly the next op the revived rank will issue,
    // so this kill lands in attempt 2 — exhausting the budget.
    std::atomic<bool> rearmed{false};
    comm.setClearAbortHook([&]() {
        if (rearmed.exchange(true))
            return;
        ccl::FaultInjector::Fault again;
        again.rank = 4;
        again.action = ccl::FaultInjector::Action::kKill;
        again.at_op = injector.opsSeen(4);
        injector.arm(again);
    });

    ccl::RankBuffers buffers = makeBuffers();
    const SupervisorReport report = supervisor.allReduce(buffers);
    comm.setClearAbortHook({});
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.attempts, 2);
    EXPECT_FALSE(report.error.empty());
    EXPECT_EQ(supervisor.stats().failures, 1u);

    // Contract: no partial sums leak — the caller sees its exact
    // original inputs back.
    for (std::size_t r = 0; r < buffers.size(); ++r)
        for (float v : buffers[r])
            ASSERT_FLOAT_EQ(v, static_cast<float>(r + 1));

    // The supervisor stays usable once the fault plan is spent.
    comm.setFaultInjector(nullptr);
    comm.setDeadline(10s);
    ccl::RankBuffers retry = makeBuffers();
    EXPECT_TRUE(supervisor.allReduce(retry).completed);
    expectReduced(retry);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SupervisedCollective,
    ::testing::Values(ccl::RankExecutor::Mode::kPersistent,
                      ccl::RankExecutor::Mode::kStateMachine),
    [](const ::testing::TestParamInfo<ccl::RankExecutor::Mode>&
           info) {
        switch (info.param) {
          case ccl::RankExecutor::Mode::kPersistent:
            return "persistent";
          case ccl::RankExecutor::Mode::kStateMachine:
            return "statemachine";
        }
        return "unknown";
    });

// ----------------------------------------------- checkpoint details

TEST(ChunkCheckpoint, CommittedChunksSkipAndIncompleteOnesRestore)
{
    ccl::RankBuffers buffers(2);
    buffers[0].assign(8, 1.0f);
    buffers[1].assign(8, 2.0f);

    ccl::ChunkCheckpoint checkpoint;
    checkpoint.begin(buffers, ccl::ChunkLayout::ring(8, 2));
    ASSERT_TRUE(checkpoint.active());

    // Chunk 0 becomes final at every rank; chunk 1 only partially.
    ccl::AllReduceTrace::Observer observer = checkpoint.observer();
    observer(0, 0);
    observer(1, 0);
    observer(0, 1);
    EXPECT_TRUE(checkpoint.done(0));
    EXPECT_FALSE(checkpoint.done(1));
    EXPECT_FALSE(checkpoint.complete());
    EXPECT_EQ(checkpoint.mask().doneCount(), 1);

    // Scribble both chunks, as an aborted run would.
    for (auto& buffer : buffers)
        for (float& v : buffer)
            v = -99.0f;

    // restoreIncomplete rewrites only the un-committed chunk 1 range
    // (elements 4..8); committed chunk 0 keeps its reduced values.
    checkpoint.rearm();
    checkpoint.restoreIncomplete(buffers);
    for (std::size_t r = 0; r < buffers.size(); ++r) {
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_FLOAT_EQ(buffers[r][i], -99.0f);
        for (std::size_t i = 4; i < 8; ++i)
            EXPECT_FLOAT_EQ(buffers[r][i],
                            static_cast<float>(r + 1));
    }

    // restoreAll rewrites everything back to the begin() snapshot.
    checkpoint.restoreAll(buffers);
    for (std::size_t r = 0; r < buffers.size(); ++r)
        for (float v : buffers[r])
            EXPECT_FLOAT_EQ(v, static_cast<float>(r + 1));

    checkpoint.reset();
    EXPECT_FALSE(checkpoint.active());
}

TEST(ChunkCheckpoint, RearmVoidsPartialRecordsFromTheDeadAttempt)
{
    ccl::RankBuffers buffers(2);
    buffers[0].assign(4, 1.0f);
    buffers[1].assign(4, 2.0f);

    ccl::ChunkCheckpoint checkpoint;
    checkpoint.begin(buffers, ccl::ChunkLayout::ring(4, 2));
    ccl::AllReduceTrace::Observer observer = checkpoint.observer();

    // One rank recorded chunk 0, then the attempt died. rearm() must
    // void that partial record: the retry's observer starts fresh,
    // and chunk 0 only commits once BOTH ranks record it again.
    observer(0, 0);
    checkpoint.rearm();
    observer = checkpoint.observer();
    observer(0, 0);
    EXPECT_FALSE(checkpoint.done(0));
    observer(1, 0);
    EXPECT_TRUE(checkpoint.done(0));
}

TEST(SupervisorBackoff, DeterministicPerSeed)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Communicator comm_a(kRanks, 4);
    ccl::Communicator comm_b(kRanks, 4);
    SupervisorOptions options;
    options.recovery.search.num_ranks = graph.nodeCount();
    options.recovery.search.max_attempts = 200;
    options.recovery.search.seed = 7;
    ResilienceSupervisor a(comm_a, graph, options);
    ResilienceSupervisor b(comm_b, graph, options);

    // Identical seeds produce identical supervisors: same initial
    // rung, same plan kind — the jitter stream is deterministic so
    // retry schedules replay exactly in simulation/debug.
    EXPECT_EQ(a.rung(), b.rung());
    EXPECT_EQ(a.plan().kind, b.plan().kind);
}

} // namespace
} // namespace core
} // namespace ccube
