/**
 * @file
 * obs::Profiler + wait-for-graph coverage.
 *
 * Unit side: WaitForRegistry chain walking on golden registries —
 * linear stall chains, wait cycles, self-post, edge clearing — plus a
 * sampler smoke capture (publish a phase, observe samples and the
 * collapsed-stack rendering). E2e side: a FaultInjector kill during a
 * P=64 ring AllReduce must surface a CollectiveError whose wait-for
 * chain terminates at the killed rank, on both engines —
 * the ring is the shape where the chain is exact (every rank has one
 * upstream), so the terminus assertion is deterministic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/executor.h"
#include "ccl/fault.h"
#include "ccl/ring_allreduce.h"
#include "obs/profiler.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace {

using namespace std::chrono_literals;
using obs::Profiler;
using obs::ProfPhase;
using obs::WaitForRegistry;

// ---------------------------------------------------------------------------
// WaitForRegistry golden-registry units
// ---------------------------------------------------------------------------

TEST(WaitForRegistry, LinearChainTerminatesAtDeadRank)
{
    WaitForRegistry registry(8);
    registry.markDead(1);
    registry.noteWait(2, 1, "mb 1->2/f0", 0);
    registry.noteWait(3, 2, "mb 2->3/f0", 0);
    registry.noteWait(4, 3, "mb 3->4/f0", 0);

    const WaitForRegistry::Chain chain = registry.chain(4);
    ASSERT_EQ(chain.length(), 3u);
    EXPECT_EQ(chain.links[0].rank, 4);
    EXPECT_EQ(chain.links[1].rank, 3);
    EXPECT_EQ(chain.links[2].rank, 2);
    EXPECT_EQ(chain.terminus, 1);
    EXPECT_TRUE(chain.terminus_dead);
    EXPECT_FALSE(chain.cycle);

    const std::string text = WaitForRegistry::formatChain(chain);
    EXPECT_NE(text.find("r4 parked on mb 3->4/f0"), std::string::npos)
        << text;
    EXPECT_NE(text.find("r1 killed"), std::string::npos) << text;
}

TEST(WaitForRegistry, LongestChainPicksTheDeepestWaiter)
{
    WaitForRegistry registry(8);
    registry.markDead(0);
    registry.noteWait(1, 0, "mb 0->1/f0", 0);
    registry.noteWait(2, 1, "mb 1->2/f0", 0);
    registry.noteWait(5, 0, "mb 0->5/f1", 1); // short side branch

    const WaitForRegistry::Chain chain = registry.longestChain();
    ASSERT_EQ(chain.length(), 2u);
    EXPECT_EQ(chain.links[0].rank, 2);
    EXPECT_EQ(chain.terminus, 0);
}

TEST(WaitForRegistry, CycleIsDetectedNotFollowedForever)
{
    WaitForRegistry registry(4);
    registry.noteWait(0, 1, "mb 1->0/f0", 0);
    registry.noteWait(1, 0, "mb 0->1/f0", 0);

    const WaitForRegistry::Chain chain = registry.chain(0);
    EXPECT_TRUE(chain.cycle);
    EXPECT_EQ(chain.length(), 2u);
    EXPECT_EQ(chain.terminus, 0); // walk returned to its start
    EXPECT_NE(WaitForRegistry::formatChain(chain).find("wait cycle"),
              std::string::npos);
}

TEST(WaitForRegistry, SelfPostIsAOneLinkCycle)
{
    WaitForRegistry registry(8);
    registry.noteWait(5, 5, "mb 5->5/f0", 0);

    const WaitForRegistry::Chain chain = registry.chain(5);
    EXPECT_TRUE(chain.cycle);
    EXPECT_EQ(chain.length(), 1u);
    EXPECT_EQ(chain.terminus, 5);
}

TEST(WaitForRegistry, ClearWaitRemovesTheEdge)
{
    WaitForRegistry registry(4);
    registry.noteWait(2, 1, "mb 1->2/f0", 0);
    EXPECT_TRUE(registry.waiting(2));
    registry.clearWait(2);
    EXPECT_FALSE(registry.waiting(2));
    EXPECT_TRUE(registry.longestChain().empty());
}

TEST(WaitForRegistry, UnknownPeerEndsTheChainAtExternal)
{
    WaitForRegistry registry(4);
    registry.noteWait(3, -1, "<stalled>", 2);

    const WaitForRegistry::Chain chain = registry.chain(3);
    EXPECT_EQ(chain.length(), 1u);
    EXPECT_EQ(chain.terminus, -1);
    EXPECT_NE(WaitForRegistry::formatChain(chain).find("<external>"),
              std::string::npos);
}

TEST(WaitForRegistry, ResetDropsEdgesAndDeadMarks)
{
    WaitForRegistry registry(4);
    registry.markDead(1);
    registry.noteWait(2, 1, "mb 1->2/f0", 0);
    registry.reset();
    EXPECT_FALSE(registry.waiting(2));
    EXPECT_FALSE(registry.dead(1));
}

// ---------------------------------------------------------------------------
// Sampler smoke
// ---------------------------------------------------------------------------

TEST(ProfilerSampler, CapturesPublishedPhasesAndParkedTime)
{
    Profiler& profiler = Profiler::global();
    profiler.start(4000.0);
    ASSERT_TRUE(profiler.enabled());

    std::atomic<bool> stop{false};
    std::thread worker([&]() {
        obs::ScopedProfPhase phase(ProfPhase::kStep, 3);
        while (!stop.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(1ms);
    });
    std::this_thread::sleep_for(150ms);
    stop.store(true, std::memory_order_relaxed);
    worker.join();
    profiler.addParkedNs(3, 1'000'000); // exact feed, as the engine does
    profiler.stop();

    EXPECT_FALSE(profiler.enabled());
    EXPECT_GT(profiler.ticks(), 0u);
    EXPECT_GT(profiler.samples(ProfPhase::kStep, 3), 0u);
    EXPECT_EQ(profiler.parkedNs(3), 1'000'000u);

    std::ostringstream collapsed;
    profiler.writeCollapsed(collapsed);
    const std::string text = collapsed.str();
    EXPECT_NE(text.find("ccl;rank3;step"), std::string::npos) << text;
    EXPECT_NE(text.find("ccl;rank3;parked"), std::string::npos) << text;
}

TEST(ProfilerSampler, DisabledPublishIsANoOp)
{
    Profiler& profiler = Profiler::global();
    ASSERT_FALSE(profiler.enabled());
    // Publication while stopped must not touch the thread slot (a
    // later capture would otherwise sample a stale phase forever).
    {
        obs::ScopedProfPhase phase(ProfPhase::kMailboxPost, 7);
    }
    profiler.start(4000.0);
    std::this_thread::sleep_for(20ms);
    profiler.stop();
    EXPECT_EQ(profiler.samples(ProfPhase::kMailboxPost, 7), 0u);
}

// ---------------------------------------------------------------------------
// E2e: kill → stall report with the killed rank as chain terminus
// ---------------------------------------------------------------------------

class StallReportE2e
    : public ::testing::TestWithParam<ccl::RankExecutor::Mode>
{
};

TEST_P(StallReportE2e, KillAtP64RingChainTerminatesAtKilledRank)
{
    constexpr int kRanks = 64;
    constexpr int kKilled = 9;

    ccl::Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(500ms);
    ccl::FaultInjector injector;
    ccl::FaultInjector::Fault fault;
    fault.rank = kKilled;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 5;
    injector.arm(fault);
    comm.setFaultInjector(&injector);

    const topo::RingEmbedding ring = topo::makeSequentialRing(kRanks);
    ccl::RankBuffers buffers(kRanks);
    for (auto& b : buffers)
        b.assign(kRanks, 1.0f);

    bool caught = false;
    try {
        ccl::ringAllReduce(comm, buffers, ring);
    } catch (const ccl::CollectiveError& error) {
        caught = true;
        const ccl::CollectiveError::Info& info = error.info();
        EXPECT_EQ(info.failed_rank, kKilled);
        // The wait-for chain must name the killed rank as terminus —
        // in a ring every blocked rank's upstream edge leads there.
        EXPECT_EQ(info.chain_terminus, kKilled) << info.stall_chain;
        EXPECT_GE(info.chain_len, 1) << info.stall_chain;
        EXPECT_NE(info.stall_chain.find("r9 killed"),
                  std::string::npos)
            << info.stall_chain;
        // The human-facing report carries the same chain.
        const std::string report = ccl::formatStallReport(info);
        EXPECT_NE(report.find("=== ccl stall report ==="),
                  std::string::npos);
        EXPECT_NE(report.find("terminus r9"), std::string::npos)
            << report;
    }
    EXPECT_TRUE(caught) << "collective completed despite kill";
    comm.clearAbort();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StallReportE2e,
    ::testing::Values(ccl::RankExecutor::Mode::kPersistent,
                      ccl::RankExecutor::Mode::kStateMachine),
    [](const auto& info) {
        switch (info.param) {
        case ccl::RankExecutor::Mode::kPersistent:
            return "Persistent";
        case ccl::RankExecutor::Mode::kStateMachine:
            return "StateMachine";
        }
        return "Unknown";
    });

} // namespace
} // namespace ccube
