/**
 * @file
 * Tests for the obs::analyze trace-analysis engine: flight-recorder
 * and capacity semantics, channel timelines and idle detection on
 * golden traces, α-β fitting, critical-path extraction, and the
 * end-to-end reproduction of the paper's idle-down-channel
 * observation on a simulated DGX-1 tree AllReduce.
 */

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/alpha_beta.h"
#include "obs/analyze.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/tree_schedule.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"

namespace ccube {
namespace {

obs::TraceEvent
makeEvent(std::string name, std::string cat, int pid, int tid,
          double ts_us, double dur_us,
          std::vector<std::pair<std::string, double>> args = {})
{
    obs::TraceEvent event;
    event.name = std::move(name);
    event.cat = std::move(cat);
    event.phase = 'X';
    event.pid = pid;
    event.tid = tid;
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.args = std::move(args);
    return event;
}

obs::TraceEvent
channelSpan(int channel, double ts_us, double dur_us, double bytes,
            double queue_wait_us = 0.0)
{
    return makeEvent("ch" + std::to_string(channel), "simnet.channel",
                     100, channel, ts_us, dur_us,
                     {{"queue_wait_us", queue_wait_us},
                      {"bytes", bytes}});
}

// --- Flight mode ------------------------------------------------------

TEST(TraceRecorderRetention, FlightRingKeepsNewestDropsOldest)
{
    obs::TraceRecorder ring;
    ring.setFlightCapacity(3);
    EXPECT_EQ(ring.capacity(), 3u);
    ring.enable();
    for (int i = 0; i < 5; ++i)
        ring.record(makeEvent("e" + std::to_string(i), "t", 1, 1,
                              static_cast<double>(i), 1.0));
    ring.disable();
    EXPECT_EQ(ring.eventCount(), 3u);
    EXPECT_EQ(ring.eventCount() + ring.droppedEvents(), 5u);
    EXPECT_EQ(ring.droppedEvents(), 2u);
    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 3u);
    // Oldest-first snapshot of the newest three.
    EXPECT_EQ(events[0].name, "e2");
    EXPECT_EQ(events[1].name, "e3");
    EXPECT_EQ(events[2].name, "e4");
    ring.clear();
    EXPECT_EQ(ring.eventCount(), 0u);
    EXPECT_EQ(ring.droppedEvents(), 0u);
    EXPECT_TRUE(ring.flightMode()); // clear keeps the mode
}

// --- TraceRecorder retention -----------------------------------------

TEST(TraceRecorderRetention, CapacityDropsNewestAndCounts)
{
    obs::TraceRecorder recorder;
    recorder.setCapacity(4);
    recorder.enable();
    for (int i = 0; i < 7; ++i)
        recorder.record(makeEvent("e" + std::to_string(i), "t", 1, 1,
                                  static_cast<double>(i), 1.0));
    recorder.disable();
    EXPECT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.droppedEvents(), 3u);
    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().name, "e0"); // drop-newest keeps the head
    EXPECT_EQ(events.back().name, "e3");

    obs::MetricRegistry registry;
    recorder.exportTo(registry);
    EXPECT_DOUBLE_EQ(registry.counter("trace.events"), 4.0);
    EXPECT_DOUBLE_EQ(registry.counter("trace.dropped_events"), 3.0);
}

TEST(TraceRecorderRetention, FlightModeKeepsNewest)
{
    obs::TraceRecorder recorder;
    recorder.setFlightCapacity(4);
    EXPECT_TRUE(recorder.flightMode());
    recorder.enable();
    for (int i = 0; i < 7; ++i)
        recorder.record(makeEvent("e" + std::to_string(i), "t", 1, 1,
                                  static_cast<double>(i), 1.0));
    recorder.disable();
    EXPECT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.droppedEvents(), 3u);
    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().name, "e3"); // drop-oldest keeps the tail
    EXPECT_EQ(events.back().name, "e6");

    // Flight-mode capture must survive writeJson (ring, not vector).
    std::ostringstream json;
    recorder.writeJson(json);
    EXPECT_NE(json.str().find("e6"), std::string::npos);

    // Leaving flight mode migrates events and preserves accounting.
    recorder.setCapacity(8);
    EXPECT_FALSE(recorder.flightMode());
    EXPECT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.droppedEvents(), 3u);
}

// --- Channel timelines / idle detection ------------------------------

TEST(ChannelTimeline, IdleIntervalsAndUtilization)
{
    std::vector<obs::TraceEvent> events;
    events.push_back(channelSpan(0, 10.0, 10.0, 100.0));
    events.push_back(channelSpan(0, 30.0, 10.0, 100.0));
    events.push_back(channelSpan(2, 0.0, 5.0, 50.0));
    const obs::TraceAnalyzer analyzer(std::move(events));

    ASSERT_EQ(analyzer.channels().size(), 2u);
    const obs::ChannelTimeline* ch0 = analyzer.channelById(0);
    ASSERT_NE(ch0, nullptr);
    EXPECT_EQ(ch0->transfers, 2);
    EXPECT_DOUBLE_EQ(ch0->busy_us, 20.0);
    EXPECT_DOUBLE_EQ(ch0->bytes, 200.0);
    EXPECT_EQ(analyzer.channelById(1), nullptr);

    const obs::TimeInterval window{0.0, 50.0};
    EXPECT_DOUBLE_EQ(ch0->utilization(window), 0.4);
    EXPECT_DOUBLE_EQ(ch0->idleFraction(window), 0.6);
    const auto gaps = ch0->idleIntervals(window);
    ASSERT_EQ(gaps.size(), 3u); // lead-in, mid, tail
    EXPECT_DOUBLE_EQ(gaps[0].start_us, 0.0);
    EXPECT_DOUBLE_EQ(gaps[0].end_us, 10.0);
    EXPECT_DOUBLE_EQ(gaps[1].start_us, 20.0);
    EXPECT_DOUBLE_EQ(gaps[1].end_us, 30.0);
    EXPECT_DOUBLE_EQ(gaps[2].start_us, 40.0);
    EXPECT_DOUBLE_EQ(gaps[2].end_us, 50.0);
    // min_gap filtering drops all three 10 us gaps.
    EXPECT_TRUE(ch0->idleIntervals(window, 10.5).empty());

    // Aggregate: ch2 busy 5/50, ch0 busy 20/50; absent id 7 skipped.
    EXPECT_NEAR(analyzer.idleFraction({0, 2, 7}, window),
                1.0 - 25.0 / 100.0, 1e-12);
    // channelWindow = [earliest request, latest completion].
    EXPECT_DOUBLE_EQ(analyzer.channelWindow().start_us, 0.0);
    EXPECT_DOUBLE_EQ(analyzer.channelWindow().end_us, 40.0);
}

// --- α-β fit ---------------------------------------------------------

TEST(AlphaBetaFit, RecoversExactLinearModel)
{
    const double alpha_s = 5e-6;
    const double beta_s = 1e-11;
    std::vector<obs::TraceEvent> events;
    for (double bytes : {1e6, 2e6, 4e6, 8e6}) {
        const double dur_us = (alpha_s + beta_s * bytes) * 1e6;
        events.push_back(channelSpan(0, 0.0, dur_us, bytes));
    }
    const obs::TraceAnalyzer analyzer(std::move(events));
    const obs::AlphaBetaFit fit = analyzer.fitAlphaBeta();
    ASSERT_TRUE(fit.valid);
    EXPECT_EQ(fit.samples, 4);
    EXPECT_NEAR(fit.alpha_s, alpha_s, 1e-9);
    EXPECT_NEAR(fit.beta_s_per_byte, beta_s, 1e-15);
    EXPECT_GT(fit.r2, 0.9999);
    EXPECT_NEAR(fit.bandwidth(), 1.0 / beta_s, 1.0);

    const model::AlphaBeta reference{alpha_s, beta_s};
    EXPECT_LT(fit.alphaRelError(reference), 1e-3);
    EXPECT_LT(fit.betaRelError(reference), 1e-3);
}

TEST(AlphaBetaFit, InvalidWithoutDistinctSizes)
{
    std::vector<obs::TraceEvent> events;
    events.push_back(channelSpan(0, 0.0, 10.0, 1e6));
    events.push_back(channelSpan(0, 20.0, 10.0, 1e6));
    const obs::TraceAnalyzer analyzer(std::move(events));
    EXPECT_FALSE(analyzer.fitAlphaBeta().valid);
    EXPECT_FALSE(obs::TraceAnalyzer({}).fitAlphaBeta().valid);
}

// --- Critical path ---------------------------------------------------

TEST(CriticalPath, FollowsHandoffChain)
{
    // A[0,10) on ch0 hands off to B (requested at 10, granted at 12
    // after a 2 us queue wait) which hands off to C. A parallel
    // distractor D never joins the chain.
    std::vector<obs::TraceEvent> events;
    events.push_back(channelSpan(0, 0.0, 10.0, 1000.0));
    events.push_back(channelSpan(1, 12.0, 10.0, 1000.0, 2.0));
    events.push_back(channelSpan(2, 22.0, 5.0, 1000.0));
    events.push_back(channelSpan(3, 0.0, 3.0, 1000.0));
    const obs::TraceAnalyzer analyzer(std::move(events));

    const obs::CriticalPath path = analyzer.criticalPath(0.0);
    ASSERT_EQ(path.steps.size(), 3u);
    EXPECT_EQ(path.steps[0].span.tid, 0);
    EXPECT_EQ(path.steps[1].span.tid, 1);
    EXPECT_EQ(path.steps[2].span.tid, 2);
    EXPECT_DOUBLE_EQ(path.busy_us, 25.0);
    EXPECT_DOUBLE_EQ(path.end_us, 27.0);
    EXPECT_DOUBLE_EQ(path.steps[1].stall_before_us, 2.0);
    EXPECT_DOUBLE_EQ(path.steps[2].stall_before_us, 0.0);
    EXPECT_DOUBLE_EQ(path.breakdown.sync_stall_us, 2.0);
    EXPECT_DOUBLE_EQ(path.breakdown.serialization_us, 25.0);
    EXPECT_DOUBLE_EQ(path.breakdown.startup_us, 0.0);
    // With an explicit 1 us α, each channel span cedes 1 us to startup.
    const obs::CriticalPath with_alpha = analyzer.criticalPath(1.0);
    EXPECT_DOUBLE_EQ(with_alpha.breakdown.startup_us, 3.0);
    EXPECT_DOUBLE_EQ(with_alpha.breakdown.serialization_us, 22.0);
}

TEST(CriticalPath, MailboxPostWaitEdge)
{
    std::vector<obs::TraceEvent> events;
    events.push_back(makeEvent("post mb a", "ccl.mailbox", 1000, 7,
                               0.0, 2.0, {{"seq", 0.0}}));
    events.push_back(makeEvent("wait mb a", "ccl.mailbox", 1001, 7,
                               5.0, 4.0, {{"seq", 0.0}}));
    // Same label, different seq: must NOT pair with the wait above.
    events.push_back(makeEvent("post mb a", "ccl.mailbox", 1000, 7,
                               2.5, 0.5, {{"seq", 1.0}}));
    const obs::TraceAnalyzer analyzer(std::move(events));

    const obs::CriticalPath path = analyzer.criticalPath(0.0);
    ASSERT_EQ(path.steps.size(), 2u);
    EXPECT_EQ(path.steps[0].span.name, "post mb a");
    EXPECT_DOUBLE_EQ(path.steps[0].span.dur_us, 2.0);
    EXPECT_EQ(path.steps[1].span.name, "wait mb a");
    EXPECT_DOUBLE_EQ(path.steps[1].stall_before_us, 3.0);
    EXPECT_EQ(path.steps[0].kind, obs::CostKind::kSyncStall);
    EXPECT_DOUBLE_EQ(path.breakdown.sync_stall_us, 9.0);
}

TEST(CriticalPath, ContainerSpansAreExcluded)
{
    std::vector<obs::TraceEvent> events;
    // Container strictly encloses a child on its own track; it must
    // not contribute its (large) duration to the path.
    events.push_back(makeEvent("phase", "ccl.role", 1000, 1, 0.0, 30.0));
    events.push_back(makeEvent("leaf", "ccl.role", 1000, 1, 2.0, 3.0));
    events.push_back(makeEvent("work", "ccl.role", 1001, 1, 0.0, 20.0));
    const obs::TraceAnalyzer analyzer(std::move(events));

    const obs::CriticalPath path = analyzer.criticalPath(0.0);
    for (const obs::PathStep& step : path.steps)
        EXPECT_NE(step.span.name, "phase");
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.steps.back().span.name, "work");
    EXPECT_DOUBLE_EQ(path.busy_us, 20.0);
}

TEST(CostKinds, ClassificationAndNames)
{
    EXPECT_EQ(obs::classifySpan(channelSpan(0, 0, 1, 1)),
              obs::CostKind::kSerialization);
    EXPECT_EQ(obs::classifySpan(
                  makeEvent("wait mb", "ccl.mailbox", 1, 1, 0, 1)),
              obs::CostKind::kSyncStall);
    EXPECT_EQ(obs::classifySpan(
                  makeEvent("tree.reduce", "ccl.role", 1, 1, 0, 1)),
              obs::CostKind::kReduction);
    EXPECT_EQ(obs::classifySpan(
                  makeEvent("forward", "core.phase", 1, 1, 0, 1)),
              obs::CostKind::kOther);
    EXPECT_STREQ(obs::costKindName(obs::CostKind::kStartup), "startup");
    EXPECT_STREQ(obs::costKindName(obs::CostKind::kSyncStall),
                 "sync_stall");
}

// --- Report writer ---------------------------------------------------

TEST(Report, WritesAllSections)
{
    std::vector<obs::TraceEvent> events;
    for (double bytes : {1e6, 2e6, 4e6}) {
        const double dur_us = (4.6e-6 + 4e-11 * bytes) * 1e6;
        events.push_back(channelSpan(0, bytes / 1e5, dur_us, bytes));
    }
    const obs::TraceAnalyzer analyzer(std::move(events));
    obs::MetricRegistry registry;
    registry.addCounter("trace.events", 3.0);

    const model::AlphaBeta reference;
    obs::ReportOptions options;
    options.reference = &reference;
    std::ostringstream out;
    obs::writeAnalysisReport(out, analyzer, &registry, options);
    const std::string report = out.str();
    EXPECT_NE(report.find("channel utilization"), std::string::npos);
    EXPECT_NE(report.find("alpha-beta fit"), std::string::npos);
    EXPECT_NE(report.find("critical path"), std::string::npos);
    EXPECT_NE(report.find("rel err"), std::string::npos);
    EXPECT_NE(report.find("trace.events"), std::string::npos);
}

// --- DGX-1 integration -----------------------------------------------

class Dgx1Analysis : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::TraceRecorder::global().clear();
        obs::TraceRecorder::global().enable();
    }

    void TearDown() override
    {
        obs::TraceRecorder::global().disable();
        obs::TraceRecorder::global().clear();
    }

    /** Down-direction channels that carry no reduction traffic. */
    static std::vector<int>
    downOnlyChannels(const topo::Graph& graph,
                     const topo::TreeEmbedding& embedding)
    {
        const auto down =
            simnet::treeChannelIds(graph, embedding, 0, true);
        const auto up =
            simnet::treeChannelIds(graph, embedding, 0, false);
        std::vector<int> out;
        std::set_difference(down.begin(), down.end(), up.begin(),
                            up.end(), std::back_inserter(out));
        return out;
    }
};

TEST_F(Dgx1Analysis, TwoPhaseLeavesDownChannelsIdleOverlappedDoesNot)
{
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt =
        topo::makeDgx1DoubleTree(graph);
    const double bytes = 64.0 * (1 << 20);
    const std::vector<int> down = downOnlyChannels(graph, dt.tree0);
    ASSERT_FALSE(down.empty());

    obs::TraceRecorder& recorder = obs::TraceRecorder::global();

    // Two-phase baseline: the broadcast starts only after the full
    // reduction — down channels sit idle for roughly half the run
    // (the paper's Observation #2).
    {
        sim::Simulation sim;
        simnet::Network net(sim, graph);
        simnet::runTreeSchedule(sim, net, dt.tree0, bytes,
                                simnet::PhaseMode::kTwoPhase, 32);
    }
    const obs::TraceAnalyzer two_phase(recorder.snapshot());
    const double idle_two_phase = two_phase.idleFraction(down);
    EXPECT_GT(idle_two_phase, 0.3);

    // Overlapped (C-Cube): chunks chain straight into the broadcast;
    // down channels stream for all but the pipeline ramp.
    recorder.clear();
    {
        sim::Simulation sim;
        simnet::Network net(sim, graph);
        simnet::runTreeSchedule(sim, net, dt.tree0, bytes,
                                simnet::PhaseMode::kOverlapped, 192);
    }
    const obs::TraceAnalyzer overlapped(recorder.snapshot());
    const double idle_overlapped = overlapped.idleFraction(down);
    EXPECT_LT(idle_overlapped, 0.05);
    EXPECT_LT(idle_overlapped, idle_two_phase);
}

TEST_F(Dgx1Analysis, FitMatchesConfiguredModelWithinTenPercent)
{
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt =
        topo::makeDgx1DoubleTree(graph);
    const double bytes = 32.0 * (1 << 20);

    // Two runs with different chunk counts give the fit two distinct
    // transfer sizes (one size per run would leave it degenerate).
    for (int chunks : {64, 32}) {
        sim::Simulation sim;
        simnet::Network net(sim, graph);
        const auto result = simnet::runTreeSchedule(
            sim, net, dt.tree0, bytes,
            simnet::PhaseMode::kOverlapped, chunks);
        net.closeTraceEpoch(result.completion_time);
    }
    const obs::TraceAnalyzer analyzer(
        obs::TraceRecorder::global().snapshot());
    const obs::AlphaBetaFit fit = analyzer.fitAlphaBeta();
    ASSERT_TRUE(fit.valid);

    // model::AlphaBeta defaults mirror the DGX-1 NVLink parameters.
    const model::AlphaBeta reference;
    EXPECT_LT(fit.alphaRelError(reference), 0.10);
    EXPECT_LT(fit.betaRelError(reference), 0.10);

    // The critical path must account for (at least) its whole span.
    const obs::CriticalPath path =
        analyzer.criticalPath(fit.alpha_s * 1e6);
    ASSERT_FALSE(path.empty());
    EXPECT_GT(path.breakdown.startup_us, 0.0);
    EXPECT_GT(path.breakdown.serialization_us, 0.0);
    EXPECT_GE(path.breakdown.totalUs(), path.spanUs() - 1e-6);
}

TEST_F(Dgx1Analysis, TimelinesMatchDesBusyIntervals)
{
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt =
        topo::makeDgx1DoubleTree(graph);

    sim::Simulation sim;
    simnet::Network net(sim, graph);
    simnet::runTreeSchedule(sim, net, dt.tree0, 8.0 * (1 << 20),
                            simnet::PhaseMode::kOverlapped, 16);

    const obs::TraceAnalyzer analyzer(
        obs::TraceRecorder::global().snapshot());
    ASSERT_FALSE(analyzer.channels().empty());
    for (const obs::ChannelTimeline& timeline : analyzer.channels()) {
        // Trace-derived busy time equals the DES-side ground truth.
        const auto& intervals =
            net.channelBusyIntervals(timeline.channel);
        ASSERT_FALSE(intervals.empty());
        double des_busy_us = 0.0;
        for (const auto& [start, end] : intervals)
            des_busy_us += (end - start) * 1e6;
        EXPECT_NEAR(timeline.busy_us, des_busy_us,
                    1e-9 * des_busy_us + 1e-9);
        EXPECT_EQ(static_cast<std::uint64_t>(timeline.transfers),
                  net.channelGrants(timeline.channel));
        EXPECT_NEAR(timeline.bytes,
                    net.channelBytes(timeline.channel), 1e-6);
    }
}

} // namespace
} // namespace ccube
