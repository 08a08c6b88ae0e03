/**
 * @file
 * Unit tests for the discrete-event simulation core: event ordering,
 * determinism, and FIFO resource serialization (DESIGN.md invariant
 * #6).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace ccube {
namespace sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(3.0, [&]() { order.push_back(3); });
    queue.schedule(1.0, [&]() { order.push_back(1); });
    queue.schedule(2.0, [&]() { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsFifo)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        queue.schedule(1.0, [&order, i]() { order.push_back(i); });
    queue.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(1.0, [&]() { order.push_back(2); }, /*priority=*/2);
    queue.schedule(1.0, [&]() { order.push_back(1); }, /*priority=*/1);
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(1.0, [&]() {
        queue.schedule(2.0, [&]() { ++fired; });
    });
    queue.run();
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(queue.now(), 2.0);
    EXPECT_EQ(queue.executedCount(), 2u);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(1.0, [&]() { ++fired; });
    queue.schedule(5.0, [&]() { ++fired; });
    queue.runUntil(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(queue.now(), 2.0);
    queue.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue queue;
    queue.schedule(1.0, []() {});
    queue.run();
    queue.reset();
    EXPECT_TRUE(queue.empty());
    EXPECT_DOUBLE_EQ(queue.now(), 0.0);
    EXPECT_EQ(queue.executedCount(), 0u);
}

TEST(EventQueue, SchedulingInThePastDies)
{
    EventQueue queue;
    queue.schedule(5.0, []() {});
    queue.run();
    EXPECT_DEATH(queue.schedule(1.0, []() {}), "past");
}

TEST(Simulation, AfterIsRelative)
{
    Simulation sim;
    double fired_at = -1.0;
    sim.at(2.0, [&]() {
        sim.after(3.0, [&]() { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, StatsAccumulate)
{
    Simulation sim;
    sim.addStat("bytes", 10.0);
    sim.addStat("bytes", 5.0);
    EXPECT_DOUBLE_EQ(sim.stat("bytes"), 15.0);
    EXPECT_DOUBLE_EQ(sim.stat("missing"), 0.0);
}

TEST(FifoResource, SerializesRequests)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    std::vector<double> done_times;
    for (int i = 0; i < 3; ++i) {
        res.request([]() { return 2.0; },
                    [&]() { done_times.push_back(sim.now()); });
    }
    sim.run();
    ASSERT_EQ(done_times.size(), 3u);
    EXPECT_DOUBLE_EQ(done_times[0], 2.0);
    EXPECT_DOUBLE_EQ(done_times[1], 4.0);
    EXPECT_DOUBLE_EQ(done_times[2], 6.0);
    EXPECT_DOUBLE_EQ(res.busyTime(), 6.0);
    EXPECT_EQ(res.grants(), 3u);
}

TEST(FifoResource, ServesInArrivalOrderWhateverTheHold)
{
    // FIFO, not shortest-first: a short request queued behind long
    // ones completes after them (an in-order GPU stream).
    Simulation sim;
    FifoResource res(sim, "compute");
    std::vector<double> done;
    for (double hold : {1.0, 2.0, 0.5})
        res.request([hold]() { return hold; },
                    [&]() { done.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_DOUBLE_EQ(done[0], 1.0);
    EXPECT_DOUBLE_EQ(done[1], 3.0);
    EXPECT_DOUBLE_EQ(done[2], 3.5);
    EXPECT_DOUBLE_EQ(res.busyTime(), 3.5);
    EXPECT_EQ(res.grants(), 3u);
}

TEST(FifoResource, IndependentResourcesOverlap)
{
    // Communication and computation streams on one GPU are separate
    // resources and overlap — the property C-Cube's chaining exploits.
    Simulation sim;
    FifoResource compute(sim, "compute");
    FifoResource comm(sim, "comm");
    double compute_done = -1.0;
    double comm_done = -1.0;
    compute.request([]() { return 2.0; },
                    [&]() { compute_done = sim.now(); });
    comm.request([]() { return 2.0; }, [&]() { comm_done = sim.now(); });
    const double end = sim.run();
    EXPECT_DOUBLE_EQ(compute_done, 2.0);
    EXPECT_DOUBLE_EQ(comm_done, 2.0);
    EXPECT_DOUBLE_EQ(end, 2.0); // not 4.0: true overlap
}

TEST(FifoResource, OccupancyIntervalsNeverOverlap)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    std::vector<std::pair<double, double>> intervals;
    for (int i = 0; i < 5; ++i) {
        const double hold = 0.5 + 0.25 * i;
        res.request(
            [&, hold]() {
                intervals.emplace_back(sim.now(), sim.now() + hold);
                return hold;
            },
            nullptr);
    }
    sim.run();
    ASSERT_EQ(intervals.size(), 5u);
    for (std::size_t i = 1; i < intervals.size(); ++i)
        EXPECT_GE(intervals[i].first, intervals[i - 1].second);
}

TEST(FifoResource, ZeroHoldIsImmediate)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    bool done = false;
    res.request([]() { return 0.0; }, [&]() { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(FifoResource, InterleavesWithEvents)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    std::vector<int> order;
    res.request([]() { return 3.0; }, [&]() { order.push_back(1); });
    sim.at(1.0, [&]() { order.push_back(0); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

} // namespace
} // namespace sim
} // namespace ccube
