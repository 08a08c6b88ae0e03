/**
 * @file
 * Layer probes of the traced run: each layer's public functions timed
 * on fixed small inputs, one span per call, so every traced run reports
 * the same per-layer figures whatever workload it measured. Medians of
 * a few calls each; the whole pass takes a few host seconds.
 */

#include <cmath>
#include <cstdio>
#include <optional>

#include "ccl/double_tree_allreduce.h"
#include "ccl/primitives.h"
#include "ccl/protocol.h"
#include "ccl/state_machine.h"
#include "ccl/reduce_kernels.h"
#include "core/ccube_engine.h"
#include "core/supervisor.h"
#include "dnn/catalog.h"
#include "obs/monitor.h"
#include "simnet/channel.h"
#include "simnet/double_tree_schedule.h"
#include "simnet/ring_schedule.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/embedding_search.h"
#include "topo/ring_embedding.h"
#include "topo/switch_fabric.h"
#include "topo/tree_embedding.h"
#include "workloads.h"

namespace perfbench {

using namespace ccube;

namespace {

constexpr auto kEngine = ccl::RankExecutor::Mode::kStateMachine;

/** Durations (us) of the spans named @p name recorded from @p first. */
std::vector<double>
durations(const Tracer& tracer, const std::string& name, std::size_t first)
{
    std::vector<double> out;
    for (const Tracer::Span& span : tracer.spans(first)) {
        if (span.name == name)
            out.push_back(span.end_us - span.start_us);
    }
    return out;
}

/** Runs @p call @p reps times inside spans named @p name; returns the
 *  median duration in microseconds. */
template <typename Fn>
double
medianSpan(Tracer& tracer, const char* name, int reps, Fn&& call)
{
    const std::size_t first = tracer.size();
    for (int i = 0; i < reps; ++i) {
        const std::uint64_t op = tracer.newOp();
        ScopedSpan span(&tracer, name, op);
        call();
    }
    return median(durations(tracer, name, first));
}

/** Runs the tuner's cells at P=8 (1–64 KiB), with @p forced as the
 *  protocol when given, and stores the median collective time as
 *  @p collective_metric (and, unforced, the embedding time). */
void
probeAutoCells(Tracer& tracer, std::uint64_t seed,
               std::optional<ccl::Protocol> forced,
               std::map<std::string, double>& metrics,
               const char* collective_metric)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Communicator comm(8, 4, kEngine);
    ccl::RankBuffers buffers;
    const std::size_t first = tracer.size();
    std::vector<double> collective;
    for (int rep = 0; rep < 6; ++rep) {
        for (std::size_t elems : {256, 1024, 4096, 16384}) {
            const SeededInput input(seed + elems, 8, elems);
            ccl::TunerChoice cell =
                ccl::Tuner::global().choose(graph, 8, elems);
            if (forced)
                cell.protocol = *forced;
            input.load(buffers);
            const std::uint64_t op = tracer.newOp();
            const std::size_t before = tracer.size();
            {
                ScopedSpan span(&tracer, "probe.auto_cell", op);
                runTunedCell(comm, buffers, graph, cell, &tracer, op,
                             span.index());
            }
            // The first call of each size is cold; keep the others.
            if (rep == 0)
                continue;
            for (const Tracer::Span& span : tracer.spans(before)) {
                if (span.name.rfind("ccl.", 0) == 0)
                    collective.push_back(span.end_us - span.start_us);
            }
        }
    }
    metrics[collective_metric] = median(collective);
    if (!forced) {
        std::vector<double> embed;
        for (const char* name : {"topo.findConflictFreeDoubleTree",
                                 "topo.embedTree",
                                 "topo.findHamiltonianRing"}) {
            for (double d : durations(tracer, name, first))
                embed.push_back(d);
        }
        metrics["topo.embed_us"] = median(embed);
    }
}

/** Median microseconds of one two-phase double-tree call (64 floats)
 *  at P=@p ranks, after the communicator's cold first call, whose own
 *  time (creation included) goes to @p create_ms when non-null. */
double
twoPhaseCallUs(Tracer& tracer, std::uint64_t seed, int ranks, int reps,
               double* create_ms)
{
    const topo::DoubleTreeEmbedding tree(
        topo::directEmbedding(topo::BinaryTree::inorder(ranks)),
        topo::directEmbedding(topo::BinaryTree::inorder(ranks).mirrored()));
    const SeededInput input(seed, ranks, 64);
    ccl::RankBuffers buffers;
    input.load(buffers);
    std::optional<ccl::Communicator> comm;
    const double create_us =
        medianSpan(tracer, "probe.comm_create", 1, [&] {
            comm.emplace(ranks, 4, kEngine);
            ccl::doubleTreeAllReduce(*comm, buffers, tree, 2,
                                     ccl::TreePhaseMode::kTwoPhase);
        });
    if (create_ms != nullptr)
        *create_ms = create_us / 1e3;
    return medianSpan(tracer, "probe.double_tree_two_phase", reps, [&] {
        input.load(buffers);
        ccl::doubleTreeAllReduce(*comm, buffers, tree, 2,
                                 ccl::TreePhaseMode::kTwoPhase);
    });
}

void
probeSupervisor(Tracer& tracer, std::uint64_t seed,
                std::map<std::string, double>& metrics)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Communicator comm(8, 4, kEngine);
    core::ResilienceSupervisor supervisor(comm, graph);
    const SeededInput input(seed, 8, std::size_t{2} << 20); // 8 MiB
    ccl::RankBuffers buffers;
    input.load(buffers);
    supervisor.allReduce(buffers); // cold
    const core::SupervisorOptions options;
    std::vector<double> supervised;
    std::vector<double> bare;
    // Paired: the supervised call, then the same double tree, chunking
    // and protocol run bare on the supervisor's own plan.
    for (int i = 0; i < 4; ++i) {
        input.load(buffers);
        supervised.push_back(medianSpan(
            tracer, "core.ResilienceSupervisor::allReduce", 1,
            [&] { supervisor.allReduce(buffers); }));
        input.load(buffers);
        bare.push_back(medianSpan(
            tracer, "probe.bare_double_tree", 1, [&] {
                ccl::doubleTreeAllReduce(
                    comm, buffers, *supervisor.plan().double_tree,
                    options.chunks_per_tree,
                    ccl::TreePhaseMode::kOverlapped, {}, options.proto);
            }));
    }
    metrics["core.supervisor_us"] = median(supervised);
    metrics["core.self_us"] = median(supervised) - median(bare);
}

double
probeReduceGbps(Tracer& tracer)
{
    // The supervised workload's chunks: 4–16 MiB over 16 chunks.
    std::vector<double> gbps;
    for (std::size_t elems : {std::size_t{1} << 16, std::size_t{1} << 17,
                              std::size_t{1} << 18}) {
        std::vector<float> dst(elems, 1.0f);
        std::vector<float> src(elems, 2.0f);
        for (int rep = 0; rep < 20; ++rep) {
            const double us = medianSpan(tracer, "ccl.kernels::reduceAdd",
                                         1, [&] {
                ccl::kernels::reduceAdd(dst.data(), src.data(), elems);
            });
            gbps.push_back(static_cast<double>(elems * sizeof(float)) /
                           (us * 1e3));
        }
    }
    return median(gbps);
}

/** A small serial grid pass: P=64 at 16 KiB and 16 MiB, three
 *  schedules each. */
void
smallGridPass()
{
    topo::SwitchFabricParams params;
    params.num_nodes = 64;
    params.leaf_radix = 8;
    params.link_latency = 1.0e-6;
    const topo::Graph graph = topo::makeSwitchFabric(params);
    const topo::DoubleTreeEmbedding tree =
        topo::makeMirroredDoubleTree(graph, 64);
    const topo::RingEmbedding ring = topo::makeSequentialRing(64);
    for (double bytes : {16.0 * 1024, 16.0 * 1024 * 1024}) {
        const int chunks =
            std::max(1, static_cast<int>(bytes / 2.0 / (256.0 * 1024.0)));
        {
            sim::Simulation sim;
            simnet::Network net(sim, graph);
            simnet::runRingSchedule(sim, net, ring, bytes);
        }
        for (simnet::PhaseMode mode : {simnet::PhaseMode::kOverlapped,
                                       simnet::PhaseMode::kTwoPhase}) {
            sim::Simulation sim;
            simnet::Network net(sim, graph);
            simnet::runDoubleTreeSchedule(sim, net, tree, bytes, mode,
                                          chunks);
        }
    }
}

double
probeMonitorOverhead(Tracer& tracer)
{
    obs::Monitor monitor;
    monitor.setInterval(5e-4);
    monitor.enable();
    smallGridPass(); // warm
    std::vector<double> ratios;
    for (int round = 0; round < 6; ++round) {
        const double off =
            medianSpan(tracer, "probe.grid_monitor_off", 1, smallGridPass);
        double on = 0.0;
        {
            obs::ScopedMonitorRedirect redirect(&monitor);
            on = medianSpan(tracer, "probe.grid_monitor_on", 1,
                            smallGridPass);
        }
        ratios.push_back(on / off);
    }
    monitor.disable();
    return median(ratios);
}

double
probeIterationEval(Tracer& tracer)
{
    std::vector<std::unique_ptr<core::CCubeEngine>> engines;
    for (auto build : {dnn::buildZfNet, dnn::buildVgg16, dnn::buildResnet50})
        engines.push_back(std::make_unique<core::CCubeEngine>(build()));
    const std::size_t first = tracer.size();
    for (const auto& engine : engines) {
        for (double scale : {0.25, 1.0}) {
            for (int batch : {16, 32, 64, 128}) {
                core::IterationConfig config;
                config.batch = batch;
                config.bandwidth_scale = scale;
                for (core::Mode mode : core::allModes()) {
                    const std::uint64_t op = tracer.newOp();
                    ScopedSpan span(&tracer, "core.CCubeEngine::evaluate",
                                    op);
                    engine->evaluate(mode, config);
                }
            }
        }
    }
    return median(durations(tracer, "core.CCubeEngine::evaluate", first));
}

/** One pass of the des_paper_grid mix; the sim and simnet metrics
 *  come from its counters. */
void
probeDesPass(Tracer& tracer, const std::string& reference,
             std::map<std::string, double>& metrics,
             std::uint64_t& attempted, std::uint64_t& failed)
{
    const std::unique_ptr<Workload> grid = makeDesPaperGrid(reference);
    grid->setup();
    std::vector<OpSample> ops;
    grid->runRound(ops, &tracer);
    for (const OpSample& op : ops) {
        ++attempted;
        failed += op.ok ? 0 : 1;
    }
    const Counters c = grid->counters();
    const double schedules = c.at("simnet.schedules");
    const double events = c.at("sim.events");
    const double transfers = c.at("simnet.transfers");
    metrics["sim.events_per_op"] = events / schedules;
    metrics["sim.events_per_transfer"] = events / transfers;
    metrics["simnet.transfers_per_op"] = transfers / schedules;
    metrics["sim.ns_per_event"] = c.at("simnet.schedule_ns") / events;
    metrics["simnet.network_build_us"] =
        c.at("simnet.network_build_ns") / 1e3 / schedules;
    metrics["simnet.ring_s"] = c.at("simnet.ring_ns") / 1e9;
    metrics["simnet.tree_overlapped_s"] = c.at("simnet.tree_overlapped_ns") / 1e9;
    metrics["simnet.tree_two_phase_s"] = c.at("simnet.tree_two_phase_ns") / 1e9;
}

} // namespace

void
runLayerProbes(Tracer& tracer, std::uint64_t seed,
               const std::string& reference,
               std::map<std::string, double>& metrics,
               std::uint64_t& attempted, std::uint64_t& failed)
{
    probeDesPass(tracer, reference, metrics, attempted, failed);
    probeAutoCells(tracer, seed, std::nullopt, metrics, "ccl.collective_us");
    probeAutoCells(tracer, seed, ccl::Protocol::kSimple, metrics,
                   "ccl.collective_simple_us");
    {
        const topo::Graph graph = topo::makeDgx1();
        metrics["ccl.tuner_us"] =
            medianSpan(tracer, "ccl.Tuner::choose", 200, [&] {
                ccl::Tuner::global().choose(graph, 8, 4096);
            });
    }
    metrics["ccl.reduce_gbps"] = probeReduceGbps(tracer);
    double create_ms = 0.0;
    const double t512 = twoPhaseCallUs(tracer, seed, 512, 6, &create_ms);
    const double t1024 = twoPhaseCallUs(tracer, seed, 1024, 6, nullptr);
    metrics["ccl.comm_create_ms"] = create_ms;
    metrics["ccl.p_scaling_exponent"] = std::log2(t1024 / t512);
    probeSupervisor(tracer, seed, metrics);
    metrics["core.iteration_eval_us"] = probeIterationEval(tracer);
    metrics["topo.fabric_build_ms"] =
        medianSpan(tracer, "topo.makeSwitchFabric+makeMirroredDoubleTree", 5,
                   [] {
                       topo::SwitchFabricParams params;
                       params.num_nodes = 512;
                       params.leaf_radix = 8;
                       params.link_latency = 1.0e-6;
                       const topo::Graph graph =
                           topo::makeSwitchFabric(params);
                       topo::makeMirroredDoubleTree(graph, 512);
                   }) /
        1e3;
    metrics["obs.monitor_overhead_ratio"] = probeMonitorOverhead(tracer);
}

} // namespace perfbench

namespace perfbench {

void
printHostFigures(std::uint64_t seed)
{
    Tracer tracer;
    const topo::Graph graph = topo::makeDgx1();
    ccl::RankBuffers buffers;

    {
        const int before = osThreadCount();
        ccl::Communicator comm(8, 4, ccl::RankExecutor::Mode::kPersistent);
        const SeededInput input(seed, 8, std::size_t{1} << 18);
        for (ccl::Protocol proto : {ccl::Protocol::kSimple, ccl::Protocol::kLL}) {
            input.load(buffers);
            ccl::AllReduceOptions options;
            options.protocol = proto;
            ccl::allReduce(comm, buffers, graph, options);
        }
        std::printf("persistent_engine_threads_p8 %d\n",
                    osThreadCount() - before);
    }
    std::printf("state_machine_pool_workers %d\n",
                ccl::StateMachineEngine::shared().workerCount());

    ccl::Communicator comm(8, 4, kEngine);
    const double embed = medianSpan(tracer, "embed", 20, [&] {
        topo::EmbeddingSearchOptions search;
        search.num_ranks = 8;
        topo::findConflictFreeDoubleTree(graph, search);
    });
    for (std::size_t elems : {256, 1024, 4096, 16384}) {
        const SeededInput input(seed, 8, elems);
        input.load(buffers);
        comm.runAuto(buffers, graph); // cold
        const ccl::TunerChoice cell =
            ccl::Tuner::global().choose(graph, 8, elems);
        const double call = medianSpan(tracer, "runAuto", 20, [&] {
            input.load(buffers);
            comm.runAuto(buffers, graph);
        });
        std::printf("runAuto_%zuKiB_us %.0f (%s %s, embedding search "
                    "%.0f us = %.0f%%)\n",
                    elems * sizeof(float) / 1024, call,
                    ccl::algorithmName(cell.algorithm),
                    ccl::protocolName(cell.protocol), embed,
                    100.0 * embed / call);
    }

    {
        topo::EmbeddingSearchOptions search;
        search.num_ranks = 8;
        const topo::DoubleTreeEmbedding tree =
            *topo::findConflictFreeDoubleTree(graph, search);
        const SeededInput input(seed, 8, std::size_t{1} << 18); // 1 MiB
        for (ccl::Protocol proto : {ccl::Protocol::kLL, ccl::Protocol::kSimple}) {
            input.load(buffers);
            ccl::doubleTreeAllReduce(comm, buffers, tree, 8,
                                     ccl::TreePhaseMode::kOverlapped, {},
                                     proto); // cold
            const double us = medianSpan(tracer, "1MiB", 5, [&] {
                input.load(buffers);
                ccl::doubleTreeAllReduce(comm, buffers, tree, 8,
                                         ccl::TreePhaseMode::kOverlapped,
                                         {}, proto);
            });
            std::printf("ccube_double_tree_1MiB_%s_ms %.2f\n",
                        ccl::protocolName(proto), us / 1e3);
        }
    }

    for (int ranks : {256, 512, 1024})
        std::printf("double_tree_two_phase_p%d_ms %.2f\n", ranks,
                    twoPhaseCallUs(tracer, seed, ranks, 5, nullptr) / 1e3);

    {
        ccl::Communicator sup_comm(8, 4, kEngine);
        core::ResilienceSupervisor supervisor(sup_comm, graph);
        const SeededInput input(seed, 8, std::size_t{2} << 20); // 8 MiB
        input.load(buffers);
        supervisor.allReduce(buffers); // cold
        const double us = medianSpan(tracer, "supervised", 5, [&] {
            input.load(buffers);
            supervisor.allReduce(buffers);
        });
        std::printf("supervised_8MiB_ms %.1f\n", us / 1e3);
    }
}

} // namespace perfbench
