#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The four benchmark workloads, the layer probes of the traced run,
 * and the simulated-time reference of the DES workload.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "ccl/tuner.h"
#include "harness.h"
#include "topo/graph.h"

namespace perfbench {

/** `Communicator::runAuto` on the DGX-1, P=8, 1–64 KiB per rank. */
std::unique_ptr<Workload> makeDgx1AutoSmall(std::uint64_t seed);

/** `ResilienceSupervisor::allReduce` on the DGX-1, P=8, 4–16 MiB. */
std::unique_ptr<Workload> makeDgx1SupervisedLarge(std::uint64_t seed);

/** Two-phase `doubleTreeAllReduce` at P=512, 64 floats per rank. */
std::unique_ptr<Workload> makeSmP512Scale(std::uint64_t seed);

/** The paper's DES grid and the fig13 evaluate set, checked against
 *  the simulated-time reference at @p reference_path. */
std::unique_ptr<Workload> makeDesPaperGrid(const std::string& reference_path);

/**
 * Host seconds of @p reps runs of the fixed host-drift cell: P=256,
 * 64 MiB overlapped double tree on the fig14 fabric. Deterministic
 * work, so its spread is the host's own. @p events gets the cell's
 * event count.
 */
std::vector<double> driftCellSeconds(int reps, std::uint64_t* events);

/** Rebuilds the simulated-time reference from the current code. */
bool writeDesReference(const std::string& path);

/**
 * Runs @p cell the way `ccl::allReduce` does — embed, then run the
 * collective — with a span around each layer call. Returns the trace.
 */
ccube::ccl::AllReduceTrace
runTunedCell(ccube::ccl::Communicator& comm,
             ccube::ccl::RankBuffers& buffers,
             const ccube::topo::Graph& graph,
             const ccube::ccl::TunerChoice& cell, Tracer* tracer,
             std::uint64_t op, int parent);

/** What @p cell promises about chunk completion at P=@p p. */
ChunkPromise promiseOf(const ccube::ccl::TunerChoice& cell, int p);

/**
 * Times each layer's public functions on fixed inputs, with a span
 * around every call, and adds the per-layer metrics that are not per-op
 * counters of the workload loop to @p metrics. This includes one pass
 * of the des_paper_grid mix, checked against its oracles and the
 * reference at @p reference; its operations are added to @p attempted
 * and @p failed.
 */
void runLayerProbes(Tracer& tracer, std::uint64_t seed,
                    const std::string& reference,
                    std::map<std::string, double>& metrics,
                    std::uint64_t& attempted, std::uint64_t& failed);

/**
 * Prints the README's reference figures for the host it runs on, with
 * the program's default engines: the thread counts of the persistent
 * engine (P=8) and of the state-machine pool, runAuto's embedding-search
 * share, LL vs Simple for the C-Cube double tree at 1 MiB, two-phase
 * double-tree times at P=256/512/1024 and the supervised 8 MiB call.
 */
void printHostFigures(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
