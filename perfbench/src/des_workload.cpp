/**
 * @file
 * The paper's timed world: a fig14-style switch-fabric grid (ring,
 * overlapped and two-phase double tree) plus the fig13
 * `CCubeEngine::evaluate` set on the DGX-1, driven through
 * `sweep::runIndexed` like the figure binaries.
 *
 * The grid is a subset of fig14's P × size grid sized to one round of
 * about seven host seconds. It keeps both corners that differ in kind:
 * P=512 × 16 KiB (ring-bound, 1.6M events) and P=512 × 256 MiB
 * (tree-bound, 3.1M events for the overlapped tree). Every simulated
 * completion and turnaround time must equal the checked-in reference
 * exactly: a simulator speed-up leaves them identical, and a fidelity
 * fix renews the reference on purpose (`run.py --regen-reference`).
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/ccube_engine.h"
#include "dnn/catalog.h"
#include "simnet/channel.h"
#include "simnet/double_tree_schedule.h"
#include "simnet/ring_schedule.h"
#include "sweep/sweep.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/switch_fabric.h"
#include "workloads.h"

namespace perfbench {

using namespace ccube;

namespace {

/**
 * Sweep workers. One: side by side, the schedules slow each other down
 * by an amount that depends on which ones happen to overlap; on a
 * 4-vCPU VM four workers doubled the run-to-run spread of ops_per_s.
 */
constexpr int kDesJobs = 1;

/** The fig14 fabric parameters (device-side synchronization α). */
topo::SwitchFabricParams
fabricParams(int nodes)
{
    topo::SwitchFabricParams params;
    params.num_nodes = nodes;
    params.leaf_radix = 8;
    params.link_latency = 1.0e-6;
    return params;
}

struct Fabric {
    topo::Graph graph;
    topo::DoubleTreeEmbedding double_tree;
    topo::RingEmbedding ring;
};

enum class Alg { kRing, kTreeOverlapped, kTreeTwoPhase };

const char*
algName(Alg alg)
{
    switch (alg) {
      case Alg::kRing:
        return "ring";
      case Alg::kTreeOverlapped:
        return "tree_overlapped";
      case Alg::kTreeTwoPhase:
        return "tree_two_phase";
    }
    return "?";
}

constexpr double kKiB = 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;

/** One schedule run of the grid: P ranks, payload bytes per rank. */
struct GridOp {
    int p;
    double bytes;
    Alg alg;
};

constexpr Alg kRing = Alg::kRing;
constexpr Alg kOverlapped = Alg::kTreeOverlapped;
constexpr Alg kTwoPhase = Alg::kTreeTwoPhase;

/**
 * The grid subset: the tree-bound corner (its overlapped tree alone is
 * 3.1M events), the ring-bound corner with all three schedules, and
 * cells spread over the rest of P × size with all three, so the
 * overlapped-vs-two-phase oracle runs from P=8 to P=512.
 */
const std::array<GridOp, 25> kGrid{{
    {512, 256 * kMiB, kOverlapped},
    {512, 16 * kKiB, kRing},
    {512, 16 * kKiB, kOverlapped},
    {512, 16 * kKiB, kTwoPhase},
    {128, 256 * kMiB, kRing},
    {128, 256 * kMiB, kOverlapped},
    {128, 256 * kMiB, kTwoPhase},
    {256, 64 * kMiB, kRing},
    {256, 64 * kMiB, kOverlapped},
    {256, 64 * kMiB, kTwoPhase},
    {64, 1 * kMiB, kRing},
    {64, 1 * kMiB, kOverlapped},
    {64, 1 * kMiB, kTwoPhase},
    {16, 64 * kMiB, kRing},
    {16, 64 * kMiB, kOverlapped},
    {16, 64 * kMiB, kTwoPhase},
    {32, 16 * kKiB, kRing},
    {32, 16 * kKiB, kOverlapped},
    {32, 16 * kKiB, kTwoPhase},
    {8, 256 * kMiB, kRing},
    {8, 256 * kMiB, kOverlapped},
    {8, 256 * kMiB, kTwoPhase},
    {8, 16 * kKiB, kRing},
    {8, 16 * kKiB, kOverlapped},
    {8, 16 * kKiB, kTwoPhase},
}};

/** fig14's chunking: 256 KiB chunks, half the payload per tree. */
int
chunksPerTree(double bytes)
{
    return std::max(1, static_cast<int>(bytes / 2.0 / (256.0 * kKiB)));
}

struct EvalCell {
    std::size_t network;
    double bandwidth_scale;
    const char* bandwidth;
    int batch;
    core::Mode mode;
};

/** One op of the mix and what it produced. */
struct OpSlot {
    bool grid = true;
    std::size_t cell = 0; ///< kGrid index, or eval-cell index
    double completion = 0.0;
    double turnaround = 0.0;
    double normalized_perf = 0.0;
    bool ok = true;
    OpSample sample;
};

/** Stable key of an op in the reference file. */
std::string
refKey(const OpSlot& slot, const std::vector<EvalCell>& evals,
       const std::vector<std::string>& networks)
{
    std::ostringstream key;
    if (slot.grid) {
        const GridOp& op = kGrid[slot.cell];
        key << "grid " << algName(op.alg) << " " << op.p << " "
            << static_cast<long long>(op.bytes);
    } else {
        const EvalCell& e = evals[slot.cell];
        key << "eval " << networks[e.network] << " " << e.bandwidth << " "
            << e.batch << " " << core::modeName(e.mode);
    }
    return key.str();
}

class DesPaperGrid final : public Workload
{
  public:
    explicit DesPaperGrid(std::string reference_path)
        : reference_path_(std::move(reference_path))
    {
    }

    void setup() override
    {
        if (!reference_path_.empty())
            loadReference();
        for (const GridOp& op : kGrid) {
            if (fabrics_.count(op.p) != 0)
                continue;
            topo::Graph graph = topo::makeSwitchFabric(fabricParams(op.p));
            topo::DoubleTreeEmbedding tree =
                topo::makeMirroredDoubleTree(graph, op.p);
            fabrics_.emplace(op.p,
                             Fabric{std::move(graph), std::move(tree),
                                    topo::makeSequentialRing(op.p)});
        }
        const std::vector<std::pair<const char*, dnn::NetworkModel (*)()>>
            networks{{"zfnet", dnn::buildZfNet},
                     {"vgg16", dnn::buildVgg16},
                     {"resnet50", dnn::buildResnet50}};
        for (const auto& [name, build] : networks) {
            network_names_.push_back(name);
            engines_.push_back(std::make_unique<core::CCubeEngine>(build()));
        }
        for (std::size_t n = 0; n < networks.size(); ++n) {
            for (const auto& [bw_name, scale] :
                 {std::pair<const char*, double>{"low", 0.25},
                  std::pair<const char*, double>{"high", 1.0}}) {
                for (int batch : {16, 32, 64, 128}) {
                    for (core::Mode mode : core::allModes())
                        evals_.push_back(
                            EvalCell{n, scale, bw_name, batch, mode});
                }
            }
        }
        for (std::size_t c = 0; c < kGrid.size(); ++c) {
            OpSlot slot;
            slot.cell = c;
            mix_.push_back(slot);
        }
        for (std::size_t e = 0; e < evals_.size(); ++e) {
            OpSlot slot;
            slot.grid = false;
            slot.cell = e;
            mix_.push_back(slot);
        }
    }

    void runRound(std::vector<OpSample>& ops, Tracer* tracer) override
    {
        std::vector<OpSlot> slots = mix_;
        sweep::Options pool;
        pool.jobs = kDesJobs;
        pool.capture_obs = false;
        sweep::runIndexed(pool, slots.size(), [&](std::size_t i) {
            if (i == 0)
                noteThreads();
            runOp(slots[i], tracer);
        });
        checkRound(slots);
        for (const OpSlot& slot : slots) {
            OpSample sample = slot.sample;
            sample.ok = slot.ok;
            ops.push_back(sample);
        }
        last_round_ = std::move(slots);
    }

    Counters counters() const override
    {
        return Counters{
            {"sim.events", static_cast<double>(events_.load())},
            {"simnet.transfers", static_cast<double>(transfers_.load())},
            {"simnet.schedules", static_cast<double>(schedules_.load())},
            {"simnet.network_build_ns",
             static_cast<double>(network_build_ns_.load())},
            {"simnet.schedule_ns", static_cast<double>(schedule_ns_[0] +
                                                       schedule_ns_[1] +
                                                       schedule_ns_[2])},
            {"simnet.ring_ns", static_cast<double>(schedule_ns_[0].load())},
            {"simnet.tree_overlapped_ns",
             static_cast<double>(schedule_ns_[1].load())},
            {"simnet.tree_two_phase_ns",
             static_cast<double>(schedule_ns_[2].load())},
        };
    }

    /** Writes the last round's simulated times as the reference. */
    bool writeReference(const std::string& path) const
    {
        std::ofstream out(path);
        out << "# Simulated-time reference of the des_paper_grid workload:\n"
               "# <key> <completion or comm time s> <turnaround s>, "
               "compared exactly.\n"
               "# Rebuild from the current code: "
               "python3 perfbench/run.py --regen-reference\n";
        char line[512];
        for (const OpSlot& slot : last_round_) {
            std::snprintf(line, sizeof(line), "%s %.17g %.17g\n",
                          refKey(slot, evals_, network_names_).c_str(),
                          slot.completion, slot.turnaround);
            out << line;
        }
        return static_cast<bool>(out);
    }

  private:
    void loadReference()
    {
        std::ifstream in(reference_path_);
        if (!in)
            throw std::runtime_error("cannot read reference " +
                                     reference_path_);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            // The key is every field but the last two.
            const std::size_t b = line.rfind(' ');
            const std::size_t a = line.rfind(' ', b - 1);
            if (a == std::string::npos || b == std::string::npos)
                throw std::runtime_error("malformed reference line: " + line);
            reference_[line.substr(0, a)] = {
                std::strtod(line.c_str() + a + 1, nullptr),
                std::strtod(line.c_str() + b + 1, nullptr)};
        }
    }

    void runOp(OpSlot& slot, Tracer* tracer)
    {
        const std::uint64_t op = tracer ? tracer->newOp() : 0;
        const Clock::time_point start = Clock::now();
        if (slot.grid) {
            runGridOp(slot, tracer, op);
        } else {
            ScopedSpan span(tracer, "op.evaluate", op);
            ScopedSpan call(tracer, "core.CCubeEngine::evaluate", op,
                            span.index());
            const EvalCell& e = evals_[slot.cell];
            core::IterationConfig config;
            config.batch = e.batch;
            config.bandwidth_scale = e.bandwidth_scale;
            const core::IterationResult result =
                engines_[e.network]->evaluate(e.mode, config);
            slot.completion = result.comm_time;
            slot.turnaround = result.turnaround_time;
            slot.normalized_perf = result.normalized_perf;
        }
        slot.sample.host_s = secondsSince(start);
        if (slot.grid) {
            const GridOp& op = kGrid[slot.cell];
            slot.sample.bus_bytes = op.bytes * 2.0 *
                                    static_cast<double>(op.p - 1) /
                                    static_cast<double>(op.p);
        }
        if (!reference_.empty()) {
            const auto it =
                reference_.find(refKey(slot, evals_, network_names_));
            slot.ok = slot.ok && it != reference_.end() &&
                      it->second.first == slot.completion &&
                      it->second.second == slot.turnaround;
        }
    }

    void runGridOp(OpSlot& slot, Tracer* tracer, std::uint64_t op)
    {
        const GridOp& cell = kGrid[slot.cell];
        const Fabric& fabric = fabrics_.at(cell.p);
        ScopedSpan span(tracer, "op.grid", op);
        const Clock::time_point build_start = Clock::now();
        sim::Simulation sim;
        std::optional<simnet::Network> net;
        {
            ScopedSpan build(tracer, "simnet.Network", op, span.index());
            net.emplace(sim, fabric.graph);
        }
        const Clock::time_point run_start = Clock::now();
        simnet::ScheduleResult result;
        switch (cell.alg) {
          case Alg::kRing: {
            ScopedSpan run(tracer, "simnet.runRingSchedule", op,
                           span.index());
            result = simnet::runRingSchedule(sim, *net, fabric.ring,
                                             cell.bytes);
            break;
          }
          case Alg::kTreeOverlapped:
          case Alg::kTreeTwoPhase: {
            ScopedSpan run(tracer, "simnet.runDoubleTreeSchedule", op,
                           span.index());
            result = simnet::runDoubleTreeSchedule(
                sim, *net, fabric.double_tree, cell.bytes,
                cell.alg == Alg::kTreeOverlapped
                    ? simnet::PhaseMode::kOverlapped
                    : simnet::PhaseMode::kTwoPhase,
                chunksPerTree(cell.bytes),
                simnet::LanePolicy::kPointToPoint);
            break;
          }
        }
        const Clock::time_point run_end = Clock::now();
        network_build_ns_ += nanos(build_start, run_start);
        schedule_ns_[static_cast<int>(cell.alg)] += nanos(run_start, run_end);
        events_ += sim.queue().executedCount();
        transfers_ += net->totalTransfers();
        ++schedules_;

        slot.completion = result.completion_time;
        slot.turnaround = result.turnaroundTime();
        // No AllReduce beats the link-bandwidth bound: each rank sends
        // 2(P-1)/P of the payload through its endpoint links.
        const topo::SwitchFabricParams params = fabricParams(cell.p);
        const double node_bw = params.links_per_node * params.link_bandwidth;
        const double bound = 2.0 * static_cast<double>(cell.p - 1) /
                             static_cast<double>(cell.p) * cell.bytes /
                             node_bw;
        slot.ok = result.completion_time >= bound;
        for (const auto& per_rank : result.chunk_at_rank) {
            for (double t : per_rank)
                slot.ok = slot.ok && t <= result.completion_time;
        }
    }

    /** Cross-op oracles: overlapped turnaround never later than the
     *  two-phase one; CC normalized performance at least B's. */
    void checkRound(std::vector<OpSlot>& slots) const
    {
        for (OpSlot& slot : slots) {
            for (const OpSlot& other : slots) {
                if (!slot.grid || !other.grid)
                    continue;
                const GridOp& a = kGrid[slot.cell];
                const GridOp& b = kGrid[other.cell];
                if (a.p == b.p && a.bytes == b.bytes &&
                    a.alg == Alg::kTreeOverlapped &&
                    b.alg == Alg::kTreeTwoPhase)
                    slot.ok = slot.ok && slot.turnaround <= other.turnaround;
            }
            if (slot.grid || evals_[slot.cell].mode != core::Mode::kCCube)
                continue;
            const EvalCell& cc = evals_[slot.cell];
            for (const OpSlot& other : slots) {
                if (other.grid)
                    continue;
                const EvalCell& e = evals_[other.cell];
                if (e.network == cc.network && e.batch == cc.batch &&
                    e.bandwidth_scale == cc.bandwidth_scale &&
                    e.mode == core::Mode::kBaseline)
                    slot.ok = slot.ok &&
                              slot.normalized_perf >= other.normalized_perf;
            }
        }
    }

    static std::uint64_t nanos(Clock::time_point a, Clock::time_point b)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
    }

    const std::string reference_path_;
    std::map<std::string, std::pair<double, double>> reference_;
    std::map<int, Fabric> fabrics_;
    std::vector<std::string> network_names_;
    std::vector<std::unique_ptr<core::CCubeEngine>> engines_;
    std::vector<EvalCell> evals_;
    std::vector<OpSlot> mix_;
    std::vector<OpSlot> last_round_;

    std::atomic<std::uint64_t> events_{0};
    std::atomic<std::uint64_t> transfers_{0};
    std::atomic<std::uint64_t> schedules_{0};
    std::atomic<std::uint64_t> network_build_ns_{0};
    std::array<std::atomic<std::uint64_t>, 3> schedule_ns_{};
};

} // namespace

std::unique_ptr<Workload>
makeDesPaperGrid(const std::string& reference_path)
{
    return std::make_unique<DesPaperGrid>(reference_path);
}

std::vector<double>
driftCellSeconds(int reps, std::uint64_t* events)
{
    const topo::SwitchFabricParams params = fabricParams(256);
    const topo::Graph graph = topo::makeSwitchFabric(params);
    const topo::DoubleTreeEmbedding tree =
        topo::makeMirroredDoubleTree(graph, 256);
    std::vector<double> seconds;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        sim::Simulation sim;
        simnet::Network net(sim, graph);
        simnet::runDoubleTreeSchedule(sim, net, tree, 64 * kMiB,
                                      simnet::PhaseMode::kOverlapped,
                                      chunksPerTree(64 * kMiB),
                                      simnet::LanePolicy::kPointToPoint);
        seconds.push_back(secondsSince(start));
        *events = sim.queue().executedCount();
    }
    return seconds;
}

bool
writeDesReference(const std::string& path)
{
    DesPaperGrid grid("");
    grid.setup();
    std::vector<OpSample> ops;
    grid.runRound(ops, nullptr);
    for (const OpSample& op : ops) {
        if (!op.ok) {
            std::fprintf(stderr, "an oracle failed; reference not written\n");
            return false;
        }
    }
    return grid.writeReference(path);
}

} // namespace perfbench
