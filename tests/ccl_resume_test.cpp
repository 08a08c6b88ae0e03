/**
 * @file
 * Resuming a collective from a partial chunk checkpoint: every
 * AllReduce entry point takes a ccl::SkipMask of chunks that are
 * already final at every rank and moves only the rest. The masked
 * chunks are pre-filled with the serial reference result (as a
 * committed ccl::ChunkCheckpoint leaves them), so the resumed run must
 * leave every buffer byte-identical to the reference and its
 * AllReduceTrace must record exactly the unmasked chunks at every
 * rank — for ring, tree (two-phase, overlapped) and double tree (both
 * modes), under both wire protocols, on both engines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/executor.h"
#include "ccl/ring_allreduce.h"
#include "ccl/tree_allreduce.h"
#include "reference_collectives.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {
namespace {

using ccl::Protocol;
using ccl::RankExecutor;
using ccl::TreePhaseMode;

constexpr int kRanks = 8;
constexpr int kElems = 96;
constexpr int kChunks = 4; ///< per tree
constexpr int kSlots = 4;

struct Dgx1Topologies {
    topo::Graph graph = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(graph, kRanks);
    topo::TreeEmbedding tree =
        topo::embedTree(graph, topo::BinaryTree::inorder(kRanks));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(graph);
};

/** Element range [begin, end) of one global chunk id. */
struct Region {
    std::size_t begin;
    std::size_t end;
};

/** One resumable collective. */
struct Scenario {
    std::string name;
    int num_chunks; ///< global chunk ids [0, num_chunks)
    std::function<Region(int chunk)> region;
    std::function<ccl::AllReduceTrace(ccl::Communicator&,
                                       ccl::RankBuffers&, Protocol,
                                       const ccl::SkipMask&)>
        run;
    std::function<ccl::RankBuffers(const ccl::RankBuffers&)> reference;
};

std::vector<Scenario>
scenarios(const Dgx1Topologies& topo)
{
    const ccl::ChunkSplit ring_split(kElems, kRanks);
    const ccl::ChunkSplit tree_split(kElems, kChunks);
    const std::size_t half = kElems / 2;
    const ccl::ChunkSplit half0(half, kChunks);
    const ccl::ChunkSplit half1(kElems - half, kChunks);

    std::vector<Scenario> out;
    out.push_back(
        {"ring", kRanks,
         [ring_split](int c) {
             return Region{ring_split.begin(c), ring_split.end(c)};
         },
         [&topo](ccl::Communicator& comm, ccl::RankBuffers& b,
                 Protocol proto, const ccl::SkipMask& mask) {
             return ccl::ringAllReduce(comm, b, topo.ring, {}, proto,
                                       mask);
         },
         [&topo](const ccl::RankBuffers& in) {
             return reference::ringAllReduce(in, topo.ring);
         }});
    for (TreePhaseMode mode :
         {TreePhaseMode::kTwoPhase, TreePhaseMode::kOverlapped}) {
        const std::string suffix =
            mode == TreePhaseMode::kTwoPhase ? "two_phase" : "overlapped";
        out.push_back(
            {"tree_" + suffix, kChunks,
             [tree_split](int c) {
                 return Region{tree_split.begin(c), tree_split.end(c)};
             },
             [&topo, mode](ccl::Communicator& comm, ccl::RankBuffers& b,
                           Protocol proto, const ccl::SkipMask& mask) {
                 return ccl::treeAllReduce(comm, b, topo.tree, kChunks,
                                           mode, {}, {}, proto, mask);
             },
             [&topo](const ccl::RankBuffers& in) {
                 return reference::treeAllReduce(in, topo.tree.tree);
             }});
        out.push_back(
            {"double_tree_" + suffix, 2 * kChunks,
             [half, half0, half1](int c) {
                 if (c < kChunks)
                     return Region{half0.begin(c), half0.end(c)};
                 return Region{half + half1.begin(c - kChunks),
                               half + half1.end(c - kChunks)};
             },
             [&topo, mode](ccl::Communicator& comm, ccl::RankBuffers& b,
                           Protocol proto, const ccl::SkipMask& mask) {
                 return ccl::doubleTreeAllReduce(comm, b,
                                                 topo.double_tree,
                                                 kChunks, mode, {},
                                                 proto, mask);
             },
             [&topo](const ccl::RankBuffers& in) {
                 return reference::doubleTreeAllReduce(in,
                                                       topo.double_tree);
             }});
    }
    return out;
}

ccl::RankBuffers
seededBuffers(std::uint64_t seed)
{
    util::Rng rng(seed);
    ccl::RankBuffers buffers(kRanks);
    for (auto& b : buffers) {
        b.resize(kElems);
        rng.fill(b, -1.0f, 1.0f);
    }
    return buffers;
}

/** Masks over @p num_chunks ids: every third chunk (the first and the
 *  last of a tree among them), all but one, and everything. */
std::vector<std::vector<std::uint8_t>>
masks(int num_chunks)
{
    std::vector<std::uint8_t> third(num_chunks), all_but_one(num_chunks),
        all(num_chunks, 1);
    for (int c = 0; c < num_chunks; ++c) {
        third[static_cast<std::size_t>(c)] = c % 3 == 0 ? 1 : 0;
        all_but_one[static_cast<std::size_t>(c)] = c == 1 ? 0 : 1;
    }
    return {third, all_but_one, all};
}

void
expectBytesIdentical(const ccl::RankBuffers& got,
                     const ccl::RankBuffers& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << what;
        if (std::memcmp(got[r].data(), want[r].data(),
                        got[r].size() * sizeof(float)) == 0)
            continue;
        for (std::size_t i = 0; i < got[r].size(); ++i)
            ASSERT_EQ(got[r][i], want[r][i])
                << what << ": rank " << r << " elem " << i;
    }
}

TEST(ResumeWithSkipMask, MovesOnlyUnmaskedChunksByteIdentically)
{
    const Dgx1Topologies topo;
    std::uint64_t seed = 911;
    for (const Scenario& scenario : scenarios(topo)) {
        for (const std::vector<std::uint8_t>& bits :
             masks(scenario.num_chunks)) {
            const ccl::RankBuffers input = seededBuffers(seed++);
            const ccl::RankBuffers expected = scenario.reference(input);

            // A committed checkpoint: masked chunks are final
            // everywhere, the rest still hold each rank's input.
            ccl::RankBuffers resumed = input;
            std::vector<int> unmasked;
            for (int c = 0; c < scenario.num_chunks; ++c) {
                if (bits[static_cast<std::size_t>(c)] == 0) {
                    unmasked.push_back(c);
                    continue;
                }
                const Region region = scenario.region(c);
                for (std::size_t r = 0; r < resumed.size(); ++r)
                    std::copy(expected[r].begin() +
                                  static_cast<long>(region.begin),
                              expected[r].begin() +
                                  static_cast<long>(region.end),
                              resumed[r].begin() +
                                  static_cast<long>(region.begin));
            }
            const ccl::SkipMask mask(bits);

            for (RankExecutor::Mode mode :
                 {RankExecutor::Mode::kPersistent,
                  RankExecutor::Mode::kStateMachine}) {
                for (Protocol proto :
                     {Protocol::kSimple, Protocol::kLL}) {
                    const std::string what =
                        scenario.name + "/" +
                        std::to_string(mask.doneCount()) + " masked/" +
                        ccl::protocolName(proto) + "/" +
                        (mode == RankExecutor::Mode::kPersistent
                             ? "persistent"
                             : "sm");
                    ccl::RankBuffers buffers = resumed;
                    ccl::Communicator comm(kRanks, kSlots, mode);
                    const ccl::AllReduceTrace trace =
                        scenario.run(comm, buffers, proto, mask);
                    expectBytesIdentical(buffers, expected, what);
                    for (int r = 0; r < kRanks; ++r) {
                        std::vector<int> got = trace.order(r);
                        std::sort(got.begin(), got.end());
                        EXPECT_EQ(got, unmasked)
                            << what << ": rank " << r;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace ccube
