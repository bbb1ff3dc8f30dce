/**
 * @file
 * Tests for reverse Cuthill-McKee reordering: permutation mechanics,
 * bandwidth reduction, mesh invariance under renumbering, and the
 * locality payoff measured through the memory-hierarchy co-simulator.
 */

#include <gtest/gtest.h>

#include "arch/cosim.h"
#include "common/error.h"
#include "common/rng.h"
#include "mesh/generator.h"
#include "sparse/assembly.h"
#include "sparse/reorder.h"

namespace
{

using namespace quake::sparse;
using namespace quake::mesh;
using quake::common::FatalError;

TEST(Permutation, IdentityIsValid)
{
    const Permutation p = Permutation::identity(5);
    EXPECT_NO_THROW(p.validate());
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(p.perm[i], i);
}

TEST(PermutationDeathTest, ValidateCatchesCorruption)
{
    Permutation p = Permutation::identity(4);
    p.perm[0] = 2; // duplicates 2
    EXPECT_DEATH(p.validate(), "repeated|does not invert");
}

TEST(Rcm, PathGraphGetsBandwidthOne)
{
    // A path 0-1-2-...-n as a degenerate adjacency: RCM must produce a
    // contiguous ordering with bandwidth 1 regardless of the input
    // labels.  Build the path with scrambled labels.
    const int n = 20;
    std::vector<int> label(n);
    for (int i = 0; i < n; ++i)
        label[i] = (i * 7) % n; // scrambled but bijective
    NodeAdjacency adj;
    std::vector<std::vector<NodeId>> lists(n);
    for (int i = 0; i + 1 < n; ++i) {
        lists[label[i]].push_back(label[i + 1]);
        lists[label[i + 1]].push_back(label[i]);
    }
    adj.xadj.push_back(0);
    for (int v = 0; v < n; ++v) {
        std::sort(lists[v].begin(), lists[v].end());
        adj.adjncy.insert(adj.adjncy.end(), lists[v].begin(),
                          lists[v].end());
        adj.xadj.push_back(static_cast<std::int64_t>(adj.adjncy.size()));
    }

    const Permutation p = reverseCuthillMcKee(adj);
    p.validate();

    // Bandwidth after renumbering: relabel edges through p.perm.
    std::int64_t bw = 0;
    for (int v = 0; v < n; ++v)
        for (std::int64_t k = adj.xadj[v]; k < adj.xadj[v + 1]; ++k)
            bw = std::max<std::int64_t>(
                bw, std::abs(p.perm[v] - p.perm[adj.adjncy[k]]));
    EXPECT_EQ(bw, 1);
}

TEST(Rcm, ReducesBandwidthOnScrambledMesh)
{
    // Scramble a lattice's node numbering, then check RCM recovers a
    // bandwidth far below the scrambled one.
    const TetMesh base = buildKuhnLattice(
        Aabb{{0, 0, 0}, {1, 1, 1}}, 6, 6, 6);

    // Random permutation scramble.
    quake::common::SplitMix64 rng(99);
    Permutation scramble = Permutation::identity(base.numNodes());
    for (std::int64_t i = base.numNodes() - 1; i > 0; --i) {
        const std::int64_t j =
            static_cast<std::int64_t>(rng.nextBounded(
                static_cast<std::uint64_t>(i) + 1));
        std::swap(scramble.perm[i], scramble.perm[j]);
    }
    for (std::int64_t i = 0; i < base.numNodes(); ++i)
        scramble.inverse[scramble.perm[i]] =
            static_cast<NodeId>(i);
    const TetMesh scrambled = permuteMesh(base, scramble);

    const std::int64_t bw_scrambled =
        graphBandwidth(scrambled.buildNodeAdjacency());

    const Permutation rcm =
        reverseCuthillMcKee(scrambled.buildNodeAdjacency());
    const TetMesh ordered = permuteMesh(scrambled, rcm);
    const std::int64_t bw_rcm =
        graphBandwidth(ordered.buildNodeAdjacency());

    EXPECT_LT(bw_rcm, bw_scrambled / 4);
}

TEST(Rcm, PermutedMeshIsSameGeometry)
{
    const TetMesh base = buildKuhnLattice(
        Aabb{{0, 0, 0}, {2, 1, 1}}, 3, 2, 2);
    const Permutation p =
        reverseCuthillMcKee(base.buildNodeAdjacency());
    const TetMesh renumbered = permuteMesh(base, p);

    renumbered.validate();
    EXPECT_EQ(renumbered.numNodes(), base.numNodes());
    EXPECT_EQ(renumbered.numElements(), base.numElements());

    // Same total volume and element-wise volumes (elements keep order).
    for (TetId t = 0; t < base.numElements(); ++t)
        EXPECT_NEAR(renumbered.tetVolumeOf(t), base.tetVolumeOf(t),
                    1e-12);
    // Node positions are the same multiset: check via coordinate sums.
    Vec3 sum_a{}, sum_b{};
    for (NodeId i = 0; i < base.numNodes(); ++i) {
        sum_a += base.node(i);
        sum_b += renumbered.node(i);
    }
    EXPECT_NEAR((sum_a - sum_b).norm(), 0.0, 1e-9);
}

TEST(Rcm, HandlesDisconnectedComponents)
{
    // Two disjoint tets.
    TetMesh m;
    for (int c = 0; c < 2; ++c) {
        const double off = 10.0 * c;
        const NodeId base = m.addNode({off, 0, 0});
        m.addNode({off + 1, 0, 0});
        m.addNode({off, 1, 0});
        m.addNode({off, 0, 1});
        m.addTet(base, base + 1, base + 2, base + 3);
    }
    const Permutation p = reverseCuthillMcKee(m.buildNodeAdjacency());
    EXPECT_NO_THROW(p.validate());
    permuteMesh(m, p).validate();
}

TEST(Rcm, ImprovesPredictedCacheBehaviour)
{
    using namespace quake::arch;
    // Scramble an sf-class mesh, then reorder with RCM: the
    // co-simulated T3E node must predict a better sustained rate for
    // the RCM ordering — the §4 "irregular memory reference" mechanism.
    const GeneratedMesh g = generateSfMesh(SfClass::kSf10);
    const LayeredBasinModel model;

    quake::common::SplitMix64 rng(7);
    Permutation scramble = Permutation::identity(g.mesh.numNodes());
    for (std::int64_t i = g.mesh.numNodes() - 1; i > 0; --i) {
        const std::int64_t j = static_cast<std::int64_t>(
            rng.nextBounded(static_cast<std::uint64_t>(i) + 1));
        std::swap(scramble.perm[i], scramble.perm[j]);
    }
    for (std::int64_t i = 0; i < g.mesh.numNodes(); ++i)
        scramble.inverse[scramble.perm[i]] = static_cast<NodeId>(i);
    const TetMesh scrambled = permuteMesh(g.mesh, scramble);

    const Permutation rcm =
        reverseCuthillMcKee(scrambled.buildNodeAdjacency());
    const TetMesh ordered = permuteMesh(scrambled, rcm);

    CosimOptions opt; // one BCSR3 multiply on one 1998 PE
    opt.format = TraceFormat::kBcsr3;
    opt.numPes = 1;
    opt.iterations = 1;
    opt.peakFlopsPerSecond = 600e6;
    const MesiHierarchyConfig t3e = MesiHierarchyConfig::t3e1998(1);
    const CosimResult bad =
        runCosim(assembleStiffness(scrambled, model), t3e, opt);
    const CosimResult good =
        runCosim(assembleStiffness(ordered, model), t3e, opt);
    EXPECT_GT(good.mflops, bad.mflops);
    EXPECT_LT(good.stats.pe[0].l1MissRate(), bad.stats.pe[0].l1MissRate());
}

TEST(PermuteMesh, RejectsWrongSize)
{
    const TetMesh m = buildKuhnLattice(
        Aabb{{0, 0, 0}, {1, 1, 1}}, 2, 2, 2);
    EXPECT_THROW(permuteMesh(m, Permutation::identity(3)), FatalError);
}

} // namespace
