/**
 * @file
 * Tests for the TetMesh container: construction, adjacency extraction,
 * statistics, and invariant validation.
 */

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "mesh/generator.h"
#include "mesh/tet_mesh.h"

namespace
{

using namespace quake::mesh;

/** One unit corner tet. */
TetMesh
singleTet()
{
    TetMesh m;
    m.addNode({0, 0, 0});
    m.addNode({1, 0, 0});
    m.addNode({0, 1, 0});
    m.addNode({0, 0, 1});
    m.addTet(0, 1, 2, 3);
    return m;
}

/** Two tets sharing the face (1, 2, 3). */
TetMesh
twoTets()
{
    TetMesh m = singleTet();
    m.addNode({1, 1, 1});
    m.addTet(1, 2, 4, 3);
    return m;
}

TEST(TetMesh, Counts)
{
    const TetMesh m = twoTets();
    EXPECT_EQ(m.numNodes(), 5);
    EXPECT_EQ(m.numElements(), 2);
}

TEST(TetMesh, NodeAndTetAccessors)
{
    const TetMesh m = singleTet();
    EXPECT_EQ(m.node(1), (Vec3{1, 0, 0}));
    EXPECT_EQ(m.tet(0).v[3], 3);
}

TEST(TetMesh, CentroidVolumeQuality)
{
    const TetMesh m = singleTet();
    EXPECT_EQ(m.tetCentroidOf(0), (Vec3{0.25, 0.25, 0.25}));
    EXPECT_DOUBLE_EQ(m.tetVolumeOf(0), 1.0 / 6.0);
    EXPECT_GT(m.tetQualityOf(0), 0.5);
}

TEST(TetMesh, Bounds)
{
    const TetMesh m = twoTets();
    const Aabb box = m.bounds();
    EXPECT_EQ(box.lo, (Vec3{0, 0, 0}));
    EXPECT_EQ(box.hi, (Vec3{1, 1, 1}));
}

TEST(TetMesh, EmptyMeshBounds)
{
    const TetMesh m;
    const Aabb box = m.bounds();
    EXPECT_EQ(box.lo, (Vec3{0, 0, 0}));
    EXPECT_EQ(box.hi, (Vec3{0, 0, 0}));
}

TEST(TetMesh, AdjacencySingleTet)
{
    const NodeAdjacency adj = singleTet().buildNodeAdjacency();
    // Complete graph on four nodes: every node has the other three.
    EXPECT_EQ(adj.numEdges(), 6);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(adj.degree(n), 3);
}

TEST(TetMesh, AdjacencySharedFaceDeduplicates)
{
    const NodeAdjacency adj = twoTets().buildNodeAdjacency();
    // 6 + 6 edges with the face triangle (1,2,3) shared: 9 unique.
    EXPECT_EQ(adj.numEdges(), 9);
    EXPECT_EQ(adj.degree(0), 3); // 0 sees 1, 2, 3
    EXPECT_EQ(adj.degree(4), 3); // 4 sees 1, 2, 3
    EXPECT_EQ(adj.degree(1), 4); // 1 sees 0, 2, 3, 4
}

TEST(TetMesh, AdjacencyListsSortedAndSelfFree)
{
    const NodeAdjacency adj = twoTets().buildNodeAdjacency();
    for (NodeId n = 0; n < 5; ++n) {
        for (std::int64_t k = adj.xadj[n]; k < adj.xadj[n + 1]; ++k) {
            EXPECT_NE(adj.adjncy[k], n);
            if (k > adj.xadj[n]) {
                EXPECT_LT(adj.adjncy[k - 1], adj.adjncy[k]);
            }
        }
    }
}

TEST(TetMesh, AdjacencySymmetric)
{
    const NodeAdjacency adj = twoTets().buildNodeAdjacency();
    for (NodeId n = 0; n < 5; ++n) {
        for (std::int64_t k = adj.xadj[n]; k < adj.xadj[n + 1]; ++k) {
            const NodeId peer = adj.adjncy[k];
            bool mirrored = false;
            for (std::int64_t j = adj.xadj[peer]; j < adj.xadj[peer + 1];
                 ++j)
                mirrored |= adj.adjncy[j] == n;
            EXPECT_TRUE(mirrored);
        }
    }
}

TEST(TetMesh, KuhnLatticeInteriorDegreeIs14)
{
    // In the Kuhn subdivision of a cubic lattice, interior vertices have
    // exactly 14 neighbours — the paper's "average of 13 neighbours plus
    // itself" for real meshes is the same regime.
    const TetMesh m = buildKuhnLattice(Aabb{{0, 0, 0}, {4, 4, 4}}, 4, 4, 4);
    const NodeAdjacency adj = m.buildNodeAdjacency();
    // Node at lattice position (2,2,2) is interior: id = (2*5+2)*5+2.
    const NodeId interior = (2 * 5 + 2) * 5 + 2;
    EXPECT_EQ(adj.degree(interior), 14);
}

TEST(TetMeshPinned, Sf10AdjacencyIsBitwiseStable)
{
    // The adjacency of the generated sf10 mesh, pinned by an FNV-1a hash
    // over xadj and then adjncy (recorded on the sort-based builder this
    // one replaced): the stiffness pattern, the partitioners and RCM all
    // read these bytes.
    const LayeredBasinModel model;
    const GeneratedMesh g =
        generateMesh(model, MeshSpec::forClass(SfClass::kSf10, 1.0));
    const NodeAdjacency adj = g.mesh.buildNodeAdjacency();
    EXPECT_EQ(adj.numEdges(), 33'535);
    const std::uint64_t got = quake::common::fnv1aVector(
        adj.adjncy, quake::common::fnv1aVector(adj.xadj));
    EXPECT_EQ(got, 0x022e83ef8037f5edULL) << std::hex << "got 0x" << got;
}

TEST(TetMesh, Stats)
{
    const MeshStats s = twoTets().computeStats();
    EXPECT_EQ(s.numNodes, 5);
    EXPECT_EQ(s.numElements, 2);
    EXPECT_EQ(s.numEdges, 9);
    EXPECT_NEAR(s.avgDegree, 2.0 * 9 / 5, 1e-12);
    EXPECT_GT(s.minQuality, 0.0);
    EXPECT_LE(s.minQuality, s.meanQuality);
    EXPECT_NEAR(s.totalVolume, 0.5, 1e-12); // 1/6 + 1/3
}

TEST(TetMesh, ValidatePassesOnGoodMesh)
{
    EXPECT_NO_THROW(twoTets().validate());
}

TEST(TetMeshDeathTest, ValidateCatchesOutOfRangeIndex)
{
    TetMesh m = singleTet();
    m.addTet(0, 1, 2, 9);
    EXPECT_DEATH(m.validate(), "out of range");
}

TEST(TetMeshDeathTest, ValidateCatchesRepeatedVertex)
{
    TetMesh m = singleTet();
    m.addTet(0, 1, 1, 3);
    EXPECT_DEATH(m.validate(), "repeated vertex");
}

TEST(TetMeshDeathTest, ValidateCatchesDegenerateElement)
{
    TetMesh m = singleTet();
    m.addNode({0.5, 0.5, 0.0});
    m.addTet(0, 1, 2, 4); // coplanar with z = 0
    EXPECT_DEATH(m.validate(), "non-positive volume");
}

TEST(TetMesh, AssignTetsReplacesElements)
{
    TetMesh m = twoTets();
    std::vector<Tet> only_first = {m.tet(0)};
    m.assignTets(std::move(only_first));
    EXPECT_EQ(m.numElements(), 1);
    EXPECT_EQ(m.numNodes(), 5); // nodes untouched
}

TEST(TetMesh, ReserveDoesNotChangeCounts)
{
    TetMesh m;
    m.reserve(100, 500);
    EXPECT_EQ(m.numNodes(), 0);
    EXPECT_EQ(m.numElements(), 0);
}

} // namespace
