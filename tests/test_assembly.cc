/**
 * @file
 * Tests for global FEM assembly: sparsity pattern vs. mesh adjacency,
 * global symmetry, rigid-body null space, mass conservation, and the
 * paper's ~1.2 KByte/node memory claim.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/fnv.h"
#include "common/rng.h"
#include "mesh/generator.h"
#include "sparse/assembly.h"
#include "sparse/elasticity.h"

namespace
{

using namespace quake::mesh;
using namespace quake::sparse;

TetMesh
lattice(int n)
{
    return buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, n, n, n);
}

UniformModel
unitModel()
{
    return UniformModel(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
}

TEST(Pattern, MatchesAdjacencyPlusDiagonal)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = buildStiffnessPattern(m);
    const NodeAdjacency adj = m.buildNodeAdjacency();
    EXPECT_EQ(k.numBlockRows(), m.numNodes());
    EXPECT_EQ(k.numBlocks(),
              static_cast<std::int64_t>(adj.adjncy.size()) + m.numNodes());
    // Every node pair connected by an edge is in the pattern, plus self.
    for (NodeId i = 0; i < m.numNodes(); ++i) {
        EXPECT_GE(k.findBlock(i, i), 0);
        for (std::int64_t e = adj.xadj[i]; e < adj.xadj[i + 1]; ++e)
            EXPECT_GE(k.findBlock(i, adj.adjncy[e]), 0);
    }
}

TEST(Pattern, RowNonzerosMatchPaperEstimate)
{
    // Paper §2.2: each row of K has on average 14 blocks x 3 = 42 scalar
    // nonzeros.  Kuhn lattices are the same regime (interior nodes see
    // 15 blocks including self); accept a band.
    const TetMesh m = lattice(5);
    const Bcsr3Matrix k = buildStiffnessPattern(m);
    const double blocks_per_row =
        static_cast<double>(k.numBlocks()) /
        static_cast<double>(k.numBlockRows());
    EXPECT_GT(blocks_per_row * 3, 25.0);
    EXPECT_LT(blocks_per_row * 3, 50.0);
}

TEST(Stiffness, GlobalSymmetry)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    EXPECT_TRUE(k.toCsr().isSymmetric(1e-10));
}

TEST(Stiffness, TranslationNullSpace)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    for (int axis = 0; axis < 3; ++axis) {
        std::vector<double> u(static_cast<std::size_t>(k.numRows()), 0.0);
        for (std::int64_t i = axis; i < k.numRows(); i += 3)
            u[i] = 1.0;
        const std::vector<double> y = k.multiply(u);
        for (double v : y)
            EXPECT_NEAR(v, 0.0, 1e-9);
    }
}

TEST(Stiffness, GlobalRotationNullSpace)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    const Vec3 omega{0.2, 0.5, -0.3};
    std::vector<double> u(static_cast<std::size_t>(k.numRows()));
    for (NodeId i = 0; i < m.numNodes(); ++i) {
        const Vec3 r = omega.cross(m.node(i));
        u[3 * i + 0] = r.x;
        u[3 * i + 1] = r.y;
        u[3 * i + 2] = r.z;
    }
    const std::vector<double> y = k.multiply(u);
    for (double v : y)
        EXPECT_NEAR(v, 0.0, 1e-8);
}

TEST(Stiffness, PositiveSemidefiniteOnSamples)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    quake::common::SplitMix64 rng(2024);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> u(static_cast<std::size_t>(k.numRows()));
        for (double &v : u)
            v = rng.uniform(-1, 1);
        const std::vector<double> y = k.multiply(u);
        double quad = 0;
        for (std::size_t i = 0; i < u.size(); ++i)
            quad += u[i] * y[i];
        EXPECT_GE(quad, -1e-9);
    }
}

TEST(Stiffness, StiffnessTracksMaterial)
{
    // Same mesh, 2x the shear speed => 4x mu => 4x every entry.
    const TetMesh m = lattice(2);
    const Aabb box{{0, 0, 0}, {1, 1, 1}};
    const Bcsr3Matrix k1 =
        assembleStiffness(m, UniformModel(box, 1.0, 1.0));
    const Bcsr3Matrix k2 =
        assembleStiffness(m, UniformModel(box, 2.0, 1.0));
    const double *b1 = k1.blockAt(0);
    const double *b2 = k2.blockAt(0);
    for (int i = 0; i < 9; ++i)
        EXPECT_NEAR(b2[i], 4.0 * b1[i], 1e-9 * std::fabs(b1[i]) + 1e-12);
}

TEST(StiffnessPinned, Sf10AssemblyIsBitwiseStable)
{
    // The global stiffness of the generated sf10 mesh, pinned by an
    // FNV-1a hash over the block-row offsets, the block columns and then
    // every value's bytes (recorded on the binary-search scatter this
    // one replaced): each value must keep its ascending-element sum.
    const LayeredBasinModel model;
    const GeneratedMesh g =
        generateMesh(model, MeshSpec::forClass(SfClass::kSf10, 1.0));
    const Bcsr3Matrix k = assembleStiffness(g.mesh, model);
    ASSERT_EQ(k.numBlocks(), 72'893);
    const std::uint64_t got = quake::common::fnv1a(
        k.blockAt(0), sizeof(double) * static_cast<std::size_t>(k.nnz()),
        quake::common::fnv1aVector(
            k.blockCols(), quake::common::fnv1aVector(k.xadj())));
    EXPECT_EQ(got, 0xaf1bd7811aa19ba4ULL) << std::hex << "got 0x" << got;
}

TEST(LumpedMass, ConservesTotalMass)
{
    const TetMesh m = lattice(3);
    const double rho = 2.2;
    const UniformModel model(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, rho);
    const std::vector<double> mass = assembleLumpedMass(m, model);
    double total = 0;
    for (std::size_t i = 0; i < mass.size(); i += 3)
        total += mass[i]; // one DOF per node carries the nodal mass
    EXPECT_NEAR(total, rho * 1.0, 1e-9);
}

TEST(LumpedMass, AllPositive)
{
    const TetMesh m = lattice(2);
    const std::vector<double> mass = assembleLumpedMass(m, unitModel());
    EXPECT_EQ(mass.size(), static_cast<std::size_t>(3 * m.numNodes()));
    for (double v : mass)
        EXPECT_GT(v, 0.0);
}

TEST(LumpedMass, ThreeDofsShareNodalMass)
{
    const TetMesh m = lattice(2);
    const std::vector<double> mass = assembleLumpedMass(m, unitModel());
    for (std::size_t i = 0; i < mass.size(); i += 3) {
        EXPECT_DOUBLE_EQ(mass[i], mass[i + 1]);
        EXPECT_DOUBLE_EQ(mass[i], mass[i + 2]);
    }
}

TEST(BytesPerNode, MatchesPaperBallpark)
{
    // Paper §2.1: ~1.2 KByte per node at runtime.  Count the stiffness
    // (values + indices) plus the handful of state vectors the explicit
    // stepper carries (u, u_prev, Ku, f, M = 5 vectors of 3n doubles).
    const GeneratedMesh g =
        generateSfMesh(SfClass::kSf20);
    const LayeredBasinModel model;
    const Bcsr3Matrix k = assembleStiffness(g.mesh, model);
    const double bytes = bytesPerNode(k, 5);
    EXPECT_GT(bytes, 700.0);
    EXPECT_LT(bytes, 2000.0);
}

} // namespace
