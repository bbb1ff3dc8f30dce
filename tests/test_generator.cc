/**
 * @file
 * Tests for the synthetic San Fernando mesh generator: the Kuhn lattice,
 * class presets, grading toward the basin, jitter safety, determinism,
 * and agreement with the paper's structural statistics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/fnv.h"
#include "mesh/generator.h"

namespace
{

using namespace quake::mesh;
using quake::common::FatalError;

TEST(KuhnLattice, Counts)
{
    const TetMesh m = buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 2, 3, 4);
    EXPECT_EQ(m.numNodes(), 3 * 4 * 5);
    EXPECT_EQ(m.numElements(), 2 * 3 * 4 * 6);
}

TEST(KuhnLattice, AllPositiveVolumes)
{
    const TetMesh m = buildKuhnLattice(Aabb{{0, 0, 0}, {2, 1, 1}}, 3, 2, 2);
    m.validate(); // includes the positive-volume check
}

TEST(KuhnLattice, FillsTheBox)
{
    const Aabb box{{0, 0, 0}, {2, 3, 4}};
    const TetMesh m = buildKuhnLattice(box, 2, 2, 2);
    double volume = 0;
    for (TetId t = 0; t < m.numElements(); ++t)
        volume += m.tetVolumeOf(t);
    EXPECT_NEAR(volume, 24.0, 1e-9);
    const Aabb bounds = m.bounds();
    EXPECT_EQ(bounds.lo, box.lo);
    EXPECT_EQ(bounds.hi, box.hi);
}

TEST(KuhnLattice, RejectsBadResolution)
{
    EXPECT_THROW(buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 0, 1, 1),
                 FatalError);
}

TEST(SfClass, NamesRoundTrip)
{
    for (SfClass cls : {SfClass::kSf20, SfClass::kSf10, SfClass::kSf5,
                        SfClass::kSf2, SfClass::kSf1})
        EXPECT_EQ(sfClassFromName(sfClassName(cls)), cls);
    EXPECT_THROW(sfClassFromName("sf3"), FatalError);
}

TEST(SfClass, PeriodsHalve)
{
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf10), 10.0);
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf5), 5.0);
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf2), 2.0);
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf1), 1.0);
}

TEST(SfClass, PaperNodeCountsMatchFigure2)
{
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf10), 7'294);
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf5), 30'169);
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf2), 378'747);
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf1), 2'461'694);
}

TEST(MeshSpec, ForClassSetsPeriodAndScale)
{
    const MeshSpec spec = MeshSpec::forClass(SfClass::kSf2, 2.0);
    EXPECT_DOUBLE_EQ(spec.periodSeconds, 2.0);
    EXPECT_DOUBLE_EQ(spec.hScale, 2.0);
}

TEST(Generator, RejectsBadSpec)
{
    const LayeredBasinModel model;
    MeshSpec spec;
    spec.periodSeconds = -1;
    EXPECT_THROW(generateMesh(model, spec), FatalError);
    spec = MeshSpec{};
    spec.pointsPerWavelength = 0;
    EXPECT_THROW(generateMesh(model, spec), FatalError);
    spec = MeshSpec{};
    spec.hScale = 0;
    EXPECT_THROW(generateMesh(model, spec), FatalError);
}

/** Shared fixture: generate sf20 once (a few thousand nodes). */
class Sf20Mesh : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        generated_ = new GeneratedMesh(generateSfMesh(SfClass::kSf20));
    }

    static void
    TearDownTestSuite()
    {
        delete generated_;
        generated_ = nullptr;
    }

    static GeneratedMesh *generated_;
};

GeneratedMesh *Sf20Mesh::generated_ = nullptr;

TEST_F(Sf20Mesh, IsValidAndNonTrivial)
{
    const TetMesh &m = generated_->mesh;
    m.validate();
    EXPECT_GT(m.numNodes(), 500);
    EXPECT_GT(m.numElements(), 2000);
}

TEST_F(Sf20Mesh, AverageDegreeNearPaper)
{
    // Paper: each node has ~13 neighbours on average (sf meshes show
    // 2E/N between 12.3 and 13.6).  Accept a generous structural band.
    const MeshStats s = generated_->mesh.computeStats();
    EXPECT_GT(s.avgDegree, 10.0);
    EXPECT_LT(s.avgDegree, 16.0);
}

TEST_F(Sf20Mesh, ElementToNodeRatioNearPaper)
{
    // Paper Figure 2: elements/nodes is 4.8-5.7 across the sf meshes.
    const TetMesh &m = generated_->mesh;
    const double ratio = static_cast<double>(m.numElements()) /
                         static_cast<double>(m.numNodes());
    EXPECT_GT(ratio, 3.5);
    EXPECT_LT(ratio, 7.0);
}

TEST_F(Sf20Mesh, GradingConcentratesNodesInBasin)
{
    // Node density (per km^3) inside the basin footprint should far
    // exceed the density in distant rock.
    const LayeredBasinModel model;
    const TetMesh &m = generated_->mesh;
    std::int64_t basin = 0, rock = 0;
    for (NodeId i = 0; i < m.numNodes(); ++i) {
        const Vec3 &p = m.node(i);
        if (model.basinDepth(p.x, p.y) > 0.5 && p.z < 3.0)
            ++basin;
        else if (p.z < 3.0 &&
                 (p.x < 10 || p.x > 40 || p.y < 10 || p.y > 40))
            ++rock;
    }
    // The basin footprint is a small fraction of the domain yet should
    // hold a comparable or larger node count than the whole rock rim.
    EXPECT_GT(basin, rock / 4);
    EXPECT_GT(basin, 100);
}

TEST_F(Sf20Mesh, JitterAcceptedForMostNodes)
{
    EXPECT_GT(generated_->jitterAccepted,
              generated_->mesh.numNodes() / 2);
}

TEST_F(Sf20Mesh, FillsTheDomainVolume)
{
    const MeshStats s = generated_->mesh.computeStats();
    EXPECT_NEAR(s.totalVolume, 50.0 * 50.0 * 10.0, 1e-6 * 25000.0);
}

TEST(Generator, DeterministicUnderSeed)
{
    const GeneratedMesh a = generateSfMesh(SfClass::kSf20);
    const GeneratedMesh b = generateSfMesh(SfClass::kSf20);
    ASSERT_EQ(a.mesh.numNodes(), b.mesh.numNodes());
    ASSERT_EQ(a.mesh.numElements(), b.mesh.numElements());
    for (NodeId i = 0; i < a.mesh.numNodes(); ++i)
        EXPECT_EQ(a.mesh.node(i), b.mesh.node(i));
}

TEST(Generator, SeedChangesJitterOnly)
{
    MeshSpec spec = MeshSpec::forClass(SfClass::kSf20);
    const LayeredBasinModel model;
    const GeneratedMesh a = generateMesh(model, spec);
    spec.seed ^= 0xdeadbeefULL;
    const GeneratedMesh b = generateMesh(model, spec);
    // Same topology, different geometry.
    ASSERT_EQ(a.mesh.numNodes(), b.mesh.numNodes());
    ASSERT_EQ(a.mesh.numElements(), b.mesh.numElements());
    bool any_moved = false;
    for (NodeId i = 0; i < a.mesh.numNodes() && !any_moved; ++i)
        any_moved = !(a.mesh.node(i) == b.mesh.node(i));
    EXPECT_TRUE(any_moved);
}

TEST(Generator, HScaleCoarsens)
{
    const GeneratedMesh fine = generateSfMesh(SfClass::kSf20, 1.0);
    const GeneratedMesh coarse = generateSfMesh(SfClass::kSf20, 1.8);
    EXPECT_LT(coarse.mesh.numNodes(), fine.mesh.numNodes());
}

/**
 * The generator's output, pinned bit for bit: an FNV-1a hash over the
 * node coordinates and then the element vertex lists, plus the refiner's
 * pass and split counts.  Every later stage (partition, assembly, the
 * engines) reads these bytes, so a refiner rewrite that keeps these
 * hashes keeps every downstream result.
 */
void
expectPinnedOutput(SfClass cls, std::int64_t nodes, std::int64_t elements,
                   int passes, std::int64_t splits, std::uint64_t hash)
{
    const LayeredBasinModel model;
    const GeneratedMesh g = generateMesh(model, MeshSpec::forClass(cls, 1.0));
    EXPECT_EQ(g.mesh.numNodes(), nodes);
    EXPECT_EQ(g.mesh.numElements(), elements);
    EXPECT_EQ(g.refineReport.passes, passes);
    EXPECT_EQ(g.refineReport.splits, splits);
    EXPECT_FALSE(g.refineReport.reachedElementCap);
    EXPECT_FALSE(g.refineReport.reachedPassCap);
    const std::uint64_t got = quake::common::fnv1aVector(
        g.mesh.tets(), quake::common::fnv1aVector(g.mesh.nodes()));
    EXPECT_EQ(got, hash) << std::hex << "got 0x" << got;
}

TEST(GeneratorPinned, Sf20OutputIsBitwiseStable)
{
    expectPinnedOutput(SfClass::kSf20, 1'177, 4'725, 15, 3'525,
                       0x445db7d5ae441ac7ULL);
}

TEST(GeneratorPinned, Sf10OutputIsBitwiseStable)
{
    expectPinnedOutput(SfClass::kSf10, 5'823, 25'433, 22, 24'233,
                       0x88dcd2d64d014ae2ULL);
}

TEST(GeneratorPinned, Sf5OutputIsBitwiseStable)
{
    expectPinnedOutput(SfClass::kSf5, 36'704, 168'806, 30, 167'606,
                       0xfde2efe23e7e5d13ULL);
}

TEST(Generator, PeriodHalvingMultipliesNodes)
{
    // Paper §2.1: halving the period increases nodes by nearly 8x; the
    // coarse end of our class ladder is boundary-limited, so accept a
    // broad factor well above the 3D-scaling floor.
    const GeneratedMesh sf20 = generateSfMesh(SfClass::kSf20);
    const GeneratedMesh sf10 = generateSfMesh(SfClass::kSf10);
    const double growth = static_cast<double>(sf10.mesh.numNodes()) /
                          static_cast<double>(sf20.mesh.numNodes());
    EXPECT_GT(growth, 2.5);
    EXPECT_LT(growth, 12.0);
}

} // namespace
