/**
 * @file
 * Tests for graded conforming refinement: size-field satisfaction,
 * conformity (no hanging nodes), volume conservation, and cap handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/error.h"
#include "common/fnv.h"
#include "mesh/generator.h"
#include "mesh/refine.h"

namespace
{

using namespace quake::mesh;

/** Sorted face key. */
std::array<NodeId, 3>
faceKey(NodeId a, NodeId b, NodeId c)
{
    std::array<NodeId, 3> f{a, b, c};
    std::sort(f.begin(), f.end());
    return f;
}

/**
 * A conforming solid mesh has every face shared by at most two elements,
 * and the surface faces (count 1) must bound the same volume as the box.
 */
void
expectConforming(const TetMesh &mesh)
{
    std::map<std::array<NodeId, 3>, int> faces;
    for (TetId t = 0; t < mesh.numElements(); ++t) {
        const Tet &e = mesh.tet(t);
        for (const auto &f : kTetFaces)
            ++faces[faceKey(e.v[f[0]], e.v[f[1]], e.v[f[2]])];
    }
    for (const auto &[key, count] : faces) {
        (void)key;
        EXPECT_LE(count, 2) << "face shared by more than two elements";
    }
}

double
totalVolume(const TetMesh &mesh)
{
    double v = 0;
    for (TetId t = 0; t < mesh.numElements(); ++t)
        v += mesh.tetVolumeOf(t);
    return v;
}

double
maxLongestEdge(const TetMesh &mesh)
{
    double worst = 0;
    for (TetId t = 0; t < mesh.numElements(); ++t) {
        const Tet &e = mesh.tet(t);
        const auto lengths =
            tetEdgeLengths(mesh.node(e.v[0]), mesh.node(e.v[1]),
                           mesh.node(e.v[2]), mesh.node(e.v[3]));
        worst = std::max(worst,
                         *std::max_element(lengths.begin(), lengths.end()));
    }
    return worst;
}

/**
 * Pin the refiner's output bit for bit: FNV-1a over the node coordinates,
 * then the element vertex lists, plus the report's counts.  The split
 * order and the element order are part of the contract, so a rewrite of
 * the refinement pass must reproduce these exactly.
 */
void
expectPinned(const TetMesh &mesh, const RefineReport &report,
             std::int64_t elements, int passes, std::int64_t splits,
             std::uint64_t hash)
{
    EXPECT_EQ(mesh.numElements(), elements);
    EXPECT_EQ(report.passes, passes);
    EXPECT_EQ(report.splits, splits);
    const std::uint64_t got = quake::common::fnv1aVector(
        mesh.tets(), quake::common::fnv1aVector(mesh.nodes()));
    EXPECT_EQ(got, hash) << std::hex << "got 0x" << got;
}

TetMesh
unitLattice(int n)
{
    return buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, n, n, n);
}

TEST(Refine, UniformTargetIsMet)
{
    TetMesh mesh = unitLattice(1);
    const RefineReport report =
        refineToSizeField(mesh, [](const Vec3 &) { return 0.4; });
    EXPECT_GT(report.splits, 0);
    EXPECT_FALSE(report.reachedElementCap);
    EXPECT_LE(maxLongestEdge(mesh), 0.4 + 1e-12);
    mesh.validate();
}

TEST(Refine, NoWorkWhenAlreadyFine)
{
    TetMesh mesh = unitLattice(2);
    const std::int64_t before = mesh.numElements();
    const RefineReport report =
        refineToSizeField(mesh, [](const Vec3 &) { return 10.0; });
    EXPECT_EQ(report.splits, 0);
    EXPECT_EQ(mesh.numElements(), before);
}

TEST(Refine, KeepsMeshConforming)
{
    TetMesh mesh = unitLattice(1);
    refineToSizeField(mesh, [](const Vec3 &) { return 0.35; });
    expectConforming(mesh);
}

TEST(Refine, ConservesVolume)
{
    TetMesh mesh = unitLattice(2);
    const double before = totalVolume(mesh);
    refineToSizeField(mesh, [](const Vec3 &) { return 0.3; });
    EXPECT_NEAR(totalVolume(mesh), before, 1e-9);
}

TEST(Refine, GradedFieldConcentratesElements)
{
    TetMesh mesh = unitLattice(2);
    // Fine near x = 0, coarse near x = 1.
    const RefineReport report = refineToSizeField(mesh, [](const Vec3 &p) {
        return 0.08 + 0.6 * p.x;
    });
    expectPinned(mesh, report, 6'240, 11, 6'192, 0x0ba70afb68a06251ULL);
    expectConforming(mesh);
    mesh.validate();

    std::int64_t left = 0, right = 0;
    for (TetId t = 0; t < mesh.numElements(); ++t) {
        const double x = mesh.tetCentroidOf(t).x;
        if (x < 0.3)
            ++left;
        else if (x > 0.7)
            ++right;
    }
    EXPECT_GT(left, 3 * right);
}

TEST(Refine, ElementCapStopsCleanly)
{
    TetMesh mesh = unitLattice(1);
    RefineOptions options;
    options.maxElements = 40;
    const RefineReport report = refineToSizeField(
        mesh, [](const Vec3 &) { return 0.05; }, options);
    EXPECT_TRUE(report.reachedElementCap);
    // The cap is approximate (checked per edge split) but must hold to
    // within the worst single-edge fan-out.
    EXPECT_LE(mesh.numElements(), options.maxElements + 64);
    expectPinned(mesh, report, 40, 3, 34, 0x60b2a9369c81538cULL);
    mesh.validate();
    expectConforming(mesh);
}

TEST(Refine, PassCapStopsCleanly)
{
    TetMesh mesh = unitLattice(1);
    RefineOptions options;
    options.maxPasses = 2;
    const RefineReport report = refineToSizeField(
        mesh, [](const Vec3 &) { return 0.05; }, options);
    EXPECT_EQ(report.passes, 2);
    EXPECT_TRUE(report.reachedPassCap);
    expectPinned(mesh, report, 24, 2, 18, 0xec7d7ef798956064ULL);
    mesh.validate();
    expectConforming(mesh);
}

TEST(Refine, RejectsNonPositiveSizeField)
{
    TetMesh mesh = unitLattice(1);
    EXPECT_THROW(
        refineToSizeField(mesh, [](const Vec3 &) { return 0.0; }),
        quake::common::FatalError);
}

TEST(Refine, SizeFieldCheckedWhenAPassFirstSeesAnElement)
{
    // Non-positive only where children of the first pass land: with one
    // pass allowed those children are never evaluated, so nothing is
    // raised; a second pass evaluates them and must refuse the field.
    const auto h = [](const Vec3 &p) { return p.x < 0.2 ? -1.0 : 0.1; };
    RefineOptions options;
    options.maxPasses = 1;
    TetMesh once = unitLattice(1);
    EXPECT_TRUE(refineToSizeField(once, h, options).reachedPassCap);
    options.maxPasses = 2;
    TetMesh twice = unitLattice(1);
    EXPECT_THROW(refineToSizeField(twice, h, options),
                 quake::common::FatalError);
}

TEST(Refine, QualityStaysBounded)
{
    TetMesh mesh = unitLattice(1);
    refineToSizeField(mesh, [](const Vec3 &p) {
        return 0.06 + 0.5 * (p.x + p.y);
    });
    double min_q = 1.0;
    for (TetId t = 0; t < mesh.numElements(); ++t)
        min_q = std::min(min_q, mesh.tetQualityOf(t));
    // Longest-edge bisection with Rivara propagation keeps shapes from
    // collapsing; 0.02 is far above degenerate but below pristine.
    EXPECT_GT(min_q, 0.02);
}

// Parameterized: the refinement postcondition holds across size targets.
class RefineTargetSweep : public ::testing::TestWithParam<double>
{};

TEST_P(RefineTargetSweep, LongestEdgeBelowTarget)
{
    TetMesh mesh = unitLattice(1);
    const double h = GetParam();
    const RefineReport report =
        refineToSizeField(mesh, [h](const Vec3 &) { return h; });
    EXPECT_FALSE(report.reachedPassCap);
    EXPECT_LE(maxLongestEdge(mesh), h + 1e-12);
    expectConforming(mesh);
    mesh.validate();
}

INSTANTIATE_TEST_SUITE_P(Targets, RefineTargetSweep,
                         ::testing::Values(1.0, 0.8, 0.5, 0.3, 0.2, 0.15));

} // namespace
