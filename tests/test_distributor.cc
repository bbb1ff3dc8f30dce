/**
 * @file
 * Tests for the distributor: element coverage, local numbering, node
 * ownership, replication consistency, and — the crucial one — that the
 * scatter-sum of local stiffness matrices reproduces the global matrix.
 * The sf10 and sf5 problems are pinned byte for byte, and the concurrent
 * build must give those bytes, and the serial loop's error, on any CPU
 * mask (DESIGN.md §5).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/error.h"
#include "common/fnv.h"
#include "mesh/generator.h"
#include "parallel/distributor.h"
#include "partition/geometric_bisection.h"
#include "sparse/assembly.h"

namespace
{

using namespace quake::parallel;
using namespace quake::mesh;
using namespace quake::partition;

class DistributorTest : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        mesh_ = buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 4, 4, 4);
        model_ = std::make_unique<UniformModel>(
            Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
        const GeometricBisection partitioner;
        problem_ = distribute(mesh_, *model_,
                              partitioner.partition(mesh_, GetParam()));
    }

    TetMesh mesh_;
    std::unique_ptr<UniformModel> model_;
    DistributedProblem problem_;
};

TEST_P(DistributorTest, ElementsCoverMeshExactlyOnce)
{
    std::vector<int> seen(static_cast<std::size_t>(mesh_.numElements()),
                          0);
    for (const Subdomain &sub : problem_.subdomains)
        for (TetId t : sub.elements)
            ++seen[t];
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

TEST_P(DistributorTest, GlobalNodesSortedUnique)
{
    for (const Subdomain &sub : problem_.subdomains) {
        for (std::size_t i = 1; i < sub.globalNodes.size(); ++i)
            EXPECT_LT(sub.globalNodes[i - 1], sub.globalNodes[i]);
    }
}

TEST_P(DistributorTest, LocalMeshGeometryMatchesGlobal)
{
    for (const Subdomain &sub : problem_.subdomains) {
        ASSERT_EQ(sub.localMesh.numNodes(), sub.numLocalNodes());
        ASSERT_EQ(sub.localMesh.numElements(),
                  static_cast<std::int64_t>(sub.elements.size()));
        for (std::int64_t v = 0; v < sub.numLocalNodes(); ++v)
            EXPECT_EQ(sub.localMesh.node(static_cast<NodeId>(v)),
                      mesh_.node(sub.globalNodes[v]));
        sub.localMesh.validate();
    }
}

TEST_P(DistributorTest, EveryNodeHasExactlyOneOwner)
{
    std::vector<int> owners(static_cast<std::size_t>(mesh_.numNodes()),
                            0);
    for (const Subdomain &sub : problem_.subdomains)
        for (std::int64_t v = 0; v < sub.numLocalNodes(); ++v)
            if (sub.ownsNode[v])
                ++owners[sub.globalNodes[v]];
    for (int count : owners)
        EXPECT_EQ(count, 1);
}

TEST_P(DistributorTest, LocalNodeLookupRoundTrips)
{
    const Subdomain &sub = problem_.subdomains[0];
    for (std::int64_t v = 0; v < sub.numLocalNodes(); ++v)
        EXPECT_EQ(sub.localNodeOf(sub.globalNodes[v]), v);
}

TEST_P(DistributorTest, LocalStiffnessSumsToGlobal)
{
    // The paper's data distribution: K_ij is the sum over PEs holding
    // both i and j of their local element contributions.  Scatter-add
    // all local matrices into dense-ish storage keyed by the global
    // matrix's own pattern, and compare.
    const quake::sparse::Bcsr3Matrix global_k =
        quake::sparse::assembleStiffness(mesh_, *model_);

    quake::sparse::Bcsr3Matrix sum(
        global_k.numBlockRows(),
        std::vector<std::int64_t>(global_k.xadj()),
        std::vector<std::int32_t>(global_k.blockCols()));

    for (const Subdomain &sub : problem_.subdomains) {
        const auto &lk = sub.stiffness;
        ASSERT_GT(lk.numBlockRows(), 0);
        for (std::int64_t br = 0; br < lk.numBlockRows(); ++br) {
            for (std::int64_t k = lk.xadj()[br]; k < lk.xadj()[br + 1];
                 ++k) {
                const std::int32_t bc = lk.blockCols()[k];
                quake::sparse::Block3 blk;
                const double *src = lk.blockAt(k);
                std::copy(src, src + 9, blk.begin());
                sum.addToBlock(
                    sub.globalNodes[br],
                    static_cast<std::int32_t>(sub.globalNodes[bc]), blk);
            }
        }
    }

    for (std::int64_t k = 0; k < global_k.numBlocks(); ++k) {
        const double *expect = global_k.blockAt(k);
        const double *got = sum.blockAt(k);
        for (int i = 0; i < 9; ++i)
            EXPECT_NEAR(got[i], expect[i],
                        1e-9 * (1.0 + std::fabs(expect[i])));
    }
}

TEST_P(DistributorTest, TopologyOnlySkipsMatrices)
{
    const DistributedProblem topo =
        distributeTopology(mesh_, problem_.partition);
    for (const Subdomain &sub : topo.subdomains)
        EXPECT_EQ(sub.stiffness.numBlockRows(), 0);
    EXPECT_EQ(topo.schedule.totalWords(),
              problem_.schedule.totalWords());
}

TEST_P(DistributorTest, BoundaryAndInteriorRowsPartitionLocalNodes)
{
    // The overlap engine relies on this split: boundary rows feed the
    // message buffers, interior rows are everything else, and together
    // they cover every local node exactly once (both sorted ascending).
    for (const Subdomain &sub : problem_.subdomains) {
        std::vector<char> seen(
            static_cast<std::size_t>(sub.numLocalNodes()), 0);
        EXPECT_TRUE(std::is_sorted(sub.boundaryRows.begin(),
                                   sub.boundaryRows.end()));
        EXPECT_TRUE(std::is_sorted(sub.interiorRows.begin(),
                                   sub.interiorRows.end()));
        for (std::int64_t v : sub.boundaryRows)
            ++seen[static_cast<std::size_t>(v)];
        for (std::int64_t v : sub.interiorRows)
            ++seen[static_cast<std::size_t>(v)];
        for (char c : seen)
            EXPECT_EQ(c, 1);
    }
}

TEST_P(DistributorTest, BoundaryRowsAreExactlyTheExchangedNodes)
{
    // A node is a boundary row iff it appears in some exchange of its
    // PE (replicated on >= 2 subdomains).
    for (std::size_t p = 0; p < problem_.subdomains.size(); ++p) {
        const Subdomain &sub = problem_.subdomains[p];
        std::set<std::int64_t> exchanged;
        for (const Exchange &ex :
             problem_.schedule.pe(static_cast<int>(p)).exchanges)
            for (quake::mesh::NodeId g : ex.nodes)
                exchanged.insert(sub.localNodeOf(g));
        const std::set<std::int64_t> boundary(sub.boundaryRows.begin(),
                                              sub.boundaryRows.end());
        EXPECT_EQ(boundary, exchanged);
    }
}

TEST_P(DistributorTest, SharedNodesAppearInMultipleSubdomains)
{
    const NodeParts np = buildNodeParts(mesh_, problem_.partition);
    std::vector<int> copies(static_cast<std::size_t>(mesh_.numNodes()),
                            0);
    for (const Subdomain &sub : problem_.subdomains)
        for (NodeId g : sub.globalNodes)
            ++copies[g];
    for (NodeId n = 0; n < mesh_.numNodes(); ++n)
        EXPECT_EQ(copies[n], np.multiplicity(n));
}

INSTANTIATE_TEST_SUITE_P(PartCounts, DistributorTest,
                         ::testing::Values(1, 2, 3, 4, 8));

/**
 * FNV-1a over every field of every subdomain (elements, global and
 * local nodes and tets, ownership, boundary and interior rows, the
 * stiffness structure and the bytes of every value) and then over each
 * PE's exchanges, peer and node list.
 */
std::uint64_t
problemHash(const DistributedProblem &problem)
{
    quake::common::Fnv1aHasher h;
    h.value(problem.numGlobalNodes);
    for (const Subdomain &sub : problem.subdomains) {
        const quake::sparse::Bcsr3Matrix &k = sub.stiffness;
        h.value(sub.part)
            .vec(sub.elements)
            .vec(sub.globalNodes)
            .vec(sub.localMesh.nodes())
            .vec(sub.localMesh.tets())
            .vec(sub.ownsNode)
            .vec(sub.boundaryRows)
            .vec(sub.interiorRows)
            .vec(k.xadj())
            .vec(k.blockCols());
        if (k.numBlocks() > 0)
            h.bytes(k.blockAt(0),
                    sizeof(double) * static_cast<std::size_t>(k.nnz()));
    }
    for (int p = 0; p < problem.schedule.numPes(); ++p) {
        const std::vector<Exchange> &exchanges =
            problem.schedule.pe(p).exchanges;
        h.value(static_cast<std::uint64_t>(exchanges.size()));
        for (const Exchange &ex : exchanges)
            h.value(ex.peer).vec(ex.nodes);
    }
    return h.digest();
}

/** The generated `cls` mesh distributed over `pes` PEs (benchmark form). */
DistributedProblem
sfProblem(SfClass cls, int pes)
{
    const LayeredBasinModel model;
    const GeneratedMesh g = generateMesh(model, MeshSpec::forClass(cls, 1.0));
    const GeometricBisection partitioner;
    return distribute(g.mesh, model, partitioner.partition(g.mesh, pes));
}

// Recorded on the serial, binary-search distributor the concurrent one
// replaced.
constexpr std::uint64_t kSf10EightPeHash = 0x88f05e6d0500698fULL;
constexpr std::uint64_t kSf5EightPeHash = 0xab4ad5c30d42da60ULL;

TEST(DistributorPinned, Sf10EightPeProblemIsBitwiseStable)
{
    const std::uint64_t got = problemHash(sfProblem(SfClass::kSf10, 8));
    EXPECT_EQ(got, kSf10EightPeHash) << std::hex << "got 0x" << got;
}

TEST(DistributorPinned, Sf5EightPeProblemIsBitwiseStable)
{
    const std::uint64_t got = problemHash(sfProblem(SfClass::kSf5, 8));
    EXPECT_EQ(got, kSf5EightPeHash) << std::hex << "got 0x" << got;
}

#ifdef __linux__
/** Narrows this thread's affinity mask to its first CPU until destroyed. */
class OneCpuMask
{
  public:
    OneCpuMask()
    {
        CPU_ZERO(&original_);
        ok_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
        int first = -1;
        for (int c = 0; ok_ && c < CPU_SETSIZE && first < 0; ++c)
            if (CPU_ISSET(c, &original_))
                first = c;
        cpu_set_t narrow;
        CPU_ZERO(&narrow);
        if (first >= 0)
            CPU_SET(first, &narrow);
        ok_ = first >= 0 &&
              sched_setaffinity(0, sizeof(narrow), &narrow) == 0;
    }

    ~OneCpuMask()
    {
        if (ok_)
            sched_setaffinity(0, sizeof(original_), &original_);
    }

    bool ok() const { return ok_; }

  private:
    cpu_set_t original_;
    bool ok_ = false;
};

TEST(Distributor, SameBytesOnOneCpu)
{
    // One CPU in the mask means a one-worker pool, i.e. the subdomains
    // built one after another on this thread: the bytes must not change.
    std::uint64_t narrow_hash = 0;
    {
        const OneCpuMask mask;
        ASSERT_TRUE(mask.ok());
        narrow_hash = problemHash(sfProblem(SfClass::kSf10, 8));
    }
    const std::uint64_t wide_hash = problemHash(sfProblem(SfClass::kSf10, 8));
    EXPECT_EQ(narrow_hash, wide_hash);
    EXPECT_EQ(narrow_hash, kSf10EightPeHash) << std::hex << "got 0x"
                                             << narrow_hash;
}
#endif

/** Uniform soil with zero shear-wave speed where x > 0.5. */
class VoidedModel : public UniformModel
{
  public:
    VoidedModel() : UniformModel(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0) {}

    double
    shearWaveSpeed(const Vec3 &p) const override
    {
        return p.x > 0.5 ? 0.0 : UniformModel::shearWaveSpeed(p);
    }
};

/** Uniform soil that refuses every point with x > 0.5, naming it. */
class RefusingModel : public UniformModel
{
  public:
    RefusingModel() : UniformModel(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0) {}

    static std::string
    message(const Vec3 &p)
    {
        std::ostringstream oss;
        oss << std::setprecision(17) << "no soil at (" << p.x << ", "
            << p.y << ", " << p.z << ")";
        return oss.str();
    }

    double
    shearWaveSpeed(const Vec3 &p) const override
    {
        if (p.x > 0.5)
            quake::common::fatal(message(p));
        return UniformModel::shearWaveSpeed(p);
    }
};

/** what() of the FatalError `fn` raises ("" when it returns). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const quake::common::FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Distributor, ConcurrentBuildRethrowsLowestPeError)
{
    // Half the domain has no shear stiffness, so several PEs fail while
    // the others build.  Every worker's exception must be caught (one
    // escaping a pool task would terminate the process) and the caller
    // must see what the serial loop raised: the error of the lowest
    // failing PE, at its first failing element.
    const TetMesh mesh =
        buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 6, 6, 6);
    const GeometricBisection partitioner;
    const Partition part = partitioner.partition(mesh, 8);

    std::vector<int> failing_pes;
    std::string expected;
    for (int p = 0; p < part.numParts; ++p) {
        bool fails = false;
        for (TetId t = 0; t < mesh.numElements() && !fails; ++t) {
            if (part.elementPart[t] != p)
                continue;
            const Vec3 c = mesh.tetCentroidOf(t);
            if (c.x > 0.5) {
                fails = true;
                if (expected.empty())
                    expected = RefusingModel::message(c);
            }
        }
        if (fails)
            failing_pes.push_back(p);
    }
    ASSERT_GE(failing_pes.size(), 2u);
    ASSERT_LT(failing_pes.size(), 8u);

    const VoidedModel voided;
    EXPECT_NE(fatalMessage([&] { distribute(mesh, voided, part); })
                  .find("vs and rho must be positive"),
              std::string::npos);

    const RefusingModel refusing;
    EXPECT_EQ(fatalMessage([&] { distribute(mesh, refusing, part); }),
              expected);
#ifdef __linux__
    const OneCpuMask mask;
    ASSERT_TRUE(mask.ok());
    EXPECT_EQ(fatalMessage([&] { distribute(mesh, refusing, part); }),
              expected);
#endif
}

TEST(Subdomain, LocalNodeOfMissingPanics)
{
    Subdomain sub;
    sub.globalNodes = {1, 5, 9};
    EXPECT_EQ(sub.localNodeOf(5), 1);
    EXPECT_DEATH(sub.localNodeOf(4), "is not on PE");
}

} // namespace
