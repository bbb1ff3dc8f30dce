/**
 * @file
 * Integration tests spanning the whole pipeline: synthetic mesh ->
 * partition -> distribution -> characterization -> performance model,
 * with cross-checks against the paper's published properties and the
 * executable SMVP.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/perf_model.h"
#include "core/reference.h"
#include "mesh/generator.h"
#include "parallel/characterize.h"
#include "parallel/parallel_smvp.h"
#include "parallel/phase_simulator.h"
#include "partition/geometric_bisection.h"
#include "spark/kernels.h"
#include "sparse/assembly.h"

namespace
{

using namespace quake;

/** Generate the test-sized basin mesh once for the whole suite. */
class PipelineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        model_ = new mesh::LayeredBasinModel();
        generated_ = new mesh::GeneratedMesh(
            mesh::generateSfMesh(mesh::SfClass::kSf20));
    }

    static void
    TearDownTestSuite()
    {
        delete generated_;
        delete model_;
        generated_ = nullptr;
        model_ = nullptr;
    }

    static mesh::LayeredBasinModel *model_;
    static mesh::GeneratedMesh *generated_;
};

mesh::LayeredBasinModel *PipelineTest::model_ = nullptr;
mesh::GeneratedMesh *PipelineTest::generated_ = nullptr;

TEST_F(PipelineTest, CharacterizationScalesLikeFigure7)
{
    // Run the full sweep on the synthetic mesh and check the paper's
    // qualitative laws: F halves as p doubles; F/C_max falls; B_max
    // grows; beta stays in [1, 2].
    const partition::GeometricBisection partitioner;
    std::vector<core::CharacterizationSummary> summaries;
    for (int p : {4, 8, 16}) {
        const auto problem = parallel::distributeTopology(
            generated_->mesh, partitioner.partition(generated_->mesh, p));
        summaries.push_back(core::summarize(
            parallel::characterize(problem, "sf20/" + std::to_string(p))));
    }

    for (std::size_t i = 1; i < summaries.size(); ++i) {
        EXPECT_LT(summaries[i].flopsMax, summaries[i - 1].flopsMax);
        EXPECT_LT(summaries[i].flopsPerWord,
                  summaries[i - 1].flopsPerWord);
        EXPECT_GE(summaries[i].blocksMax, summaries[i - 1].blocksMax);
        EXPECT_GE(summaries[i].beta, 1.0);
        EXPECT_LE(summaries[i].beta, 2.0);
    }
    // Halving work per PE when doubling p (within partition tolerance).
    EXPECT_NEAR(static_cast<double>(summaries[1].flopsMax),
                0.5 * static_cast<double>(summaries[0].flopsMax),
                0.15 * static_cast<double>(summaries[0].flopsMax));
}

TEST_F(PipelineTest, BisectionIsNotTheBottleneck)
{
    // §4.2's conclusion on the synthetic pipeline: the required
    // bisection bandwidth stays within a small multiple of a single
    // PE's sustained bandwidth (vs. the p/2 links available).
    const partition::GeometricBisection partitioner;
    const auto problem = parallel::distributeTopology(
        generated_->mesh, partitioner.partition(generated_->mesh, 16));
    const auto ch = parallel::characterize(problem, "sf20/16");
    const auto summary = core::summarize(ch);
    const core::SmvpShape shape = core::SmvpShape::fromSummary(summary);

    const double tf = core::tfFromMflops(200);
    const double pe_bw = core::requiredSustainedBandwidth(shape, 0.9, tf);
    const double bisection_bw = core::requiredBisectionBandwidth(
        shape, ch.bisectionWords, 0.9, tf);
    EXPECT_LT(bisection_bw, 8.0 * pe_bw); // a couple of links' worth
}

TEST_F(PipelineTest, MessagesSmallEvenAtScale)
{
    // §4.1/conclusion (2): block transfers tend to be small.  On the
    // synthetic mesh at 16 PEs, the average message is thousands of
    // words at most — nowhere near the MB-scale needed to amortize a
    // 22 us T3E latency against its 145 MB/s burst rate.
    const partition::GeometricBisection partitioner;
    const auto problem = parallel::distributeTopology(
        generated_->mesh, partitioner.partition(generated_->mesh, 16));
    const auto summary =
        core::summarize(parallel::characterize(problem, "sf20/16"));
    EXPECT_LT(summary.messageSizeAvg, 10'000.0);
    EXPECT_GT(summary.messageSizeAvg, 3.0);
}

TEST_F(PipelineTest, ModelAccuracyBoundHoldsEndToEnd)
{
    const partition::GeometricBisection partitioner;
    for (int p : {4, 8, 16}) {
        const auto problem = parallel::distributeTopology(
            generated_->mesh, partitioner.partition(generated_->mesh, p));
        const auto ch = parallel::characterize(problem, "acc");
        const auto acc = parallel::evaluateModelAccuracy(
            ch, parallel::crayT3e());
        EXPECT_GE(acc.ratio, 1.0 - 1e-12);
        EXPECT_LE(acc.ratio, acc.beta + 1e-12);
    }
}

TEST_F(PipelineTest, ParallelSmvpCorrectOnBasinMesh)
{
    const partition::GeometricBisection partitioner;
    const auto problem = parallel::distribute(
        generated_->mesh, *model_,
        partitioner.partition(generated_->mesh, 8));
    const parallel::ParallelSmvp psmvp(problem);

    const auto k = sparse::assembleStiffness(generated_->mesh, *model_);
    std::vector<double> x(static_cast<std::size_t>(k.numRows()));
    common::SplitMix64 rng(8080);
    for (double &v : x)
        v = rng.uniform(-1, 1);

    const std::vector<double> y_par = psmvp.multiply(x);
    const std::vector<double> y_seq = k.multiply(x);
    double max_rel = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double denom = 1.0 + std::fabs(y_seq[i]);
        max_rel = std::max(max_rel,
                           std::fabs(y_par[i] - y_seq[i]) / denom);
    }
    EXPECT_LT(max_rel, 1e-9);
}

TEST_F(PipelineTest, SparkKernelsAgreeOnBasinMesh)
{
    const spark::KernelSuite suite(generated_->mesh, *model_);
    std::vector<double> x(static_cast<std::size_t>(suite.dof()));
    common::SplitMix64 rng(4242);
    for (double &v : x)
        v = rng.uniform(-1, 1);
    const auto y_csr = suite.run(spark::Kernel::kCsr, x);
    const auto y_sym = suite.run(spark::Kernel::kSymBcsr3, x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y_csr[i], y_sym[i],
                    1e-8 * (1.0 + std::fabs(y_csr[i])));
}

TEST_F(PipelineTest, EfficiencyFallsWithMorePes)
{
    // Fixed machine, growing PE count: F/C_max shrinks so efficiency
    // must fall — the "cannot rely on problem size" story of §4.1.
    const partition::GeometricBisection partitioner;
    const parallel::MachineModel machine = parallel::crayT3e();
    double prev_eff = 1.0;
    for (int p : {2, 8, 32}) {
        const auto problem = parallel::distributeTopology(
            generated_->mesh, partitioner.partition(generated_->mesh, p));
        const auto times = parallel::simulateSmvp(
            parallel::characterize(problem, "eff"), machine);
        EXPECT_LT(times.efficiency, prev_eff);
        prev_eff = times.efficiency;
    }
}

TEST_F(PipelineTest, ReferenceModeAndSyntheticModeAgreeOnShape)
{
    // Apply Equation (1) to (a) the paper's sf10/16 entry and (b) the
    // synthetic sf20 mesh at 16 PEs scaled to a similar F/C_max regime:
    // both must put the required bandwidth within the same decade.
    const core::SmvpShape ref = core::reference::shapeFor(
        core::reference::PaperMesh::kSf10, 16);
    const partition::GeometricBisection partitioner;
    const auto problem = parallel::distributeTopology(
        generated_->mesh, partitioner.partition(generated_->mesh, 16));
    const core::SmvpShape syn = core::SmvpShape::fromSummary(
        core::summarize(parallel::characterize(problem, "sf20/16")));

    const double tf = core::tfFromMflops(100);
    const double bw_ref = core::requiredSustainedBandwidth(ref, 0.8, tf);
    const double bw_syn = core::requiredSustainedBandwidth(syn, 0.8, tf);
    EXPECT_LT(std::fabs(std::log10(bw_ref / bw_syn)), 1.0);
}

} // namespace
