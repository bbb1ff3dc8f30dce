#include "quake/simulation.h"

#include <cmath>

#include "common/error.h"
#include "common/fnv.h"
#include "parallel/parallel_smvp.h"
#include "partition/geometric_bisection.h"
#include "sparse/assembly.h"
#include "sparse/sliced_ell3.h"

namespace quake::sim
{

void
SimulationConfig::validate() const
{
    QUAKE_EXPECT(durationSeconds > 0 && std::isfinite(durationSeconds),
                 "durationSeconds must be positive and finite, got "
                     << durationSeconds);
    QUAKE_EXPECT(cflSafety > 0 && std::isfinite(cflSafety),
                 "cflSafety must be positive and finite, got "
                     << cflSafety);
    QUAKE_EXPECT(poisson >= 0 && poisson < 0.5,
                 "poisson must be in [0, 0.5), got " << poisson);
    QUAKE_EXPECT(dampingA0 >= 0 && std::isfinite(dampingA0),
                 "dampingA0 must be >= 0 and finite, got " << dampingA0);
    QUAKE_EXPECT(numPes >= 1, "numPes must be >= 1, got " << numPes);
    QUAKE_EXPECT(smvpThreads >= 0,
                 "smvpThreads must be >= 1, or 0 for hardware "
                 "concurrency; got "
                     << smvpThreads);
    QUAKE_EXPECT(sampleInterval >= 0,
                 "sampleInterval must be >= 0, got " << sampleInterval);
    QUAKE_EXPECT(maxSteps >= 0, "maxSteps must be >= 0, got " << maxSteps);
}

namespace
{

/** Fold a Bcsr3 matrix (structure + values) into a fingerprint. */
std::uint64_t
hashMatrix(const sparse::Bcsr3Matrix &k, std::uint64_t h)
{
    h = common::fnv1aVector(k.xadj(), h);
    h = common::fnv1aVector(k.blockCols(), h);
    if (k.numBlocks() > 0)
        h = common::fnv1a(k.blockAt(0),
                          static_cast<std::size_t>(9 * k.numBlocks()) *
                              sizeof(double),
                          h);
    return h;
}

/**
 * The config fingerprint (DESIGN.md §11): everything that determines
 * the trajectory's bit pattern, so a checkpoint can never silently
 * resume against the wrong mesh, partition, or matrix.
 */
std::uint64_t
computeFingerprint(const mesh::TetMesh &mesh,
                   const SimulationConfig &config, double dt,
                   const std::vector<double> &mass,
                   const PointSource &source,
                   const sparse::Bcsr3Matrix *global_k,
                   const parallel::DistributedProblem *problem)
{
    std::uint64_t h = common::kFnvOffsetBasis;
    h = common::fnv1aVector(mesh.nodes(), h);
    h = common::fnv1aVector(mesh.tets(), h);
    h = common::fnv1aValue(config.numPes, h);
    // The backend changes trajectory bits (ULP-level kernel
    // differences), so it is part of the trajectory identity —
    // checkpoints must not resume under a different backend.
    h = common::fnv1aValue(static_cast<int>(config.kernelBackend), h);
    h = common::fnv1aValue(config.poisson, h);
    h = common::fnv1aValue(config.dampingA0, h);
    h = common::fnv1aValue(dt, h);
    h = common::fnv1aVector(mass, h);
    h = common::fnv1aValue(source.node, h);
    h = common::fnv1aValue(source.direction, h);
    h = common::fnv1aValue(source.wavelet, h);
    if (global_k != nullptr)
        h = hashMatrix(*global_k, h);
    if (problem != nullptr) {
        h = common::fnv1aVector(problem->partition.elementPart, h);
        for (const parallel::Subdomain &sub : problem->subdomains)
            h = hashMatrix(sub.stiffness, h);
    }
    return h;
}

} // namespace

SimulationEngine
makeSimulationEngine(const mesh::TetMesh &mesh,
                     const mesh::SoilModel &model,
                     const SimulationConfig &config)
{
    return makeSimulationEngineWith(mesh, model, config, EnginePrefix{});
}

SimulationEngine
makeSimulationEngineWith(const mesh::TetMesh &mesh,
                         const mesh::SoilModel &model,
                         const SimulationConfig &config,
                         const EnginePrefix &prefix)
{
    config.validate();

    SimulationEngine engine;
    engine.dt =
        stableTimeStep(mesh, model, config.poisson, config.cflSafety);
    std::vector<double> mass = sparse::assembleLumpedMass(mesh, model);

    // Bind the SMVP: a single global matrix when sequential, the
    // distributed two-phase kernel otherwise.  The backing objects live
    // in the engine for the whole run.
    SmvpFn smvp;
    FusedStepFn fused;
    const bool use_ell =
        config.kernelBackend == SimulationConfig::KernelBackend::kSlicedEll3;
    if (config.numPes == 1) {
        engine.globalK =
            prefix.globalK != nullptr
                ? prefix.globalK
                : std::make_shared<const sparse::Bcsr3Matrix>(
                      sparse::assembleStiffness(mesh, model,
                                                config.poisson));
        if (use_ell) {
            engine.globalEll = std::make_shared<sparse::SlicedEll3Matrix>(
                sparse::SlicedEll3Matrix::fromBcsr3(*engine.globalK));
            const auto ell = engine.globalEll;
            smvp = [ell](const std::vector<double> &x,
                         std::vector<double> &y) {
                ell->multiply(x.data(), y.data());
            };
            if (config.fusedStep) {
                // Persistent K u scratch so the fused lambda performs
                // no per-step allocation (the BCSR3 fused path keeps
                // its scratch inside the matrix; the ELL path is
                // caller-provided by design).
                auto scratch = std::make_shared<std::vector<double>>(
                    static_cast<std::size_t>(engine.globalEll->numRows()),
                    0.0);
                fused = [ell, scratch](const sparse::StepUpdate &su) {
                    return ell->multiplyFusedStep(su, scratch->data());
                };
            }
        } else {
            const auto global_k = engine.globalK;
            smvp = [global_k](const std::vector<double> &x,
                              std::vector<double> &y) {
                global_k->multiply(x.data(), y.data());
            };
            if (config.fusedStep)
                fused = [global_k](const sparse::StepUpdate &su) {
                    return global_k->multiplyFusedStep(su);
                };
        }
    } else {
        if (prefix.problem != nullptr) {
            engine.problem = prefix.problem;
        } else {
            const partition::GeometricBisection partitioner;
            engine.problem =
                std::make_shared<const parallel::DistributedProblem>(
                    parallel::distribute(
                        mesh, model,
                        partitioner.partition(mesh, config.numPes),
                        config.poisson));
        }
        // The thread count does not enter the fingerprint: the
        // trajectory is bitwise invariant across it (DESIGN.md §13).
        engine.psmvp = std::make_shared<parallel::ParallelSmvp>(
            *engine.problem, config.smvpThreads,
            config.overlapSmvp ? parallel::ExchangeMode::kOverlapped
                               : parallel::ExchangeMode::kBarrier,
            use_ell ? parallel::SmvpKernelBackend::kSlicedEll3
                    : parallel::SmvpKernelBackend::kBcsr3);
        // Zero-copy: the engine writes straight into the stepper's ku
        // scratch — the seed's `y = psmvp->multiply(x)` allocated and
        // copied a full DOF vector every step.
        const auto psmvp = engine.psmvp;
        smvp = [psmvp](const std::vector<double> &x,
                       std::vector<double> &y) {
            psmvp->multiplyInto(x, y);
        };
        if (config.fusedStep)
            fused = [psmvp](const sparse::StepUpdate &su) {
                return psmvp->stepFused(su);
            };
    }

    const PointSource source = makePointSource(
        mesh, config.hypocenter, config.sourceDirection, config.wavelet);
    engine.fingerprint = computeFingerprint(
        mesh, config, engine.dt, mass, source, engine.globalK.get(),
        engine.problem.get());

    engine.stepper = std::make_unique<ExplicitTimeStepper>(
        smvp, std::move(mass), engine.dt);
    if (fused)
        engine.stepper->setFusedStep(std::move(fused));
    if (config.collector != nullptr) {
        engine.stepper->setCollector(config.collector);
        if (engine.psmvp)
            engine.psmvp->setCollector(config.collector);
    }
    if (config.dampingA0 > 0)
        engine.stepper->setDamping(config.dampingA0);
    engine.stepper->addSource(source);

    engine.plannedSteps = static_cast<std::int64_t>(
        std::ceil(config.durationSeconds / engine.dt));
    if (config.maxSteps > 0)
        engine.plannedSteps =
            std::min(engine.plannedSteps, config.maxSteps);
    return engine;
}

void
advanceSimulation(SimulationEngine &engine, const SimulationConfig &config,
                  SimulationReport &report, const StepObserver &observer)
{
    ExplicitTimeStepper &stepper = *engine.stepper;
    for (std::int64_t s = stepper.stepCount(); s < engine.plannedSteps;
         ++s) {
        stepper.step();
        // O(1): the step pass folds the max into its per-row update,
        // replacing the seed's per-step O(n) displacement sweep.
        report.peakDisplacement =
            std::max(report.peakDisplacement, stepper.peakDisplacement());
        if (config.sampleInterval > 0 &&
            stepper.stepCount() % config.sampleInterval == 0) {
            report.samples.push_back(
                FieldSample{stepper.time(), stepper.peakDisplacement(),
                            stepper.kineticEnergy()});
            if (config.recorder != nullptr)
                config.recorder->record(stepper.time(),
                                        stepper.displacement());
        }
        if (observer)
            observer(stepper.stepCount());
    }

    report.steps = stepper.stepCount();
    report.simulatedSeconds = stepper.time();
    report.smvpSeconds = stepper.smvpSeconds();
    report.totalSeconds = stepper.totalSeconds();
    report.smvpFraction = report.totalSeconds > 0
                              ? report.smvpSeconds / report.totalSeconds
                              : 0.0;
}

SimulationReport
runSimulation(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
              const SimulationConfig &config)
{
    SimulationEngine engine = makeSimulationEngine(mesh, model, config);
    SimulationReport report;
    report.dt = engine.dt;
    advanceSimulation(engine, config, report);
    return report;
}

SimulationReport
runSfSimulation(mesh::SfClass cls, const SimulationConfig &config,
                double h_scale)
{
    const mesh::LayeredBasinModel model;
    const mesh::GeneratedMesh generated =
        mesh::generateMesh(model, mesh::MeshSpec::forClass(cls, h_scale));
    return runSimulation(generated.mesh, model, config);
}

} // namespace quake::sim
