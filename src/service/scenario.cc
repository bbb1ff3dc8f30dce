#include "service/scenario.h"

#include "common/error.h"
#include "common/fnv.h"

namespace quake::service
{

const char *
soilKindName(SoilKind kind)
{
    switch (kind) {
      case SoilKind::kLayeredBasin: return "layered-basin";
      case SoilKind::kMultiBasinThree: return "multi-basin-3";
      case SoilKind::kUniform: return "uniform";
    }
    return "unknown";
}

void
ScenarioRequest::validate() const
{
    QUAKE_EXPECT(!tenant.empty(), "tenant must be non-empty");
    meshSpec.validate();
    if (soil == SoilKind::kUniform) {
        QUAKE_EXPECT(uniformVs > 0,
                     "uniformVs must be positive, got " << uniformVs);
        QUAKE_EXPECT(uniformRho > 0,
                     "uniformRho must be positive, got " << uniformRho);
    }
    QUAKE_EXPECT(faultDropRate >= 0.0 && faultDropRate <= 1.0,
                 "faultDropRate must be in [0, 1], got "
                     << faultDropRate);
    QUAKE_EXPECT(deadlineMs >= 0,
                 "deadlineMs must be >= 0, got " << deadlineMs);
    // Physics/execution ranges (duration, cfl, poisson, damping,
    // numPes, sampleInterval, maxSteps) are the engine config's own
    // contract.
    toSimConfig().validate();
}

sim::SimulationConfig
ScenarioRequest::toSimConfig() const
{
    sim::SimulationConfig config;
    config.durationSeconds = durationSeconds;
    config.maxSteps = maxSteps;
    config.cflSafety = cflSafety;
    config.poisson = poisson;
    config.dampingA0 = dampingA0;
    config.hypocenter = hypocenter;
    config.sourceDirection = sourceDirection;
    config.wavelet = wavelet;
    config.sampleInterval = sampleInterval;
    config.numPes = numPes;
    config.kernelBackend = kernelBackend;
    config.fusedStep = fusedStep;
    // Collector and recorder stay null: the service owns telemetry
    // (engine-side ensureSlots would race concurrent executors), and
    // results are streamed as records, not seismogram traces.
    return config;
}

std::unique_ptr<mesh::SoilModel>
ScenarioRequest::makeSoilModel() const
{
    switch (soil) {
      case SoilKind::kLayeredBasin:
          return std::make_unique<mesh::LayeredBasinModel>();
      case SoilKind::kMultiBasinThree:
          return std::make_unique<mesh::MultiBasinModel>(
              mesh::MultiBasinModel::threeBasins());
      case SoilKind::kUniform:
          return std::make_unique<mesh::UniformModel>(
              mesh::Aabb{mesh::Vec3{0.0, 0.0, 0.0},
                         mesh::Vec3{50.0, 50.0, 10.0}},
              uniformVs, uniformRho);
    }
    QUAKE_PANIC("unreachable soil kind");
}

std::uint64_t
ScenarioRequest::meshKey() const
{
    common::Fnv1aHasher h;
    h.str("mesh/v1");
    h.value(static_cast<int>(soil));
    if (soil == SoilKind::kUniform)
        h.value(uniformVs).value(uniformRho);
    h.value(meshSpec.periodSeconds)
        .value(meshSpec.pointsPerWavelength)
        .value(meshSpec.hScale)
        .value(meshSpec.hMin)
        .value(meshSpec.coarseNx)
        .value(meshSpec.coarseNy)
        .value(meshSpec.coarseNz)
        .value(meshSpec.jitterFraction)
        .value(meshSpec.seed)
        .value(meshSpec.refine.maxPasses)
        .value(meshSpec.refine.maxElements);
    return h.digest();
}

std::uint64_t
ScenarioRequest::partitionKey() const
{
    common::Fnv1aHasher h(meshKey());
    h.str("partition/v1").value(numPes);
    return h.digest();
}

std::uint64_t
ScenarioRequest::assemblyKey() const
{
    common::Fnv1aHasher h(partitionKey());
    h.str("assembly/v1").value(poisson);
    return h.digest();
}

std::uint64_t
ScenarioRequest::scenarioKey() const
{
    common::Fnv1aHasher h(assemblyKey());
    h.str("scenario/v1")
        .value(durationSeconds)
        .value(maxSteps)
        .value(cflSafety)
        .value(dampingA0)
        .value(hypocenter.x)
        .value(hypocenter.y)
        .value(hypocenter.z)
        .value(sourceDirection.x)
        .value(sourceDirection.y)
        .value(sourceDirection.z)
        .value(wavelet.peakFrequencyHz)
        .value(wavelet.delaySeconds)
        .value(wavelet.amplitude)
        .value(sampleInterval)
        .value(static_cast<int>(kernelBackend));
    h.str(tenant).str(label);
    return h.digest();
}

} // namespace quake::service
