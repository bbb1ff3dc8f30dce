#include "quake/time_stepper.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace quake::sim
{

namespace
{

/** Shortest altitude of a tetrahedron: 3 V / (largest face area). */
double
shortestAltitude(const mesh::Vec3 &a, const mesh::Vec3 &b,
                 const mesh::Vec3 &c, const mesh::Vec3 &d)
{
    const double vol = mesh::tetVolume(a, b, c, d);
    const std::array<const mesh::Vec3 *, 4> v = {&a, &b, &c, &d};
    double max_area = 0.0;
    for (const auto &face : mesh::kTetFaces) {
        const mesh::Vec3 &p = *v[face[0]];
        const mesh::Vec3 &q = *v[face[1]];
        const mesh::Vec3 &r = *v[face[2]];
        max_area = std::max(max_area,
                            0.5 * (q - p).cross(r - p).norm());
    }
    return max_area > 0 ? 3.0 * vol / max_area : 0.0;
}

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

double
stableTimeStep(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
               double poisson, double safety)
{
    QUAKE_EXPECT(mesh.numElements() > 0, "mesh has no elements");
    QUAKE_EXPECT(safety > 0 && safety <= 1, "safety must be in (0, 1]");

    // V_p / V_s ratio for the given Poisson ratio.
    const double ratio =
        std::sqrt((2.0 - 2.0 * poisson) / (1.0 - 2.0 * poisson));

    double dt = std::numeric_limits<double>::infinity();
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t) {
        const mesh::Tet &e = mesh.tet(t);
        const double h = shortestAltitude(
            mesh.node(e.v[0]), mesh.node(e.v[1]), mesh.node(e.v[2]),
            mesh.node(e.v[3]));
        const double vp =
            model.shearWaveSpeed(mesh.tetCentroidOf(t)) * ratio;
        if (vp > 0 && h > 0)
            dt = std::min(dt, h / vp);
    }
    QUAKE_EXPECT(std::isfinite(dt), "could not bound the time step");
    return safety * dt;
}

ExplicitTimeStepper::ExplicitTimeStepper(SmvpFn smvp,
                                         std::vector<double> lumped_mass,
                                         double dt)
    : smvp_(std::move(smvp)), dt_(dt)
{
    QUAKE_EXPECT(dt > 0, "time step must be positive");
    QUAKE_EXPECT(!lumped_mass.empty(), "mass vector is empty");
    inv_mass_.reserve(lumped_mass.size());
    for (double m : lumped_mass) {
        QUAKE_EXPECT(m > 0, "lumped mass entries must be positive");
        inv_mass_.push_back(1.0 / m);
    }
    const std::size_t dof = inv_mass_.size();
    u_.assign(dof, 0.0);
    up_.assign(dof, 0.0);
    ku_.assign(dof, 0.0);
    f_.assign(dof, 0.0);
}

void
ExplicitTimeStepper::setDamping(double a0)
{
    QUAKE_EXPECT(a0 >= 0, "damping coefficient must be nonnegative");
    QUAKE_EXPECT(a0 * dt_ < 2.0,
                 "damping too strong for this time step (a0 dt >= 2)");
    damping_ = a0;
}

void
ExplicitTimeStepper::addSource(const PointSource &source)
{
    QUAKE_EXPECT(3 * static_cast<std::size_t>(source.node) + 2 <
                     inv_mass_.size(),
                 "source node outside the DOF range");
    sources_.push_back(source);
}

void
ExplicitTimeStepper::setFusedStep(FusedStepFn fused)
{
    fused_ = std::move(fused);
}

void
ExplicitTimeStepper::applySources(double t)
{
    for (const PointSource &s : sources_)
        s.apply(t, f_);
}

void
ExplicitTimeStepper::clearSources()
{
    // Point sources touch exactly three entries each, so restoring the
    // all-zero invariant of f_ is O(sources), not the O(n) fill the
    // seed paid every step.
    for (const PointSource &s : sources_) {
        const std::size_t base = 3 * static_cast<std::size_t>(s.node);
        f_[base + 0] = 0.0;
        f_[base + 1] = 0.0;
        f_[base + 2] = 0.0;
    }
}

void
ExplicitTimeStepper::setInitialConditions(const std::vector<double> &u0,
                                          const std::vector<double> &v0)
{
    QUAKE_EXPECT(steps_ == 0,
                 "initial conditions must precede the first step");
    QUAKE_EXPECT(u0.size() == u_.size() && v0.size() == u_.size(),
                 "initial condition size mismatch");

    u_ = u0;

    // f(0) from the sources, K u0 from the operator.
    applySources(0.0);
    smvp_(u_, ku_);

    for (std::size_t i = 0; i < u_.size(); ++i)
        up_[i] = u0[i] - dt_ * v0[i] +
                 0.5 * dt_ * dt_ * inv_mass_[i] * (f_[i] - ku_[i]);
    clearSources();
}

void
ExplicitTimeStepper::step()
{
    const double t_start = now_seconds();

    // Publish the step number first so every phase recorded below sees
    // a consistent sampling decision for this step.
    telemetry::Collector *tele =
        tele_ != nullptr && tele_->enabled() ? tele_ : nullptr;
    if (tele != nullptr)
        tele->setStep(steps_);
    const std::uint64_t tele0 = tele != nullptr ? tele->now() : 0;

    // f_n: sources evaluated at the current simulated time.  f_ is
    // all-zero here (invariant), so only the source entries are touched.
    applySources(time());

    // (1 + a0 dt/2) u_{n+1} = 2 u_n - (1 - a0 dt/2) u_{n-1}
    //                        + dt^2 M^{-1} (f_n - K u_n),
    // written into up_ which then becomes the new u_ by swap.  With
    // a0 = 0 this is the classic undamped central-difference update.
    const double half_damp = 0.5 * damping_ * dt_;
    sparse::StepUpdate su;
    su.u = u_.data();
    su.up = up_.data();
    su.f = f_.data();
    su.invMass = inv_mass_.data();
    su.dt = dt_;
    su.dt2 = dt_ * dt_;
    su.prevCoeff = 1.0 - half_damp;
    su.denom = 1.0 + half_damp;

    if (fused_) {
        // One pass: SMVP, update, and statistics, fused per row.  The
        // timer necessarily covers the whole pass — the update rides
        // inside the SMVP's row sweep.
        const double t_smvp = now_seconds();
        last_partials_ = fused_(su);
        smvp_seconds_ += now_seconds() - t_smvp;
    } else {
        // K u_n — the SMVP this whole library is about.
        const double t_smvp = now_seconds();
        smvp_(u_, ku_);
        smvp_seconds_ += now_seconds() - t_smvp;

        // Reference triad, out of line in the sparse library so it is
        // compiled with the same kernel flags as the fused backends
        // (DESIGN.md §8) — the anchor of the bitwise-equality contract.
        last_partials_ = sparse::StepPartials{};
        sparse::applyStepUpdateRange(su, ku_.data(), 0,
                                     static_cast<std::int64_t>(u_.size()),
                                     last_partials_);
    }
    stats_valid_ = true;

    clearSources();
    std::swap(u_, up_);
    ++steps_;

    if (tele != nullptr) {
        const std::uint64_t tele1 = tele->now();
        tele->observe(0, telemetry::Hist::kStepNanos, tele1 - tele0);
        tele->recordSpan(0, telemetry::Span::kStep,
                         static_cast<std::int32_t>(steps_ - 1), tele0,
                         tele1);
    }

    total_seconds_ += now_seconds() - t_start;
}

void
ExplicitTimeStepper::saveState(StepperState &out) const
{
    out.steps = steps_;
    out.u = u_;
    out.up = up_;
    out.partials = last_partials_;
    out.statsValid = stats_valid_;
}

void
ExplicitTimeStepper::restoreState(const StepperState &state)
{
    QUAKE_EXPECT(state.u.size() == u_.size() &&
                     state.up.size() == up_.size(),
                 "checkpoint state has " << state.u.size()
                                         << " DOFs, stepper has "
                                         << u_.size());
    QUAKE_EXPECT(state.steps >= 0,
                 "checkpoint step index must be >= 0, got "
                     << state.steps);
    steps_ = state.steps;
    u_ = state.u;
    up_ = state.up;
    last_partials_ = state.partials;
    stats_valid_ = state.statsValid;
}

double
ExplicitTimeStepper::peakDisplacement() const
{
    if (stats_valid_)
        return last_partials_.peak;
    double peak = 0.0;
    for (double v : u_)
        peak = std::max(peak, std::fabs(v));
    return peak;
}

double
ExplicitTimeStepper::kineticEnergy() const
{
    if (stats_valid_)
        return last_partials_.energy;
    double energy = 0.0;
    for (std::size_t i = 0; i < u_.size(); ++i) {
        const double v = (u_[i] - up_[i]) / dt_;
        energy += 0.5 * v * v / inv_mass_[i];
    }
    return energy;
}

} // namespace quake::sim
