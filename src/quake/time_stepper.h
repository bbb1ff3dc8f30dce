/**
 * @file
 * Explicit central-difference time integration (paper §2.2): the Quake
 * applications advance  M u'' + K u = f  with the classic second-order
 * scheme
 *
 *   u_{n+1} = 2 u_n - u_{n-1} + dt^2 M^{-1} (f_n - K u_n),
 *
 * whose only non-pointwise operation is the SMVP K u_n — which is why
 * the whole paper reduces to the SMVP's behaviour.  M is the lumped
 * (diagonal) mass, so M^{-1} is a pointwise scale.
 */

#ifndef QUAKE98_QUAKE_TIME_STEPPER_H_
#define QUAKE98_QUAKE_TIME_STEPPER_H_

#include <functional>
#include <vector>

#include "mesh/soil_model.h"
#include "mesh/tet_mesh.h"
#include "quake/source.h"
#include "sparse/bcsr3.h"
#include "telemetry/collector.h"

namespace quake::sim
{

/**
 * A pluggable SMVP: y = K x on global vectors.  The sequential stepper
 * binds a Bcsr3Matrix; the distributed driver binds ParallelSmvp.
 */
using SmvpFn =
    std::function<void(const std::vector<double> &x, std::vector<double> &y)>;

/**
 * A pluggable fused step backend: run the SMVP with su.u as x, apply
 * `su` to every DOF the moment its K u value is final (writing u_{n+1}
 * into su.up), and return the peak/energy partials over all DOFs.
 * Bound to Bcsr3Matrix::multiplyFusedStep, ParallelSmvp::stepFused, or
 * spark::FusedStepKernel::step; must produce u_{n+1} bitwise identical
 * to the unfused SMVP + reference update triad (DESIGN.md §8).
 */
using FusedStepFn =
    std::function<sparse::StepPartials(const sparse::StepUpdate &su)>;

/**
 * Stable time step for the mesh/material pair: the CFL bound
 *   dt <= safety * min over elements (h_min / V_p),
 * with h_min the element's shortest altitude and V_p its P-wave speed.
 */
double stableTimeStep(const mesh::TetMesh &mesh,
                      const mesh::SoilModel &model, double poisson = 0.25,
                      double safety = 0.5);

/**
 * A complete snapshot of the integrator's step state (DESIGN.md §11).
 * Restoring it into a stepper built over the same operator reproduces
 * the continuation bitwise: step() depends only on (u_n, u_{n-1}, step
 * index) plus the construction-time operator/mass/dt/damping/sources,
 * and the force scratch is all-zero between steps by invariant.
 */
struct StepperState
{
    std::int64_t steps = 0;         ///< completed steps (defines time())
    std::vector<double> u;          ///< u_n
    std::vector<double> up;         ///< u_{n-1}
    sparse::StepPartials partials;  ///< cached peak/energy reductions
    bool statsValid = false;        ///< whether `partials` is populated
};

/** Central-difference integrator over a lumped-mass elastic system. */
class ExplicitTimeStepper
{
  public:
    /**
     * @param smvp        The SMVP operation y = K x.
     * @param lumped_mass Diagonal mass, one entry per scalar DOF (> 0).
     * @param dt          Time step (must satisfy the CFL bound).
     */
    ExplicitTimeStepper(SmvpFn smvp, std::vector<double> lumped_mass,
                        double dt);

    /** Add a point source (may be called multiple times). */
    void addSource(const PointSource &source);

    /**
     * Bind a fused step backend.  When set, step() runs the whole
     * SMVP + update + statistics pass through it — no ku vector, no
     * second O(n) sweep, no per-step allocation.  Displacements stay
     * bitwise identical to the unfused path; pass nullptr to unbind.
     */
    void setFusedStep(FusedStepFn fused);

    /** Whether a fused backend is bound. */
    bool fusedStep() const { return static_cast<bool>(fused_); }

    /**
     * Enable mass-proportional Rayleigh damping with coefficient a0
     * (1/seconds): M u'' + a0 M u' + K u = f.  Real Quake simulations
     * include attenuation; a0 = 0 (the default) recovers the undamped
     * scheme.  The damped update remains explicit:
     *   (1 + a0 dt/2) u_{n+1} =
     *       2 u_n - (1 - a0 dt/2) u_{n-1} + dt^2 M^{-1} (f - K u_n).
     */
    void setDamping(double a0);

    /** Current damping coefficient. */
    double damping() const { return damping_; }

    /**
     * Impose initial conditions u(0) = u0, u'(0) = v0 (both length =
     * DOF count).  Uses the standard second-order starter
     *   u_{-1} = u0 - dt v0 + (dt^2 / 2) M^{-1} (f(0) - K u0),
     * preserving the scheme's convergence order.  Must be called
     * before the first step; sources should be added first so f(0) is
     * complete.
     */
    void setInitialConditions(const std::vector<double> &u0,
                              const std::vector<double> &v0);

    /** Advance one step.  Displacement histories update internally. */
    void step();

    /** Simulated time of the current displacement field. */
    double time() const { return static_cast<double>(steps_) * dt_; }

    /** Steps taken so far. */
    std::int64_t stepCount() const { return steps_; }

    /** Current displacement field (length = DOF count). */
    const std::vector<double> &displacement() const { return u_; }

    /** Previous displacement field (for velocity estimates). */
    const std::vector<double> &previousDisplacement() const { return up_; }

    /**
     * max |u_i| over all scalar DOFs.  O(1) after any step — every
     * step (fused or not) folds the running max into its update pass —
     * and an O(n) sweep before the first step.
     */
    double peakDisplacement() const;

    /**
     * Kinetic energy (1/2) v^T M v with v = (u - u_prev) / dt.  O(1)
     * after any step (accumulated by the update pass in a fixed,
     * backend-defined order); O(n) sweep before the first step.
     */
    double kineticEnergy() const;

    /**
     * Seconds spent inside the SMVP so far (wall clock), vs. total step
     * time; supports the paper's ">80% of running time is SMVP" claim.
     */
    double smvpSeconds() const { return smvp_seconds_; }
    double totalSeconds() const { return total_seconds_; }

    /**
     * Copy the full integrator state into `out` (reusing its buffers
     * when already sized).  O(n); checkpoint/verify path only — run
     * loops take checkpoints through resilience::snapshot.
     */
    void saveState(StepperState &out) const;

    /**
     * Restore a previously saved state.  The stepper must have been
     * constructed over the same DOF count (FatalError otherwise);
     * matching the operator/mass/dt/damping/sources is the caller's
     * contract — the resilience loader enforces it with the config
     * fingerprint.  Subsequent steps are bitwise identical to a run
     * that never stopped.
     */
    void restoreState(const StepperState &state);

    /**
     * Attach a telemetry collector (DESIGN.md §9).  Each step() then
     * publishes the step number (driving the collector's every-N
     * fine-grained sampling), records a whole-step span on the control
     * slot, and feeds the step latency histogram.  Recording is
     * observation-only, so displacements remain bitwise identical to a
     * telemetry-off run.  Setup-time only; pass nullptr to detach.  The
     * collector must outlive the stepper or be detached.
     */
    void
    setCollector(telemetry::Collector *collector)
    {
        if (collector != nullptr)
            collector->ensureSlots(1);
        tele_ = collector;
    }

  private:
    /** Accumulate the sources into f_ at time t (sparse touch). */
    void applySources(double t);

    /** Restore the all-zero invariant of f_ (sparse touch). */
    void clearSources();

    SmvpFn smvp_;
    FusedStepFn fused_;
    telemetry::Collector *tele_ = nullptr;
    std::vector<double> inv_mass_;
    double dt_;
    double damping_ = 0.0;
    std::vector<PointSource> sources_;

    std::vector<double> u_;  ///< u_n
    std::vector<double> up_; ///< u_{n-1}
    std::vector<double> ku_; ///< K u_n scratch (unfused path only)
    std::vector<double> f_;  ///< force scratch, all-zero between steps
    std::int64_t steps_ = 0;

    /** Peak/energy of the state after the latest step. */
    sparse::StepPartials last_partials_;
    bool stats_valid_ = false;

    double smvp_seconds_ = 0.0;
    double total_seconds_ = 0.0;
};

} // namespace quake::sim

#endif // QUAKE98_QUAKE_TIME_STEPPER_H_
