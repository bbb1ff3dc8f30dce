/**
 * @file
 * Ground models for the synthetic San Fernando Valley domain.
 *
 * The paper (§2.1) explains why the Quake meshes must be unstructured: the
 * element size in any region has to match the local seismic wavelength,
 * which is short in the valley's soft sedimentary soils and long in the
 * surrounding hard rock.  A SoilModel supplies the shear-wave speed field
 * that drives that grading; the mesh generator converts wave period plus
 * speed into a target edge-length field.
 */

#ifndef QUAKE98_MESH_SOIL_MODEL_H_
#define QUAKE98_MESH_SOIL_MODEL_H_

#include <vector>

#include "mesh/geometry.h"

namespace quake::mesh
{

/**
 * Abstract ground model: a domain box plus a shear-wave speed field.
 * Coordinates are kilometres; z measures depth below the free surface
 * (z = 0 at the surface, increasing downward).  Speeds are km/s.  The
 * distributor samples one model from several threads at once, so the
 * const methods must be safe to call concurrently.
 */
class SoilModel
{
  public:
    virtual ~SoilModel() = default;

    /** The modeled volume of earth. */
    virtual Aabb domain() const = 0;

    /** Shear-wave speed at p, in km/s. */
    virtual double shearWaveSpeed(const Vec3 &p) const = 0;

    /** Mass density at p, in 10^12 kg/km^3 (i.e. g/cm^3). */
    virtual double density(const Vec3 &p) const = 0;
};

/**
 * A layered alluvial-basin model patterned on the San Fernando Valley:
 * a bowl of soft sediments (a smooth super-Gaussian depression) embedded
 * in stiff rock, with speeds increasing with depth in both materials.
 *
 * Defaults model a 50 km x 50 km x 10 km volume (paper Figure 1) with a
 * basin roughly 20 x 14 km wide and 2 km deep at its centre, a surface
 * sediment speed of 0.22 km/s, and rock speeds of 3.0-4.0 km/s.  The
 * roughly 14x contrast between sediment and rock speeds is what produces
 * the "wildly varying density of the soils" that forces unstructured
 * meshes.
 */
class LayeredBasinModel : public SoilModel
{
  public:
    /** Tunable physical parameters; defaults give the San Fernando look. */
    struct Params
    {
        Vec3 extentKm{50.0, 50.0, 10.0}; ///< domain size (x, y, depth)
        Vec3 basinCenter{25.0, 25.0, 0.0}; ///< basin centre at the surface
        double basinRadiusX = 11.0; ///< basin half-width along x (km)
        double basinRadiusY = 8.0;  ///< basin half-width along y (km)
        double basinMaxDepth = 2.0; ///< sediment depth at basin centre (km)
        double vsSediment = 0.22;   ///< sediment speed at the surface (km/s)
        double vsBasinFloor = 0.60; ///< sediment speed at the basin floor
        double vsRockTop = 3.0;     ///< rock speed at the surface (km/s)
        double vsRockBottom = 4.0;  ///< rock speed at full depth (km/s)
        double rhoSediment = 1.8;   ///< sediment density (g/cm^3)
        double rhoRock = 2.6;       ///< rock density (g/cm^3)
    };

    LayeredBasinModel() : LayeredBasinModel(Params{}) {}
    explicit LayeredBasinModel(const Params &params);

    Aabb domain() const override;
    double shearWaveSpeed(const Vec3 &p) const override;
    double density(const Vec3 &p) const override;

    /**
     * Depth of the sediment/rock interface below surface point (x, y);
     * zero outside the basin footprint.
     */
    double basinDepth(double x, double y) const;

    /** True when p lies inside the sediment bowl. */
    bool inBasin(const Vec3 &p) const;

    const Params &params() const { return p_; }

  private:
    Params p_;
};

/**
 * A composite model with several independent sediment basins — the
 * generalization test for everything calibrated on the single San
 * Fernando bowl.  Each basin is a LayeredBasinModel-style super-
 * Gaussian depression; speed at a point is the minimum over basins
 * (sediment wins over rock), so overlapping basins merge smoothly.
 */
class MultiBasinModel : public SoilModel
{
  public:
    /** One basin's footprint and depth. */
    struct Basin
    {
        Vec3 center;          ///< surface centre (z ignored)
        double radiusX = 8.0; ///< half-width along x (km)
        double radiusY = 8.0; ///< half-width along y (km)
        double maxDepth = 1.5; ///< sediment depth at centre (km)
    };

    /**
     * @param extent_km Domain size.
     * @param basins    At least one basin, all inside the domain.
     */
    MultiBasinModel(const Vec3 &extent_km, std::vector<Basin> basins);

    /** A deterministic three-basin instance used by tests/benches. */
    static MultiBasinModel threeBasins();

    Aabb domain() const override;
    double shearWaveSpeed(const Vec3 &p) const override;
    double density(const Vec3 &p) const override;

    /** Sediment depth below (x, y): the max over basins. */
    double basinDepth(double x, double y) const;

    const std::vector<Basin> &basins() const { return basins_; }

  private:
    Vec3 extent_;
    std::vector<Basin> basins_;
    LayeredBasinModel::Params material_; ///< speeds/densities reused
};

/**
 * Uniform half-space: constant speed everywhere.  Produces uniform meshes;
 * used by tests and by the partitioner ablation to contrast graded and
 * regular problems.
 */
class UniformModel : public SoilModel
{
  public:
    UniformModel(const Aabb &box, double vs, double rho = 2.6)
        : box_(box), vs_(vs), rho_(rho)
    {}

    Aabb domain() const override { return box_; }
    double shearWaveSpeed(const Vec3 &) const override { return vs_; }
    double density(const Vec3 &) const override { return rho_; }

  private:
    Aabb box_;
    double vs_;
    double rho_;
};

} // namespace quake::mesh

#endif // QUAKE98_MESH_SOIL_MODEL_H_
