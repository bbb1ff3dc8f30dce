/**
 * @file
 * Graded conforming mesh refinement by longest-edge bisection.
 *
 * This plays the role of the guaranteed-quality Delaunay mesh generation in
 * the Archimedes tool chain (Shewchuk's thesis, paper ref [18]): it turns a
 * coarse conforming tetrahedral mesh into a graded unstructured mesh whose
 * local element size tracks a user-supplied size field h(p).
 *
 * Algorithm.  Repeated passes of Rivara-style longest-edge bisection.
 * Nodes never move during refinement, so each element's verdict -- its
 * longest edge (ties to the lowest kTetEdges index) and whether that edge
 * exceeds h(centroid) -- is computed once, at the first pass that sees
 * the element, and kept in one byte.  Each pass then:
 *  1. Indexes the live elements by node; an edge's incident elements are
 *     the intersection of its endpoints' sorted lists.
 *  2. Marks the longest edge of every oversized element and propagates
 *     with a worklist: an element incident to a marked edge marks its own
 *     longest edge too.  This is the closure a sweep to a fixpoint would
 *     reach; it terminates because an element is queued at most once.
 *  3. Splits marked edges longest-first (ties by ascending node pair).  A
 *     split inserts the edge midpoint and bisects *every* incident
 *     element, which keeps the mesh conforming with no hanging nodes.  An
 *     edge with an element already bisected this pass is deferred to the
 *     next pass.
 *  4. Drops the bisected elements with a stable compaction, so elements
 *     stay in creation order.
 * A pass therefore costs O(live elements + incidences of marked edges).
 * The output -- nodes, element order, passes, splits -- is pinned bit for
 * bit by hashes in test_refine and test_generator.
 */

#ifndef QUAKE98_MESH_REFINE_H_
#define QUAKE98_MESH_REFINE_H_

#include <cstdint>
#include <functional>

#include "mesh/tet_mesh.h"

namespace quake::mesh
{

/** Target edge length (km) as a function of position. */
using SizeField = std::function<double(const Vec3 &)>;

/** Controls for the refinement loop. */
struct RefineOptions
{
    /** Hard cap on refinement sweeps; generation stops cleanly at it. */
    int maxPasses = 60;

    /** Hard cap on element count; generation stops cleanly at it. */
    std::int64_t maxElements = 40'000'000;
};

/** What the refiner did (reported by the generator and checked in tests). */
struct RefineReport
{
    int passes = 0;               ///< sweeps executed
    std::int64_t splits = 0;      ///< edge bisections performed
    bool reachedElementCap = false;
    bool reachedPassCap = false;
};

/**
 * Refine `mesh` in place until every element's longest edge is at most
 * h(centroid), subject to the caps in `options`.  The input mesh must be
 * conforming; the output mesh is conforming.
 *
 * @param mesh    Mesh to refine (modified in place).
 * @param h       Target edge-length field; must be strictly positive.
 * @param options Pass/element caps.
 * @return        Statistics about the refinement run.
 */
RefineReport refineToSizeField(TetMesh &mesh, const SizeField &h,
                               const RefineOptions &options = {});

} // namespace quake::mesh

#endif // QUAKE98_MESH_REFINE_H_
