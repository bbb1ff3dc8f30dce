/**
 * @file
 * The Archimedes-style parceler (paper §2.2): turns a mesh plus an
 * element partition into per-PE subdomains — a local mesh with compact
 * node numbering, replicated shared nodes, a local stiffness matrix
 * assembled from the local elements only, and node-ownership flags —
 * together with the pairwise communication schedule.
 *
 * Data distribution follows the paper exactly: vectors are distributed
 * by node with shared nodes replicated on every touching PE, and K_ij
 * resides (as a partial sum of local element contributions) on every PE
 * where nodes i and j both reside.  Summing partial y values across PEs
 * after the local SMVPs reconstitutes the global y = Kx.
 */

#ifndef QUAKE98_PARALLEL_DISTRIBUTOR_H_
#define QUAKE98_PARALLEL_DISTRIBUTOR_H_

#include <cstdint>
#include <vector>

#include "mesh/soil_model.h"
#include "mesh/tet_mesh.h"
#include "parallel/comm_schedule.h"
#include "partition/partitioner.h"
#include "sparse/bcsr3.h"

namespace quake::parallel
{

/** One PE's share of the problem. */
struct Subdomain
{
    partition::PartId part = 0;

    /** Global ids of this PE's elements. */
    std::vector<mesh::TetId> elements;

    /**
     * Global ids of every node touched by a local element, sorted
     * ascending; the local id of a node is its index here.
     */
    std::vector<mesh::NodeId> globalNodes;

    /** Local copy of the subdomain's geometry, in local node ids. */
    mesh::TetMesh localMesh;

    /**
     * True for local nodes whose global value this PE is responsible
     * for writing back (the lowest-numbered PE touching the node).
     */
    std::vector<char> ownsNode;

    /**
     * Local stiffness assembled from the local elements; empty
     * (numBlockRows() == 0) when the subdomains were built pattern-only.
     */
    sparse::Bcsr3Matrix stiffness;

    /**
     * Local ids of boundary nodes — nodes replicated on at least one
     * other PE, i.e. exactly the nodes that appear in this PE's
     * exchanges — sorted ascending.  The SMVP engine computes these
     * block rows first so message buffers can be published while the
     * interior rows below are still being computed (the paper's
     * communication/computation overlap, footnote 1).
     */
    std::vector<std::int64_t> boundaryRows;

    /** Local ids of the remaining (interior) nodes, sorted ascending. */
    std::vector<std::int64_t> interiorRows;

    /** Local id of a global node; panics when absent. */
    std::int64_t localNodeOf(mesh::NodeId global_node) const;

    /** Number of local nodes (owned + replicated). */
    std::int64_t
    numLocalNodes() const
    {
        return static_cast<std::int64_t>(globalNodes.size());
    }
};

/** A fully distributed SMVP problem. */
struct DistributedProblem
{
    std::int64_t numGlobalNodes = 0;
    partition::Partition partition;
    CommSchedule schedule;
    std::vector<Subdomain> subdomains;

    int numPes() const { return partition.numParts; }
};

/**
 * Build the per-PE subdomains for `partition` of `mesh`.  The subdomains
 * are built concurrently on a transient pool of min(P,
 * WorkerPool::hardwareThreads()) workers, the calling thread among
 * them, and their bytes do not depend on the worker count (DESIGN.md
 * §5).  When building some PEs throws, the lowest such PE's exception
 * is rethrown: the error a serial loop over the PEs would raise.
 *
 * @param mesh      The global mesh.
 * @param partition Element partition (validated).
 * @param model     Soil model for stiffness assembly, or nullptr to skip
 *                  assembly and build topology only (characterization
 *                  does not need matrix values); sampled from several
 *                  threads at once.
 * @param poisson   Poisson ratio for assembly.
 */
std::vector<Subdomain> buildSubdomains(const mesh::TetMesh &mesh,
                                       const partition::Partition &partition,
                                       const mesh::SoilModel *model,
                                       double poisson = 0.25);

/** Build the complete distributed problem (with stiffness matrices). */
DistributedProblem distribute(const mesh::TetMesh &mesh,
                              const mesh::SoilModel &model,
                              const partition::Partition &partition,
                              double poisson = 0.25);

/** Topology-only variant for characterization sweeps (no matrices). */
DistributedProblem distributeTopology(const mesh::TetMesh &mesh,
                                      const partition::Partition &partition);

} // namespace quake::parallel

#endif // QUAKE98_PARALLEL_DISTRIBUTOR_H_
