/**
 * @file
 * The unstructured tetrahedral mesh at the heart of the Quake applications
 * (paper §2.1): nodes (vertices), elements (tetrahedra), and the derived
 * node-adjacency structure whose edges define the sparsity pattern of the
 * stiffness matrix K.
 */

#ifndef QUAKE98_MESH_TET_MESH_H_
#define QUAKE98_MESH_TET_MESH_H_

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/geometry.h"

namespace quake::mesh
{

/** Index of a mesh node (vertex).  Meshes up to ~2 billion nodes. */
using NodeId = std::int32_t;

/** Index of a mesh element (tetrahedron). */
using TetId = std::int32_t;

/** A tetrahedral element: four node indices. */
struct Tet
{
    std::array<NodeId, 4> v{};
};

/**
 * Node-to-node adjacency in compressed sparse row form.  Neighbour lists
 * are sorted and deduplicated and exclude the node itself; this is exactly
 * the off-diagonal block sparsity pattern of the stiffness matrix.
 */
struct NodeAdjacency
{
    /** Row offsets; size numNodes + 1. */
    std::vector<std::int64_t> xadj;
    /** Concatenated sorted neighbour lists. */
    std::vector<NodeId> adjncy;

    /** Number of undirected mesh edges. */
    std::int64_t
    numEdges() const
    {
        return static_cast<std::int64_t>(adjncy.size()) / 2;
    }

    /** Number of neighbours of node n (excluding n itself). */
    int
    degree(NodeId n) const
    {
        return static_cast<int>(xadj[n + 1] - xadj[n]);
    }
};

/** Aggregate statistics of a mesh (reported by bench_fig2_mesh_sizes). */
struct MeshStats
{
    std::int64_t numNodes = 0;
    std::int64_t numElements = 0;
    std::int64_t numEdges = 0;
    double avgDegree = 0.0;   ///< mean neighbours per node (paper: ~13)
    double minQuality = 0.0;  ///< worst mean-ratio element quality
    double meanQuality = 0.0; ///< average mean-ratio element quality
    double totalVolume = 0.0; ///< sum of element volumes (km^3)
};

/**
 * An unstructured tetrahedral mesh.
 *
 * The mesh is a plain container: construction (graded refinement, jitter)
 * lives in the generator, partitioning in quake::partition, and matrix
 * assembly in quake::sparse.  All of those consume this interface.
 */
class TetMesh
{
  public:
    TetMesh() = default;

    /** Append a node; returns its id. */
    NodeId
    addNode(const Vec3 &p)
    {
        nodes_.push_back(p);
        return static_cast<NodeId>(nodes_.size() - 1);
    }

    /** Append an element; returns its id.  Indices are not checked here. */
    TetId
    addTet(NodeId a, NodeId b, NodeId c, NodeId d)
    {
        tets_.push_back(Tet{{a, b, c, d}});
        return static_cast<TetId>(tets_.size() - 1);
    }

    /** Number of nodes. */
    std::int64_t
    numNodes() const
    {
        return static_cast<std::int64_t>(nodes_.size());
    }

    /** Number of elements. */
    std::int64_t
    numElements() const
    {
        return static_cast<std::int64_t>(tets_.size());
    }

    /** Position of node n. */
    const Vec3 &node(NodeId n) const { return nodes_[n]; }

    /** Mutable position of node n (used by the jitter pass). */
    Vec3 &node(NodeId n) { return nodes_[n]; }

    /** Element t. */
    const Tet &tet(TetId t) const { return tets_[t]; }

    /** All node positions. */
    const std::vector<Vec3> &nodes() const { return nodes_; }

    /** All elements. */
    const std::vector<Tet> &tets() const { return tets_; }

    /** Centroid of element t. */
    Vec3 tetCentroidOf(TetId t) const;

    /** Unsigned volume of element t. */
    double tetVolumeOf(TetId t) const;

    /** Mean-ratio quality of element t. */
    double tetQualityOf(TetId t) const;

    /** Axis-aligned bounding box of all nodes; empty mesh gives zero box. */
    Aabb bounds() const;

    /**
     * Build the node adjacency structure.  Each node's neighbours are
     * gathered through a node -> element incidence list, so the cost is
     * linear in the mesh plus a sort of each node's d distinct
     * neighbours; memory peaks at one int32 per element vertex.
     */
    NodeAdjacency buildNodeAdjacency() const;

    /** Compute aggregate statistics (includes an adjacency build). */
    MeshStats computeStats() const;

    /**
     * Check structural invariants: node indices in range, no repeated
     * vertex within an element, and strictly positive element volumes.
     * Panics (library bug) on violation.
     */
    void validate() const;

    /** Replace the full element list (used by the refiner's compaction). */
    void assignTets(std::vector<Tet> tets) { tets_ = std::move(tets); }

    /** Reserve storage ahead of bulk construction. */
    void
    reserve(std::int64_t n_nodes, std::int64_t n_tets)
    {
        nodes_.reserve(static_cast<std::size_t>(n_nodes));
        tets_.reserve(static_cast<std::size_t>(n_tets));
    }

  private:
    std::vector<Vec3> nodes_;
    std::vector<Tet> tets_;
};

} // namespace quake::mesh

#endif // QUAKE98_MESH_TET_MESH_H_
