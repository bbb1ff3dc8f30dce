#include "sparse/assembly.h"

#include <array>

#include "common/error.h"
#include "sparse/elasticity.h"

namespace quake::sparse
{

namespace
{

/**
 * Storage slots of blocks (row, e.v[0..3]), found by one branch-free
 * scan of the row; -1 for a column the row does not store.
 */
inline std::array<std::int64_t, 4>
rowSlots(const std::int64_t *xadj, const std::int32_t *cols,
         mesh::NodeId row, const mesh::Tet &e)
{
    const mesh::NodeId v0 = e.v[0], v1 = e.v[1], v2 = e.v[2], v3 = e.v[3];
    std::int64_t s0 = -1, s1 = -1, s2 = -1, s3 = -1;
    for (std::int64_t s = xadj[row]; s < xadj[row + 1]; ++s) {
        const std::int32_t c = cols[s];
        s0 = c == v0 ? s : s0;
        s1 = c == v1 ? s : s1;
        s2 = c == v2 ? s : s2;
        s3 = c == v3 ? s : s3;
    }
    return {s0, s1, s2, s3};
}

} // namespace

Bcsr3Matrix
buildStiffnessPattern(const mesh::TetMesh &mesh)
{
    const mesh::NodeAdjacency adj = mesh.buildNodeAdjacency();
    const std::int64_t n = mesh.numNodes();

    // Insert the diagonal block into each row of the adjacency pattern.
    std::vector<std::int64_t> xadj(static_cast<std::size_t>(n) + 1, 0);
    std::vector<std::int32_t> cols;
    cols.reserve(adj.adjncy.size() + static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t begin = adj.xadj[i];
        const std::int64_t end = adj.xadj[i + 1];
        bool inserted = false;
        for (std::int64_t k = begin; k < end; ++k) {
            if (!inserted && adj.adjncy[k] > i) {
                cols.push_back(static_cast<std::int32_t>(i));
                inserted = true;
            }
            cols.push_back(adj.adjncy[k]);
        }
        if (!inserted)
            cols.push_back(static_cast<std::int32_t>(i));
        xadj[i + 1] = static_cast<std::int64_t>(cols.size());
    }
    return Bcsr3Matrix(n, std::move(xadj), std::move(cols));
}

Bcsr3Matrix
assembleStiffness(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
                  double poisson)
{
    Bcsr3Matrix k = buildStiffnessPattern(mesh);
    const std::int64_t *xadj = k.xadj().data();
    const std::int32_t *cols = k.blockCols().data();

    for (mesh::TetId t = 0; t < mesh.numElements(); ++t) {
        const mesh::Tet &e = mesh.tet(t);
        const mesh::Vec3 &a = mesh.node(e.v[0]);
        const mesh::Vec3 &b = mesh.node(e.v[1]);
        const mesh::Vec3 &c = mesh.node(e.v[2]);
        const mesh::Vec3 &d = mesh.node(e.v[3]);

        const mesh::Vec3 centroid = mesh::tetCentroid(a, b, c, d);
        const Material mat = Material::fromShearWave(
            model.shearWaveSpeed(centroid), model.density(centroid),
            poisson);

        const ElementStiffness ke = elementStiffness(a, b, c, d, mat);
        for (int i = 0; i < 4; ++i) {
            const std::array<std::int64_t, 4> slot =
                rowSlots(xadj, cols, e.v[i], e);
            for (int j = 0; j < 4; ++j) {
                QUAKE_REQUIRE(slot[j] >= 0,
                              "block (" << e.v[i] << ", " << e.v[j]
                                        << ") is not in the sparsity "
                                           "pattern");
                double *dst = k.blockAt(slot[j]);
                for (int q = 0; q < 9; ++q)
                    dst[q] += ke.blocks[i][j][q];
            }
        }
    }
    return k;
}

std::vector<double>
assembleLumpedMass(const mesh::TetMesh &mesh, const mesh::SoilModel &model)
{
    std::vector<double> mass(static_cast<std::size_t>(3 * mesh.numNodes()),
                             0.0);
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t) {
        const mesh::Tet &e = mesh.tet(t);
        const mesh::Vec3 centroid = mesh.tetCentroidOf(t);
        const double node_mass = elementLumpedMass(
            mesh.node(e.v[0]), mesh.node(e.v[1]), mesh.node(e.v[2]),
            mesh.node(e.v[3]), model.density(centroid));
        for (mesh::NodeId v : e.v)
            for (int dof = 0; dof < 3; ++dof)
                mass[3 * static_cast<std::size_t>(v) + dof] += node_mass;
    }
    return mass;
}

double
bytesPerNode(const Bcsr3Matrix &stiffness, int num_vectors)
{
    QUAKE_EXPECT(stiffness.numBlockRows() > 0, "empty matrix");
    const double n = static_cast<double>(stiffness.numBlockRows());
    const double value_bytes = 9.0 * 8.0 * stiffness.numBlocks();
    const double index_bytes = 4.0 * stiffness.numBlocks() + 8.0 * (n + 1);
    const double vector_bytes = 8.0 * 3.0 * n * num_vectors;
    return (value_bytes + index_bytes + vector_bytes) / n;
}

} // namespace quake::sparse
