#include "mesh/tet_mesh.h"

#include <algorithm>

#include "common/error.h"

namespace quake::mesh
{

Vec3
TetMesh::tetCentroidOf(TetId t) const
{
    const Tet &e = tets_[t];
    return tetCentroid(nodes_[e.v[0]], nodes_[e.v[1]], nodes_[e.v[2]],
                       nodes_[e.v[3]]);
}

double
TetMesh::tetVolumeOf(TetId t) const
{
    const Tet &e = tets_[t];
    return tetVolume(nodes_[e.v[0]], nodes_[e.v[1]], nodes_[e.v[2]],
                     nodes_[e.v[3]]);
}

double
TetMesh::tetQualityOf(TetId t) const
{
    const Tet &e = tets_[t];
    return tetQuality(nodes_[e.v[0]], nodes_[e.v[1]], nodes_[e.v[2]],
                      nodes_[e.v[3]]);
}

Aabb
TetMesh::bounds() const
{
    if (nodes_.empty())
        return Aabb{};
    Aabb box{nodes_.front(), nodes_.front()};
    for (const Vec3 &p : nodes_)
        box.expand(p);
    return box;
}

NodeAdjacency
TetMesh::buildNodeAdjacency() const
{
    const std::int64_t n = numNodes();

    // Node -> incident elements, ascending element id per node.
    std::vector<std::int64_t> first(static_cast<std::size_t>(n) + 1, 0);
    for (const Tet &t : tets_)
        for (NodeId v : t.v)
            ++first[v + 1];
    for (std::int64_t i = 0; i < n; ++i)
        first[i + 1] += first[i];
    std::vector<TetId> incident(static_cast<std::size_t>(first[n]));
    std::vector<std::int64_t> cursor(first.begin(), first.end() - 1);
    for (std::size_t e = 0; e < tets_.size(); ++e)
        for (NodeId v : tets_[e].v)
            incident[cursor[v]++] = static_cast<TetId>(e);

    // Every vertex of an element incident to node i is a neighbour of i
    // (a tet is a complete graph); stamp[v] == i marks v as already
    // gathered for row i, so only the distinct neighbours get sorted.
    NodeAdjacency adj;
    adj.xadj.assign(static_cast<std::size_t>(n) + 1, 0);
    adj.adjncy.reserve(3 * tets_.size());
    std::vector<NodeId> stamp(static_cast<std::size_t>(n), -1);
    for (std::int64_t i = 0; i < n; ++i) {
        const auto row = static_cast<NodeId>(i);
        stamp[i] = row;
        const std::size_t row_start = adj.adjncy.size();
        for (std::int64_t k = first[i]; k < first[i + 1]; ++k) {
            for (NodeId v : tets_[incident[k]].v) {
                if (stamp[v] != row) {
                    stamp[v] = row;
                    adj.adjncy.push_back(v);
                }
            }
        }
        std::sort(adj.adjncy.begin() + row_start, adj.adjncy.end());
        adj.xadj[i + 1] = static_cast<std::int64_t>(adj.adjncy.size());
    }
    return adj;
}

MeshStats
TetMesh::computeStats() const
{
    MeshStats stats;
    stats.numNodes = numNodes();
    stats.numElements = numElements();

    const NodeAdjacency adj = buildNodeAdjacency();
    stats.numEdges = adj.numEdges();
    stats.avgDegree = stats.numNodes > 0
                          ? 2.0 * static_cast<double>(stats.numEdges) /
                                static_cast<double>(stats.numNodes)
                          : 0.0;

    double min_q = 1.0;
    double sum_q = 0.0;
    double volume = 0.0;
    for (TetId t = 0; t < stats.numElements; ++t) {
        const double q = tetQualityOf(t);
        min_q = std::min(min_q, q);
        sum_q += q;
        volume += tetVolumeOf(t);
    }
    stats.minQuality = stats.numElements > 0 ? min_q : 0.0;
    stats.meanQuality =
        stats.numElements > 0
            ? sum_q / static_cast<double>(stats.numElements)
            : 0.0;
    stats.totalVolume = volume;
    return stats;
}

void
TetMesh::validate() const
{
    const std::int64_t n = numNodes();
    for (const Tet &t : tets_) {
        for (int k = 0; k < 4; ++k) {
            QUAKE_REQUIRE(t.v[k] >= 0 && t.v[k] < n,
                          "tet vertex index out of range");
            for (int j = k + 1; j < 4; ++j)
                QUAKE_REQUIRE(t.v[k] != t.v[j],
                              "tet has a repeated vertex");
        }
        const double vol = tetVolume(nodes_[t.v[0]], nodes_[t.v[1]],
                                     nodes_[t.v[2]], nodes_[t.v[3]]);
        QUAKE_REQUIRE(vol > 0.0, "tet has non-positive volume");
    }
}

} // namespace quake::mesh
