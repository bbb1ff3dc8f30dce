#include "mesh/refine.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/error.h"

namespace quake::mesh
{

namespace
{

/**
 * An element's verdict, one byte fixed when the element is first
 * evaluated (nodes never move during refinement): bits 0-2 hold the
 * kTetEdges index of its longest edge, kOversized says that edge is
 * longer than h(centroid), and kDead marks an element bisected in the
 * current pass.
 */
constexpr std::uint8_t kLongestMask = 0x7;
constexpr std::uint8_t kOversized = 0x8;
constexpr std::uint8_t kDead = 0x10;

/** Per-pass marks: an edge of the element is marked; its longest is. */
constexpr std::uint8_t kTouched = 0x1;
constexpr std::uint8_t kLongestMarked = 0x2;

std::uint8_t
verdictOf(const Tet &t, const std::vector<Vec3> &nodes, const SizeField &h)
{
    const Vec3 &p0 = nodes[t.v[0]];
    const Vec3 &p1 = nodes[t.v[1]];
    const Vec3 &p2 = nodes[t.v[2]];
    const Vec3 &p3 = nodes[t.v[3]];
    const int e = tetLongestEdge(p0, p1, p2, p3);
    const double len2 =
        (nodes[t.v[kTetEdges[e][1]]] - nodes[t.v[kTetEdges[e][0]]]).norm2();
    const double target = h(tetCentroid(p0, p1, p2, p3));
    QUAKE_EXPECT(target > 0.0, "size field must be strictly positive");
    return static_cast<std::uint8_t>(
        e | (len2 > target * target ? kOversized : 0));
}

/** Elements by node, ascending: node n's are elems[first[n], first[n+1]). */
struct NodeElements
{
    std::vector<std::int64_t> first;
    std::vector<std::int32_t> elems;

    NodeElements(const std::vector<Tet> &tets, std::size_t num_nodes)
        : first(num_nodes + 1, 0), elems(4 * tets.size())
    {
        for (const Tet &t : tets)
            for (NodeId v : t.v)
                ++first[v + 1];
        for (std::size_t n = 0; n < num_nodes; ++n)
            first[n + 1] += first[n];
        std::vector<std::int64_t> cursor(first.begin(), first.end() - 1);
        for (std::size_t ti = 0; ti < tets.size(); ++ti)
            for (NodeId v : tets[ti].v)
                elems[cursor[v]++] = static_cast<std::int32_t>(ti);
    }

    /** Elements that contain edge (a, b), ascending, into `out`. */
    void
    incident(NodeId a, NodeId b, std::vector<std::int32_t> &out) const
    {
        out.clear();
        std::set_intersection(elems.begin() + first[a],
                              elems.begin() + first[a + 1],
                              elems.begin() + first[b],
                              elems.begin() + first[b + 1],
                              std::back_inserter(out));
    }
};

/** A marked edge (a < b) and its squared length. */
struct MarkedEdge
{
    double len2;
    NodeId a;
    NodeId b;
};

} // namespace

RefineReport
refineToSizeField(TetMesh &mesh, const SizeField &h,
                  const RefineOptions &options)
{
    RefineReport report;

    // The live elements in creation order, and their verdicts; elements
    // [0, evaluated) have one.  Nodes are appended directly to the mesh
    // as midpoints are created.
    std::vector<Tet> tets(mesh.tets().begin(), mesh.tets().end());
    std::vector<std::uint8_t> verdict(tets.size(), 0);
    std::size_t evaluated = 0;
    std::vector<std::int32_t> incident;

    for (int pass = 0; pass < options.maxPasses; ++pass) {
        const std::vector<Vec3> &nodes = mesh.nodes();
        const std::size_t live = tets.size();
        for (; evaluated < live; ++evaluated)
            verdict[evaluated] = verdictOf(tets[evaluated], nodes, h);

        // --- Step 1: index the live elements by node. ---
        const NodeElements by_node(tets, nodes.size());

        // --- Step 2: mark the longest edge of every oversized element,
        // then propagate Rivara-style: any element that touches a marked
        // edge marks its own longest edge too, so elements are (almost)
        // always bisected by their longest edge, which bounds shape
        // degradation.  Marking an edge touches every incident element,
        // queueing it on its first touch; a queued element marks its
        // longest edge unless that is already marked.  This reaches the
        // same closure as sweeping every element to a fixpoint. ---
        std::vector<std::uint8_t> marks(live, 0);
        std::vector<std::int32_t> queue;
        std::vector<MarkedEdge> order;
        auto longestOf = [&](std::size_t ti) {
            const int e = verdict[ti] & kLongestMask;
            const NodeId u = tets[ti].v[kTetEdges[e][0]];
            const NodeId w = tets[ti].v[kTetEdges[e][1]];
            return std::pair<NodeId, NodeId>(std::min(u, w), std::max(u, w));
        };
        auto markLongest = [&](std::size_t ti) {
            if (marks[ti] & kLongestMarked)
                return;
            const auto [a, b] = longestOf(ti);
            // Either orientation gives the same bits: the difference is
            // negated exactly.
            order.push_back(MarkedEdge{(nodes[b] - nodes[a]).norm2(), a, b});
            by_node.incident(a, b, incident);
            for (std::int32_t ui : incident) {
                if (!(marks[ui] & kTouched))
                    queue.push_back(ui);
                marks[ui] |= kTouched;
                if (longestOf(ui) == std::pair(a, b))
                    marks[ui] |= kLongestMarked;
            }
        };
        for (std::size_t ti = 0; ti < live; ++ti)
            if (verdict[ti] & kOversized)
                markLongest(ti);
        if (order.empty())
            break;
        while (!queue.empty()) {
            const std::int32_t ti = queue.back();
            queue.pop_back();
            markLongest(static_cast<std::size_t>(ti));
        }

        // --- Step 3: split longest-first, ties by ascending (a, b).  A
        // split is atomic across all elements incident to the edge,
        // which preserves conformity; if any incident element already
        // died this pass, the edge is deferred to the next pass.
        // Children are appended, and the index predates them, so
        // incidence lists name only the pass's input elements. ---
        std::sort(order.begin(), order.end(),
                  [](const MarkedEdge &x, const MarkedEdge &y) {
                      if (x.len2 != y.len2)
                          return x.len2 > y.len2;
                      return x.a != y.a ? x.a < y.a : x.b < y.b;
                  });
        std::int64_t alive_count = static_cast<std::int64_t>(live);
        for (const MarkedEdge &edge : order) {
            by_node.incident(edge.a, edge.b, incident);
            QUAKE_REQUIRE(!incident.empty(),
                          "marked edge has no incident elements");
            if (std::any_of(incident.begin(), incident.end(),
                            [&](std::int32_t ti) {
                                return verdict[ti] & kDead;
                            }))
                continue; // deferred to the next pass

            const NodeId na = edge.a;
            const NodeId nb = edge.b;
            const NodeId mid =
                mesh.addNode((mesh.node(na) + mesh.node(nb)) * 0.5);

            for (std::int32_t ti : incident) {
                Tet child_a = tets[ti]; // will hold endpoint a + midpoint
                Tet child_b = tets[ti]; // will hold endpoint b + midpoint
                for (int k = 0; k < 4; ++k) {
                    if (child_a.v[k] == nb)
                        child_a.v[k] = mid;
                    if (child_b.v[k] == na)
                        child_b.v[k] = mid;
                }
                verdict[ti] |= kDead;
                tets.push_back(child_a);
                tets.push_back(child_b);
                ++alive_count;
                ++report.splits;
            }
            if (alive_count >= options.maxElements) {
                report.reachedElementCap = true;
                break;
            }
        }

        // --- Step 4: drop the dead, keeping creation order.  The
        // survivors of the pass's input keep their verdicts and stay
        // ahead of its children, which are evaluated next pass. ---
        verdict.resize(tets.size(), 0);
        std::size_t kept = 0;
        for (std::size_t ti = 0; ti < tets.size(); ++ti) {
            if (ti == live)
                evaluated = kept;
            if (verdict[ti] & kDead)
                continue;
            tets[kept] = tets[ti];
            verdict[kept] = verdict[ti];
            ++kept;
        }
        tets.resize(kept);
        verdict.resize(kept);

        ++report.passes;
        if (report.reachedElementCap)
            break;
        if (pass + 1 == options.maxPasses)
            report.reachedPassCap = true;
    }

    tets.shrink_to_fit(); // the mesh outlives the refiner: drop the slack
    mesh.assignTets(std::move(tets));
    return report;
}

} // namespace quake::mesh
