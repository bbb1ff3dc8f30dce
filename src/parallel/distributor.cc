#include "parallel/distributor.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/error.h"
#include "parallel/worker_pool.h"
#include "sparse/assembly.h"

namespace quake::parallel
{

std::int64_t
Subdomain::localNodeOf(mesh::NodeId global_node) const
{
    const auto it = std::lower_bound(globalNodes.begin(), globalNodes.end(),
                                     global_node);
    QUAKE_REQUIRE(it != globalNodes.end() && *it == global_node,
                  "node " << global_node << " is not on PE " << part);
    return it - globalNodes.begin();
}

namespace
{

/**
 * A worker's view of one global node: its local id on the subdomain
 * named by `part`.  A slot whose part is another PE's is stale, so the
 * array never needs resetting between subdomains, even after one threw.
 */
struct NodeSlot
{
    partition::PartId part = -1;
    mesh::NodeId local = 0;
};

/**
 * Fill in `sub` (its part and elements already set) from the global
 * mesh; `slots` is the calling worker's numNodes-long scratch array.
 */
void
buildSubdomain(Subdomain &sub, const mesh::TetMesh &mesh,
               const std::vector<partition::PartId> &min_part,
               const std::vector<partition::PartId> &max_part,
               const mesh::SoilModel *model, double poisson,
               std::vector<NodeSlot> &slots)
{
    // Touched global nodes, each gathered once, sorted ascending.
    for (mesh::TetId t : sub.elements)
        for (mesh::NodeId v : mesh.tet(t).v)
            if (slots[v].part != sub.part) {
                slots[v].part = sub.part;
                sub.globalNodes.push_back(v);
            }
    std::sort(sub.globalNodes.begin(), sub.globalNodes.end());
    for (std::size_t i = 0; i < sub.globalNodes.size(); ++i)
        slots[sub.globalNodes[i]].local = static_cast<mesh::NodeId>(i);

    // Local mesh: copy geometry, renumber elements.
    sub.localMesh.reserve(
        static_cast<std::int64_t>(sub.globalNodes.size()),
        static_cast<std::int64_t>(sub.elements.size()));
    for (mesh::NodeId g : sub.globalNodes)
        sub.localMesh.addNode(mesh.node(g));
    for (mesh::TetId t : sub.elements) {
        const mesh::Tet &e = mesh.tet(t);
        sub.localMesh.addTet(slots[e.v[0]].local, slots[e.v[1]].local,
                             slots[e.v[2]].local, slots[e.v[3]].local);
    }

    sub.ownsNode.resize(sub.globalNodes.size());
    for (std::size_t i = 0; i < sub.globalNodes.size(); ++i)
        sub.ownsNode[i] = (min_part[sub.globalNodes[i]] == sub.part);

    // Boundary-first row split: a local node is boundary iff some
    // other PE also touches it (it then appears in an exchange).
    for (std::size_t i = 0; i < sub.globalNodes.size(); ++i) {
        const mesh::NodeId g = sub.globalNodes[i];
        if (min_part[g] != max_part[g])
            sub.boundaryRows.push_back(static_cast<std::int64_t>(i));
        else
            sub.interiorRows.push_back(static_cast<std::int64_t>(i));
    }

    if (model != nullptr)
        sub.stiffness =
            sparse::assembleStiffness(sub.localMesh, *model, poisson);
}

} // namespace

std::vector<Subdomain>
buildSubdomains(const mesh::TetMesh &mesh,
                const partition::Partition &partition,
                const mesh::SoilModel *model, double poisson)
{
    partition.validate(mesh);
    const int num_parts = partition.numParts;

    std::vector<Subdomain> subdomains(
        static_cast<std::size_t>(num_parts));
    for (int p = 0; p < num_parts; ++p)
        subdomains[p].part = p;

    // Elements per part.
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t)
        subdomains[partition.elementPart[t]].elements.push_back(t);

    // Lowest and highest part touching each node: the lowest assigns
    // ownership, and min != max identifies shared (boundary) nodes.
    std::vector<partition::PartId> min_part(
        static_cast<std::size_t>(mesh.numNodes()), num_parts);
    std::vector<partition::PartId> max_part(
        static_cast<std::size_t>(mesh.numNodes()), -1);
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t) {
        const partition::PartId p = partition.elementPart[t];
        for (mesh::NodeId v : mesh.tet(t).v) {
            min_part[v] = std::min(min_part[v], p);
            max_part[v] = std::max(max_part[v], p);
        }
    }

    // The subdomains are independent: build them concurrently, each
    // written by the one worker that claims it.  Pool tasks must not
    // throw, so each PE's exception is kept and, after the join, the
    // lowest PE's is rethrown — the error a loop over the PEs in order
    // would raise.
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(num_parts));
    std::atomic<int> next{0};
    WorkerPool pool(std::min(num_parts, WorkerPool::hardwareThreads()));
    pool.run([&](int) {
        std::vector<NodeSlot> slots;
        for (int p; (p = next++) < num_parts;) {
            try {
                // Sized here, so a failed allocation is this PE's error.
                if (slots.empty())
                    slots.resize(static_cast<std::size_t>(mesh.numNodes()));
                buildSubdomain(subdomains[p], mesh, min_part, max_part,
                               model, poisson, slots);
            } catch (...) {
                errors[p] = std::current_exception();
            }
        }
    });
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return subdomains;
}

DistributedProblem
distribute(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
           const partition::Partition &partition, double poisson)
{
    DistributedProblem problem;
    problem.numGlobalNodes = mesh.numNodes();
    problem.partition = partition;
    problem.schedule = CommSchedule::build(mesh, partition);
    problem.subdomains =
        buildSubdomains(mesh, partition, &model, poisson);
    return problem;
}

DistributedProblem
distributeTopology(const mesh::TetMesh &mesh,
                   const partition::Partition &partition)
{
    DistributedProblem problem;
    problem.numGlobalNodes = mesh.numNodes();
    problem.partition = partition;
    problem.schedule = CommSchedule::build(mesh, partition);
    problem.subdomains = buildSubdomains(mesh, partition, nullptr);
    return problem;
}

} // namespace quake::parallel
