/**
 * @file
 * Two-level execution topology for the SMVP engine (DESIGN.md §13).
 *
 * The paper's traffic analysis separates intra-node reuse from
 * inter-node exchange; a flat thread pool erases that distinction on
 * NUMA machines, where every per-PE slab competes for one memory
 * domain.  A Topology maps the simulated PEs onto node-level *shards*
 * — each a pinned block of the engine's one worker pool, whose threads
 * first-touch the shard's slabs so pages land in the local domain —
 * while the boundary exchange runs *between* shards, mirroring the
 * hybrid process x thread decomposition of the MPI+OpenMP SMVP
 * literature.
 *
 * Detection reads /sys/devices/system/node intersected with the
 * process affinity mask; tests and CLIs override it with explicit
 * shard x thread specs so results stay deterministic everywhere.  The
 * topology is an execution knob only: the engine is bitwise invariant
 * across every Topology (verify property `engine_invariance`).
 */

#ifndef QUAKE98_PARALLEL_TOPOLOGY_H_
#define QUAKE98_PARALLEL_TOPOLOGY_H_

#include <string>
#include <vector>

namespace quake::parallel
{

/**
 * Describes how the engine splits work across shards and threads.
 *
 * numShards coarse shards each run threadsPerShard worker threads
 * (0 = divide the thread budget evenly).  When shardCpus is non-empty
 * it holds one CPU list per shard (from NUMA detection or an explicit
 * spec) used for pthread pinning when pin is set; pinning is advisory
 * — failures are counted, never fatal.
 */
struct Topology
{
    /** Coarse shards (>= 1); clamped to the PE count by the engine. */
    int numShards = 1;

    /**
     * Worker threads inside each shard; 0 = divide threadBudget (or
     * the affinity-visible CPU count) evenly across shards.
     */
    int threadsPerShard = 0;

    /**
     * Total thread budget when threadsPerShard == 0; 0 = the
     * affinity-visible CPU count.  Lets Topology::flat(n) reproduce
     * the historical `num_threads` semantics exactly.
     */
    int threadBudget = 0;

    /** Pin shard threads to their shard's CPUs (advisory). */
    bool pin = false;

    /**
     * Per-shard CPU ids for pinning; empty = no placement known.
     * When present, size() must equal numShards (validate() checks).
     */
    std::vector<std::vector<int>> shardCpus;

    /** Single-shard topology with the historical thread semantics. */
    static Topology flat(int num_threads);

    /** Explicit shards x threads-per-shard, no CPU placement. */
    static Topology uniform(int shards, int threads_per_shard,
                            bool pin = false);

    /**
     * Detect NUMA domains from /sys/devices/system/node, intersect
     * each with the process affinity mask, and build one shard per
     * non-empty domain.  Falls back to a single shard spanning every
     * affinity-visible CPU when sysfs is absent (non-Linux or
     * container-restricted) or exposes a single node.
     */
    static Topology detect(bool pin = false);

    /**
     * Parse a CLI topology spec: "flat" (single shard), "auto" or
     * "detect" (NUMA detection), or "SxT" (e.g. "2x4" = 2 shards of 4
     * threads; T may be 0 for even division).  Malformed specs throw
     * common::FatalError naming the spec.
     */
    static Topology parse(const std::string &spec, bool pin = false);

    /** Reject invalid combinations (FatalError naming the field). */
    void validate() const;
};

/**
 * Parse a Linux cpulist ("0-3,8,10-11") into ascending CPU ids.
 * Malformed lists return empty (detection treats that as "unknown").
 */
std::vector<int> parseCpuList(const std::string &list);

/**
 * CPU ids the process may run on (sched_getaffinity).  Falls back to
 * [0, hardware_concurrency) where the syscall is unavailable.
 */
std::vector<int> affinityCpus();

/**
 * One CPU list per NUMA domain that intersects the affinity mask,
 * ascending by node id.  Empty when detection found nothing usable
 * (callers fall back to one domain spanning affinityCpus()).
 */
std::vector<std::vector<int>> detectNumaDomains();

/**
 * Pin the calling thread to `cpus` (pthread_setaffinity_np).  Returns
 * false — without side effects — on failure, empty input, or platforms
 * without the call; the engine counts failures but never aborts.
 */
bool pinCurrentThreadToCpus(const std::vector<int> &cpus);

} // namespace quake::parallel

#endif // QUAKE98_PARALLEL_TOPOLOGY_H_
