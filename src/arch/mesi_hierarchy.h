/**
 * @file
 * Multi-level MESI memory-hierarchy co-simulator (DESIGN.md §15).
 *
 * The local SMVP's sustained rate is set by the memory system, not the
 * FPU (paper §3.1/§4: the T3E sustains 70 of 600 MFLOPS, 12% of peak).
 * Between PEs it is also a sharing story: boundary-row x gathers read
 * lines another PE just wrote, the symmetric scatter read-modify-writes
 * remote rows, and partition edges falsely share lines.  This module
 * models both with one configurable per-PE L1/L2 + optional shared-LLC
 * hierarchy and a simple MESI protocol between simulated PEs; with one
 * PE and no LLC it is a plain two-level cache replay:
 *
 *  - private inclusive L1/L2 per PE (set-associative, LRU);
 *  - a per-line directory at the shared level tracking the sharer set
 *    and the (single) modified owner;
 *  - remote writes invalidate other sharers; remote reads downgrade a
 *    modified owner (writeback + Shared);
 *  - private-hierarchy misses are classified cold / coherence /
 *    capacity-conflict, and coherence misses are further split into
 *    true vs false sharing by the written-word mask of the
 *    invalidating writer (paper §4.3's cache-line-block story: a
 *    70-100 ns block moves whether or not the requested word was the
 *    one written).
 *
 * The model is deliberately untimed between PEs: the replay engine
 * (cosim.h) interleaves per-PE streams on a canonical schedule, so a
 * given trace set + config produces bit-identical statistics on every
 * run and regardless of the order traces are handed in.  What the
 * co-sim does NOT model is documented in DESIGN.md §15.
 */

#ifndef QUAKE98_ARCH_MESI_HIERARCHY_H_
#define QUAKE98_ARCH_MESI_HIERARCHY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace quake::arch
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::int64_t sizeBytes = 8 * 1024;
    int lineBytes = 32;
    int associativity = 1;

    /** Number of sets implied by the geometry. */
    std::int64_t numSets() const;

    /**
     * Check invariants (positive fields, powers of two, divisibility);
     * throws FatalError with a distinct message per violated field.
     */
    void validate() const;
};

/** Geometry + service times of a multi-level multi-PE hierarchy. */
struct MesiHierarchyConfig
{
    int numPes = 1;

    CacheConfig l1{32 * 1024, 64, 8};        ///< per-PE
    CacheConfig l2{256 * 1024, 64, 8};       ///< per-PE
    CacheConfig llc{8 * 1024 * 1024, 64, 16}; ///< shared
    bool hasLlc = true; ///< false = L2 misses go straight to DRAM

    double l1HitSeconds = 1.4e-9;
    double l2HitSeconds = 3.4e-9;
    double llcHitSeconds = 13e-9;
    double dramSeconds = 65e-9;

    /**
     * Extra service charged when a request is satisfied by another
     * PE's modified line or must invalidate remote sharers (the
     * cache-to-cache / snoop round trip).
     */
    double coherenceSeconds = 20e-9;

    /**
     * Check invariants; throws FatalError with a distinct message per
     * violated field (geometry via CacheConfig::validate, positive
     * latencies, matching line sizes across levels, at most 512-byte
     * lines and 32 PEs — the widths of the written-word and sharer
     * masks — and a positive PE count).
     */
    void validate() const;

    /**
     * The modeled-1998 configuration: a T3E node's 21164 (8KB direct
     * L1, 96KB 3-way L2, no shared level, ~100 ns memory — §4.3's
     * cache-line-block latency), one PE per node.
     */
    static MesiHierarchyConfig t3e1998(int num_pes = 1);

    /**
     * A modeled modern CMP shaped like the sesc-pleasetm nehalem
     * configuration (SNIPPETS.md §1): 4 PEs per node, 64B lines,
     * 32KB/8-way L1, 256KB/8-way L2, 8MB/16-way shared LLC, 2.93 GHz
     * cycle-derived latencies.
     */
    static MesiHierarchyConfig nehalemCmp(int num_pes = 4);
};

/** Per-PE access counters of one replay. */
struct PeStats
{
    std::int64_t accesses = 0;
    std::int64_t reads = 0;
    std::int64_t writes = 0;

    std::int64_t l1Misses = 0;
    std::int64_t l2Misses = 0;  ///< private-hierarchy misses
    std::int64_t llcMisses = 0; ///< of this PE's requests

    // Classification of the l2Misses (cold + coherence + capacity ==
    // l2Misses, and coherence == trueSharing + falseSharing).
    std::int64_t coldMisses = 0;
    std::int64_t coherenceMisses = 0;
    std::int64_t capacityMisses = 0; ///< capacity OR conflict
    std::int64_t trueSharingMisses = 0;
    std::int64_t falseSharingMisses = 0;

    /** Write hits that needed remote invalidations (S -> M upgrades). */
    std::int64_t upgrades = 0;

    /** Lines this PE lost to a remote writer's invalidation. */
    std::int64_t invalidationsReceived = 0;

    /** Modified lines this PE wrote back (downgrade or eviction). */
    std::int64_t writebacks = 0;

    /** Modeled service time of this PE's stream, in seconds. */
    double seconds = 0.0;

    double
    l1MissRate() const
    {
        return accesses > 0 ? static_cast<double>(l1Misses) / accesses
                            : 0.0;
    }
};

/** Whole-replay statistics: per PE plus shared-level aggregates. */
struct MesiStats
{
    std::vector<PeStats> pe;

    std::int64_t llcAccesses = 0; ///< private misses reaching the LLC
    std::int64_t llcMisses = 0;
    std::int64_t bytesFromDram = 0; ///< line fills + writebacks to DRAM

    /** Sum of a per-PE counter over all PEs. */
    std::int64_t totalAccesses() const;
    std::int64_t totalL1Misses() const;
    std::int64_t totalL2Misses() const;
    std::int64_t totalCoherenceMisses() const;

    /** Slowest PE's modeled seconds — the bulk-synchronous bound. */
    double maxPeSeconds() const;
};

/**
 * The stateful multi-PE MESI simulator.  Drive it with read()/write()
 * in any (externally scheduled) order; per-PE program order is the
 * caller's contract.  All state transitions are deterministic
 * functions of the access sequence.
 */
class MesiHierarchySim
{
  public:
    explicit MesiHierarchySim(const MesiHierarchyConfig &config);

    /** One load of `bytes` at `address` by `pe`. */
    void read(int pe, std::uint64_t address, int bytes = 8);

    /** One store of `bytes` at `address` by `pe`. */
    void write(int pe, std::uint64_t address, int bytes = 8);

    const MesiStats &stats() const { return stats_; }
    const MesiHierarchyConfig &config() const { return config_; }

    /** Forget all contents and statistics. */
    void reset();

  private:
    /** One private set-associative LRU level with invalidation support. */
    class PrivateCache
    {
      public:
        void init(const CacheConfig &config);
        bool lookup(std::uint64_t line);

        /**
         * Insert `line`; returns the evicted line or kNoLine.  The
         * caller maintains inclusion (an L2 eviction also invalidates
         * L1) and the directory.
         */
        std::uint64_t insert(std::uint64_t line);
        void invalidate(std::uint64_t line);

        static constexpr std::uint64_t kNoLine = ~0ULL;

      private:
        std::int64_t num_sets_ = 0;
        int assoc_ = 0;
        std::vector<std::uint64_t> lines_; ///< kNoLine = empty way
        std::vector<std::uint32_t> lru_;
        std::uint32_t tick_ = 0;
    };

    /** Directory entry: who holds the line, who modified it. */
    struct DirEntry
    {
        std::uint32_t sharers = 0; ///< bitmask over PEs
        int owner = -1;            ///< PE holding the line Modified
        std::uint64_t writtenWords = 0; ///< owner's written-word mask
    };

    /** Why a PE no longer holds a line it once held. */
    struct LossRecord
    {
        bool byRemoteWrite = false;     ///< else capacity/inclusion
        std::uint64_t writtenWords = 0; ///< writer's mask at loss time
    };

    void access(int pe, std::uint64_t address, int bytes, bool is_write);

    /** Fill `line` into pe's L2+L1, maintaining inclusion + presence. */
    void fillPrivate(int pe, std::uint64_t line);

    /**
     * Insert `line` into the shared LLC.  A different victim line is
     * written back if modified and dropped from every sharer
     * (inclusion), and leaves the directory.
     */
    void fillLlc(std::uint64_t line);

    /** Drop `line` from pe's private caches and the sharer set. */
    void dropFromPe(int pe, std::uint64_t line, bool by_remote_write,
                    std::uint64_t written_words);

    std::uint64_t wordMask(std::uint64_t address, int bytes) const;

    MesiHierarchyConfig config_;
    int line_shift_ = 0;
    std::vector<PrivateCache> l1_;
    std::vector<PrivateCache> l2_;
    PrivateCache llc_; ///< shared; unused when !hasLlc
    std::unordered_map<std::uint64_t, DirEntry> directory_;

    /** Per PE: lines ever touched (cold-miss classification). */
    std::vector<std::unordered_map<std::uint64_t, char>> touched_;

    /** Per PE: lines lost since last held, with the loss reason. */
    std::vector<std::unordered_map<std::uint64_t, LossRecord>> lost_;

    MesiStats stats_;
};

} // namespace quake::arch

#endif // QUAKE98_ARCH_MESI_HIERARCHY_H_
