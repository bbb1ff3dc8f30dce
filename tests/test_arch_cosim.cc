/**
 * @file
 * Tests for the multi-level MESI co-simulator (DESIGN.md §15): cache
 * geometry and config validation with per-field messages, the private
 * set-associative LRU levels on one PE (cold, conflict, LRU order,
 * per-level service time), the coherence state machine (true/false
 * sharing, upgrades, miss taxonomy), the partitioned per-format replay
 * and its T_f prediction, the cross-format byte-footprint
 * differential, and a golden fixed-seed single-tet trace.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "arch/cosim.h"
#include "arch/mesi_hierarchy.h"
#include "common/error.h"
#include "mesh/generator.h"
#include "sparse/access_trace.h"
#include "sparse/assembly.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/sliced_ell3.h"
#include "verify/generators.h"

namespace
{

using namespace quake;
using namespace quake::arch;
using quake::common::FatalError;

sparse::Bcsr3Matrix
latticeStiffness(int n)
{
    const mesh::TetMesh m = mesh::buildKuhnLattice(
        mesh::Aabb{{0, 0, 0}, {1, 1, 1}}, n, n, n);
    const mesh::UniformModel model(mesh::Aabb{{0, 0, 0}, {1, 1, 1}},
                                   1.0, 1.0);
    return sparse::assembleStiffness(m, model);
}

// ------------------------------------------------- config validation

TEST(CacheConfig, Geometry)
{
    const CacheConfig c{8 * 1024, 32, 2};
    EXPECT_EQ(c.numSets(), 128);
    EXPECT_NO_THROW(c.validate());
}

TEST(CacheConfig, RejectsBadGeometry)
{
    EXPECT_THROW((CacheConfig{0, 32, 1}).validate(), FatalError);
    EXPECT_THROW((CacheConfig{8192, 48, 1}).validate(), FatalError);
    EXPECT_THROW((CacheConfig{8192, 32, 7}).validate(), FatalError);
}

std::string
validationMessage(const CacheConfig &c)
{
    try {
        c.validate();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

// Each rejected field names itself, so a CLI user (or a rejection
// test) can tell a bad size from a bad line from a bad way count.
TEST(CacheConfig, DistinctMessagePerField)
{
    EXPECT_NE(validationMessage(CacheConfig{0, 32, 1})
                  .find("cache size must be positive"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{-8192, 32, 1})
                  .find("cache size must be positive"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{8192, 0, 1})
                  .find("line size must be positive"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{8192, -32, 1})
                  .find("line size must be positive"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{8192, 48, 1})
                  .find("line size must be a power of two"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{8192, 32, 0})
                  .find("associativity must be positive"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{8192, 32, -2})
                  .find("associativity must be positive"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{8200, 32, 1})
                  .find("size must be a multiple of line * associativity"),
              std::string::npos);
    EXPECT_NE(validationMessage(CacheConfig{96 * 1024, 32, 1})
                  .find("set count must be a power of two"),
              std::string::npos);
}

TEST(MesiConfig, PresetsValidate)
{
    EXPECT_NO_THROW(MesiHierarchyConfig::t3e1998().validate());
    EXPECT_NO_THROW(MesiHierarchyConfig::t3e1998(4).validate());
    EXPECT_NO_THROW(MesiHierarchyConfig::nehalemCmp().validate());
    EXPECT_NO_THROW(MesiHierarchyConfig::nehalemCmp(8).validate());
}

std::string
mesiMessage(const MesiHierarchyConfig &c)
{
    try {
        c.validate();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(MesiConfig, DistinctRejectionMessages)
{
    MesiHierarchyConfig c = MesiHierarchyConfig::nehalemCmp();

    c.numPes = 0;
    EXPECT_NE(mesiMessage(c).find("PE count must be positive"),
              std::string::npos);
    c.numPes = 33;
    EXPECT_NE(mesiMessage(c).find("PE count must be at most 32"),
              std::string::npos);

    c = MesiHierarchyConfig::nehalemCmp();
    c.l1HitSeconds = 0.0;
    EXPECT_NE(mesiMessage(c).find("L1 hit latency must be positive"),
              std::string::npos);
    c.l1HitSeconds = -1e-9;
    EXPECT_NE(mesiMessage(c).find("L1 hit latency must be positive"),
              std::string::npos);

    c = MesiHierarchyConfig::nehalemCmp();
    c.l2HitSeconds = 0.0;
    EXPECT_NE(mesiMessage(c).find("L2 hit latency must be positive"),
              std::string::npos);

    c = MesiHierarchyConfig::nehalemCmp();
    c.llcHitSeconds = 0.0;
    EXPECT_NE(mesiMessage(c).find("LLC hit latency must be positive"),
              std::string::npos);

    c = MesiHierarchyConfig::nehalemCmp();
    c.dramSeconds = -65e-9;
    EXPECT_NE(mesiMessage(c).find("DRAM latency must be positive"),
              std::string::npos);

    c = MesiHierarchyConfig::nehalemCmp();
    c.coherenceSeconds = -1e-9;
    EXPECT_NE(
        mesiMessage(c).find("coherence service time must be nonnegative"),
        std::string::npos);

    c = MesiHierarchyConfig::nehalemCmp();
    c.l1 = CacheConfig{32 * 1024, 32, 8};
    EXPECT_NE(mesiMessage(c).find("line sizes must match across levels"),
              std::string::npos);

    // The written-word mask has 64 bits: 1 KB lines (128 words) would
    // shift past it.  Every level's geometry is valid on its own.
    c = MesiHierarchyConfig::nehalemCmp();
    c.l1.lineBytes = c.l2.lineBytes = c.llc.lineBytes = 1024;
    EXPECT_NE(mesiMessage(c).find("line size must be at most 512 bytes"),
              std::string::npos);
    c.l1.lineBytes = c.l2.lineBytes = c.llc.lineBytes = 512;
    EXPECT_NO_THROW(c.validate());

    // Geometry faults surface CacheConfig's own per-field messages.
    c = MesiHierarchyConfig::nehalemCmp();
    c.l2.sizeBytes = 0;
    EXPECT_NE(mesiMessage(c).find("cache size must be positive"),
              std::string::npos);

    // An LLC-less hierarchy ignores the LLC fields entirely.
    c = MesiHierarchyConfig::t3e1998();
    c.llcHitSeconds = 0.0;
    c.llc.sizeBytes = -1;
    EXPECT_NO_THROW(c.validate());
}

// ------------------------------------------------ MESI state machine

TEST(Mesi, TrueSharingPingPong)
{
    MesiHierarchySim sim(MesiHierarchyConfig::nehalemCmp(2));
    const std::uint64_t a = 0x10000;

    sim.write(0, a); // PE0 cold write miss -> Modified
    sim.read(1, a);  // PE1 serviced by PE0's dirty line: true sharing
    sim.write(1, a); // write hit on Shared: upgrade, invalidates PE0
    sim.read(0, a);  // PE0 lost the line to a remote write: true sharing

    const MesiStats &s = sim.stats();
    EXPECT_EQ(s.pe[0].coldMisses, 1);
    EXPECT_EQ(s.pe[0].coherenceMisses, 1);
    EXPECT_EQ(s.pe[0].trueSharingMisses, 1);
    EXPECT_EQ(s.pe[0].invalidationsReceived, 1);
    EXPECT_EQ(s.pe[0].writebacks, 1); // downgraded by PE1's read

    EXPECT_EQ(s.pe[1].coherenceMisses, 1);
    EXPECT_EQ(s.pe[1].trueSharingMisses, 1);
    EXPECT_EQ(s.pe[1].falseSharingMisses, 0);
    EXPECT_EQ(s.pe[1].upgrades, 1);
    EXPECT_EQ(s.pe[1].writebacks, 1); // downgraded by PE0's re-read

    EXPECT_EQ(s.totalCoherenceMisses(), 2);
}

TEST(Mesi, FalseSharingSplitByWrittenWords)
{
    MesiHierarchySim sim(MesiHierarchyConfig::nehalemCmp(2));
    // 64-byte lines: word 0 and word 4 share a line but not a word.
    sim.write(0, 0x10000);
    sim.read(1, 0x10020); // same line, different word: false sharing
    sim.read(1, 0x20000);
    sim.write(0, 0x20000); // write miss invalidates PE1's copy
    sim.read(1, 0x20008);  // lost line, remote wrote word 0: false

    const MesiStats &s = sim.stats();
    EXPECT_EQ(s.pe[1].falseSharingMisses, 2);
    EXPECT_EQ(s.pe[1].trueSharingMisses, 0);
    EXPECT_EQ(s.pe[1].coherenceMisses, 2);
    EXPECT_EQ(s.pe[1].invalidationsReceived, 1);
}

TEST(Mesi, SinglePeColdThenCapacity)
{
    // Stream 256 KB (8192 x 32B lines) twice through the 1998 node:
    // pass one is all cold, pass two all capacity (looping LRU), and a
    // single PE never sees coherence traffic.
    MesiHierarchySim sim(MesiHierarchyConfig::t3e1998(1));
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 256 * 1024; a += 32)
            sim.read(0, a);

    const PeStats &p = sim.stats().pe[0];
    EXPECT_EQ(p.coldMisses, 8192);
    EXPECT_EQ(p.capacityMisses, 8192);
    EXPECT_EQ(p.coherenceMisses, 0);
    EXPECT_EQ(p.coldMisses + p.coherenceMisses + p.capacityMisses,
              p.l2Misses);
    EXPECT_EQ(sim.stats().bytesFromDram, 32 * 16384);
}

TEST(Mesi, RejectsOutOfRangeAccess)
{
    MesiHierarchySim sim(MesiHierarchyConfig::nehalemCmp(2));
    EXPECT_THROW(sim.read(2, 0x0), FatalError);
    EXPECT_THROW(sim.read(-1, 0x0), FatalError);
    EXPECT_THROW(sim.read(0, 0x0, 0), FatalError);
}

// ------------------------------------ private levels on one PE, no LLC

/** One PE, no LLC, 1/10/100 ns per level: the plain two-level cache. */
MesiHierarchyConfig
singlePe(const CacheConfig &l1, const CacheConfig &l2)
{
    MesiHierarchyConfig c = MesiHierarchyConfig::t3e1998(1);
    c.l1 = l1;
    c.l2 = l2;
    c.l1HitSeconds = 1e-9;
    c.l2HitSeconds = 10e-9;
    c.dramSeconds = 100e-9;
    return c;
}

// A 64 KB 4-way L2 holds every line the L1 tests below touch, so L1
// victims stay resident one level down and only L1 behaviour shows.
const CacheConfig kBigL2{64 * 1024, 32, 4};

TEST(MesiPrivate, ColdMissThenHit)
{
    MesiHierarchySim sim(singlePe(CacheConfig{1024, 32, 1}, kBigL2));
    const PeStats &p = sim.stats().pe[0];
    sim.read(0, 0x1000);
    EXPECT_EQ(p.l1Misses, 1);
    EXPECT_EQ(p.coldMisses, 1);
    sim.read(0, 0x1000);
    sim.read(0, 0x101f, 1); // same 32-byte line
    EXPECT_EQ(p.l1Misses, 1);
    sim.read(0, 0x1020); // next line
    EXPECT_EQ(p.accesses, 4);
    EXPECT_EQ(p.l1Misses, 2);
    EXPECT_EQ(p.l2Misses, 2);
    EXPECT_DOUBLE_EQ(p.l1MissRate(), 0.5);
}

TEST(MesiPrivate, DirectMappedConflict)
{
    // 1 KB direct-mapped L1 and L2, 32 B lines -> 32 sets; addresses
    // 1 KB apart collide at both levels.
    const CacheConfig direct{1024, 32, 1};
    MesiHierarchySim sim(singlePe(direct, direct));
    sim.read(0, 0x0);
    sim.read(0, 0x400); // evicts 0x0
    sim.read(0, 0x0);   // conflict miss
    const PeStats &p = sim.stats().pe[0];
    EXPECT_EQ(p.l1Misses, 3);
    EXPECT_EQ(p.l2Misses, 3);
    EXPECT_EQ(p.coldMisses, 2);
    EXPECT_EQ(p.capacityMisses, 1); // capacity OR conflict
}

TEST(MesiPrivate, TwoWayAssociativityRemovesThatConflict)
{
    const CacheConfig two_way{1024, 32, 2};
    MesiHierarchySim sim(singlePe(two_way, two_way));
    sim.read(0, 0x0);
    sim.read(0, 0x400);
    sim.read(0, 0x0); // both fit in the set
    EXPECT_EQ(sim.stats().pe[0].l1Misses, 2);
    EXPECT_EQ(sim.stats().pe[0].l2Misses, 2);
}

TEST(MesiPrivate, LruEvictsLeastRecentlyUsed)
{
    // 2-way L1 set; three colliding lines A, B, C.
    MesiHierarchySim sim(singlePe(CacheConfig{1024, 32, 2}, kBigL2));
    const std::uint64_t a = 0x0, b = 0x400, c = 0x800;
    sim.read(0, a);
    sim.read(0, b);
    sim.read(0, a); // A most recent
    sim.read(0, c); // evicts B
    const PeStats &p = sim.stats().pe[0];
    EXPECT_EQ(p.l1Misses, 3);
    sim.read(0, a);
    EXPECT_EQ(p.l1Misses, 3);
    sim.read(0, b);
    EXPECT_EQ(p.l1Misses, 4);
}

TEST(MesiPrivate, L2CatchesL1Evictions)
{
    MesiHierarchySim sim(singlePe(CacheConfig{1024, 32, 1}, kBigL2));
    // Two conflicting L1 lines, both L2-resident after first touch.
    sim.read(0, 0x0);
    sim.read(0, 0x400);
    sim.read(0, 0x0); // L1 conflict miss, L2 hit
    const PeStats &p = sim.stats().pe[0];
    EXPECT_EQ(p.l1Misses, 3);
    EXPECT_EQ(p.l2Misses, 2);
    EXPECT_EQ(p.capacityMisses, 0);
}

TEST(MesiPrivate, CapacityMissesOnBigWorkingSet)
{
    // Stream 64 KB through an 8 KB L1 twice: the second pass still
    // misses everything there (LRU on a looping stream).
    MesiHierarchySim sim(singlePe(CacheConfig{8 * 1024, 32, 2}, kBigL2));
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 64 * 1024; a += 32)
            sim.read(0, a);
    EXPECT_GT(sim.stats().pe[0].l1MissRate(), 0.95);
}

TEST(MesiPrivate, SmallWorkingSetStaysResident)
{
    MesiHierarchySim sim(singlePe(CacheConfig{8 * 1024, 32, 2}, kBigL2));
    for (int pass = 0; pass < 10; ++pass)
        for (std::uint64_t a = 0; a < 4 * 1024; a += 8)
            sim.read(0, a);
    // First pass cold-misses 128 lines; the rest hit.
    EXPECT_EQ(sim.stats().pe[0].l1Misses, 128);
    EXPECT_LT(sim.stats().pe[0].l1MissRate(), 0.03);
}

TEST(MesiPrivate, AccountsPerLevel)
{
    MesiHierarchySim sim(singlePe(CacheConfig{1024, 32, 1}, kBigL2));
    const PeStats &p = sim.stats().pe[0];
    sim.read(0, 0x0); // misses both: 1 + 10 + 100 ns
    EXPECT_EQ(p.l1Misses, 1);
    EXPECT_EQ(p.l2Misses, 1);
    EXPECT_NEAR(p.seconds, 111e-9, 1e-15);
    sim.read(0, 0x0); // L1 hit: +1 ns
    EXPECT_NEAR(p.seconds, 112e-9, 1e-15);
    EXPECT_EQ(p.accesses, 2);
}

TEST(MesiPrivate, ResetClears)
{
    MesiHierarchySim sim(singlePe(CacheConfig{1024, 32, 1}, kBigL2));
    sim.read(0, 0x0);
    sim.write(0, 0x40);
    sim.reset();
    const PeStats &p = sim.stats().pe[0];
    EXPECT_EQ(p.accesses, 0);
    EXPECT_EQ(sim.stats().bytesFromDram, 0);
    sim.read(0, 0x0); // cold again
    EXPECT_EQ(p.l1Misses, 1);
    EXPECT_EQ(p.coldMisses, 1);
}

// ------------------------------------------------------ cosim replay

TEST(Cosim, PartitionBoundariesCoverAllRows)
{
    const sparse::Bcsr3Matrix k = latticeStiffness(3);
    for (int pes : {1, 2, 4, 7}) {
        const std::vector<std::int64_t> cuts =
            partitionBlockRows(k, pes);
        ASSERT_EQ(cuts.size(), static_cast<std::size_t>(pes) + 1);
        EXPECT_EQ(cuts.front(), 0);
        EXPECT_EQ(cuts.back(), k.numBlockRows());
        for (std::size_t i = 1; i < cuts.size(); ++i)
            EXPECT_LE(cuts[i - 1], cuts[i]);
    }
}

TEST(Cosim, SinglePeSeesNoCoherence)
{
    const sparse::Bcsr3Matrix k = latticeStiffness(3);
    for (TraceFormat f :
         {TraceFormat::kBcsr3, TraceFormat::kSymBcsr3,
          TraceFormat::kSlicedEll3}) {
        CosimOptions opt;
        opt.format = f;
        opt.numPes = 1;
        const CosimResult r =
            runCosim(k, MesiHierarchyConfig::t3e1998(1), opt);
        EXPECT_EQ(r.stats.totalCoherenceMisses(), 0)
            << traceFormatName(f);
        EXPECT_GT(r.tfSeconds, 0.0);
        EXPECT_GT(r.fractionOfPeak, 0.0);
        EXPECT_LE(r.fractionOfPeak, 1.0);
    }
}

TEST(Cosim, RejectsEmptyMatrix)
{
    // No stored blocks means no flops: the T_f it would report (0) is
    // meaningless as a gridFromMeasuredTf input, so the cosim refuses.
    CosimOptions opt;
    opt.numPes = 1;
    EXPECT_THROW(runCosim(sparse::Bcsr3Matrix{},
                          MesiHierarchyConfig::t3e1998(1), opt),
                 FatalError);
    const sparse::Bcsr3Matrix no_blocks(2, {0, 0, 0}, {});
    EXPECT_THROW(
        runCosim(no_blocks, MesiHierarchyConfig::t3e1998(1), opt),
        FatalError);
}

TEST(Cosim, PartitionedReplaySurfacesSharing)
{
    const sparse::Bcsr3Matrix k = latticeStiffness(3);

    // The symmetric scatter writes remote y rows within one iteration.
    CosimOptions sym;
    sym.format = TraceFormat::kSymBcsr3;
    sym.numPes = 2;
    sym.iterations = 1;
    const CosimResult rs =
        runCosim(k, MesiHierarchyConfig::nehalemCmp(2), sym);
    EXPECT_GT(rs.stats.totalCoherenceMisses(), 0);

    // BCSR3 needs the ping-pong: iteration 2's boundary x gathers read
    // lines the other PE wrote as y in iteration 1.
    CosimOptions b1 = sym;
    b1.format = TraceFormat::kBcsr3;
    const CosimResult r1 =
        runCosim(k, MesiHierarchyConfig::nehalemCmp(2), b1);
    EXPECT_EQ(r1.stats.totalCoherenceMisses(), 0);

    CosimOptions b2 = b1;
    b2.iterations = 2;
    const CosimResult r2 =
        runCosim(k, MesiHierarchyConfig::nehalemCmp(2), b2);
    EXPECT_GT(r2.stats.totalCoherenceMisses(), 0);
}

TEST(Cosim, UsefulFlopsFormatInvariant)
{
    const sparse::Bcsr3Matrix k = latticeStiffness(3);
    for (TraceFormat f :
         {TraceFormat::kBcsr3, TraceFormat::kSymBcsr3,
          TraceFormat::kSlicedEll3}) {
        CosimOptions opt;
        opt.format = f;
        opt.numPes = 2;
        opt.iterations = 2;
        const CosimResult r =
            runCosim(k, MesiHierarchyConfig::nehalemCmp(2), opt);
        EXPECT_EQ(r.totalFlops, 2 * k.flopsPerMultiply())
            << traceFormatName(f);
    }
}

TEST(Cosim, T3eRunsFarBelowPeakAndModernCloser)
{
    // ~800 KB of block values against the 96 KB Scache: the paper's
    // memory-bound regime.  bench_arch_cosim gates the 1998 fraction
    // of peak into a 5-30% band on an sf10-scale matrix; here we pin
    // the ordering and the regime.
    const sparse::Bcsr3Matrix k = latticeStiffness(8);
    CosimOptions opt;
    opt.format = TraceFormat::kBcsr3;
    opt.numPes = 1;
    const CosimResult old98 =
        runCosim(k, MesiHierarchyConfig::t3e1998(1), opt);
    EXPECT_LT(old98.fractionOfPeak, 0.40);
    EXPECT_GT(old98.fractionOfPeak, 0.02);

    const CosimResult modern =
        runCosim(k, MesiHierarchyConfig::nehalemCmp(1), opt);
    EXPECT_LT(modern.tfSeconds, old98.tfSeconds);
}

/** One BCSR3 multiply on one PE at the 1998 node's 600 MFLOPS peak. */
CosimResult
predictOnePe(const sparse::Bcsr3Matrix &k, const MesiHierarchyConfig &c)
{
    CosimOptions opt;
    opt.format = TraceFormat::kBcsr3;
    opt.numPes = 1;
    opt.iterations = 1;
    opt.peakFlopsPerSecond = 600e6;
    return runCosim(k, c, opt);
}

TEST(Cosim, InCacheMatrixRunsNearPeak)
{
    // Near-free memory (validate rejects 0) isolates the flop-bound
    // side of max(memory, flops / peak).
    const sparse::Bcsr3Matrix k = latticeStiffness(2);
    MesiHierarchyConfig instant = MesiHierarchyConfig::t3e1998(1);
    instant.l1HitSeconds = 1e-15;
    instant.l2HitSeconds = 1e-15;
    instant.dramSeconds = 1e-15;
    const CosimResult r = predictOnePe(k, instant);
    EXPECT_NEAR(r.mflops, 600.0, 1e-6);
    EXPECT_NEAR(r.fractionOfPeak, 1.0, 1e-12);
    EXPECT_EQ(r.totalFlops, k.flopsPerMultiply());
}

TEST(Cosim, BiggerProblemsMissMore)
{
    const CosimResult small =
        predictOnePe(latticeStiffness(3), MesiHierarchyConfig::t3e1998(1));
    const CosimResult large = predictOnePe(
        latticeStiffness(12), MesiHierarchyConfig::t3e1998(1));
    EXPECT_GE(large.stats.pe[0].l1MissRate(),
              small.stats.pe[0].l1MissRate());
    EXPECT_GE(small.mflops, large.mflops);
}

TEST(Cosim, LargeMatrixFarBelowPeak)
{
    // sf10-scale matrix (~5 MB) against the T3E-like node: the paper's
    // 12%-of-peak regime.
    const mesh::GeneratedMesh g =
        mesh::generateSfMesh(mesh::SfClass::kSf10);
    const mesh::LayeredBasinModel model;
    const sparse::Bcsr3Matrix k =
        sparse::assembleStiffness(g.mesh, model);

    const CosimResult r = predictOnePe(k, MesiHierarchyConfig::t3e1998(1));
    EXPECT_LT(r.mflops, 0.5 * 600.0); // far below peak
    EXPECT_GT(r.mflops, 10.0);        // but not absurd
    EXPECT_GT(r.stats.pe[0].l1MissRate(), 0.01);
    EXPECT_NEAR(r.tfSeconds * r.mflops * 1e6, 1.0, 1e-9);
}

TEST(Cosim, RejectsBadInputs)
{
    // The one-PE predictor refuses what has no T_f or no consistent
    // machine: an empty matrix, a PE count the hierarchy does not
    // have, and a non-positive peak rate.
    const sparse::Bcsr3Matrix k = latticeStiffness(2);
    EXPECT_THROW(
        predictOnePe(sparse::Bcsr3Matrix{}, MesiHierarchyConfig::t3e1998(1)),
        FatalError);
    EXPECT_THROW(predictOnePe(k, MesiHierarchyConfig::t3e1998(2)),
                 FatalError);

    CosimOptions no_peak;
    no_peak.numPes = 1;
    no_peak.peakFlopsPerSecond = 0.0;
    EXPECT_THROW(runCosim(k, MesiHierarchyConfig::t3e1998(1), no_peak),
                 FatalError);
}

// --------------------------------------- byte-footprint differential

struct Footprint
{
    std::set<std::uint64_t> matrixBytes; ///< offsets into matrix arrays
    std::set<std::uint64_t> xBytes;      ///< offsets into x
    std::set<std::uint64_t> yBytes;      ///< offsets into y
};

Footprint
footprintOf(const sparse::AccessTrace &t, const sparse::TraceLayout &l,
            std::uint64_t x_bytes, std::uint64_t y_bytes)
{
    Footprint fp;
    for (const sparse::MemRef &r : t.refs) {
        for (std::uint64_t b = r.address; b < r.address + r.bytes; ++b) {
            if (b >= l.x && b < l.x + x_bytes)
                fp.xBytes.insert(b - l.x);
            else if (b >= l.y && b < l.y + y_bytes)
                fp.yBytes.insert(b - l.y);
            else
                fp.matrixBytes.insert(b);
        }
    }
    return fp;
}

TEST(Footprint, FormatsTouchIdenticalVectorBytesAndWholeArrays)
{
    const sparse::Bcsr3Matrix k = latticeStiffness(3);
    const sparse::SymBcsr3Matrix sym =
        sparse::SymBcsr3Matrix::fromBcsr3(k);
    const sparse::SlicedEll3Matrix ell =
        sparse::SlicedEll3Matrix::fromBcsr3(k);

    const std::uint64_t x_base = 0x40000000;
    const std::uint64_t y_base = 0x50000000;
    const std::uint64_t vb =
        24 * static_cast<std::uint64_t>(k.numBlockRows());

    sparse::AccessTrace tb, ts, te;
    const sparse::TraceLayout lb =
        sparse::layoutBcsr3(k, 0x100000, x_base, y_base);
    sparse::traceBcsr3Rows(k, lb, 0, k.numBlockRows(), tb);
    const sparse::TraceLayout lsym =
        sparse::layoutSymBcsr3(sym, 0x100000, x_base, y_base);
    sparse::traceSymBcsr3Rows(sym, lsym, 0, sym.numBlockRows(), ts);
    const sparse::TraceLayout le =
        sparse::layoutSlicedEll3(ell, 0x100000, x_base, y_base);
    sparse::traceSlicedEll3(ell, le, te);

    const Footprint fb = footprintOf(tb, lb, vb, vb);
    const Footprint fs = footprintOf(ts, lsym, vb, vb);
    const Footprint fe = footprintOf(te, le, vb, vb);

    // Same matrix, same x/y byte sets — format changes the ORDER and
    // the matrix-array bytes, never which vector bytes are needed.
    EXPECT_EQ(fb.xBytes, fs.xBytes);
    EXPECT_EQ(fb.xBytes, fe.xBytes);
    EXPECT_EQ(fb.yBytes, fs.yBytes);
    EXPECT_EQ(fb.yBytes, fe.yBytes);
    EXPECT_EQ(fb.xBytes.size(), vb);
    EXPECT_EQ(fb.yBytes.size(), vb);

    // Each format streams its own value/index arrays exactly once per
    // multiply: touched matrix bytes == the arrays it stores.
    const auto matrixBytesOf = [](std::int64_t xadj_entries,
                                  std::int64_t cols, std::int64_t blocks,
                                  std::int64_t extra) {
        return static_cast<std::uint64_t>(8 * xadj_entries + 4 * cols +
                                          72 * blocks + extra);
    };
    EXPECT_EQ(fb.matrixBytes.size(),
              matrixBytesOf(k.numBlockRows() + 1, k.numBlocks(),
                            k.numBlocks(), 0));
    EXPECT_EQ(fs.matrixBytes.size(),
              matrixBytesOf(sym.numBlockRows() + 1, sym.storedBlocks(),
                            sym.storedBlocks(), 0));
    // Sliced-ELL: slice bases + lane map instead of xadj, padded slots
    // included in cols/values.
    EXPECT_EQ(fe.matrixBytes.size(),
              matrixBytesOf(ell.numSlices() + 1, ell.storedBlocks(),
                            ell.storedBlocks(),
                            8 * ell.numSlices() * ell.sliceHeight()));

    // The half-storage format carries roughly half the value bytes.
    EXPECT_LT(fs.matrixBytes.size(), fb.matrixBytes.size());
}

// -------------------------------------------------------- golden trace

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

void
describeTrace(std::ostringstream &out, const char *name,
              const sparse::AccessTrace &t)
{
    std::int64_t reads = 0;
    std::uint64_t hash = 14695981039346656037ULL;
    for (const sparse::MemRef &r : t.refs) {
        reads += r.write ? 0 : 1;
        hash = fnv1a(hash, r.address);
        hash = fnv1a(hash, (static_cast<std::uint64_t>(r.bytes) << 1) |
                               (r.write ? 1 : 0));
    }
    out << "  {\"format\": \"" << name << "\", \"refs\": " << t.refs.size()
        << ", \"reads\": " << reads
        << ", \"writes\": " << (static_cast<std::int64_t>(t.refs.size()) -
                                reads)
        << ", \"flops\": " << t.flops << ",\n   \"fnv64\": \"0x"
        << std::hex << hash << std::dec << "\",\n   \"head\": [";
    const std::size_t head =
        std::min<std::size_t>(t.refs.size(), 12);
    for (std::size_t i = 0; i < head; ++i) {
        const sparse::MemRef &r = t.refs[i];
        out << (i ? ", " : "") << "\"" << (r.write ? "W" : "R") << "0x"
            << std::hex << r.address << std::dec << ":" << r.bytes
            << "\"";
    }
    out << "]}";
}

// Golden fixed single-tet trace: the exact reference streams of all
// three formats over the one-element stiffness matrix.  Regenerate
// after an INTENTIONAL emitter change with:
//   QUAKE98_REGEN_GOLDEN=1 ./test_arch_cosim --gtest_filter='*Golden*'
TEST(GoldenTrace, SingleTetStreams)
{
    const mesh::TetMesh m = verify::InputGen::singleElementMesh();
    const mesh::UniformModel model(mesh::Aabb{{0, 0, 0}, {1, 1, 1}},
                                   1.0, 1.0);
    const sparse::Bcsr3Matrix k = sparse::assembleStiffness(m, model);
    const sparse::SymBcsr3Matrix sym =
        sparse::SymBcsr3Matrix::fromBcsr3(k);
    const sparse::SlicedEll3Matrix ell =
        sparse::SlicedEll3Matrix::fromBcsr3(k, 4);

    const std::uint64_t x_base = 0x400000;
    const std::uint64_t y_base = 0x500000;
    sparse::AccessTrace tb, ts, te;
    sparse::traceBcsr3Rows(
        k, sparse::layoutBcsr3(k, 0x100000, x_base, y_base), 0,
        k.numBlockRows(), tb);
    sparse::traceSymBcsr3Rows(
        sym, sparse::layoutSymBcsr3(sym, 0x100000, x_base, y_base), 0,
        sym.numBlockRows(), ts);
    sparse::traceSlicedEll3(
        ell, sparse::layoutSlicedEll3(ell, 0x100000, x_base, y_base), te);

    std::ostringstream out;
    out << "{\"traces\": [\n";
    describeTrace(out, "bcsr3", tb);
    out << ",\n";
    describeTrace(out, "sym", ts);
    out << ",\n";
    describeTrace(out, "ell", te);
    out << "\n]}\n";

    const std::string path =
        std::string(QUAKE98_GOLDEN_DIR) + "/arch_trace.json";
    if (std::getenv("QUAKE98_REGEN_GOLDEN") != nullptr) {
        std::ofstream file(path, std::ios::binary);
        ASSERT_TRUE(file.good()) << "cannot write " << path;
        file << out.str();
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "missing golden file " << path;
    std::ostringstream golden;
    golden << file.rdbuf();
    EXPECT_EQ(out.str(), golden.str())
        << "trace streams drifted from " << path
        << " (QUAKE98_REGEN_GOLDEN=1 regenerates after an intentional "
           "emitter change)";
}

} // namespace
