/**
 * @file
 * Tests for the multi-level MESI co-simulator (DESIGN.md §15): config
 * validation with per-field messages, the coherence state machine
 * (true/false sharing, upgrades, miss taxonomy), the partitioned
 * per-format replay, the cross-format byte-footprint differential, and
 * a golden fixed-seed single-tet trace.
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
    // memory-bound regime.  The bench gates the precise ~12% claim on
    // an sf10-scale matrix; here we pin the ordering and the regime.
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
