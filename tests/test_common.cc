/**
 * @file
 * Unit tests for the common utilities: error handling, RNG determinism,
 * table formatting, and argument parsing.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/args.h"
#include "common/error.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/table.h"

namespace
{

using quake::common::Args;
using quake::common::FatalError;
using quake::common::SplitMix64;
using quake::common::Table;

// ----------------------------------------------------------------- error

TEST(Error, ExpectThrowsFatalOnFalse)
{
    EXPECT_THROW(QUAKE_EXPECT(false, "bad input " << 42), FatalError);
}

TEST(Error, ExpectPassesOnTrue)
{
    EXPECT_NO_THROW(QUAKE_EXPECT(true, "fine"));
}

TEST(Error, ExpectMessageIncludesStreamedArgs)
{
    try {
        QUAKE_EXPECT(false, "value was " << 7);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(ErrorDeathTest, RequireAbortsOnViolation)
{
    EXPECT_DEATH(QUAKE_REQUIRE(1 == 2, "impossible"), "requirement failed");
}

TEST(ErrorDeathTest, PanicAborts)
{
    EXPECT_DEATH(QUAKE_PANIC("boom"), "panic: boom");
}

// ------------------------------------------------------------------- rng

TEST(SplitMix64, SameSeedSameStream)
{
    SplitMix64 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge)
{
    SplitMix64 a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(SplitMix64, DoublesInUnitInterval)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(SplitMix64, DoublesRoughlyUniform)
{
    SplitMix64 rng(99);
    int below_half = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        below_half += rng.nextDouble() < 0.5;
    EXPECT_NEAR(static_cast<double>(below_half) / n, 0.5, 0.02);
}

TEST(SplitMix64, UniformRespectsRange)
{
    SplitMix64 rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-2.5, 4.5);
        EXPECT_GE(v, -2.5);
        EXPECT_LT(v, 4.5);
    }
}

TEST(SplitMix64, BoundedCoversRange)
{
    SplitMix64 rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.nextBounded(5);
        EXPECT_LT(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

// ----------------------------------------------------------------- table

TEST(Table, RejectsEmptyHeader)
{
    EXPECT_THROW(Table({}), FatalError);
}

TEST(Table, RejectsRowWidthMismatch)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, AlignsColumns)
{
    Table t({"id", "value"});
    t.addRow({"1", "short"});
    t.addRow({"12345", "x"});
    const std::string s = t.toString();
    // Both data rows start their second column at the same offset.
    const auto line_start = s.find("1 ");
    ASSERT_NE(line_start, std::string::npos);
    EXPECT_NE(s.find("12345  x"), std::string::npos);
}

TEST(Table, CountsRows)
{
    Table t({"x"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableFormat, FormatCount)
{
    EXPECT_EQ(quake::common::formatCount(0), "0");
    EXPECT_EQ(quake::common::formatCount(999), "999");
    EXPECT_EQ(quake::common::formatCount(1000), "1,000");
    EXPECT_EQ(quake::common::formatCount(24640110), "24,640,110");
    EXPECT_EQ(quake::common::formatCount(-1234567), "-1,234,567");
}

TEST(TableFormat, FormatFixed)
{
    EXPECT_EQ(quake::common::formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(quake::common::formatFixed(1.0, 0), "1");
}

TEST(TableFormat, FormatBandwidthPicksUnits)
{
    EXPECT_EQ(quake::common::formatBandwidth(300e6), "300.0 MB/s");
    EXPECT_EQ(quake::common::formatBandwidth(2.5e9), "2.50 GB/s");
    EXPECT_EQ(quake::common::formatBandwidth(5e3), "5.0 KB/s");
}

TEST(TableFormat, FormatTimePicksUnits)
{
    EXPECT_EQ(quake::common::formatTime(2.0), "2.00 s");
    EXPECT_EQ(quake::common::formatTime(3e-3), "3.00 ms");
    EXPECT_EQ(quake::common::formatTime(22e-6), "22.00 us");
    EXPECT_EQ(quake::common::formatTime(55e-9), "55.0 ns");
}

// ------------------------------------------------------------------ args

Args
makeArgs(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v = {"prog"};
    v.insert(v.end(), argv.begin(), argv.end());
    return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, ParsesKeyValue)
{
    const Args args = makeArgs({"--mesh", "sf2"});
    EXPECT_TRUE(args.has("mesh"));
    EXPECT_EQ(args.get("mesh"), "sf2");
}

TEST(Args, ParsesEqualsForm)
{
    const Args args = makeArgs({"--mesh=sf5"});
    EXPECT_EQ(args.get("mesh"), "sf5");
}

TEST(Args, BareFlagIsTrue)
{
    const Args args = makeArgs({"--full"});
    EXPECT_TRUE(args.has("full"));
    EXPECT_EQ(args.get("full"), "true");
}

TEST(Args, MissingKeyUsesFallback)
{
    const Args args = makeArgs({});
    EXPECT_FALSE(args.has("absent"));
    EXPECT_EQ(args.get("absent", "dflt"), "dflt");
    EXPECT_EQ(args.getInt("absent", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("absent", 2.5), 2.5);
}

TEST(Args, ParsesNumbers)
{
    const Args args = makeArgs({"--pes", "128", "--eff=0.9"});
    EXPECT_EQ(args.getInt("pes", 0), 128);
    EXPECT_DOUBLE_EQ(args.getDouble("eff", 0.0), 0.9);
}

TEST(Args, RejectsMalformedNumbers)
{
    const Args args = makeArgs({"--pes", "12x"});
    EXPECT_THROW(args.getInt("pes", 0), FatalError);
    EXPECT_THROW(makeArgs({"--pes="}).getInt("pes", 4), FatalError);
}

TEST(Args, CollectsPositionals)
{
    const Args args = makeArgs({"alpha", "--k", "v", "beta"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "alpha");
    EXPECT_EQ(args.positional()[1], "beta");
}

TEST(Args, FlagFollowedByFlagIsBoolean)
{
    const Args args = makeArgs({"--a", "--b", "val"});
    EXPECT_EQ(args.get("a"), "true");
    EXPECT_EQ(args.get("b"), "val");
}

TEST(Args, ParsesDoubleList)
{
    const Args args = makeArgs({"--mflops", "150,300.5,1e3", "--eff=0.9"});
    EXPECT_EQ(args.getDoubleList("mflops"),
              (std::vector<double>{150.0, 300.5, 1000.0}));
    EXPECT_EQ(args.getDoubleList("eff"), std::vector<double>{0.9});
    EXPECT_TRUE(args.getDoubleList("absent").empty());
}

TEST(Args, DoubleListRejectsEmptyItem)
{
    for (const char *text : {"0.5,,0.9", "0.5,", ",0.5", ""})
        EXPECT_THROW(makeArgs({"--eff", text}).getDoubleList("eff"),
                     FatalError)
            << "'" << text << "'";
    // An empty value is no number for getDouble either.
    EXPECT_THROW(makeArgs({"--eff="}).getDouble("eff", 0.5), FatalError);
}

TEST(Args, DoubleListRejectsTrailingGarbage)
{
    try {
        makeArgs({"--eff", "0.85x"}).getDoubleList("eff");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "--eff expects a number, got '0.85x'"),
                  std::string::npos);
    }
    EXPECT_THROW(makeArgs({"--mflops", "150,x"}).getDoubleList("mflops"),
                 FatalError);
}

TEST(Args, RejectsUnreadFlags)
{
    const Args args =
        makeArgs({"run", "--mesh", "sf20", "--shards", "2", "--full",
                  "--pes=4"});
    args.get("mesh");
    args.has("full");
    args.getInt("pes", 1);
    args.getDouble("scale", 1.0); // absent: asking still counts
    try {
        args.rejectUnread();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "unknown flag --shards");
    }
    args.getInt("shards", 1);
    EXPECT_NO_THROW(args.rejectUnread());
    // Positionals are not flags; a list read counts like any other.
    const Args list = makeArgs({"inspect", "--eff", "0.9,0.8"});
    list.getDoubleList("eff");
    EXPECT_NO_THROW(list.rejectUnread());
}

// ------------------------------------------------------------------- fnv

using quake::common::Fnv1aHasher;
using quake::common::fnv1a;

TEST(Fnv1aHasher, MatchesKnownVector)
{
    // FNV-1a-64("abc"), computed independently from the published
    // offset basis and prime — pins the algorithm, not the code.
    Fnv1aHasher h;
    h.bytes("abc", 3);
    EXPECT_EQ(h.digest(), 0xe16801510db89efdULL);
}

TEST(Fnv1aHasher, EmptyDigestIsOffsetBasis)
{
    EXPECT_EQ(Fnv1aHasher().digest(), quake::common::kFnvOffsetBasis);
}

TEST(Fnv1aHasher, IncrementalEqualsOneShot)
{
    // Streaming in two chunks must equal hashing the concatenation —
    // the property that makes staged cache keys chainable.
    const char data[] = "the quick brown fox";
    Fnv1aHasher split;
    split.bytes(data, 9).bytes(data + 9, sizeof(data) - 1 - 9);
    EXPECT_EQ(split.digest(), fnv1a(data, sizeof(data) - 1));
}

TEST(Fnv1aHasher, ResumesFromSavedState)
{
    Fnv1aHasher whole;
    whole.value(1).value(2).value(3);

    Fnv1aHasher first;
    first.value(1);
    Fnv1aHasher resumed(first.digest());
    resumed.value(2).value(3);
    EXPECT_EQ(resumed.digest(), whole.digest());
}

TEST(Fnv1aHasher, ValueOrderMatters)
{
    Fnv1aHasher ab, ba;
    ab.value(1.0).value(2.0);
    ba.value(2.0).value(1.0);
    EXPECT_NE(ab.digest(), ba.digest());
}

TEST(Fnv1aHasher, StringLengthPrefixPreventsAliasing)
{
    // ("ab", "c") and ("a", "bc") concatenate identically; the length
    // prefix in str() must still separate them.
    Fnv1aHasher x, y;
    x.str("ab").str("c");
    y.str("a").str("bc");
    EXPECT_NE(x.digest(), y.digest());
}

TEST(Fnv1aHasher, VectorLengthPrefixPreventsAliasing)
{
    const std::vector<int> one{1, 2, 3}, two{1, 2}, three{3};
    Fnv1aHasher x, y;
    x.vec(one);
    y.vec(two).vec(three);
    EXPECT_NE(x.digest(), y.digest());
}

TEST(Fnv1aHasher, SingleValueSensitivity)
{
    Fnv1aHasher a, b;
    a.value(0.25);
    b.value(0.250001);
    EXPECT_NE(a.digest(), b.digest());
}

} // namespace
