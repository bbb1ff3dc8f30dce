#include "resilience/checkpoint.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/error.h"
#include "common/fnv.h"

namespace quake::resilience
{

namespace
{

/** File magic: 8 bytes at offset 0. */
constexpr char kMagic[8] = {'Q', 'K', '9', '8', 'C', 'K', 'P', '1'};

/** Section tags (stable on-disk identifiers). */
enum SectionTag : std::uint32_t
{
    kSecMeta = 0x4d455441,    // "META": fingerprint, dt, steps
    kSecU = 0x55435552,       // "UCUR": u_n
    kSecUp = 0x55505256,      // "UPRV": u_{n-1}
    kSecStats = 0x53544154,   // "STAT": cached partials + validity
    kSecReport = 0x52505254,  // "RPRT": running peak + samples
};

/** Fixed-size payload of the META section. */
struct MetaPayload
{
    std::uint64_t fingerprint = 0;
    double dt = 0.0;
    std::int64_t plannedSteps = 0;
    std::int64_t steps = 0;
};

/** Fixed-size payload of the STAT section. */
struct StatsPayload
{
    double peak = 0.0;
    double energy = 0.0;
    std::uint64_t statsValid = 0;
};

void
appendBytes(std::vector<std::uint8_t> &out, const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    out.insert(out.end(), b, b + n);
}

/** Append one section: tag u32 | payload len u64 | FNV-1a u64 | payload. */
void
appendSection(std::vector<std::uint8_t> &out, std::uint32_t tag,
              const void *payload, std::size_t n)
{
    const std::uint64_t len = n;
    const std::uint64_t sum = common::fnv1a(payload, n);
    appendBytes(out, &tag, sizeof(tag));
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &sum, sizeof(sum));
    appendBytes(out, payload, n);
}

/** Bounds-checked reader over the on-disk image. */
class Reader
{
  public:
    Reader(const std::vector<std::uint8_t> &bytes,
           const std::string &origin)
        : bytes_(bytes), origin_(origin)
    {
    }

    void
    read(void *out, std::size_t n, const char *what)
    {
        QUAKE_EXPECT(pos_ + n <= bytes_.size(),
                     "checkpoint truncated: " << origin_ << " ends inside "
                                              << what << " (need " << n
                                              << " bytes at offset "
                                              << pos_ << ", have "
                                              << bytes_.size() - pos_
                                              << ")");
        std::memcpy(out, bytes_.data() + pos_, n);
        pos_ += n;
    }

    const std::uint8_t *
    peek(std::size_t n, const char *what)
    {
        QUAKE_EXPECT(pos_ + n <= bytes_.size(),
                     "checkpoint truncated: " << origin_ << " ends inside "
                                              << what << " (need " << n
                                              << " bytes at offset "
                                              << pos_ << ", have "
                                              << bytes_.size() - pos_
                                              << ")");
        const std::uint8_t *p = bytes_.data() + pos_;
        pos_ += n;
        return p;
    }

    bool atEnd() const { return pos_ == bytes_.size(); }
    std::size_t pos() const { return pos_; }

  private:
    const std::vector<std::uint8_t> &bytes_;
    std::string origin_;
    std::size_t pos_ = 0;
};

const char *
sectionName(std::uint32_t tag)
{
    switch (tag) {
    case kSecMeta: return "META";
    case kSecU: return "UCUR";
    case kSecUp: return "UPRV";
    case kSecStats: return "STAT";
    case kSecReport: return "RPRT";
    default: return "unknown";
    }
}

/**
 * Read one section, verify its checksum, and return its payload view.
 * The expected tag is enforced so sections cannot be reordered.
 */
const std::uint8_t *
readSection(Reader &r, std::uint32_t expect_tag, std::uint64_t &len,
            const std::string &origin)
{
    std::uint32_t tag = 0;
    std::uint64_t sum = 0;
    r.read(&tag, sizeof(tag), "section header");
    QUAKE_EXPECT(tag == expect_tag,
                 "checkpoint section order corrupt in "
                     << origin << ": expected " << sectionName(expect_tag)
                     << ", found " << sectionName(tag) << " (0x"
                     << std::hex << tag << ")");
    r.read(&len, sizeof(len), "section header");
    r.read(&sum, sizeof(sum), "section header");
    const std::uint8_t *payload = r.peek(len, sectionName(tag));
    const std::uint64_t actual = common::fnv1a(payload, len);
    QUAKE_EXPECT(actual == sum,
                 "checkpoint section " << sectionName(tag)
                                       << " checksum mismatch in "
                                       << origin
                                       << " (file is corrupt): expected 0x"
                                       << std::hex << sum << ", computed 0x"
                                       << actual);
    return payload;
}

/** Parse a double vector payload (count-prefixed). */
std::vector<double>
parseVector(const std::uint8_t *payload, std::uint64_t len,
            const char *what, const std::string &origin)
{
    QUAKE_EXPECT(len >= sizeof(std::uint64_t),
                 "checkpoint truncated: " << origin << " section " << what
                                          << " too short for its count");
    std::uint64_t count = 0;
    std::memcpy(&count, payload, sizeof(count));
    QUAKE_EXPECT(len == sizeof(count) + count * sizeof(double),
                 "checkpoint section "
                     << what << " in " << origin << " declares " << count
                     << " doubles but holds "
                     << (len - sizeof(count)) / sizeof(double));
    std::vector<double> v(count);
    std::memcpy(v.data(), payload + sizeof(count),
                count * sizeof(double));
    return v;
}

void
appendVector(std::vector<std::uint8_t> &out, std::uint32_t tag,
             const std::vector<double> &v)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(sizeof(std::uint64_t) + v.size() * sizeof(double));
    const std::uint64_t count = v.size();
    appendBytes(payload, &count, sizeof(count));
    appendBytes(payload, v.data(), v.size() * sizeof(double));
    appendSection(out, tag, payload.data(), payload.size());
}

} // namespace

std::vector<std::uint8_t>
serializeCheckpoint(const Checkpoint &ckpt)
{
    std::vector<std::uint8_t> out;
    const std::size_t dof_bytes = ckpt.state.u.size() * sizeof(double);
    out.reserve(2 * dof_bytes + ckpt.samples.size() * sizeof(sim::FieldSample) +
                256);

    appendBytes(out, kMagic, sizeof(kMagic));
    const std::uint32_t version = kCheckpointVersion;
    appendBytes(out, &version, sizeof(version));

    MetaPayload meta;
    meta.fingerprint = ckpt.fingerprint;
    meta.dt = ckpt.dt;
    meta.plannedSteps = ckpt.plannedSteps;
    meta.steps = ckpt.state.steps;
    appendSection(out, kSecMeta, &meta, sizeof(meta));

    appendVector(out, kSecU, ckpt.state.u);
    appendVector(out, kSecUp, ckpt.state.up);

    StatsPayload stats;
    stats.peak = ckpt.state.partials.peak;
    stats.energy = ckpt.state.partials.energy;
    stats.statsValid = ckpt.state.statsValid ? 1 : 0;
    appendSection(out, kSecStats, &stats, sizeof(stats));

    std::vector<std::uint8_t> report;
    report.reserve(sizeof(double) + sizeof(std::uint64_t) +
                   ckpt.samples.size() * 3 * sizeof(double));
    appendBytes(report, &ckpt.reportPeak, sizeof(ckpt.reportPeak));
    const std::uint64_t nsamples = ckpt.samples.size();
    appendBytes(report, &nsamples, sizeof(nsamples));
    for (const sim::FieldSample &s : ckpt.samples) {
        appendBytes(report, &s.time, sizeof(s.time));
        appendBytes(report, &s.peakDisplacement,
                    sizeof(s.peakDisplacement));
        appendBytes(report, &s.kineticEnergy, sizeof(s.kineticEnergy));
    }
    appendSection(out, kSecReport, report.data(), report.size());
    return out;
}

Checkpoint
parseCheckpoint(const std::vector<std::uint8_t> &bytes,
                const std::string &origin)
{
    Reader r(bytes, origin);

    char magic[8];
    r.read(magic, sizeof(magic), "magic");
    QUAKE_EXPECT(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                 origin << " is not a quake98 checkpoint (bad magic)");

    std::uint32_t version = 0;
    r.read(&version, sizeof(version), "version");
    QUAKE_EXPECT(version == kCheckpointVersion,
                 "unsupported checkpoint version "
                     << version << " in " << origin << " (this build reads "
                     << kCheckpointVersion << ")");

    Checkpoint ckpt;

    std::uint64_t len = 0;
    const std::uint8_t *p = readSection(r, kSecMeta, len, origin);
    QUAKE_EXPECT(len == sizeof(MetaPayload),
                 "checkpoint META section in " << origin << " has "
                                               << len << " bytes, expected "
                                               << sizeof(MetaPayload));
    MetaPayload meta;
    std::memcpy(&meta, p, sizeof(meta));
    ckpt.fingerprint = meta.fingerprint;
    ckpt.dt = meta.dt;
    ckpt.plannedSteps = meta.plannedSteps;
    ckpt.state.steps = meta.steps;

    p = readSection(r, kSecU, len, origin);
    ckpt.state.u = parseVector(p, len, "UCUR", origin);
    p = readSection(r, kSecUp, len, origin);
    ckpt.state.up = parseVector(p, len, "UPRV", origin);
    QUAKE_EXPECT(ckpt.state.u.size() == ckpt.state.up.size(),
                 "checkpoint " << origin << " has mismatched field sizes: "
                               << ckpt.state.u.size() << " vs "
                               << ckpt.state.up.size());

    p = readSection(r, kSecStats, len, origin);
    QUAKE_EXPECT(len == sizeof(StatsPayload),
                 "checkpoint STAT section in " << origin << " has "
                                               << len << " bytes, expected "
                                               << sizeof(StatsPayload));
    StatsPayload stats;
    std::memcpy(&stats, p, sizeof(stats));
    ckpt.state.partials.peak = stats.peak;
    ckpt.state.partials.energy = stats.energy;
    ckpt.state.statsValid = stats.statsValid != 0;

    p = readSection(r, kSecReport, len, origin);
    QUAKE_EXPECT(len >= sizeof(double) + sizeof(std::uint64_t),
                 "checkpoint truncated: " << origin
                                          << " RPRT section too short");
    std::memcpy(&ckpt.reportPeak, p, sizeof(double));
    std::uint64_t nsamples = 0;
    std::memcpy(&nsamples, p + sizeof(double), sizeof(nsamples));
    QUAKE_EXPECT(len == sizeof(double) + sizeof(std::uint64_t) +
                            nsamples * 3 * sizeof(double),
                 "checkpoint RPRT section in "
                     << origin << " declares " << nsamples
                     << " samples but its length disagrees");
    const std::uint8_t *sp =
        p + sizeof(double) + sizeof(std::uint64_t);
    ckpt.samples.resize(nsamples);
    for (std::uint64_t i = 0; i < nsamples; ++i) {
        sim::FieldSample &s = ckpt.samples[i];
        std::memcpy(&s.time, sp, sizeof(double));
        std::memcpy(&s.peakDisplacement, sp + sizeof(double),
                    sizeof(double));
        std::memcpy(&s.kineticEnergy, sp + 2 * sizeof(double),
                    sizeof(double));
        sp += 3 * sizeof(double);
    }

    QUAKE_EXPECT(r.atEnd(),
                 "checkpoint has trailing garbage: " << origin
                                                     << " holds "
                                                     << bytes.size() - r.pos()
                                                     << " bytes past the "
                                                        "last section");
    return ckpt;
}

std::size_t
writeCheckpoint(const std::string &path, const Checkpoint &ckpt)
{
    const std::vector<std::uint8_t> bytes = serializeCheckpoint(ckpt);
    common::writeFileAtomic(path, bytes.data(), bytes.size());
    return bytes.size();
}

Checkpoint
readCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string why = common::errnoMessage();
    QUAKE_EXPECT(in.good(),
                 "cannot open checkpoint " << path << ": " << why);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    QUAKE_EXPECT(!in.bad(), "cannot read checkpoint " << path);
    return parseCheckpoint(bytes, path);
}

void
requireCompatible(const Checkpoint &ckpt,
                  const sim::SimulationEngine &engine)
{
    QUAKE_EXPECT(ckpt.fingerprint == engine.fingerprint,
                 "checkpoint fingerprint mismatch: checkpoint was taken "
                 "under config 0x"
                     << std::hex << ckpt.fingerprint
                     << " but the engine was built under 0x"
                     << engine.fingerprint << std::dec
                     << " — refusing to resume against a different "
                        "mesh/partition/matrix/source");
}

Checkpoint
snapshot(const sim::SimulationEngine &engine,
         const sim::SimulationReport &report)
{
    Checkpoint ckpt;
    ckpt.fingerprint = engine.fingerprint;
    ckpt.dt = engine.dt;
    ckpt.plannedSteps = engine.plannedSteps;
    engine.stepper->saveState(ckpt.state);
    ckpt.reportPeak = report.peakDisplacement;
    ckpt.samples = report.samples;
    return ckpt;
}

void
restore(const Checkpoint &ckpt, sim::SimulationEngine &engine,
        sim::SimulationReport &report)
{
    requireCompatible(ckpt, engine);
    engine.stepper->restoreState(ckpt.state);
    report.peakDisplacement = ckpt.reportPeak;
    report.samples = ckpt.samples;
}

std::uint64_t
stateFingerprint(const Checkpoint &ckpt)
{
    std::uint64_t h = common::kFnvOffsetBasis;
    h = common::fnv1aValue(ckpt.state.steps, h);
    h = common::fnv1aVector(ckpt.state.u, h);
    h = common::fnv1aVector(ckpt.state.up, h);
    h = common::fnv1aValue(ckpt.state.partials.peak, h);
    h = common::fnv1aValue(ckpt.state.partials.energy, h);
    h = common::fnv1aValue(ckpt.reportPeak, h);
    for (const sim::FieldSample &s : ckpt.samples) {
        h = common::fnv1aValue(s.time, h);
        h = common::fnv1aValue(s.peakDisplacement, h);
        h = common::fnv1aValue(s.kineticEnergy, h);
    }
    return h;
}

} // namespace quake::resilience
