#include "arch/mesi_hierarchy.h"

#include <algorithm>

#include "common/error.h"

namespace quake::arch
{

namespace
{

/** Widest line the 64-bit written-word mask can describe (64 words). */
constexpr int kMaxLineBytes = 64 * 8;

bool
isPowerOfTwo(std::int64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

int
log2OfPowerOfTwo(std::int64_t v)
{
    int shift = 0;
    while ((std::int64_t{1} << shift) < v)
        ++shift;
    return shift;
}

} // namespace

// ------------------------------------------------------------- config

std::int64_t
CacheConfig::numSets() const
{
    return sizeBytes / (static_cast<std::int64_t>(lineBytes) *
                        associativity);
}

void
CacheConfig::validate() const
{
    QUAKE_EXPECT(sizeBytes > 0, "cache size must be positive");
    QUAKE_EXPECT(lineBytes > 0, "line size must be positive");
    QUAKE_EXPECT(associativity > 0, "associativity must be positive");
    QUAKE_EXPECT(isPowerOfTwo(lineBytes),
                 "line size must be a power of two");
    QUAKE_EXPECT(sizeBytes % (static_cast<std::int64_t>(lineBytes) *
                              associativity) ==
                     0,
                 "size must be a multiple of line * associativity");
    QUAKE_EXPECT(isPowerOfTwo(numSets()),
                 "set count must be a power of two");
}

void
MesiHierarchyConfig::validate() const
{
    QUAKE_EXPECT(numPes >= 1, "PE count must be positive");
    QUAKE_EXPECT(numPes <= 32,
                 "PE count must be at most 32 (sharer bitmask width)");
    l1.validate();
    l2.validate();
    if (hasLlc)
        llc.validate();
    QUAKE_EXPECT(l1HitSeconds > 0, "L1 hit latency must be positive");
    QUAKE_EXPECT(l2HitSeconds > 0, "L2 hit latency must be positive");
    if (hasLlc)
        QUAKE_EXPECT(llcHitSeconds > 0,
                     "LLC hit latency must be positive");
    QUAKE_EXPECT(dramSeconds > 0, "DRAM latency must be positive");
    QUAKE_EXPECT(coherenceSeconds >= 0,
                 "coherence service time must be nonnegative");
    QUAKE_EXPECT(l1.lineBytes == l2.lineBytes &&
                     (!hasLlc || l2.lineBytes == llc.lineBytes),
                 "line sizes must match across levels");
    QUAKE_EXPECT(l1.lineBytes <= kMaxLineBytes,
                 "line size must be at most 512 bytes (written-word "
                 "mask width)");
}

MesiHierarchyConfig
MesiHierarchyConfig::t3e1998(int num_pes)
{
    MesiHierarchyConfig c;
    c.numPes = num_pes;
    c.l1 = CacheConfig{8 * 1024, 32, 1};   // 21164 8KB direct Dcache
    c.l2 = CacheConfig{96 * 1024, 32, 3};  // 96KB 3-way Scache
    c.hasLlc = false;
    c.l1HitSeconds = 3.3e-9;  // ~1 cycle at 300 MHz
    c.l2HitSeconds = 20e-9;
    c.dramSeconds = 100e-9;   // §4.3's 70-100 ns cache-line block
    c.coherenceSeconds = 100e-9;
    return c;
}

MesiHierarchyConfig
MesiHierarchyConfig::nehalemCmp(int num_pes)
{
    MesiHierarchyConfig c;
    c.numPes = num_pes; // procsPerNode = 4 in the nehalem conf
    c.l1 = CacheConfig{32 * 1024, 64, 8};
    c.l2 = CacheConfig{256 * 1024, 64, 8};
    c.llc = CacheConfig{8 * 1024 * 1024, 64, 16};
    c.hasLlc = true;
    // Cycle counts at the conf's 2.93 GHz: 4 / 10 / 38 cycles.
    c.l1HitSeconds = 1.4e-9;
    c.l2HitSeconds = 3.4e-9;
    c.llcHitSeconds = 13e-9;
    c.dramSeconds = 65e-9;
    c.coherenceSeconds = 20e-9;
    return c;
}

// -------------------------------------------------------------- stats

std::int64_t
MesiStats::totalAccesses() const
{
    std::int64_t t = 0;
    for (const PeStats &p : pe)
        t += p.accesses;
    return t;
}

std::int64_t
MesiStats::totalL1Misses() const
{
    std::int64_t t = 0;
    for (const PeStats &p : pe)
        t += p.l1Misses;
    return t;
}

std::int64_t
MesiStats::totalL2Misses() const
{
    std::int64_t t = 0;
    for (const PeStats &p : pe)
        t += p.l2Misses;
    return t;
}

std::int64_t
MesiStats::totalCoherenceMisses() const
{
    std::int64_t t = 0;
    for (const PeStats &p : pe)
        t += p.coherenceMisses;
    return t;
}

double
MesiStats::maxPeSeconds() const
{
    double m = 0.0;
    for (const PeStats &p : pe)
        m = std::max(m, p.seconds);
    return m;
}

// ------------------------------------------------------- PrivateCache

void
MesiHierarchySim::PrivateCache::init(const CacheConfig &config)
{
    num_sets_ = config.numSets();
    assoc_ = config.associativity;
    lines_.assign(static_cast<std::size_t>(num_sets_ * assoc_), kNoLine);
    lru_.assign(lines_.size(), 0);
    tick_ = 0;
}

bool
MesiHierarchySim::PrivateCache::lookup(std::uint64_t line)
{
    const std::size_t base = static_cast<std::size_t>(
        (line & static_cast<std::uint64_t>(num_sets_ - 1)) *
        static_cast<std::uint64_t>(assoc_));
    for (int w = 0; w < assoc_; ++w) {
        if (lines_[base + w] == line) {
            lru_[base + w] = ++tick_;
            return true;
        }
    }
    return false;
}

std::uint64_t
MesiHierarchySim::PrivateCache::insert(std::uint64_t line)
{
    const std::size_t base = static_cast<std::size_t>(
        (line & static_cast<std::uint64_t>(num_sets_ - 1)) *
        static_cast<std::uint64_t>(assoc_));
    int victim = 0;
    std::uint32_t oldest = ~0u;
    for (int w = 0; w < assoc_; ++w) {
        if (lines_[base + w] == line) { // already present: refresh
            lru_[base + w] = ++tick_;
            return kNoLine;
        }
        if (lines_[base + w] == kNoLine) {
            if (oldest != 0) { // prefer an empty way
                victim = w;
                oldest = 0;
            }
        } else if (lru_[base + w] < oldest) {
            victim = w;
            oldest = lru_[base + w];
        }
    }
    const std::uint64_t evicted = lines_[base + victim];
    lines_[base + victim] = line;
    lru_[base + victim] = ++tick_;
    return evicted;
}

void
MesiHierarchySim::PrivateCache::invalidate(std::uint64_t line)
{
    const std::size_t base = static_cast<std::size_t>(
        (line & static_cast<std::uint64_t>(num_sets_ - 1)) *
        static_cast<std::uint64_t>(assoc_));
    for (int w = 0; w < assoc_; ++w) {
        if (lines_[base + w] == line) {
            lines_[base + w] = kNoLine;
            lru_[base + w] = 0;
            return;
        }
    }
}

// ---------------------------------------------------- MesiHierarchySim

MesiHierarchySim::MesiHierarchySim(const MesiHierarchyConfig &config)
    : config_(config)
{
    config_.validate();
    line_shift_ = log2OfPowerOfTwo(config_.l1.lineBytes);
    reset();
}

void
MesiHierarchySim::reset()
{
    const std::size_t n = static_cast<std::size_t>(config_.numPes);
    l1_.assign(n, PrivateCache{});
    l2_.assign(n, PrivateCache{});
    for (std::size_t p = 0; p < n; ++p) {
        l1_[p].init(config_.l1);
        l2_[p].init(config_.l2);
    }
    if (config_.hasLlc)
        llc_.init(config_.llc);
    directory_.clear();
    touched_.assign(n, {});
    lost_.assign(n, {});
    stats_ = MesiStats{};
    stats_.pe.assign(n, PeStats{});
}

std::uint64_t
MesiHierarchySim::wordMask(std::uint64_t address, int bytes) const
{
    const std::uint64_t offset =
        address & static_cast<std::uint64_t>(config_.l1.lineBytes - 1);
    std::uint64_t first = offset >> 3;
    std::uint64_t last = (offset + static_cast<std::uint64_t>(bytes) - 1)
                         >> 3;
    const std::uint64_t words =
        static_cast<std::uint64_t>(config_.l1.lineBytes) >> 3;
    last = std::min(last, words - 1);
    std::uint64_t mask = 0;
    for (std::uint64_t w = first; w <= last; ++w)
        mask |= std::uint64_t{1} << w;
    return mask;
}

void
MesiHierarchySim::read(int pe, std::uint64_t address, int bytes)
{
    access(pe, address, bytes, false);
}

void
MesiHierarchySim::write(int pe, std::uint64_t address, int bytes)
{
    access(pe, address, bytes, true);
}

void
MesiHierarchySim::dropFromPe(int pe, std::uint64_t line,
                             bool by_remote_write,
                             std::uint64_t written_words)
{
    l1_[static_cast<std::size_t>(pe)].invalidate(line);
    l2_[static_cast<std::size_t>(pe)].invalidate(line);
    auto it = directory_.find(line);
    if (it != directory_.end()) {
        it->second.sharers &= ~(1u << pe);
        if (it->second.owner == pe) {
            it->second.owner = -1;
            it->second.writtenWords = 0;
        }
    }
    lost_[static_cast<std::size_t>(pe)][line] =
        LossRecord{by_remote_write, written_words};
}

void
MesiHierarchySim::fillPrivate(int pe, std::uint64_t line)
{
    const std::size_t p = static_cast<std::size_t>(pe);
    const std::uint64_t ev2 = l2_[p].insert(line);
    if (ev2 != PrivateCache::kNoLine) {
        // Inclusion: an L2 victim leaves L1 too, and this PE stops
        // being a sharer of it.
        l1_[p].invalidate(ev2);
        auto it = directory_.find(ev2);
        if (it != directory_.end()) {
            it->second.sharers &= ~(1u << pe);
            if (it->second.owner == pe) {
                it->second.owner = -1;
                it->second.writtenWords = 0;
                ++stats_.pe[p].writebacks;
                if (!config_.hasLlc)
                    stats_.bytesFromDram += config_.l2.lineBytes;
                // With an LLC the dirty victim is absorbed there
                // (strictly inclusive shared level, already present).
            }
        }
        lost_[p][ev2] = LossRecord{false, 0};
    }
    l1_[p].insert(line); // L1 victims stay in L2: presence unchanged
}

void
MesiHierarchySim::fillLlc(std::uint64_t line)
{
    const std::uint64_t ev = llc_.insert(line);
    if (ev == PrivateCache::kNoLine || ev == line)
        return;
    // Back-invalidate the inclusive victim everywhere.
    auto vit = directory_.find(ev);
    if (vit == directory_.end())
        return;
    const std::uint32_t sharers = vit->second.sharers;
    if (vit->second.owner >= 0) {
        ++stats_.pe[static_cast<std::size_t>(vit->second.owner)]
              .writebacks;
        stats_.bytesFromDram += config_.l2.lineBytes;
    }
    for (int o = 0; o < config_.numPes; ++o)
        if (sharers & (1u << o))
            dropFromPe(o, ev, false, 0);
    directory_.erase(ev);
}

void
MesiHierarchySim::access(int pe, std::uint64_t address, int bytes,
                         bool is_write)
{
    QUAKE_EXPECT(pe >= 0 && pe < config_.numPes,
                 "PE id out of range for this hierarchy");
    QUAKE_EXPECT(bytes > 0, "access size must be positive");
    const std::size_t p = static_cast<std::size_t>(pe);
    PeStats &ps = stats_.pe[p];
    const std::uint64_t line = address >> line_shift_;
    const std::uint64_t req_words = wordMask(address, bytes);
    const std::uint32_t pe_bit = 1u << pe;

    ++ps.accesses;
    if (is_write)
        ++ps.writes;
    else
        ++ps.reads;
    ps.seconds += config_.l1HitSeconds;

    const bool l1_hit = l1_[p].lookup(line);
    bool present = l1_hit;
    if (!l1_hit) {
        ++ps.l1Misses;
        ps.seconds += config_.l2HitSeconds;
        if (l2_[p].lookup(line)) {
            present = true;
            l1_[p].insert(line); // refill L1 from L2
        }
    }

    if (present) {
        if (!is_write)
            return;
        // Write hit: silent when already Modified/Exclusive, an
        // upgrade (invalidate remote sharers) when Shared.
        DirEntry &d = directory_[line];
        if (d.owner == pe) {
            d.writtenWords |= req_words;
            return;
        }
        const std::uint32_t others = d.sharers & ~pe_bit;
        if (others != 0) {
            ps.seconds += config_.coherenceSeconds;
            ++ps.upgrades;
            for (int o = 0; o < config_.numPes; ++o) {
                if ((others & (1u << o)) == 0)
                    continue;
                dropFromPe(o, line, true, req_words);
                ++stats_.pe[static_cast<std::size_t>(o)]
                      .invalidationsReceived;
            }
        }
        d.owner = pe;
        d.sharers = pe_bit;
        d.writtenWords = req_words;
        return;
    }

    // Private-hierarchy miss: classify, then service at the shared
    // level.  Classification priority: serviced-by-remote-dirty and
    // lost-to-remote-write are coherence (the communication misses
    // the paper's §4.3 block latencies price); untouched lines are
    // cold; the rest are capacity/conflict.
    ++ps.l2Misses;
    DirEntry &d = directory_[line];
    const bool remote_dirty = d.owner >= 0 && d.owner != pe;

    auto lost_it = lost_[p].find(line);
    const bool lost_to_write =
        lost_it != lost_[p].end() && lost_it->second.byRemoteWrite;
    if (remote_dirty || lost_to_write) {
        ++ps.coherenceMisses;
        const std::uint64_t writer_words =
            remote_dirty ? d.writtenWords : lost_it->second.writtenWords;
        if ((writer_words & req_words) != 0)
            ++ps.trueSharingMisses;
        else
            ++ps.falseSharingMisses;
    } else if (touched_[p].find(line) == touched_[p].end()) {
        ++ps.coldMisses;
    } else {
        ++ps.capacityMisses;
    }
    touched_[p][line] = 1;
    if (lost_it != lost_[p].end())
        lost_[p].erase(lost_it);

    if (remote_dirty) {
        // Cache-to-cache service: the owner writes back and either
        // downgrades to Shared (read) or is invalidated (write).
        const int owner = d.owner;
        ps.seconds += config_.coherenceSeconds;
        ++stats_.pe[static_cast<std::size_t>(owner)].writebacks;
        if (config_.hasLlc) {
            fillLlc(line);
        } else {
            stats_.bytesFromDram += config_.l2.lineBytes; // writeback
        }
        if (is_write) {
            dropFromPe(owner, line, true, req_words);
            ++stats_.pe[static_cast<std::size_t>(owner)]
                  .invalidationsReceived;
            d.owner = pe;
            d.sharers = pe_bit;
            d.writtenWords = req_words;
        } else {
            d.owner = -1;
            d.writtenWords = 0;
            d.sharers |= pe_bit;
        }
        fillPrivate(pe, line);
        return;
    }

    // Clean (or absent) line: service from the LLC or DRAM.
    if (config_.hasLlc) {
        ++stats_.llcAccesses;
        ps.seconds += config_.llcHitSeconds;
        if (!llc_.lookup(line)) {
            ++ps.llcMisses;
            ++stats_.llcMisses;
            ps.seconds += config_.dramSeconds;
            stats_.bytesFromDram += config_.llc.lineBytes;
            fillLlc(line);
        }
    } else {
        ps.seconds += config_.dramSeconds;
        stats_.bytesFromDram += config_.l2.lineBytes;
    }

    if (is_write) {
        const std::uint32_t others = d.sharers & ~pe_bit;
        if (others != 0) {
            ps.seconds += config_.coherenceSeconds;
            for (int o = 0; o < config_.numPes; ++o) {
                if ((others & (1u << o)) == 0)
                    continue;
                dropFromPe(o, line, true, req_words);
                ++stats_.pe[static_cast<std::size_t>(o)]
                      .invalidationsReceived;
            }
        }
        d.owner = pe;
        d.sharers = pe_bit;
        d.writtenWords = req_words;
    } else {
        d.sharers |= pe_bit;
    }
    fillPrivate(pe, line);
}

} // namespace quake::arch
