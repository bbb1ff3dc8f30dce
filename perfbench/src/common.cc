#include <sys/resource.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"

namespace perfbench
{

void
Outcome::check(bool ok, const std::string &what)
{
    attempted += 1;
    if (!ok) {
        failed += 1;
        std::cout << "CHECK FAILED: " << what << "\n";
    }
}

void
Outcome::count(std::int64_t n, std::int64_t bad)
{
    attempted += n;
    failed += bad;
}

namespace
{

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Parse a sysfs cache size such as "2048K" or "300M". */
std::int64_t
parseCacheSize(const std::string &s)
{
    if (s.empty())
        return 0;
    std::int64_t v = 0;
    try {
        v = std::stoll(s);
    } catch (const std::exception &) {
        return 0;
    }
    switch (s.back()) {
    case 'K':
        return v << 10;
    case 'M':
        return v << 20;
    case 'G':
        return v << 30;
    default:
        return v;
    }
}

} // namespace

HostInfo
readHostInfo()
{
    HostInfo h;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        h.affinityCpus = CPU_COUNT(&set);

    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                h.cpuModel = line.substr(colon + 2);
            break;
        }
    }
    if (h.cpuModel.empty())
        h.cpuModel = "unknown";

    // Unified/data caches of cpu0: the largest level is the LLC.
    int llc_level = 0;
    for (int i = 0; i < 16; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        const std::string level = readFirstLine(dir + "/level");
        if (level.empty())
            break;
        if (readFirstLine(dir + "/type") == "Instruction")
            continue;
        const int lv = std::atoi(level.c_str());
        const std::int64_t size = parseCacheSize(readFirstLine(dir + "/size"));
        if (lv == 2)
            h.l2Bytes = size;
        if (lv >= llc_level) {
            llc_level = lv;
            h.llcBytes = size;
        }
    }
    return h;
}

Source
drawSource(std::mt19937_64 &rng, quake::mesh::SfClass cls)
{
    std::uniform_real_distribution<double> xy(10.0, 40.0);
    std::uniform_real_distribution<double> depth(2.0, 9.0);
    std::normal_distribution<double> g(0.0, 1.0);
    Source s;
    s.hypocenter = {xy(rng), xy(rng), depth(rng)};
    const double dx = g(rng), dy = g(rng), dz = g(rng);
    const double n = std::sqrt(dx * dx + dy * dy + dz * dz);
    if (n > 1e-9)
        s.direction = {dx / n, dy / n, dz / n};
    // Resolvable peak frequency; a short delay so the pulse is already
    // large on the first step (the oracle needs a nonzero field).
    s.wavelet.peakFrequencyHz = 0.8 / quake::mesh::sfClassPeriod(cls);
    s.wavelet.delaySeconds = 0.6 / s.wavelet.peakFrequencyHz;
    return s;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

} // namespace perfbench
