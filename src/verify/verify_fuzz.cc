/**
 * @file
 * verify_fuzz — the property-fuzzing driver (DESIGN.md §10).
 *
 *   verify_fuzz                       # whole catalogue, 64 trials each
 *   verify_fuzz --trials 1000        # nightly depth
 *   verify_fuzz --property X --seed 0x1234 --size 2   # replay a failure
 *   verify_fuzz --list               # catalogue with one-line summaries
 *
 * Exit codes: 0 = all properties passed, 1 = at least one failure
 * (a reproducer line is printed per failure), 2 = usage error.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/allocation_counter.h"
#include "verify/fuzz.h"
#include "verify/oracles.h"

namespace
{

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--property NAME]... [--trials N] [--seed S] [--size Z]\n"
        << "       [--threads t1,t2,...] [--list]\n"
        << "  --property NAME   run only NAME (repeatable)\n"
        << "  --trials N        trials per property (default 64)\n"
        << "  --seed S          replay one literal seed (hex 0x.. or "
           "decimal)\n"
        << "  --size Z          input size 0..4 for --seed replays "
           "(default 3)\n"
        << "  --threads LIST    thread counts to sweep (default "
           "1,2,4,8)\n"
        << "  --list            print the property catalogue and exit\n";
    return 2;
}

bool
parseU64(const std::string &s, std::uint64_t *out)
{
    try
    {
        std::size_t pos = 0;
        *out = std::stoull(s, &pos, 0); // base 0: accepts 0x.. and dec
        return pos == s.size();
    }
    catch (const std::exception &)
    {
        return false;
    }
}

bool
parseThreads(const std::string &s, std::vector<int> *out)
{
    out->clear();
    std::string token;
    for (std::size_t i = 0; i <= s.size(); ++i)
    {
        if (i == s.size() || s[i] == ',')
        {
            if (token.empty())
                return false;
            const int t = std::atoi(token.c_str());
            if (t < 1)
                return false;
            out->push_back(t);
            token.clear();
        }
        else
        {
            token += s[i];
        }
    }
    return !out->empty();
}

} // namespace

int
main(int argc, char **argv)
{
    quake::verify::FuzzOptions options;
    options.out = &std::cout;

    for (int i = 1; i < argc; ++i)
    {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--list")
        {
            for (const quake::verify::Property &p :
                 quake::verify::allProperties())
                std::cout << p.name << "\n    " << p.summary << "\n";
            return 0;
        }
        if (arg == "--property")
        {
            const char *v = next();
            if (v == nullptr)
                return usage(argv[0]);
            options.properties.emplace_back(v);
        }
        else if (arg == "--trials")
        {
            const char *v = next();
            if (v == nullptr || std::atoi(v) < 1)
                return usage(argv[0]);
            options.trials = std::atoi(v);
        }
        else if (arg == "--seed")
        {
            const char *v = next();
            std::uint64_t seed = 0;
            if (v == nullptr || !parseU64(v, &seed))
                return usage(argv[0]);
            options.explicitSeed = static_cast<std::int64_t>(seed);
        }
        else if (arg == "--size")
        {
            const char *v = next();
            if (v == nullptr)
                return usage(argv[0]);
            const int size = std::atoi(v);
            if (size < 0 || size > quake::verify::TrialConfig::kMaxSize)
                return usage(argv[0]);
            options.explicitSize = size;
        }
        else if (arg == "--threads")
        {
            const char *v = next();
            if (v == nullptr || !parseThreads(v, &options.threads))
                return usage(argv[0]);
        }
        else
        {
            std::cerr << "unknown flag: " << arg << "\n";
            return usage(argv[0]);
        }
    }

    quake::verify::setAllocationCounter(
        &quake::common::allocationCounter());
    const quake::verify::FuzzReport report = quake::verify::runFuzz(options);
    quake::verify::setAllocationCounter(nullptr);

    if (!report.passed())
    {
        std::cout << "\n" << report.failures.size()
                  << " failing propert"
                  << (report.failures.size() == 1 ? "y" : "ies") << ":\n";
        for (const quake::verify::FuzzFailure &f : report.failures)
        {
            std::cout << "  " << f.property << ": " << f.message << "\n";
            if (!f.reproducer.empty())
                std::cout << "    reproduce: " << f.reproducer << "\n";
        }
        return 1;
    }
    std::cout << "\nall " << report.propertiesRun << " properties passed ("
              << report.trialsRun << " trials)\n";
    return 0;
}
