#include "common/engine_cli.h"

#include "common/error.h"

namespace quake::common
{

EngineCliOptions
parseEngineCli(const Args &args)
{
    EngineCliOptions opt;

    opt.pin = args.has("pin");
    opt.topologySpec = args.get("topology");

    opt.faults = args.has("faults");
    opt.faultSeed =
        static_cast<std::uint64_t>(args.getInt("seed", 0x5eed));
    opt.dropRate = args.getDouble("drop-rate", 1e-3);
    if (opt.faults)
        QUAKE_EXPECT(opt.dropRate >= 0.0 && opt.dropRate <= 1.0,
                     "--drop-rate must be in [0, 1], got "
                         << opt.dropRate);

    opt.hasDeadlineMs = args.has("deadline-ms");
    opt.deadlineMs = args.getDouble("deadline-ms", 0.0);
    if (opt.hasDeadlineMs)
        QUAKE_EXPECT(opt.deadlineMs > 0,
                     "--deadline-ms must be positive, got "
                         << opt.deadlineMs);
    opt.retryBudget = args.getInt("retry-budget", 3);
    QUAKE_EXPECT(opt.retryBudget >= 1,
                 "--retry-budget must be >= 1, got " << opt.retryBudget);

    opt.tracePath = args.get("trace");
    opt.metricsPath = args.get("metrics");
    opt.sampleEvery = args.getInt("sample-every", 16);
    QUAKE_EXPECT(opt.sampleEvery >= 1,
                 "--sample-every must be >= 1, got " << opt.sampleEvery);

    return opt;
}

} // namespace quake::common
