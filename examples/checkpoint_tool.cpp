/**
 * @file
 * Checkpoint inspection and corruption harness (DESIGN.md §11).  Runs a
 * small deterministic scenario, snapshots it from the run loop's step
 * observer, then either proves the round trip (--mode roundtrip) or
 * damages the file in one precisely targeted way and attempts to load
 * it — the loader must refuse each corruption class with its own
 * FatalError message, which the resilience rejection ctests match
 * textually.
 *
 * Usage: checkpoint_tool --mode MODE [--dir DIR]
 *
 * Modes: roundtrip (exit 0), truncate, magic, version, bitflip-meta,
 * bitflip-u, bitflip-uprev, bitflip-stat, bitflip-rprt, trailing,
 * fingerprint (each exits 1 with a distinct "fatal: ..." line).
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "common/args.h"
#include "common/atomic_file.h"
#include "common/error.h"
#include "mesh/generator.h"
#include "mesh/soil_model.h"
#include "quake/simulation.h"
#include "resilience/checkpoint.h"

namespace
{

using namespace quake;

/** The fixed scenario every mode shares: tiny lattice, short run. */
sim::SimulationConfig
scenarioConfig()
{
    sim::SimulationConfig config;
    // A duration long enough that the 12-step cap is the binding limit
    // regardless of the lattice's stable dt.
    config.durationSeconds = 1000.0;
    config.maxSteps = 12;
    config.sampleInterval = 3;
    config.numPes = 2;
    config.smvpThreads = 2;
    return config;
}

/** Run the scenario, capturing its snapshot at step 6. */
resilience::Checkpoint
makeCheckpoint(const mesh::TetMesh &mesh, const mesh::SoilModel &model)
{
    const sim::SimulationConfig config = scenarioConfig();
    sim::SimulationEngine engine =
        sim::makeSimulationEngine(mesh, model, config);
    sim::SimulationReport report;
    report.dt = engine.dt;

    resilience::Checkpoint mid;
    sim::advanceSimulation(engine, config, report, [&](std::int64_t step) {
        if (step == 6)
            mid = resilience::snapshot(engine, report);
    });
    QUAKE_EXPECT(mid.state.steps == 6,
                 "scenario produced no checkpoint at step 6");
    return mid;
}

/** Byte offset of the first payload byte of the tagged section. */
std::size_t
payloadOffset(const std::vector<std::uint8_t> &bytes, std::uint32_t tag)
{
    std::size_t pos = 8 + 4; // magic + version
    while (pos + 20 <= bytes.size()) {
        std::uint32_t t = 0;
        std::uint64_t len = 0;
        std::memcpy(&t, bytes.data() + pos, sizeof(t));
        std::memcpy(&len, bytes.data() + pos + 4, sizeof(len));
        if (t == tag)
            return pos + 20;
        pos += 20 + len;
    }
    QUAKE_PANIC("section not found in serialized checkpoint");
}

int
run(int argc, char **argv)
{
    const common::Args args(argc, argv);
    const std::string mode = args.get("mode", "roundtrip");
    const std::string dir = args.get("dir", "/tmp");
    args.rejectUnread();
    const std::string path = dir + "/checkpoint_tool_" + mode + ".ckpt";

    const mesh::Aabb box{{0, 0, 0}, {4.0, 4.0, 2.0}};
    const mesh::UniformModel model(box, 1.0);
    const mesh::TetMesh mesh = mesh::buildKuhnLattice(box, 2, 2, 2);

    const resilience::Checkpoint ckpt = makeCheckpoint(mesh, model);
    std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(ckpt);

    if (mode == "roundtrip") {
        resilience::writeCheckpoint(path, ckpt);
        const resilience::Checkpoint back =
            resilience::readCheckpoint(path);
        QUAKE_EXPECT(resilience::stateFingerprint(back) ==
                         resilience::stateFingerprint(ckpt),
                     "round trip changed the state fingerprint");
        QUAKE_EXPECT(back.state.u == ckpt.state.u &&
                         back.state.up == ckpt.state.up &&
                         back.state.steps == ckpt.state.steps,
                     "round trip changed the integrator state");
        std::cout << "roundtrip ok: " << bytes.size() << " bytes, step "
                  << back.state.steps << ", state fingerprint 0x"
                  << std::hex << resilience::stateFingerprint(back)
                  << std::dec << "\n";
        std::remove(path.c_str());
        return 0;
    }

    if (mode == "fingerprint") {
        // A checkpoint from a *different* scenario config: same DOF
        // count, different damping — only the fingerprint guard can
        // tell them apart.
        sim::SimulationConfig other = scenarioConfig();
        other.dampingA0 = 0.25;
        sim::SimulationEngine engine =
            sim::makeSimulationEngine(mesh, model, other);
        resilience::requireCompatible(ckpt, engine); // throws
        QUAKE_PANIC("fingerprint mismatch was not refused");
    }

    // File-level corruptions: damage the serialized image, write it,
    // and try to load it back — readCheckpoint must throw.
    if (mode == "truncate") {
        bytes.resize(bytes.size() / 2);
    } else if (mode == "magic") {
        bytes[0] ^= 0xFF;
    } else if (mode == "version") {
        bytes[8] += 1; // little-endian low byte of the version u32
    } else if (mode == "bitflip-meta") {
        bytes[payloadOffset(bytes, 0x4d455441)] ^= 0x01;
    } else if (mode == "bitflip-u") {
        bytes[payloadOffset(bytes, 0x55435552) + 9] ^= 0x10;
    } else if (mode == "bitflip-uprev") {
        bytes[payloadOffset(bytes, 0x55505256) + 9] ^= 0x10;
    } else if (mode == "bitflip-stat") {
        bytes[payloadOffset(bytes, 0x53544154)] ^= 0x20;
    } else if (mode == "bitflip-rprt") {
        bytes[payloadOffset(bytes, 0x52505254)] ^= 0x20;
    } else if (mode == "trailing") {
        bytes.push_back(0xAB);
    } else {
        QUAKE_EXPECT(false, "unknown --mode " << mode);
    }
    common::writeFileAtomic(path, bytes.data(), bytes.size());
    const resilience::Checkpoint loaded =
        resilience::readCheckpoint(path); // must throw
    std::remove(path.c_str());
    QUAKE_PANIC("corrupted checkpoint (mode " + mode +
                ") was accepted at step " +
                std::to_string(loaded.state.steps));
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const quake::common::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
