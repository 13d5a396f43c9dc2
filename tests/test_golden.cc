/**
 * @file
 * Golden output table: the FNV-1a-64 digest of each pinned run's
 * result document (renderRunJson) followed by its sample-log CSV.
 *
 * The runs are the six benchmarks on both CPU models plus jess under
 * the configurations that exercise each core's unusual paths. For the
 * superscalar core: a window that is not a power of two, a window
 * wider than one 64-bit word, DVFS throttling, a spin-down disk and
 * disk faults. For the in-order core: a sample window that is not a
 * round number, a long memory latency, small and mid-sized TLBs,
 * halted idle, DVFS throttling, and four runs cut short. Of those,
 * deadline_s=0.00041 and max_cycles=70001 expire part-way through a
 * multi-cycle instruction, deadline_s=0.0004 expires between two
 * instructions, and max_cycles=150001 is overshot by an idle
 * fast-forward. One in-order row autosaves every 40k cycles: each
 * autosave squashes the instruction in flight, so its digest pins the
 * ticks at which checkpoints are taken, and the row also pins the
 * digest of its final autosave file (the checkpoint format itself).
 * Any change to a
 * simulated output changes a digest. On a mismatch the test names the
 * run and prints the whole recomputed table; a deliberate regeneration
 * replaces the table below with that output and says why in
 * CHANGES.md.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"

using namespace softwatt;

namespace
{

constexpr double goldenScale = 0.02;

struct GoldenRun
{
    const char *bench;
    const char *args;  ///< Space-separated key=value assignments.
    std::uint64_t digest;
    RunOutcome outcome = RunOutcome::Completed;
    /** FNV-1a-64 of the final autosave file; rows that autosave. */
    std::uint64_t autosaveDigest = 0;
};

// clang-format off
const GoldenRun goldenTable[] = {
    {"compress", "cpu.model=superscalar", 0x029c9890be7d1c13ull},
    {"jess", "cpu.model=superscalar", 0x21d6013be1403281ull},
    {"db", "cpu.model=superscalar", 0x3ed0e15301ea0236ull},
    {"javac", "cpu.model=superscalar", 0x37c807d0c0136c37ull},
    {"mtrt", "cpu.model=superscalar", 0xc06e64c87ef2ab99ull},
    {"jack", "cpu.model=superscalar", 0xce5037cda4769a6dull},
    {"compress", "cpu.model=inorder", 0xf186b4820f38f6caull},
    {"jess", "cpu.model=inorder", 0xd98d21d0c32512f3ull},
    {"db", "cpu.model=inorder", 0x21e378399beb0096ull},
    {"javac", "cpu.model=inorder", 0x4348fdc9d00f112eull},
    {"mtrt", "cpu.model=inorder", 0x873c708b023e83bbull},
    {"jack", "cpu.model=inorder", 0x00ad1ce77984d0f4ull},
    {"jess", "cpu.model=superscalar cpu.inst_window=48", 0x7d0c11fe573c349aull},
    {"jess", "cpu.model=superscalar cpu.inst_window=128", 0xad6dda5ee24eece8ull},
    {"jess", "cpu.model=superscalar dvfs=1 power_budget_w=6", 0x478d4140fcd3fa2bull},
    {"jess", "cpu.model=superscalar disk.config=spindown disk.threshold_s=0.001", 0x378c18ef87c14afcull},
    {"jess", "cpu.model=superscalar disk.fault.enabled=1 disk.fault.transient_rate=0.2", 0x2055b0d968647c87ull},
    {"jess", "cpu.model=inorder sample_window=997", 0xca7e876264d5f95aull},
    {"jess", "cpu.model=inorder mem.latency=300", 0xbdfad31dc665e09dull},
    {"jess", "cpu.model=inorder tlb.entries=8", 0x759f22f9b9df1144ull},
    {"jess", "cpu.model=inorder tlb.entries=48", 0xf6a04c9c02c3142bull},
    {"jess", "cpu.model=inorder halt_on_idle=1", 0xb81a3e71f6b97aa5ull},
    {"jess", "cpu.model=inorder dvfs=1 power_budget_w=6", 0x42be1c977da7d0abull},
    {"jess", "cpu.model=inorder deadline_s=0.0004", 0x53f5316f1d99f254ull, RunOutcome::DeadlineExceeded},
    {"jess", "cpu.model=inorder max_cycles=150001", 0xd1ac3ed6c01a1f11ull, RunOutcome::WatchdogExpired},
    {"jess", "cpu.model=inorder deadline_s=0.00041", 0xe3902fa82f9b6b27ull, RunOutcome::DeadlineExceeded},
    {"jess", "cpu.model=inorder max_cycles=70001", 0x23af39cb68b8217full, RunOutcome::WatchdogExpired},
    {"jess", "cpu.model=inorder checkpoint_every_s=0.0002", 0x9649ee3219cb64ffull, RunOutcome::Completed, 0x9783f496ca07534cull},
};
// clang-format on

std::string
label(const GoldenRun &g)
{
    return std::string(g.bench) + " " + g.args;
}

/** Autosave file of the row that checkpoints (removed after it). */
const std::string goldenAutosave = "golden_autosave.ckpt";

/**
 * The row's machine configuration. deadline_s and checkpoint_every_s
 * are runner keys (ExperimentSpec::fromArgs), read here before
 * fromConfig as a harness would; the autosave cadence goes to
 * @p options when given.
 */
SystemConfig
configFor(const GoldenRun &g, RunOptions *options = nullptr)
{
    Config config;
    std::istringstream words(g.args);
    std::string word;
    while (words >> word) {
        if (!config.parseAssignment(word))
            ADD_FAILURE() << "bad golden assignment '" << word << "'";
    }
    double deadline_s = config.getDouble("deadline_s", 0.0);
    double every_s = config.getDouble("checkpoint_every_s", 0.0);
    if (options && every_s > 0) {
        options->checkpointEverySeconds = every_s;
        options->checkpointPath = goldenAutosave;
    }
    SystemConfig system = SystemConfig::fromConfig(config);
    system.deadlineSeconds = deadline_s;
    return system;
}

/** FNV-1a-64 of a whole file; 0 when it cannot be read. */
std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string text = bytes.str();
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(text.data()),
                   text.size());
}

std::uint64_t
digestOf(const BenchmarkRun &run)
{
    std::ostringstream bytes;
    bytes << renderRunJson(run);
    run.system->log().writeCsv(bytes);
    const std::string text = bytes.str();
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(text.data()),
                   text.size());
}

std::string
hex64(std::uint64_t value)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string("0x") + hex + "ull";
}

/** One table row in the source form of goldenTable. */
std::string
row(const GoldenRun &g, std::uint64_t digest,
    std::uint64_t autosave_digest)
{
    std::string outcome;
    if (g.outcome == RunOutcome::WatchdogExpired)
        outcome = ", RunOutcome::WatchdogExpired";
    else if (g.outcome == RunOutcome::DeadlineExceeded)
        outcome = ", RunOutcome::DeadlineExceeded";
    else if (autosave_digest != 0)
        outcome = ", RunOutcome::Completed";
    if (autosave_digest != 0)
        outcome += ", " + hex64(autosave_digest);
    return std::string("    {\"") + g.bench + "\", \"" + g.args +
           "\", " + hex64(digest) + outcome + "},\n";
}

} // namespace

TEST(Golden, RunOutputsMatchPinnedDigests)
{
    std::string table;
    bool mismatch = false;
    for (const GoldenRun &g : goldenTable) {
        RunOptions options;
        SystemConfig config = configFor(g, &options);
        BenchmarkRun run = runBenchmark(benchmarkByName(g.bench), config,
                                        goldenScale, options);
        // The final autosave pins the checkpoint bytes, so a format
        // change that forgets to bump checkpointFormatVersion fails
        // here.
        std::uint64_t autosave_digest =
            options.checkpointEverySeconds > 0
                ? fileDigest(goldenAutosave)
                : 0;
        std::remove(goldenAutosave.c_str());
        std::remove(checkpointPreviousGeneration(goldenAutosave).c_str());
        ASSERT_TRUE(run.hasData()) << label(g) << ": "
                                   << run.result.diagnostics;
        ASSERT_EQ(runOutcomeName(run.result.outcome),
                  std::string(runOutcomeName(g.outcome)))
            << label(g) << ": " << run.result.diagnostics;
        if (g.outcome == RunOutcome::Completed) {
            // A core's squash and stall paths are only pinned if they
            // ran: TLB-miss traps, interrupts and the drain before
            // idle fast-forward.
            const System &sys = *run.system;
            EXPECT_GT(sys.tlb().misses(), 0u) << label(g);
            EXPECT_GT(sys.kernel().clockInterrupts(), 0u) << label(g);
            EXPECT_GT(sys.fastForwardedCycles(), 0u) << label(g);
            if (options.checkpointEverySeconds > 0) {
                EXPECT_GT(sys.checkpointsTaken(), 0u) << label(g);
            }
        }
        std::uint64_t digest = digestOf(run);
        if (digest != g.digest) {
            mismatch = true;
            ADD_FAILURE() << "golden digest mismatch for '" << label(g)
                          << "'";
        }
        if (autosave_digest != g.autosaveDigest) {
            mismatch = true;
            ADD_FAILURE() << "autosave digest mismatch for '"
                          << label(g) << "'";
        }
        table += row(g, digest, autosave_digest);
    }
    if (mismatch)
        std::printf("Recomputed golden table:\n%s", table.c_str());
}

TEST(Golden, TruncatedRowsEndInsideAStallSpan)
{
    // The stall-span fold in System::run stops short of the deadline
    // and the watchdog. These two rows test that bound only while
    // each run really ends part-way through a multi-cycle
    // instruction, with quiet cycles still to go.
    struct Cut
    {
        const char *args;
        Tick endTick;
    };
    const Cut cuts[] = {
        {"cpu.model=inorder deadline_s=0.00041", 82'000},
        {"cpu.model=inorder max_cycles=70001", 70'001},
    };
    for (const Cut &cut : cuts) {
        GoldenRun g{"jess", cut.args, 0};
        BenchmarkRun run = runBenchmark(benchmarkByName(g.bench),
                                        configFor(g), goldenScale);
        ASSERT_TRUE(run.hasData()) << cut.args;
        EXPECT_FALSE(run.result.ok()) << cut.args;
        EXPECT_EQ(run.system->now(), cut.endTick) << cut.args;
        EXPECT_GT(run.system->cpu().quietCycles(), 0u) << cut.args;
    }
}
