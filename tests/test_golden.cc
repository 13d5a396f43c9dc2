/**
 * @file
 * Golden output table: the FNV-1a-64 digest of each pinned run's
 * result document (renderRunJson) followed by its sample-log CSV.
 *
 * The runs are the six benchmarks on both CPU models plus superscalar
 * jess under the configurations that exercise the core's unusual
 * paths: a window that is not a power of two, a window wider than one
 * 64-bit word, DVFS throttling, a spin-down disk and disk faults. Any
 * change to a simulated output changes a digest. On a mismatch the
 * test names the run and prints the whole recomputed table; a
 * deliberate regeneration replaces the table below with that output
 * and says why in CHANGES.md.
 */

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/runner.hh"
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
};
// clang-format on

std::string
label(const GoldenRun &g)
{
    return std::string(g.bench) + " " + g.args;
}

SystemConfig
configFor(const GoldenRun &g)
{
    Config config;
    std::istringstream words(g.args);
    std::string word;
    while (words >> word) {
        if (!config.parseAssignment(word))
            ADD_FAILURE() << "bad golden assignment '" << word << "'";
    }
    return SystemConfig::fromConfig(config);
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

/** One table row in the source form of goldenTable. */
std::string
row(const GoldenRun &g, std::uint64_t digest)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    return std::string("    {\"") + g.bench + "\", \"" + g.args +
           "\", 0x" + hex + "ull},\n";
}

} // namespace

TEST(Golden, RunOutputsMatchPinnedDigests)
{
    std::string table;
    bool mismatch = false;
    for (const GoldenRun &g : goldenTable) {
        SystemConfig config = configFor(g);
        BenchmarkRun run = runBenchmark(benchmarkByName(g.bench), config,
                                        goldenScale);
        ASSERT_TRUE(run.result.ok()) << label(g) << ": "
                                     << run.result.diagnostics;
        if (config.cpuModel == CpuModel::Superscalar) {
            // The core's squash paths are only pinned if they ran:
            // TLB-miss traps, interrupt squashes and the drain before
            // idle fast-forward.
            const System &sys = *run.system;
            EXPECT_GT(sys.tlb().misses(), 0u) << label(g);
            EXPECT_GT(sys.kernel().clockInterrupts(), 0u) << label(g);
            EXPECT_GT(sys.fastForwardedCycles(), 0u) << label(g);
        }
        std::uint64_t digest = digestOf(run);
        if (digest != g.digest) {
            mismatch = true;
            ADD_FAILURE() << "golden digest mismatch for '" << label(g)
                          << "'";
        }
        table += row(g, digest);
    }
    if (mismatch)
        std::printf("Recomputed golden table:\n%s", table.c_str());
}
