/**
 * @file
 * Parameterized disk-policy property sweep: the spin-down trade-off
 * of Section 4 as enforceable invariants over threshold and gap
 * structure, and the whole-system twin runs Figure 9 relies on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hh"
#include "core/invariants.hh"
#include "disk/disk.hh"
#include "sim/event_queue.hh"

using namespace softwatt;

namespace
{

constexpr double freqHz = 200e6;
constexpr double timeScale = 100.0;

Tick
equivSeconds(double s)
{
    return Tick(s / timeScale * freqHz);
}

/** Run a fixed access pattern; returns (energy, end tick). */
struct PatternResult
{
    double energyJ;
    Tick endTick;
    std::uint64_t spinUps;
};

PatternResult
runPattern(DiskConfig config, const std::vector<double> &gap_seconds)
{
    EventQueue queue;
    Disk disk(queue, freqHz, config, timeScale, 42);
    double t = 0.1;
    std::uint64_t block = 1000;
    int completed = 0;
    PatternResult result{0, 0, 0};
    int expected = int(gap_seconds.size());
    for (double gap : gap_seconds) {
        t += gap;
        queue.schedule(equivSeconds(t), [&, block] {
            disk.submit(block, 2, [&](DiskIoStatus) {
                ++completed;
                if (completed == expected) {
                    // Snapshot at the moment the workload would end,
                    // so quiet-tail residency doesn't skew the
                    // comparison.
                    result.energyJ = disk.energyJ();
                    result.endTick = queue.now();
                    result.spinUps = disk.spinUps();
                }
            });
        });
        block += 5000;
    }
    queue.runUntil(equivSeconds(t + 40.0));
    EXPECT_EQ(completed, expected);
    return result;
}

} // namespace

/** Threshold sweep over a fixed pattern of 6-second gaps. */
class ThresholdSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ThresholdSweep, SpinupsBoundedByRequests)
{
    double threshold = GetParam();
    PatternResult r = runPattern(DiskConfig::spindown(threshold),
                                 {6.0, 6.0, 6.0, 6.0});
    EXPECT_LE(r.spinUps, 4u);
}

TEST_P(ThresholdSweep, ManagedNeverWorseThanConventional)
{
    double threshold = GetParam();
    std::vector<double> gaps = {6.0, 6.0, 6.0, 6.0};
    PatternResult managed =
        runPattern(DiskConfig::spindown(threshold), gaps);
    PatternResult conventional =
        runPattern(DiskConfig::conventional(), gaps);
    // The conventional disk burns ACTIVE power the whole time: any
    // managed policy consumes less energy on the same pattern.
    EXPECT_LT(managed.energyJ, conventional.energyJ);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0));

TEST(DiskPolicyProperties, LargerThresholdFewerSpinups)
{
    std::vector<double> gaps = {3.0, 3.0, 3.0, 3.0, 3.0};
    PatternResult t2 = runPattern(DiskConfig::spindown(2.0), gaps);
    PatternResult t4 = runPattern(DiskConfig::spindown(4.0), gaps);
    EXPECT_GE(t2.spinUps, t4.spinUps);
}

TEST(DiskPolicyProperties, ShortGapsFavourNoSpindown)
{
    // Gaps just above the threshold: the paper's thrash case.
    std::vector<double> gaps = {3.0, 3.0, 3.0, 3.0, 3.0};
    PatternResult idle = runPattern(DiskConfig::idleOnly(), gaps);
    PatternResult sd = runPattern(DiskConfig::spindown(2.0), gaps);
    EXPECT_GT(sd.energyJ, idle.energyJ);
    EXPECT_GT(sd.endTick, idle.endTick);  // spin-up stalls
}

TEST(DiskPolicyProperties, LongGapsFavourSpindown)
{
    std::vector<double> gaps = {40.0, 40.0};
    PatternResult idle = runPattern(DiskConfig::idleOnly(), gaps);
    PatternResult sd = runPattern(DiskConfig::spindown(2.0), gaps);
    EXPECT_LT(sd.energyJ, idle.energyJ);
}

TEST(DiskPolicyProperties, IdleOnlyTimingEqualsConventional)
{
    // The IDLE transition is free and instantaneous: request timing
    // is identical to the unmanaged disk (why the paper drops the
    // baseline from the performance comparison).
    std::vector<double> gaps = {2.0, 5.0, 1.0};
    PatternResult idle = runPattern(DiskConfig::idleOnly(), gaps);
    PatternResult conv = runPattern(DiskConfig::conventional(), gaps);
    EXPECT_EQ(idle.endTick, conv.endTick);
}

namespace
{

/** Runs of @p config under the conventional and IDLE-only disks. */
struct TwinRuns
{
    BenchmarkRun conventional;
    BenchmarkRun idle;
};

TwinRuns
runTwins(Benchmark bench, const SystemConfig &config, double scale)
{
    SystemConfig conventional = config;
    conventional.diskConfig.kind = DiskConfigKind::Conventional;
    SystemConfig idle = config;
    idle.diskConfig.kind = DiskConfigKind::IdleOnly;
    return {runBenchmark(bench, conventional, scale),
            runBenchmark(bench, idle, scale)};
}

/**
 * Without a governor the conventional run repeats its IDLE-only twin
 * cycle for cycle, and the twin's conventional re-pricing is the
 * conventional run's disk energy: bench_fig9 prints its Baseline
 * column from the IDLE-only run alone.
 */
void
expectIdleTwinRepeatsConventional(const TwinRuns &runs)
{
    const System &conv = *runs.conventional.system;
    const System &idle = *runs.idle.system;
    EXPECT_EQ(conv.now(), idle.now());
    EXPECT_EQ(conv.totals().raw(), idle.totals().raw());
    for (ServiceKind kind : allServices) {
        const ServiceStats &a = conv.kernel().serviceStats(kind);
        const ServiceStats &b = idle.kernel().serviceStats(kind);
        SCOPED_TRACE(serviceName(kind));
        EXPECT_EQ(a.invocations, b.invocations);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.energyJ, b.energyJ);
        EXPECT_EQ(a.componentEnergyJ, b.componentEnergyJ);
        EXPECT_EQ(a.energySum, b.energySum);
        EXPECT_EQ(a.energySumSq, b.energySumSq);
        EXPECT_EQ(a.energyMin, b.energyMin);
        EXPECT_EQ(a.energyMax, b.energyMax);
    }
    EXPECT_TRUE(invariantApproxEqual(conv.diskEnergyJ(),
                                     idle.diskEnergyConventionalJ()))
        << conv.diskEnergyJ() << " J vs "
        << idle.diskEnergyConventionalJ() << " J";
}

} // namespace

namespace softwatt
{

/** Test names print the benchmark ("compress", "jess", ...). */
void
PrintTo(Benchmark bench, std::ostream *out)
{
    *out << benchmarkName(bench);
}

} // namespace softwatt

class IdleOnlyTwin : public ::testing::TestWithParam<Benchmark>
{
};

TEST_P(IdleOnlyTwin, RepeatsConventionalRunWithoutGovernor)
{
    expectIdleTwinRepeatsConventional(
        runTwins(GetParam(), SystemConfig{}, 0.02));
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, IdleOnlyTwin,
                         ::testing::ValuesIn(allBenchmarks),
                         ::testing::PrintToStringParamName());

TEST(DiskPolicyProperties, IdleOnlyTwinRepeatsConventionalUnderFaults)
{
    SystemConfig config;
    config.diskConfig.fault.enabled = true;
    config.diskConfig.fault.transientErrorRate = 0.2;
    TwinRuns runs = runTwins(Benchmark::Jess, config, 0.02);
    EXPECT_GT(runs.idle.system->totals().total(CounterId::DiskFault),
              0u);
    expectIdleTwinRepeatsConventional(runs);
}

TEST(DiskPolicyProperties, GovernorSeparatesIdleOnlyTwin)
{
    // The DVFS governor reads disk watts, so the two disks steer the
    // run apart: bench_fig9 runs its baseline when dvfs=1.
    SystemConfig config;
    config.dvfsEnabled = true;
    config.powerBudgetW = 6.0;
    TwinRuns runs = runTwins(Benchmark::Compress, config, 0.05);
    const System &conv = *runs.conventional.system;
    const System &idle = *runs.idle.system;
    EXPECT_NE(conv.now(), idle.now());
    EXPECT_GT(conv.diskEnergyJ(),
              1.1 * idle.diskEnergyConventionalJ());
}

TEST(DiskPolicyProperties, ThresholdBelowGapMinusSpinupWins)
{
    // The paper's closing rule: spindowns pay off exactly when the
    // inter-access gap is much larger than spin-down + spin-up time.
    double gap = 25.0;  // >> 2 + 5 + 5
    PatternResult idle =
        runPattern(DiskConfig::idleOnly(), {gap, gap});
    PatternResult sd =
        runPattern(DiskConfig::spindown(2.0), {gap, gap});
    EXPECT_LT(sd.energyJ, idle.energyJ);

    double short_gap = 8.0;  // comparable to 2 + 5 + 5
    PatternResult idle2 =
        runPattern(DiskConfig::idleOnly(), {short_gap, short_gap});
    PatternResult sd2 =
        runPattern(DiskConfig::spindown(2.0), {short_gap, short_gap});
    EXPECT_GT(sd2.energyJ, idle2.energyJ);
}
