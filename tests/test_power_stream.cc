/**
 * @file
 * Tests for the streaming power pipeline and its feedback loop:
 * streaming-vs-batch bit-identity on every synthetic benchmark (with
 * and without the DVFS governor), governor stepping at budget
 * boundaries, adaptive spin-down threshold adaptation, config
 * validation of the new keys, CSV round-trips of the operating-point
 * stamps, PowerRead syscall attribution, and checkpoint/restore of
 * the meter/governor/policy state mid-run.
 */

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "core/system.hh"
#include "power/power_calculator.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

using namespace softwatt;

namespace
{

std::unique_ptr<System>
makeSystem(const SystemConfig &config, Benchmark bench,
           double scale = 0.02)
{
    auto sys = std::make_unique<System>(config);
    WorkloadSpec spec = scaleWorkload(benchmarkSpec(bench), scale);
    sys->attachWorkload(std::make_unique<Workload>(spec));
    return sys;
}

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.sampleWindow = 20'000;
    return config;
}

/** Exact (==, not approximate) equality of two power traces. */
void
expectTracesIdentical(const PowerTrace &a, const PowerTrace &b)
{
    EXPECT_EQ(a.total.freqHz, b.total.freqHz);
    EXPECT_EQ(a.total.diskEnergyJ, b.total.diskEnergyJ);
    for (int m = 0; m < numExecModes; ++m) {
        EXPECT_EQ(a.total.cycles[m], b.total.cycles[m]);
        for (int c = 0; c < numComponents; ++c)
            EXPECT_EQ(a.total.energyJ[m][c], b.total.energyJ[m][c]);
    }
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        const WindowPower &wa = a.windows[i];
        const WindowPower &wb = b.windows[i];
        EXPECT_EQ(wa.startTick, wb.startTick);
        EXPECT_EQ(wa.endTick, wb.endTick);
        EXPECT_EQ(wa.freqMhz, wb.freqMhz);
        EXPECT_EQ(wa.vdd, wb.vdd);
        for (int m = 0; m < numExecModes; ++m) {
            EXPECT_EQ(wa.cycles[m], wb.cycles[m]);
            EXPECT_EQ(wa.modePowerW[m], wb.modePowerW[m]);
        }
        for (int c = 0; c < numComponents; ++c) {
            EXPECT_EQ(wa.componentPowerW[c],
                      wb.componentPowerW[c]);
        }
    }
}

/** Average whole-run system power of an unconstrained run, W. */
double
unconstrainedAvgW(Benchmark bench)
{
    std::unique_ptr<System> sys =
        makeSystem(smallConfig(), bench);
    EXPECT_TRUE(sys->run().ok());
    PowerBreakdown b = sys->breakdown(false);
    return (b.cpuMemEnergyJ() + b.diskEnergyJ) / b.seconds();
}

PowerReading
readingAt(double system_w)
{
    PowerReading r;
    r.valid = true;
    r.systemPowerW = system_w;
    return r;
}

/** The full sample log rendered as CSV (a bit-exact trajectory). */
std::string
logCsv(const System &sys)
{
    std::ostringstream out;
    sys.log().writeCsv(out);
    return out.str();
}

} // namespace

TEST(PowerStream, StreamingMatchesBatchOnEveryBenchmark)
{
    for (Benchmark bench : allBenchmarks) {
        SCOPED_TRACE(benchmarkName(bench));
        std::unique_ptr<System> sys =
            makeSystem(smallConfig(), bench);
        sys->invariants().setEnabled(true);
        ASSERT_TRUE(sys->run().ok());
        ASSERT_GT(sys->log().size(), 0u);
        // The batch pass over the finished log must reproduce the
        // incrementally accumulated trace bit for bit.
        PowerTrace streaming = sys->powerTrace();
        PowerTrace batch = sys->powerCalculator().process(sys->log());
        expectTracesIdentical(streaming, batch);
    }
}

TEST(PowerStream, StreamKeepsPaceWithTheLog)
{
    std::unique_ptr<System> sys =
        makeSystem(smallConfig(), Benchmark::Jess);
    ASSERT_TRUE(sys->run().ok());
    EXPECT_EQ(sys->powerTrace().windows.size(), sys->log().size());
    // The meter published the last window.
    const PowerReading &r = sys->lastReading();
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.windowIndex, sys->log().size() - 1);
    EXPECT_EQ(r.endTick, sys->log().all().back().endTick);
    EXPECT_GT(r.cpuMemPowerW, 0.0);
    EXPECT_GT(r.systemPowerW, 0.0);
}

TEST(PowerStream, StreamingMatchesBatchUnderClosedLoopDvfs)
{
    double avg_w = unconstrainedAvgW(Benchmark::Jess);
    ASSERT_GT(avg_w, 0.0);

    SystemConfig config = smallConfig();
    config.dvfsEnabled = true;
    config.powerBudgetW = avg_w * 0.8;  // binds: below nominal draw
    std::unique_ptr<System> sys =
        makeSystem(config, Benchmark::Jess);
    sys->invariants().setEnabled(true);
    ASSERT_TRUE(sys->run().ok());

    // The governor demonstrably moved the operating point mid-run...
    const DvfsGovernor *gov = sys->dvfsGovernor();
    ASSERT_NE(gov, nullptr);
    EXPECT_GT(gov->stepsDown(), 0u);
    EXPECT_GT(gov->deepestLevel(), 0);
    EXPECT_GT(sys->throttledCycles(), 0u);

    // ...the log records distinct operating points...
    bool saw_nominal = false;
    bool saw_scaled = false;
    for (const SampleRecord &rec : sys->log().all()) {
        if (rec.freqMhz == config.machine.freqMhz)
            saw_nominal = true;
        else if (rec.freqMhz > 0 &&
                 rec.freqMhz < config.machine.freqMhz)
            saw_scaled = true;
    }
    EXPECT_TRUE(saw_nominal);
    EXPECT_TRUE(saw_scaled);

    // ...and the batch pass still reproduces the stream exactly,
    // because the operating point travels inside the records.
    expectTracesIdentical(sys->powerTrace(),
                          sys->powerCalculator().process(sys->log()));
}

TEST(DvfsGovernor, StepsAtBudgetBoundaries)
{
    DvfsGovernor gov(200.0, 3.3, 10.0);
    EXPECT_EQ(gov.level(), 0);
    EXPECT_EQ(gov.ladderSize(), 5);
    EXPECT_DOUBLE_EQ(gov.point().freqMhz, 200.0);
    EXPECT_DOUBLE_EQ(gov.point().vdd, 3.3);

    // Invalid readings (no window yet) do nothing.
    EXPECT_FALSE(gov.observe(PowerReading{}));
    EXPECT_EQ(gov.level(), 0);

    // Over budget: one step down per window.
    EXPECT_TRUE(gov.observe(readingAt(12.0)));
    EXPECT_EQ(gov.level(), 1);
    EXPECT_DOUBLE_EQ(gov.point().freqMhz, 166.0);
    EXPECT_DOUBLE_EQ(gov.point().vdd, 3.0);
    EXPECT_EQ(gov.point().dutyNum, 166u);
    EXPECT_EQ(gov.point().dutyDen, 200u);

    // In the deadband [0.9 * budget, budget]: hold.
    EXPECT_FALSE(gov.observe(readingAt(9.5)));
    EXPECT_EQ(gov.level(), 1);

    // Exactly at the budget: hold (the budget is a ceiling).
    EXPECT_FALSE(gov.observe(readingAt(10.0)));
    EXPECT_EQ(gov.level(), 1);

    // Below the headroom threshold: step back up.
    EXPECT_TRUE(gov.observe(readingAt(8.0)));
    EXPECT_EQ(gov.level(), 0);

    // Clamped at the top: more headroom changes nothing.
    EXPECT_FALSE(gov.observe(readingAt(1.0)));
    EXPECT_EQ(gov.level(), 0);

    // Clamped at the bottom of the ladder.
    for (int i = 0; i < 10; ++i)
        gov.observe(readingAt(50.0));
    EXPECT_EQ(gov.level(), gov.ladderSize() - 1);
    EXPECT_DOUBLE_EQ(gov.point().freqMhz, 66.0);
    EXPECT_DOUBLE_EQ(gov.point().vdd, 2.1);
    EXPECT_EQ(gov.deepestLevel(), gov.ladderSize() - 1);
    EXPECT_EQ(gov.stepsDown(), 5u);
    EXPECT_EQ(gov.stepsUp(), 1u);
    EXPECT_EQ(gov.changes(), 6u);
}

TEST(DvfsGovernor, StateRoundTripsThroughChunks)
{
    DvfsGovernor gov(200.0, 3.3, 10.0);
    gov.observe(readingAt(12.0));
    gov.observe(readingAt(12.0));
    ChunkWriter w;
    gov.saveState(w);

    DvfsGovernor fresh(200.0, 3.3, 10.0);
    ChunkReader r(w.bytes(), "gov");
    fresh.loadState(r);
    r.finish();
    EXPECT_EQ(fresh.level(), gov.level());
    EXPECT_EQ(fresh.deepestLevel(), gov.deepestLevel());
    EXPECT_EQ(fresh.stepsDown(), gov.stepsDown());
    EXPECT_EQ(fresh.stepsUp(), gov.stepsUp());
}

TEST(AdaptiveSpindown, GrowsOnSpinUpsAndDecaysWhenQuiet)
{
    AdaptiveSpindownPolicy policy(2.0);
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 2.0);

    // No spin-ups yet: nothing changes for the first quiet windows.
    EXPECT_FALSE(policy.observe(0));
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 2.0);

    // A window with a spin-up doubles the threshold.
    EXPECT_TRUE(policy.observe(1));
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 4.0);
    EXPECT_EQ(policy.adjustments(), 1u);

    // Growth clamps at the maximum.
    EXPECT_TRUE(policy.observe(2));
    EXPECT_TRUE(policy.observe(3));
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 16.0);
    EXPECT_FALSE(policy.observe(4));  // already at the cap
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 16.0);

    // Eight consecutive quiet windows decay the threshold by 0.9.
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(policy.observe(4));
    EXPECT_TRUE(policy.observe(4));
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 16.0 * 0.9);

    // A spin-up resets the quiet streak.
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(policy.observe(4));
    EXPECT_TRUE(policy.observe(5));  // grow again
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 16.0);
}

TEST(AdaptiveSpindown, DecayClampsAtMinimum)
{
    AdaptiveSpindownPolicy policy(0.3);
    // 8 quiet windows: 0.3 * 0.9 = 0.27; next decay clamps at 0.25.
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 8; ++i)
            policy.observe(0);
    }
    EXPECT_DOUBLE_EQ(policy.thresholdSeconds(), 0.25);
}

class PowerConfigErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setErrorHandler(throwingErrorHandler); }
    void TearDown() override { setErrorHandler(nullptr); }
};

TEST_F(PowerConfigErrorTest, DvfsWithoutBudgetIsRejected)
{
    SystemConfig config;
    config.dvfsEnabled = true;
    try {
        config.validate();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("power_budget_w"),
                  std::string::npos);
    }
}

TEST_F(PowerConfigErrorTest, BudgetRangeIsValidatedEagerly)
{
    SystemConfig config;
    config.powerBudgetW = -1.0;
    EXPECT_THROW(config.validate(), SimError);
    config.powerBudgetW = 1e7;
    EXPECT_THROW(config.validate(), SimError);
    config.powerBudgetW = 25.0;
    EXPECT_NO_THROW(config.validate());
}

TEST_F(PowerConfigErrorTest, AdaptiveSpindownNeedsSpindownDisk)
{
    SystemConfig config;
    config.adaptiveSpindown = true;
    try {
        config.validate();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("disk.config=spindown"),
                  std::string::npos);
    }
    config.diskConfig = DiskConfig::spindown(2.0);
    EXPECT_NO_THROW(config.validate());
}

TEST(PowerStream, OperatingPointSurvivesCsvRoundTrip)
{
    SampleLog log;
    SampleRecord rec;
    rec.startTick = 0;
    rec.endTick = 20'000;
    rec.freqMhz = 166.0;
    rec.vdd = 3.0;
    rec.counters.addTo(ExecMode::User, CounterId::Cycles, 20'000);
    log.append(rec);
    rec.startTick = 20'000;
    rec.endTick = 40'000;
    rec.freqMhz = 0;  // nominal window
    rec.vdd = 0;
    log.append(rec);

    std::stringstream csv;
    log.writeCsv(csv);
    SampleLog parsed;
    ASSERT_TRUE(SampleLog::readCsv(csv, parsed));
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed.at(0).freqMhz, 166.0);
    EXPECT_EQ(parsed.at(0).vdd, 3.0);
    EXPECT_EQ(parsed.at(1).freqMhz, 0.0);
    EXPECT_EQ(parsed.at(1).vdd, 0.0);
    EXPECT_EQ(parsed.at(0).counters.get(ExecMode::User,
                                        CounterId::Cycles),
              20'000u);
}

TEST(PowerStream, PowerReadSyscallIsAttributedLikeAnyService)
{
    SystemConfig config = smallConfig();
    auto sys = std::make_unique<System>(config);
    WorkloadSpec spec =
        scaleWorkload(benchmarkSpec(Benchmark::Jess), 0.05);
    spec.sys.powerPollPerMInst = 50.0;
    sys->attachWorkload(std::make_unique<Workload>(spec));
    ASSERT_TRUE(sys->run().ok());

    const ServiceStats &svc =
        sys->kernel().serviceStats(ServiceKind::PowerRead);
    EXPECT_GT(svc.invocations, 0u);
    EXPECT_GT(svc.cycles, 0u);
    EXPECT_GT(svc.energyJ, 0.0);
    // The kernel snapshotted a real reading on the way.
    EXPECT_TRUE(sys->kernel().lastPowerReading().valid);
}

namespace
{

/**
 * Everything the power subsystem restores, rendered bit-exactly:
 * meter reading, governor trajectory, spin-down policy state, the
 * throttle counters, and the full sample log (operating points
 * included via the CSV).
 */
std::string
powerSignature(System &sys)
{
    std::ostringstream out;
    out << std::hexfloat;
    const PowerReading &r = sys.lastReading();
    out << r.valid << ':' << r.windowIndex << ':' << r.startTick
        << ':' << r.endTick << ':' << r.cpuMemPowerW << ':'
        << r.diskPowerW << ':' << r.systemPowerW << ':' << r.freqMhz
        << ':' << r.vdd << ';';
    if (const DvfsGovernor *gov = sys.dvfsGovernor()) {
        out << gov->level() << ':' << gov->deepestLevel() << ':'
            << gov->stepsDown() << ':' << gov->stepsUp() << ';';
    }
    if (const AdaptiveSpindownPolicy *sp = sys.spindownPolicy()) {
        out << sp->thresholdSeconds() << ':' << sp->adjustments()
            << ';';
    }
    out << sys.throttledCycles() << ';' << sys.now() << ';';
    sys.log().writeCsv(out);
    return out.str();
}

} // namespace

TEST(PowerStream, CheckpointRestoresMeterGovernorAndSpindown)
{
    const std::string path = "power_stream_midrun.ckpt";
    auto cleanup = [&path]() {
        std::remove(path.c_str());
        std::remove(checkpointPreviousGeneration(path).c_str());
        std::remove(checkpointLogPath(path).c_str());
        std::remove((path + ".tmp").c_str());
    };
    cleanup();

    double avg_w = unconstrainedAvgW(Benchmark::Jess);
    SystemConfig config = smallConfig();
    config.dvfsEnabled = true;
    config.powerBudgetW = avg_w * 0.8;
    config.diskConfig = DiskConfig::spindown(0.5);
    config.adaptiveSpindown = true;
    constexpr double cadence_s = 0.0003;

    // Reference: uninterrupted closed-loop run with autosaves; the
    // newest image on disk is a mid-run state.
    std::unique_ptr<System> reference =
        makeSystem(config, Benchmark::Jess, 0.03);
    reference->setCheckpointPolicy(cadence_s, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 2u);
    ASSERT_NE(reference->dvfsGovernor(), nullptr);
    EXPECT_GT(reference->dvfsGovernor()->stepsDown(), 0u);
    const std::string expected = powerSignature(*reference);

    // Restore into a fresh machine: the stream accumulator is
    // rebuilt from the restored log and the meter already holds the
    // checkpointed reading.
    std::unique_ptr<System> restored =
        makeSystem(config, Benchmark::Jess, 0.03);
    restored->setCheckpointPolicy(cadence_s, path);
    ASSERT_TRUE(restored->restoreCheckpoint(path));
    EXPECT_EQ(restored->powerTrace().windows.size(),
              restored->log().size());
    EXPECT_TRUE(restored->lastReading().valid);

    // Continuing reproduces the uninterrupted trajectory bit for
    // bit, governor and policy state included.
    ASSERT_TRUE(restored->run().ok());
    EXPECT_EQ(powerSignature(*restored), expected);
    cleanup();
}

TEST(PowerStream, PollingKnobDefaultsOffAndChangesNoStream)
{
    // powerPollPerMInst=0 must not perturb the RNG draw sequence:
    // the default-spec run and an explicit zero-rate run are the
    // same machine trajectory.
    std::unique_ptr<System> a =
        makeSystem(smallConfig(), Benchmark::Jess);
    ASSERT_TRUE(a->run().ok());
    SystemConfig config = smallConfig();
    auto b = std::make_unique<System>(config);
    WorkloadSpec spec =
        scaleWorkload(benchmarkSpec(Benchmark::Jess), 0.02);
    spec.sys.powerPollPerMInst = 0.0;
    b->attachWorkload(std::make_unique<Workload>(spec));
    ASSERT_TRUE(b->run().ok());
    EXPECT_EQ(a->now(), b->now());
    EXPECT_EQ(a->cpu().committedInsts(), b->cpu().committedInsts());
    EXPECT_EQ(logCsv(*a), logCsv(*b));
}
