/**
 * @file
 * Full-system integration tests: complete benchmark runs through
 * CPU + caches + TLB + MiniOS + disk with the power post-processing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/experiment.hh"
#include "core/system.hh"

using namespace softwatt;

namespace
{

/** A small but complete benchmark run. */
BenchmarkRun
tinyRun(Benchmark b, SystemConfig config = SystemConfig{},
        double scale = 0.03)
{
    config.sampleWindow = 20'000;
    return runBenchmark(b, config, scale);
}

} // namespace

TEST(System, RunsToCompletion)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    System &sys = *run.system;
    EXPECT_TRUE(sys.kernel().workloadDone());
    EXPECT_GT(sys.now(), 100'000u);
    EXPECT_GT(sys.cpu().committedInsts(), 100'000u);
    EXPECT_FALSE(sys.log().empty());
}

TEST(System, LogCoversTheWholeRun)
{
    BenchmarkRun run = tinyRun(Benchmark::Db);
    System &sys = *run.system;
    EXPECT_EQ(sys.log().totalCycles(), sys.now());
    // Windows are contiguous.
    Tick expected_start = 0;
    for (const SampleRecord &rec : sys.log().all()) {
        EXPECT_EQ(rec.startTick, expected_start);
        expected_start = rec.endTick;
    }
}

TEST(System, TotalsMatchLogTotals)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    System &sys = *run.system;
    CounterBank from_log = sys.log().totals();
    for (ExecMode m : allExecModes) {
        for (int c = 0; c < numCounters; ++c) {
            EXPECT_EQ(sys.totals().get(m, CounterId(c)),
                      from_log.get(m, CounterId(c)));
        }
    }
}

TEST(System, CycleModesPartitionTime)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    System &sys = *run.system;
    std::uint64_t mode_cycles = 0;
    for (ExecMode m : allExecModes)
        mode_cycles += sys.totals().get(m, CounterId::Cycles);
    EXPECT_EQ(mode_cycles, sys.now());
}

TEST(System, FastForwardSkipsIdleWaits)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    System &sys = *run.system;
    // Class loading from a cold buffer cache must have produced
    // long disk waits that were fast-forwarded.
    EXPECT_GT(sys.fastForwardedCycles(), 0u);
    EXPECT_GT(sys.totals().get(ExecMode::Idle, CounterId::Cycles),
              sys.fastForwardedCycles() / 2);
}

TEST(System, PowerBreakdownIsPositiveAndComplete)
{
    BenchmarkRun run = tinyRun(Benchmark::Mtrt);
    const PowerBreakdown &b = run.breakdown;
    EXPECT_GT(b.cpuMemEnergyJ(), 0.0);
    EXPECT_GT(b.diskEnergyJ, 0.0);
    EXPECT_GT(b.componentAvgPowerW(Component::L1ICache), 0.0);
    EXPECT_GT(b.componentAvgPowerW(Component::Clock), 0.0);
    double share = 0;
    for (Component c : allComponents)
        share += b.componentSharePct(c);
    EXPECT_NEAR(share, 100.0, 1e-6);
}

TEST(System, ConventionalDiskCostsMoreThanManaged)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    EXPECT_GT(run.system->diskEnergyConventionalJ(),
              run.system->diskEnergyJ());
    EXPECT_GT(run.conventional.componentSharePct(Component::Disk),
              run.breakdown.componentSharePct(Component::Disk));
}

TEST(System, ServiceAccountingIsPopulated)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    Kernel &kernel = run.system->kernel();
    EXPECT_GT(kernel.serviceStats(ServiceKind::Utlb).invocations,
              10u);
    EXPECT_GT(kernel.serviceStats(ServiceKind::Read).invocations, 0u);
    EXPECT_GT(kernel.serviceStats(ServiceKind::Open).invocations, 0u);
}

TEST(System, InternalServicesVaryLessThanIoServices)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess, SystemConfig{}, 0.06);
    Kernel &kernel = run.system->kernel();
    double utlb_cod = kernel.serviceStats(ServiceKind::Utlb)
                          .coeffOfDeviationPct();
    double read_cod = kernel.serviceStats(ServiceKind::Read)
                          .coeffOfDeviationPct();
    EXPECT_LT(utlb_cod, read_cod);
}

TEST(System, InOrderModelRunsTheSameWorkload)
{
    SystemConfig config;
    config.cpuModel = CpuModel::InOrder;
    BenchmarkRun run = tinyRun(Benchmark::Db, config);
    System &sys = *run.system;
    EXPECT_TRUE(sys.kernel().workloadDone());
    EXPECT_LE(sys.cpu().ipc(), 1.0);
}

TEST(System, SuperscalarIsFasterThanInOrder)
{
    SystemConfig ooo, io;
    io.cpuModel = CpuModel::InOrder;
    BenchmarkRun fast = tinyRun(Benchmark::Db, ooo);
    BenchmarkRun slow = tinyRun(Benchmark::Db, io);
    EXPECT_LT(fast.system->now(), slow.system->now());
}

TEST(System, LogCsvRoundTripsThroughPowerPass)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    System &sys = *run.system;

    std::stringstream buffer;
    sys.log().writeCsv(buffer);
    SampleLog loaded;
    ASSERT_TRUE(SampleLog::readCsv(buffer, loaded));

    PowerCalculator calc(sys.powerModel());
    PowerTrace from_disk_log = calc.process(loaded);
    PowerTrace from_memory = sys.powerTrace();
    EXPECT_NEAR(from_disk_log.total.cpuMemEnergyJ(),
                from_memory.total.cpuMemEnergyJ(), 1e-9);
}

TEST(System, DeterministicAcrossRuns)
{
    BenchmarkRun a = tinyRun(Benchmark::Javac);
    BenchmarkRun b = tinyRun(Benchmark::Javac);
    EXPECT_EQ(a.system->now(), b.system->now());
    EXPECT_DOUBLE_EQ(a.breakdown.cpuMemEnergyJ(),
                     b.breakdown.cpuMemEnergyJ());
    EXPECT_DOUBLE_EQ(a.system->diskEnergyJ(), b.system->diskEnergyJ());
}

TEST(System, EventsRunOnceEveryEarlierCycleIsCharged)
{
    // An event at tick t must run after exactly t cycles have been
    // charged (detailed, fast-forwarded or throttled), also when the
    // in-order core charges a stall span in one step: a span must stop
    // short of the next event. A probe event every 13 ticks checks
    // that and cuts many spans short.
    struct Probe
    {
        System &sys;
        std::uint64_t runs = 0;
        std::uint64_t late = 0;

        void
        arm()
        {
            sys.eventQueue().scheduleIn(13, [this] { fire(); });
        }

        void
        fire()
        {
            ++runs;
            Cycles charged = sys.detailedCycles() +
                             sys.fastForwardedCycles() +
                             sys.throttledCycles();
            if (charged != sys.now())
                ++late;
            arm();
        }
    };

    SystemConfig config;
    config.cpuModel = CpuModel::InOrder;
    config.sampleWindow = 20'000;
    System sys(config);
    sys.attachWorkload(std::make_unique<Workload>(
        scaleWorkload(benchmarkSpec(Benchmark::Jess), 0.01)));
    Probe probe{sys};
    probe.arm();
    ASSERT_TRUE(sys.run().ok());
    EXPECT_GT(probe.runs, 10'000u);
    EXPECT_EQ(probe.late, 0u);
}

TEST(System, ConfigOverridesApply)
{
    Config args;
    args.parseAssignment("cpu.model=mipsy");
    args.parseAssignment("disk.config=spindown");
    args.parseAssignment("disk.threshold_s=4");
    args.parseAssignment("icache.size_kb=16");
    SystemConfig config = SystemConfig::fromConfig(args);
    EXPECT_EQ(int(config.cpuModel), int(CpuModel::InOrder));
    EXPECT_EQ(int(config.diskConfig.kind),
              int(DiskConfigKind::Spindown));
    EXPECT_DOUBLE_EQ(config.diskConfig.spindownThresholdSeconds, 4.0);
    EXPECT_EQ(config.machine.icache.sizeBytes, 16u * 1024);
}

TEST(System, AverageBreakdownsAggregates)
{
    BenchmarkRun a = tinyRun(Benchmark::Jess);
    BenchmarkRun b = tinyRun(Benchmark::Db);
    PowerBreakdown avg =
        averageBreakdowns({a.breakdown, b.breakdown});
    EXPECT_EQ(avg.totalCycles(),
              a.breakdown.totalCycles() + b.breakdown.totalCycles());
    EXPECT_NEAR(avg.cpuMemEnergyJ(),
                a.breakdown.cpuMemEnergyJ() +
                    b.breakdown.cpuMemEnergyJ(),
                1e-12);
}

TEST(System, DumpStatsListsKeyMetrics)
{
    BenchmarkRun run = tinyRun(Benchmark::Jess);
    std::ostringstream out;
    run.system->dumpStats(out);
    std::string text = out.str();
    for (const char *key :
         {"sim.cycles", "cpu.ipc", "cpu.bpred_accuracy",
          "l1i.miss_ratio", "tlb.miss_ratio",
          "filecache.hit_ratio", "disk.requests",
          "kernel.utlb.invocations"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

TEST(IdleProfileTest, MeasuresPlausibleIdleRates)
{
    MachineParams machine;
    IdleProfile profile = measureIdleProfile(machine, true);
    EXPECT_DOUBLE_EQ(profile.perCycle[int(CounterId::Cycles)], 1.0);
    double il1 = profile.perCycle[int(CounterId::IL1Ref)];
    EXPECT_GT(il1, 0.3);
    EXPECT_LT(il1, 2.0);
    CounterBank bank;
    profile.apply(bank, 1000);
    EXPECT_EQ(bank.get(ExecMode::Idle, CounterId::Cycles), 1000u);
    EXPECT_NEAR(double(bank.get(ExecMode::Idle, CounterId::IL1Ref)),
                il1 * 1000, il1 * 1000 * 0.01 + 1);
}
