/**
 * @file
 * Figure 9: energy/performance trade-offs of disk power management.
 * Each benchmark runs under four disk configurations: the unmanaged
 * baseline, the IDLE-only disk, and spin-down thresholds of 2 s and
 * 4 s. Reports disk energy (J, paper-equivalent) and total idle
 * cycles per configuration.
 *
 * Without a governor nothing acts on disk power, and the baseline
 * disk differs from the IDLE-only one only in starting ACTIVE and
 * pricing IDLE at ACTIVE power: its run repeats the IDLE-only run
 * cycle for cycle. So its column is the IDLE-only run re-priced, as
 * Fig. 5's conventional breakdown is. Under dvfs=1 the governor reads
 * disk watts, and the baseline runs of its own.
 *
 * Paper shape to reproduce: IDLE-only always beats the baseline;
 * the 2 s threshold badly hurts compress/javac/mtrt/jack (spin-up
 * thrash) while jess/db are unaffected; at 4 s compress and javac
 * recover to IDLE-only behaviour, jack improves (~one spin-down pair
 * eliminated), and mtrt's energy increases with unchanged idle
 * cycles.
 */

#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/runner.hh"

using namespace softwatt;

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    double scale = args.getDouble("scale", 1.0);
    // mtrt's Figure 9 behaviour (clean STANDBY hits under both
    // thresholds) needs disk-quiet gaps longer than threshold +
    // spin-down time; its characterization-sized run is stretched so
    // its two gaps exceed 9 paper-equivalent seconds.
    double mtrt_scale = args.getDouble("mtrt_scale", 2.4);
    ExperimentSpec spec = ExperimentSpec::fromArgs("fig9", args);
    SystemConfig base = SystemConfig::fromArgs(args);

    struct ConfigRow
    {
        const char *label;
        const char *variant;
        DiskConfig disk;
    };
    std::vector<ConfigRow> configs = {
        {"Baseline", "baseline", DiskConfig::conventional()},
        {"Without Spindowns", "idle", DiskConfig::idleOnly()},
        {"With 2 Sec. Spindown", "spindown-2s",
         DiskConfig::spindown(2.0)},
        {"With 4 Sec. Spindown", "spindown-4s",
         DiskConfig::spindown(4.0)},
    };

    // The variant whose run a column reads.
    const bool baseline_is_idle = !base.dvfsEnabled;
    auto source = [&](const ConfigRow &c) -> std::string {
        return baseline_is_idle &&
                       c.disk.kind == DiskConfigKind::Conventional
                   ? "idle"
                   : c.variant;
    };

    for (Benchmark b : allBenchmarks) {
        double run_scale =
            b == Benchmark::Mtrt ? scale * mtrt_scale : scale;
        for (const ConfigRow &c : configs) {
            if (source(c) != c.variant)
                continue;
            // Only the policy: disk.fault.* and the other disk keys
            // read into base apply to every column.
            SystemConfig config = base;
            config.diskConfig.kind = c.disk.kind;
            config.diskConfig.spindownThresholdSeconds =
                c.disk.spindownThresholdSeconds;
            spec.add(b, config, run_scale, c.variant);
        }
    }

    std::cout << "=== Figure 9: Disk Energy and Idle Cycles per "
                 "Configuration ===\n(scale " << scale << ")\n\n";

    ExperimentResult result = runExperiment(spec);

    std::cout << std::left << std::setw(10) << "bench";
    for (const ConfigRow &c : configs)
        std::cout << std::right << std::setw(22) << c.label;
    std::cout << '\n';

    for (Benchmark b : allBenchmarks) {
        std::cout << std::left << std::setw(10) << benchmarkName(b);
        for (const ConfigRow &c : configs) {
            const BenchmarkRun *run = result.find(b, source(c));
            if (!run || !run->hasData()) {
                std::cout << std::right << std::setw(22)
                          << "(no data)";
                continue;
            }
            double energy =
                c.disk.kind == DiskConfigKind::Conventional
                    ? run->system->diskEnergyConventionalJ()
                    : run->system->diskEnergyJ();
            std::cout << std::right << std::setw(20) << std::fixed
                      << std::setprecision(2) << energy << " J";
        }
        std::cout << '\n';
    }

    std::cout << "\nTotal idle cycles (paper-equivalent, i.e. x"
              << base.timeScale << "):\n";
    std::cout << std::left << std::setw(10) << "bench";
    for (const ConfigRow &c : configs)
        std::cout << std::right << std::setw(22) << c.label;
    std::cout << '\n';
    for (Benchmark b : allBenchmarks) {
        std::cout << std::left << std::setw(10) << benchmarkName(b);
        for (const ConfigRow &c : configs) {
            const BenchmarkRun *run = result.find(b, source(c));
            if (!run || !run->hasData()) {
                std::cout << std::right << std::setw(22)
                          << "(no data)";
                continue;
            }
            double idle = double(run->system->totals().get(
                ExecMode::Idle, CounterId::Cycles));
            std::cout << std::right << std::setw(22)
                      << std::scientific << std::setprecision(3)
                      << idle * run->system->config().timeScale;
        }
        std::cout << '\n';
    }
    return result.exitCode();
}
