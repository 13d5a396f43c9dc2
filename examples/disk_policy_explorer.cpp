/**
 * @file
 * Disk power-management policy explorer: sweeps the spin-down
 * threshold for one benchmark and prints the energy/performance
 * trade-off curve — the design question behind the paper's Section 4
 * ("spindowns pay off only when the inter-access gap is much larger
 * than the spin-down plus spin-up time").
 *
 * Usage: disk_policy_explorer [bench=mtrt] [scale=1]
 *                             [thresholds=0.5,1,2,4,8]
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/report.hh"
#include "core/runner.hh"

using namespace softwatt;

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    std::string bench_name = args.getString("bench", "mtrt");
    double scale = args.getDouble("scale", 1.0);

    std::vector<double> thresholds =
        getDoubleList(args, "thresholds", "0.5,1,2,4,8");

    ExperimentSpec spec =
        ExperimentSpec::fromArgs("disk-policy", args);
    Benchmark bench = benchmarkByName(bench_name);
    SystemConfig base_config = SystemConfig::fromArgs(args);

    // Each run sets only the disk policy, so disk.fault.* keys apply
    // to every run.
    auto with_policy = [&](const DiskConfig &policy) {
        SystemConfig config = base_config;
        config.diskConfig.kind = policy.kind;
        config.diskConfig.spindownThresholdSeconds =
            policy.spindownThresholdSeconds;
        config.validate();
        return config;
    };

    std::vector<std::string> labels;
    {
        SystemConfig config = with_policy(DiskConfig::idleOnly());
        labels.push_back("idle-only (no spindown)");
        spec.add(bench, config, scale, "idle-only");
    }
    for (double threshold : thresholds) {
        SystemConfig config = with_policy(DiskConfig::spindown(threshold));
        std::ostringstream variant;
        variant << "spindown@" << threshold;
        std::ostringstream label;
        label << "spindown @ " << threshold << " s";
        labels.push_back(label.str());
        spec.add(bench, config, scale, variant.str());
    }

    std::cout << "Disk policy exploration for " << bench_name
              << " (scale " << scale << ")\n\n";

    ExperimentResult result = runExperiment(spec);

    std::cout << std::left << std::setw(24) << "policy" << std::right
              << std::setw(14) << "disk E (J)" << std::setw(16)
              << "run time (s)" << std::setw(10) << "spinups"
              << '\n';
    for (std::size_t i = 0; i < result.size(); ++i) {
        const BenchmarkRun &run = result.at(i);
        if (!run.hasData()) {
            std::cout << std::left << std::setw(24) << labels[i]
                      << "(no data: "
                      << runOutcomeName(run.result.outcome)
                      << ")\n";
            continue;
        }
        double seconds = double(run.system->now()) /
                         run.system->powerModel()
                             .technology()
                             .freqHz() *
                         run.system->config().timeScale;
        std::cout << std::left << std::setw(24) << labels[i]
                  << std::right << std::setw(14) << std::fixed
                  << std::setprecision(2)
                  << run.system->diskEnergyJ() << std::setw(16)
                  << std::setprecision(3) << seconds << std::setw(10)
                  << run.system->disk().spinUps() << '\n';
    }

    std::cout << "\nA threshold only pays off when the benchmark's "
                 "disk-quiet gaps are much longer than\nthe threshold "
                 "plus the 5 s spin-up; shorter gaps buy the spin-up "
                 "energy AND the stall.\n";
    return result.exitCode();
}
