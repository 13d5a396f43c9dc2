/**
 * @file
 * Fault-rate sweep: runs one benchmark across the three disk
 * power-management policies at increasing transient-error rates and
 * prints the energy and performance penalty of error recovery — how
 * much of the power budget the retry/backoff path (the ErrorRecovery
 * kernel service plus the re-executed disk mechanics) consumes, and
 * where the bounded-retry driver starts giving up.
 *
 * Usage: fault_sweep [bench=jess] [scale=0.1]
 *                    [rates=0,0.05,0.1,0.2,0.4]
 *                    [disk.retry.max_attempts=6] [...]
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
    std::string bench_name = args.getString("bench", "jess");
    double scale = args.getDouble("scale", 0.1);

    std::vector<double> rates =
        getDoubleList(args, "rates", "0,0.05,0.1,0.2,0.4");

    struct Policy
    {
        const char *label;
        DiskConfig config;
    };
    const Policy policies[] = {
        {"conventional", DiskConfig::conventional()},
        {"idle-only", DiskConfig::idleOnly()},
        {"spindown 2s", DiskConfig::spindown(2.0)},
    };

    ExperimentSpec spec =
        ExperimentSpec::fromArgs("fault-sweep", args);
    Benchmark bench = benchmarkByName(bench_name);
    SystemConfig base_config = SystemConfig::fromConfig(args);
    for (const Policy &policy : policies) {
        for (double rate : rates) {
            SystemConfig config = base_config;
            config.diskConfig = policy.config;
            config.diskConfig.fault.enabled = rate > 0;
            config.diskConfig.fault.transientErrorRate = rate;
            config.validate();
            std::ostringstream variant;
            variant << policy.label << "@" << rate;
            spec.add(bench, config, scale, variant.str());
        }
    }

    std::cout << "Disk fault sweep for " << bench_name << " (scale "
              << scale << ")\n\n";

    ExperimentResult result = runExperiment(spec);

    std::cout << std::left << std::setw(14) << "policy"
              << std::setw(8) << "rate" << std::right << std::setw(9)
              << "faults" << std::setw(9) << "retries"
              << std::setw(9) << "giveups" << std::setw(13)
              << "recovery mJ" << std::setw(12) << "disk E (J)"
              << std::setw(12) << "cycles (M)" << std::setw(12)
              << "outcome" << '\n';

    std::size_t idx = 0;
    for (const Policy &policy : policies) {
        // Per-policy fault-free baseline for the penalty columns.
        double base_cycles = 0;
        for (double rate : rates) {
            const BenchmarkRun &run = result.at(idx++);
            if (!run.hasData()) {
                std::cout << std::left << std::setw(14)
                          << policy.label << std::setw(8) << rate
                          << "  (no data: "
                          << runOutcomeName(run.result.outcome)
                          << ")\n";
                continue;
            }
            const System &sys = *run.system;
            const Kernel &kernel = sys.kernel();
            const ServiceStats &recovery =
                kernel.serviceStats(ServiceKind::ErrorRecovery);

            if (rate == 0)
                base_cycles = double(sys.now());

            std::cout << std::left << std::setw(14) << policy.label
                      << std::setw(8) << std::fixed
                      << std::setprecision(2) << rate << std::right
                      << std::setw(9) << kernel.diskFaults()
                      << std::setw(9) << kernel.diskRetries()
                      << std::setw(9) << kernel.diskGiveUps()
                      << std::setw(13) << std::setprecision(3)
                      << recovery.energyJ * 1e3 << std::setw(12)
                      << std::setprecision(2) << sys.diskEnergyJ()
                      << std::setw(12) << std::setprecision(2)
                      << double(sys.now()) / 1e6 << std::setw(12)
                      << runOutcomeName(run.result.outcome);
            if (rate > 0 && base_cycles > 0 && run.result.ok()) {
                std::cout << "   +" << std::setprecision(1)
                          << (double(sys.now()) / base_cycles -
                              1.0) *
                                 100.0
                          << "% time";
            }
            std::cout << '\n';
        }
        std::cout << '\n';
    }

    std::cout << "Recovery energy is the ErrorRecovery kernel "
                 "service alone; the disk column also pays\nthe "
                 "re-executed seeks and transfers. Rows that read "
                 "io-failed hit the bounded-retry\ngive-up (see "
                 "disk.retry.max_attempts).\n";
    return result.exitCode();
}
