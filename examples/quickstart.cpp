/**
 * @file
 * Quickstart: run one SPEC JVM98-equivalent benchmark on the
 * complete simulated machine and print its power characterization.
 *
 * Usage: quickstart [bench=jess] [scale=0.2] [key=value ...]
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/report.hh"
#include "core/runner.hh"
#include "sim/logging.hh"

using namespace softwatt;

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    // Read the harness's own keys before fromArgs so its
    // unused-key check doesn't flag them.
    std::string bench_name = args.getString("bench", "jess");
    double scale = args.getDouble("scale", 0.2);
    std::string csv_path = args.getString("log_csv", "");
    ExperimentSpec spec = ExperimentSpec::fromArgs("quickstart", args);
    SystemConfig config = SystemConfig::fromArgs(args);
    spec.add(benchmarkByName(bench_name), config, scale);

    std::cout << "Running " << bench_name << " (scale " << scale
              << ") on the "
              << (config.cpuModel == CpuModel::Superscalar
                      ? "MXS-like superscalar"
                      : "Mipsy-like in-order")
              << " model...\n";

    ExperimentResult result = runExperiment(spec);
    const BenchmarkRun &run = result.at(0);
    if (!run.hasData()) {
        printNoData(std::cout, run);
        return result.exitCode();
    }
    System &sys = *run.system;

    double freq = sys.powerModel().technology().freqHz();
    double equiv_s = double(sys.now()) / freq * config.timeScale;

    std::cout << "\nSimulated " << sys.now() << " cycles ("
              << equiv_s << " paper-equivalent seconds), "
              << sys.cpu().committedInsts()
              << " instructions committed, IPC "
              << sys.cpu().ipc() << "\n";
    std::cout << "Fast-forwarded " << sys.fastForwardedCycles()
              << " idle cycles; branch predictor accuracy "
              << sys.cpu().predictor().accuracy() << "\n\n";

    printPowerBudget(std::cout,
                     "Power budget (low-power disk, Fig. 7 style)",
                     run.breakdown);
    std::cout << '\n';
    printPowerBudget(std::cout,
                     "Power budget (conventional disk, Fig. 5 style)",
                     run.conventional);
    std::cout << '\n';
    printModePower(std::cout, "Average power per mode (Fig. 6 style)",
                   run.breakdown);
    std::cout << '\n';
    std::array<ServiceStats, numServices> services{};
    for (ServiceKind k : allServices)
        services[int(k)] = sys.kernel().serviceStats(k);
    printTable4(std::cout, run.name, services);
    std::cout << '\n';
    printTable5(std::cout, services);
    std::cout << '\n';
    printServicePower(std::cout, services, freq);
    std::cout << "\nDisk energy (this config): " << sys.diskEnergyJ()
              << " J; as conventional disk: "
              << sys.diskEnergyConventionalJ() << " J\n";
    std::cout << "Peak CPU+memory power: "
              << peakWindowPowerW(sys.powerTrace())
              << " W (thermal design point)\n";
    std::cout << "\nPerformance statistics:\n";
    sys.dumpStats(std::cout);

    // Optional: dump the sampled counter log for external power
    // passes (the SimOS log-file workflow).
    if (!csv_path.empty()) {
        std::ofstream csv(csv_path);
        if (!csv)
            fatal("cannot open " + csv_path);
        sys.log().writeCsv(csv);
        if (!csv.flush())
            fatal("cannot write " + csv_path);
        std::cout << "\nSample log written to " << csv_path << "\n";
    }
    return result.exitCode();
}
