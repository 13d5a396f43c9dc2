/**
 * @file
 * Power-hotspot profiler: runs one benchmark and prints the ranked
 * hardware hotspots, the per-mode breakdown, the kernel services
 * ranked by energy, and the windows with the highest power — the
 * "where should optimization effort go?" workflow the paper's
 * conclusions sketch.
 *
 * Usage: hotspot_report [bench=javac] [scale=0.5]
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
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
    std::string bench_name = args.getString("bench", "javac");
    double scale = args.getDouble("scale", 0.5);
    ExperimentSpec spec =
        ExperimentSpec::fromArgs("hotspot-report", args);
    SystemConfig config = SystemConfig::fromConfig(args);
    spec.add(benchmarkByName(bench_name), config, scale);

    ExperimentResult result = runExperiment(spec);
    const BenchmarkRun &run = result.at(0);
    if (!run.hasData()) {
        printNoData(std::cout, run);
        return result.exitCode();
    }
    System &sys = *run.system;
    double freq = sys.powerModel().technology().freqHz();

    std::cout << "Power hotspot report: " << bench_name << "\n\n";

    // 1. Hardware hotspots, ranked.
    std::vector<Component> ranked(allComponents.begin(),
                                  allComponents.end());
    std::sort(ranked.begin(), ranked.end(),
              [&](Component a, Component b) {
                  return run.breakdown.componentAvgPowerW(a) >
                         run.breakdown.componentAvgPowerW(b);
              });
    std::cout << "Hardware hotspots (average power):\n";
    for (Component c : ranked) {
        std::cout << "  " << std::left << std::setw(12)
                  << componentName(c) << std::right << std::setw(8)
                  << std::fixed << std::setprecision(3)
                  << run.breakdown.componentAvgPowerW(c) << " W  ("
                  << std::setprecision(1)
                  << run.breakdown.componentSharePct(c) << " %)\n";
    }

    // 2. Software modes.
    std::cout << "\nSoftware modes:\n";
    for (ExecMode mode : allExecModes) {
        double share =
            100.0 * double(run.breakdown.cycles[int(mode)]) /
            double(run.breakdown.totalCycles());
        std::cout << "  " << std::left << std::setw(8)
                  << execModeName(mode) << std::right << std::setw(7)
                  << std::fixed << std::setprecision(2)
                  << run.breakdown.modeAvgPowerW(mode) << " W over "
                  << std::setprecision(1) << share
                  << " % of cycles\n";
    }

    // 3. Kernel services ranked by total energy.
    std::vector<ServiceKind> services(allServices.begin(),
                                      allServices.end());
    std::sort(services.begin(), services.end(),
              [&](ServiceKind a, ServiceKind b) {
                  return sys.kernel().serviceStats(a).energyJ >
                         sys.kernel().serviceStats(b).energyJ;
              });
    std::cout << "\nKernel services by energy:\n";
    for (ServiceKind kind : services) {
        const ServiceStats &s = sys.kernel().serviceStats(kind);
        if (s.invocations == 0)
            continue;
        std::cout << "  " << std::left << std::setw(12)
                  << serviceName(kind) << std::right << std::setw(10)
                  << s.invocations << " calls, " << std::scientific
                  << std::setprecision(3) << s.energyJ << " J, "
                  << std::fixed << std::setprecision(2)
                  << s.avgPowerW(freq) << " W avg\n";
    }

    // 4. Hottest sampling windows.
    PowerTrace trace = sys.powerTrace();
    std::vector<std::size_t> order(trace.windows.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return windowPowerW(trace.windows[a]) >
                         windowPowerW(trace.windows[b]);
              });
    std::cout << "\nHottest windows (CPU+memory power):\n";
    for (std::size_t i = 0; i < order.size() && i < 5; ++i) {
        const WindowPower &wp = trace.windows[order[i]];
        std::cout << "  t=" << std::fixed << std::setprecision(3)
                  << double(wp.startTick) / freq *
                         config.timeScale
                  << " s : " << std::setprecision(2)
                  << windowPowerW(wp) << " W\n";
    }
    return result.exitCode();
}
