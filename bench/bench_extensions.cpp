/**
 * @file
 * Extension experiments suggested by the paper's conclusions:
 *
 * 1. Halt-on-idle: "this energy consumption can be reduced by
 *    transitioning the CPU and the memory-subsystem to a low-power
 *    mode or by even halting the processor, instead of executing the
 *    idle-process" — quantifies the saving per benchmark (the paper
 *    attributes over 5% of system energy to the idle process).
 *
 * 2. Conditional clocking ablation: how much of the power estimate
 *    depends on SoftWatt's conditional-clocking assumption, versus a
 *    naive always-clocked model.
 *
 * 3. Peak vs average power: the profile-derived peak the paper notes
 *    the tool can report for thermal design.
 */

#include <iomanip>
#include <iostream>

#include "core/runner.hh"

using namespace softwatt;

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    double scale = args.getDouble("scale", 0.3);
    ExperimentSpec spec =
        ExperimentSpec::fromArgs("extensions", args);
    SystemConfig busy_cfg = SystemConfig::fromArgs(args);
    SystemConfig halt_cfg = busy_cfg;
    halt_cfg.kernelParams.haltOnIdle = true;
    spec.addSuite(busy_cfg, scale, "busy");
    spec.addSuite(halt_cfg, scale, "halt");

    std::cout << "=== Extension 1: halting the processor instead of "
                 "busy-wait idling ===\n(scale " << scale << ")\n\n";
    ExperimentResult result = runExperiment(spec);

    std::cout << std::left << std::setw(10) << "bench" << std::right
              << std::setw(14) << "idle E (J)" << std::setw(14)
              << "halted (J)" << std::setw(14) << "saved (%sys)"
              << '\n';
    for (Benchmark b : allBenchmarks) {
        const BenchmarkRun &busy = result.run(b, "busy");
        const BenchmarkRun &halted = result.run(b, "halt");
        if (!busy.hasData() || !halted.hasData()) {
            std::cout << std::left << std::setw(10)
                      << benchmarkName(b) << "(no data)" << '\n';
            continue;
        }

        double busy_idle =
            busy.breakdown.modeEnergyJ(ExecMode::Idle);
        double halt_idle =
            halted.breakdown.modeEnergyJ(ExecMode::Idle);
        double saved_pct =
            100.0 * (busy.breakdown.cpuMemEnergyJ() -
                     halted.breakdown.cpuMemEnergyJ()) /
            busy.breakdown.cpuMemEnergyJ();
        std::cout << std::left << std::setw(10) << benchmarkName(b)
                  << std::right << std::setw(14) << std::scientific
                  << std::setprecision(3) << busy_idle
                  << std::setw(14) << halt_idle << std::setw(13)
                  << std::fixed << std::setprecision(2) << saved_pct
                  << " %" << '\n';
    }

    std::cout << "\n=== Extension 2: conditional clocking ablation "
                 "===\n\n";
    const BenchmarkRun &run = result.run(Benchmark::Jess, "busy");
    if (!run.hasData()) {
        std::cout << "(no data: jess/busy ended "
                  << runOutcomeName(run.result.outcome) << ")\n";
        return result.exitCode();
    }
    PowerCalculator gated(run.system->powerModel(), true);
    PowerCalculator always(run.system->powerModel(), false);
    double e_gated =
        gated.process(run.system->log()).total.cpuMemEnergyJ();
    double e_always =
        always.process(run.system->log()).total.cpuMemEnergyJ();
    std::cout << "jess CPU+mem energy, conditional clocking : "
              << e_gated << " J\n";
    std::cout << "jess CPU+mem energy, always clocked       : "
              << e_always << " J\n";
    std::cout << "conditional clocking saves                : "
              << 100.0 * (e_always - e_gated) / e_always << " %\n";

    std::cout << "\n=== Extension 3: peak vs average power (thermal "
                 "design point) ===\n\n";
    std::cout << std::left << std::setw(10) << "bench" << std::right
              << std::setw(12) << "avg (W)" << std::setw(12)
              << "peak (W)" << '\n';
    for (Benchmark b : allBenchmarks) {
        const BenchmarkRun &r = result.run(b, "busy");
        if (!r.hasData()) {
            std::cout << std::left << std::setw(10)
                      << benchmarkName(b) << "(no data)" << '\n';
            continue;
        }
        PowerTrace trace = r.system->powerTrace();
        double avg = r.breakdown.cpuMemEnergyJ() /
                     r.breakdown.seconds();
        std::cout << std::left << std::setw(10) << benchmarkName(b)
                  << std::right << std::setw(12) << std::fixed
                  << std::setprecision(2) << avg << std::setw(12)
                  << peakWindowPowerW(trace) << '\n';
    }
    return result.exitCode();
}
