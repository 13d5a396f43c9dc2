/**
 * @file
 * Ablations of the two simulation-methodology choices the paper
 * highlights:
 *
 * 1. Idle fast-forward (Section 3.3): spin-ups/downs can be
 *    fast-forwarded because the idle process's per-cycle behaviour
 *    is workload-independent. Compare a run with fast-forward
 *    against a fully detailed run of the same benchmark.
 *
 * 2. Post-processing power (Section 2): power computed from the
 *    sampled log equals power computed online window by window
 *    (the log loses per-cycle resolution but no energy).
 */

#include <cmath>
#include <iostream>
#include <sstream>

#include "core/runner.hh"

using namespace softwatt;

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    double scale = args.getDouble("scale", 0.1);
    ExperimentSpec spec = ExperimentSpec::fromArgs("ablation", args);
    SystemConfig ff_config = SystemConfig::fromArgs(args);
    SystemConfig detailed_config = ff_config;
    detailed_config.idleFastForwardAfter =
        ~Cycles(0) / 2;  // effectively never fast-forward
    spec.add(Benchmark::Jess, ff_config, scale, "fast-forward");
    spec.add(Benchmark::Jess, detailed_config, scale, "detailed");

    std::cout << "=== Ablation 1: idle fast-forward vs detailed idle "
                 "===\n(jess, scale " << scale << ")\n\n";
    ExperimentResult result = runExperiment(spec);
    const BenchmarkRun &ff =
        result.run(Benchmark::Jess, "fast-forward");
    const BenchmarkRun &detailed =
        result.run(Benchmark::Jess, "detailed");
    if (!ff.hasData() || !detailed.hasData()) {
        std::cout << "(no data: a jess run ended "
                  << runOutcomeName(
                         (ff.hasData() ? detailed : ff)
                             .result.outcome)
                  << "; skipping the ablation report)\n";
        return result.exitCode();
    }

    double e_ff = ff.breakdown.cpuMemEnergyJ();
    double e_detailed = detailed.breakdown.cpuMemEnergyJ();
    std::cout << "fast-forwarded cycles : "
              << ff.system->fastForwardedCycles() << " of "
              << ff.system->now() << "\n";
    std::cout << "CPU+mem energy, fast-forward : " << e_ff << " J\n";
    std::cout << "CPU+mem energy, detailed     : " << e_detailed
              << " J\n";
    std::cout << "difference                   : "
              << 100.0 * std::abs(e_ff - e_detailed) / e_detailed
              << " %\n";
    std::cout << "idle-mode cycles, fast-forward : "
              << ff.system->totals().get(ExecMode::Idle,
                                         CounterId::Cycles)
              << "\n";
    std::cout << "idle-mode cycles, detailed     : "
              << detailed.system->totals().get(ExecMode::Idle,
                                               CounterId::Cycles)
              << "\n";
    std::cout << "wall-clock note: the detailed run simulates every "
                 "idle cycle; fast-forward skips them.\n\n";

    std::cout << "=== Ablation 2: post-processed log vs in-memory "
                 "totals ===\n\n";
    std::stringstream csv;
    ff.system->log().writeCsv(csv);
    SampleLog loaded;
    if (!SampleLog::readCsv(csv, loaded)) {
        std::cout << "CSV round-trip failed!\n";
        return 1;
    }
    PowerCalculator calc(ff.system->powerModel());
    double from_csv = calc.process(loaded).total.cpuMemEnergyJ();
    std::cout << "energy from in-memory log : " << e_ff << " J\n";
    std::cout << "energy from CSV log       : " << from_csv
              << " J\n";
    std::cout << "difference                : "
              << 100.0 * std::abs(from_csv - e_ff) /
                     (e_ff > 0 ? e_ff : 1)
              << " %\n";
    return result.exitCode();
}
