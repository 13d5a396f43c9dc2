/**
 * @file
 * Design-space exploration with the public configuration API:
 * compares the Table 1 baseline against a user-modified machine
 * (smaller caches / narrower issue / different technology) on one
 * benchmark, reporting performance, energy, and the energy-delay
 * product the paper uses for design trade-offs.
 *
 * Usage: custom_machine [bench=db] [scale=0.5] then any overrides,
 *        e.g. icache.size_kb=16 dcache.size_kb=16 cpu.issue_width=2
 */

#include <iomanip>
#include <iostream>

#include "core/runner.hh"

using namespace softwatt;

namespace
{

struct RunSummary
{
    double seconds;
    double energyJ;

    double edp() const { return seconds * energyJ; }
};

RunSummary
summarize(const BenchmarkRun &run)
{
    RunSummary s;
    s.seconds = double(run.system->now()) /
                run.system->powerModel().technology().freqHz();
    s.energyJ = run.breakdown.cpuMemEnergyJ();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    std::string bench_name = args.getString("bench", "db");
    double scale = args.getDouble("scale", 0.5);
    ExperimentSpec spec =
        ExperimentSpec::fromArgs("custom-machine", args);
    Benchmark bench = benchmarkByName(bench_name);

    // Custom: Table 1 plus every machine override, that is every key
    // neither this harness nor the runner has read. If the user gave
    // none, use a narrower low-cost design as the demo.
    bool customized = !args.unusedKeys().empty();
    SystemConfig custom_config = SystemConfig::fromArgs(args);
    if (!customized) {
        custom_config.machine.icache.sizeBytes = 16 * 1024;
        custom_config.machine.dcache.sizeBytes = 16 * 1024;
        custom_config.machine.issueWidth = 2;
        custom_config.machine.fetchWidth = 2;
        custom_config.machine.decodeWidth = 2;
        custom_config.machine.commitWidth = 2;
        std::cout << "(no overrides given: comparing against a "
                     "2-wide, 16KB-L1 design)\n\n";
    }

    // Baseline: pristine Table 1 machine.
    spec.add(bench, SystemConfig{}, scale, "table1");
    spec.add(bench, custom_config, scale, "custom");
    ExperimentResult result = runExperiment(spec);

    const BenchmarkRun &base = result.run(bench, "table1");
    const BenchmarkRun &custom = result.run(bench, "custom");
    if (!base.hasData() || !custom.hasData()) {
        std::cout << "(no data: a " << bench_name << " run ended "
                  << runOutcomeName(
                         (base.hasData() ? custom : base)
                             .result.outcome)
                  << "; skipping the comparison)\n";
        return result.exitCode();
    }
    RunSummary base_summary = summarize(base);
    RunSummary custom_summary = summarize(custom);

    std::cout << "Benchmark: " << bench_name << " (scale " << scale
              << ")\n\n";
    std::cout << std::left << std::setw(12) << "metric"
              << std::right << std::setw(16) << "Table 1"
              << std::setw(16) << "custom" << std::setw(12)
              << "ratio" << '\n';
    auto row = [](const char *name, double a, double b) {
        std::cout << std::left << std::setw(12) << name << std::right
                  << std::setw(16) << std::scientific
                  << std::setprecision(4) << a << std::setw(16) << b
                  << std::setw(11) << std::fixed
                  << std::setprecision(3) << (a > 0 ? b / a : 0)
                  << "x\n";
    };
    row("time (s)", base_summary.seconds, custom_summary.seconds);
    row("energy (J)", base_summary.energyJ, custom_summary.energyJ);
    row("EDP (Js)", base_summary.edp(), custom_summary.edp());

    std::cout << "\nIPC: " << base.system->cpu().ipc() << " -> "
              << custom.system->cpu().ipc() << "\n";
    std::cout << "L1I miss ratio: "
              << base.system->hierarchy().icache().missRatio()
              << " -> "
              << custom.system->hierarchy().icache().missRatio()
              << "\n";
    return result.exitCode();
}
