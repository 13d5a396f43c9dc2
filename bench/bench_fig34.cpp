/**
 * @file
 * Figures 3 and 4: jess on the Mipsy-like in-order model and on the
 * MXS-like superscalar, from one experiment of two runs.
 *
 * Figure 3 shows the memory-subsystem behaviour on the in-order
 * model: the execution-time breakdown over time, the
 * memory-subsystem power profile, and the single-issue processor
 * power comparison (memory subsystem > 2x datapath). Figure 4 shows
 * the processor behaviour on the superscalar: the execution-time
 * breakdown and processor power profile over time (initial
 * disk-idle spike, memory cold-start, then steady state).
 *
 * Usage: bench_fig34 [bench=jess] [scale=1] [sample_window=250000]
 */

#include <iostream>
#include <sstream>

#include "core/report.hh"
#include "core/runner.hh"

using namespace softwatt;

namespace
{

/**
 * Print a run's time profile; @return false when the run left no
 * data, after printing the no-data line.
 */
bool
printProfile(std::ostream &out, const BenchmarkRun &run)
{
    if (!run.hasData()) {
        printNoData(out, run);
        return false;
    }
    const System &sys = *run.system;
    printTimeProfile(out,
                     "Execution/power profile over time "
                     "(paper-equivalent seconds)",
                     sys.powerTrace(), sys.log(),
                     sys.powerModel().technology().freqHz(),
                     sys.config().timeScale);
    return true;
}

/** Figure 3: the in-order profile and its power comparison. */
void
fig3(std::ostream &out, const BenchmarkRun &run)
{
    out << "=== Figure 3: " << run.name
        << " on the single-issue (Mipsy) model ===\n\n";
    if (!printProfile(out, run))
        return;

    // The paper's headline observation for single-issue machines.
    const PowerBreakdown &b = run.breakdown;
    double datapath = b.componentAvgPowerW(Component::Datapath);
    double memory_subsystem =
        b.componentAvgPowerW(Component::L1ICache) +
        b.componentAvgPowerW(Component::L1DCache) +
        b.componentAvgPowerW(Component::L2ICache) +
        b.componentAvgPowerW(Component::L2DCache) +
        b.componentAvgPowerW(Component::Memory);
    out << "\nAverage power, single-issue configuration:\n";
    out << "  processor datapath : " << datapath << " W\n";
    out << "  memory subsystem   : " << memory_subsystem << " W ("
        << memory_subsystem / datapath
        << "x the datapath; paper: > 2x)\n";
}

/** Figure 4: the superscalar profile and its run summary. */
void
fig4(std::ostream &out, const BenchmarkRun &run)
{
    out << "=== Figure 4: " << run.name
        << " on the superscalar (MXS) model ===\n\n";
    if (!printProfile(out, run))
        return;

    System &sys = *run.system;
    out << "\nRun summary: " << sys.now() << " cycles, IPC "
        << sys.cpu().ipc() << ", branch accuracy "
        << sys.cpu().predictor().accuracy() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    Cycles sample_window =
        Cycles(args.getInt("sample_window", 250'000));
    double scale = args.getDouble("scale", 1.0);
    // The paper's figures show jess; the technical report has the
    // other benchmarks — select with bench=<name>.
    std::string bench_name = args.getString("bench", "jess");
    ExperimentSpec spec = ExperimentSpec::fromArgs("fig34", args);
    SystemConfig config = SystemConfig::fromConfig(args);
    Benchmark bench = benchmarkByName(bench_name);
    config.sampleWindow = sample_window;
    config.cpuModel = CpuModel::InOrder;
    spec.add(bench, config, scale, "inorder");
    config.cpuModel = CpuModel::Superscalar;
    spec.add(bench, config, scale, "superscalar");

    ExperimentResult result = runExperiment(spec);
    // Each figure renders into its own stream, so its numbers never
    // depend on the float format the other's renderers leave set.
    std::ostringstream fig3_text, fig4_text;
    fig3(fig3_text, result.run(bench, "inorder"));
    fig4(fig4_text, result.run(bench, "superscalar"));
    std::cout << fig3_text.str() << fig4_text.str();
    return result.exitCode();
}
