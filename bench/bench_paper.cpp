/**
 * @file
 * The paper's characterization artifacts from one simulation of the
 * SPEC JVM98 suite: Figures 5-8, Tables 2-5 (Table 3 with the Section
 * 3.2 ALU use) and the Section 3.3 trace-based kernel-energy
 * estimate, printed in that order. The paper takes all of them from
 * one set of characterization runs, and so does this harness: the
 * default suite runs once, beside the in-order suite that Table 2
 * compares its kernel share against.
 */

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/report.hh"
#include "core/runner.hh"

using namespace softwatt;

namespace
{

/** Figure 5: the six-benchmark power budget, conventional disk. */
void
fig5(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Figure 5: Overall Power Budget, Conventional "
           "Disk ===\n(six-benchmark average, scale " << scale
        << ")\n\n";
    printPowerBudget(out, "Average power budget",
                     averageBreakdowns(result.conventionalBreakdowns()));
    out << "\nPaper reference: Disk 34%, L1 I-Cache ~22%, "
           "Clock ~22%, Datapath ~15%, Memory ~6%, others <1%.\n";
}

/** Figure 6: average power per software mode, by component. */
void
fig6(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Figure 6: Average Power per Mode ===\n"
           "(six-benchmark average, scale " << scale << ")\n\n";
    printModePower(out, "Average power by mode and component",
                   averageBreakdowns(result.breakdowns()));
    out << "\nPaper shape: user > sync > kernel > idle; "
           "L1 I-cache and clock dominate in every mode.\n";
}

/**
 * Figure 7: the power budget with the IDLE-capable disk, which is the
 * default disk, so these are Figure 5's runs under their managed
 * breakdown.
 */
void
fig7(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Figure 7: Power Budget, IDLE-capable Disk ===\n"
           "(six-benchmark average, scale " << scale << ")\n\n";
    PowerBreakdown avg_managed = averageBreakdowns(result.breakdowns());
    PowerBreakdown avg_conv =
        averageBreakdowns(result.conventionalBreakdowns());
    printPowerBudget(out, "With IDLE-capable disk", avg_managed);
    out << '\n';
    out << "Disk share: " << avg_conv.componentSharePct(Component::Disk)
        << " % (conventional) -> "
        << avg_managed.componentSharePct(Component::Disk)
        << " % (IDLE-capable).  Paper: 34 % -> 23 %.\n";
}

/** Figure 8: average power of OS services, pooled over the suite. */
void
fig8(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Figure 8: Average Power of OS Services ===\n"
           "(pooled over six benchmarks, scale " << scale << ")\n\n";
    printServicePower(out, result.pooledServiceStats(), result.freqHz());
    out << "\nPaper shape: utlb ~3.5 W (lowest), read ~5.5 W, "
           "demand_zero ~5 W, cacheflush ~4.5 W.\n";
}

double
kernelSharePct(const PowerBreakdown &b)
{
    double total = double(b.totalCycles());
    double kernel = double(b.cycles[int(ExecMode::KernelInst)]) +
                    double(b.cycles[int(ExecMode::KernelSync)]);
    return total > 0 ? 100.0 * kernel / total : 0;
}

double
averageKernelSharePct(const std::vector<PowerBreakdown> &breakdowns)
{
    double share = 0;
    for (const PowerBreakdown &b : breakdowns)
        share += kernelSharePct(b);
    return breakdowns.empty() ? 0 : share / double(breakdowns.size());
}

/**
 * Table 2: cycle and energy shares per mode for every benchmark, plus
 * the single-issue vs superscalar kernel share from the in-order
 * suite.
 */
void
table2(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Table 2: Cycle/Energy Breakdown per Mode ===\n"
           "(scale " << scale << ")\n\n";
    std::vector<PowerBreakdown> breakdowns = result.breakdowns();
    printTable2(out, result.names(), breakdowns);
    out << "\nAverage kernel activity (cycles):\n";
    out << "  single-issue : "
        << averageKernelSharePct(result.breakdowns("inorder"))
        << " %   (paper: 14.28 %)\n";
    out << "  superscalar  : " << averageKernelSharePct(breakdowns)
        << " %   (paper: 21.02 %)\n";
    out << "\nPaper shape: user energy share exceeds its cycle "
           "share; kernel and idle energy shares fall below "
           "their cycle shares.\n";
}

/** Table 3: L1 references per cycle per mode, plus Section 3.2's ALU
 *  use per cycle. */
void
table3(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Table 3: Cache References Per Cycle ===\n"
           "(scale " << scale << ")\n\n";
    std::vector<std::string> names = result.names();
    std::vector<CounterBank> totals = result.counterTotals();
    printTable3(out, names, totals);
    out << '\n';
    printAluUse(out, names, totals);
    out << "\nPaper reference (averages): iL1 user ~2.0, "
           "kernel ~1.1, sync ~1.55, idle ~0.8; dL1 user ~0.62, "
           "kernel ~0.2, sync ~0.17, idle ~0.37; ALU 0.76 / "
           "0.42 / 0.59 / 0.26.\n";
}

/** Table 4: each benchmark's kernel computation by service. */
void
table4(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Table 4: Kernel Computation by Service ===\n"
           "(scale " << scale
        << "; invocation counts scale with the workload)\n\n";
    for (const BenchmarkRun *run : result.variantRuns()) {
        if (!run->hasData()) {
            out << run->name << ": (no data: "
                << runOutcomeName(run->result.outcome) << ")\n\n";
            continue;
        }
        std::array<ServiceStats, numServices> stats{};
        for (ServiceKind kind : allServices)
            stats[int(kind)] = run->system->kernel().serviceStats(kind);
        printTable4(out, run->name, stats);
        out << '\n';
    }
    out << "Paper shape: utlb leads cycles in every benchmark "
           "(64-81 %) with energy share below cycle share.\n";
}

/** Table 5: variation of per-invocation service energy, pooled. */
void
table5(std::ostream &out, const ExperimentResult &result, double scale)
{
    out << "=== Table 5: Variation in Per-Invocation Service "
           "Energy ===\n(pooled over six benchmarks, scale "
        << scale << ")\n\n";
    std::array<ServiceStats, numServices> pooled =
        result.pooledServiceStats();
    printTable5(out, pooled);

    double internal = std::max(
        {pooled[int(ServiceKind::Utlb)].coeffOfDeviationPct(),
         pooled[int(ServiceKind::DemandZero)].coeffOfDeviationPct()});
    double external = std::min(
        {pooled[int(ServiceKind::Read)].coeffOfDeviationPct(),
         pooled[int(ServiceKind::Open)].coeffOfDeviationPct()});
    out << "\nmax(CoD utlb, demand_zero) = " << internal
        << " %; min(CoD read, open) = " << external
        << " %.\nPaper shape: internal services vary far less "
           "than I/O syscalls (0.14-2.5 % vs 6.6-10.7 %).\n";
}

/**
 * Section 3.3: per-invocation service energy is nearly constant, so
 * invocation counts times per-service mean energies calibrated on jess
 * should predict each other benchmark's kernel energy within about 10%
 * of the detailed result, without detailed power simulation.
 */
void
traceEstimate(std::ostream &out, const ExperimentResult &result,
              double scale)
{
    out << "=== Trace-based Kernel Energy Estimation "
           "(Section 3.3) ===\n(scale " << scale << ")\n\n";
    const BenchmarkRun &calib = result.run(Benchmark::Jess);
    if (!calib.hasData()) {
        out << "(no data: calibration run on jess ended "
            << runOutcomeName(calib.result.outcome)
            << "; cannot estimate)\n";
        return;
    }
    std::array<double, numServices> mean_energy{};
    for (ServiceKind kind : allServices) {
        mean_energy[int(kind)] =
            calib.system->kernel().serviceStats(kind).meanEnergyJ();
    }
    out << "Calibrated per-invocation means on jess.\n\n";
    out << std::left << std::setw(10) << "bench" << std::right
        << std::setw(16) << "detailed (J)" << std::setw(16)
        << "estimated (J)" << std::setw(12) << "error (%)" << '\n';

    double worst = 0;
    for (Benchmark b : {Benchmark::Compress, Benchmark::Db,
                        Benchmark::Javac, Benchmark::Mtrt,
                        Benchmark::Jack}) {
        const BenchmarkRun &run = result.run(b);
        if (!run.hasData()) {
            out << std::left << std::setw(10) << run.name << "(no data)"
                << '\n';
            continue;
        }
        double detailed = 0, estimated = 0;
        for (ServiceKind kind : allServices) {
            const ServiceStats &s = run.system->kernel().serviceStats(kind);
            detailed += s.energyJ;
            estimated += double(s.invocations) * mean_energy[int(kind)];
        }
        double err =
            detailed > 0 ? 100.0 * (estimated - detailed) / detailed : 0;
        worst = std::max(worst, std::abs(err));
        out << std::left << std::setw(10) << run.name << std::right
            << std::setw(16) << std::scientific << std::setprecision(4)
            << detailed << std::setw(16) << estimated << std::setw(11)
            << std::fixed << std::setprecision(2) << err << " %"
            << '\n';
    }
    out << "\nWorst absolute error: " << worst
        << " %  (paper claim: ~10 % margin)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    double scale = args.getDouble("scale", 0.5);
    ExperimentSpec spec = ExperimentSpec::fromArgs("paper", args);
    SystemConfig config = SystemConfig::fromArgs(args);
    spec.addSuite(config, scale);
    config.cpuModel = CpuModel::InOrder;
    spec.addSuite(config, scale, "inorder");

    ExperimentResult result = runExperiment(spec);
    using Section =
        void (*)(std::ostream &, const ExperimentResult &, double);
    for (Section section : {fig5, fig6, fig7, fig8, table2, table3,
                            table4, table5, traceEstimate}) {
        // One stream per section: the renderers leave their float
        // format set (std::fixed, and printTable5 std::scientific),
        // which would reformat the scale in every later header.
        std::ostringstream text;
        section(text, result, scale);
        std::cout << text.str();
    }
    return result.exitCode();
}
