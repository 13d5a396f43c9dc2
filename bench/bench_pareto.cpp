/**
 * @file
 * Energy-vs-performance Pareto frontier under the closed-loop DVFS
 * governor: one unconstrained baseline plus one run per power
 * budget. In each governed run the kernel's power meter feeds the
 * governor every sample window, and the machine steps down the
 * voltage/frequency ladder when a window's system power exceeds the
 * budget and back up when there is headroom. Tightening the budget
 * trades run time for energy; the frontier is the curve that trade
 * sweeps out. Prints each run's final and deepest ladder level and
 * its steps down and up, and checks that the frontier is monotone —
 * as the budget falls, run time never shrinks and total energy never
 * grows — and that the governor demonstrably changed the operating
 * point mid-run for at least one budget.
 *
 * Usage: bench_pareto [bench=mtrt] [scale=0.2]
 *                     [budgets=8,7,6,5] [out=pareto.json]
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/runner.hh"
#include "sim/logging.hh"

using namespace softwatt;

namespace
{

struct FrontierPoint
{
    std::string label;
    double seconds = 0;
    double energyJ = 0;
    const DvfsGovernor *governor = nullptr;
};

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;
    std::string bench_name = args.getString("bench", "mtrt");
    double scale = args.getDouble("scale", 0.2);
    std::vector<double> budgets =
        getDoubleList(args, "budgets", "8,7,6,5");
    if (budgets.size() < 2)
        fatal("budgets= must list at least two budgets to sweep "
              "a frontier");
    for (std::size_t i = 1; i < budgets.size(); ++i) {
        if (budgets[i] >= budgets[i - 1])
            fatal("budgets= must be strictly decreasing");
    }
    ExperimentSpec spec = ExperimentSpec::fromArgs("pareto", args);
    Benchmark bench = benchmarkByName(bench_name);

    SystemConfig base_config = SystemConfig::fromArgs(args);
    spec.add(bench, base_config, scale, "unconstrained");
    for (double budget : budgets) {
        SystemConfig config = base_config;
        config.dvfsEnabled = true;
        config.powerBudgetW = budget;
        config.validate();
        std::ostringstream variant;
        variant << budget << "W";
        spec.add(bench, config, scale, variant.str());
    }

    std::cout << "=== Energy/performance Pareto frontier ===\n("
              << bench_name << ", scale " << scale << ", "
              << budgets.size() << " budgets + baseline)\n\n";

    ExperimentResult result = runExperiment(spec);

    std::vector<FrontierPoint> frontier;
    for (std::size_t i = 0; i < result.size(); ++i) {
        const BenchmarkRun &run = result.at(i);
        if (!run.hasData()) {
            std::cout << "run " << i << " produced no data ("
                      << runOutcomeName(run.result.outcome)
                      << ")\n";
            return 1;
        }
        FrontierPoint p;
        p.label = run.variant;
        p.seconds = run.breakdown.seconds();
        p.energyJ = run.breakdown.cpuMemEnergyJ() +
                    run.breakdown.diskEnergyJ;
        p.governor = run.system->dvfsGovernor();
        frontier.push_back(p);
    }

    std::cout << std::right << std::setw(16) << "budget"
              << std::setw(14) << "time (s)" << std::setw(14)
              << "energy (J)" << std::setw(10) << "avg W"
              << std::setw(8) << "level" << std::setw(8) << "deep"
              << std::setw(8) << "down" << std::setw(8) << "up"
              << '\n';
    for (const FrontierPoint &p : frontier) {
        std::cout << std::right << std::setw(16) << p.label
                  << std::setw(14) << std::scientific
                  << std::setprecision(4) << p.seconds
                  << std::setw(14) << p.energyJ << std::setw(10)
                  << std::fixed << std::setprecision(2)
                  << p.energyJ / p.seconds;
        if (p.governor) {
            std::cout << std::setw(8) << p.governor->level()
                      << std::setw(8) << p.governor->deepestLevel()
                      << std::setw(8) << p.governor->stepsDown()
                      << std::setw(8) << p.governor->stepsUp();
        } else {
            std::cout << std::setw(8) << "-" << std::setw(8) << "-"
                      << std::setw(8) << "-" << std::setw(8) << "-";
        }
        std::cout << '\n';
    }
    std::cout << "\nThe governor observes each closed sample window "
                 "through the kernel power meter\nand moves one ladder "
                 "rung per window: down past the budget, up under 90% "
                 "of it.\nTighter budgets trade run time for energy; "
                 "the ladder pairs each frequency with\nthe lowest "
                 "era-plausible supply.\n";

    // Monotonicity: as the budget tightens (left to right in the
    // frontier vector), time must not shrink and energy must not
    // grow. A hair of tolerance absorbs the discreteness of the
    // ladder (a budget that never binds reproduces the baseline).
    bool monotone = true;
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        const FrontierPoint &prev = frontier[i - 1];
        const FrontierPoint &cur = frontier[i];
        if (cur.seconds < prev.seconds * (1 - 1e-9)) {
            std::cout << "\nNOT monotone: " << cur.label
                      << " runs faster than " << prev.label << " ("
                      << cur.seconds << " s < " << prev.seconds
                      << " s)\n";
            monotone = false;
        }
        if (cur.energyJ > prev.energyJ * (1 + 1e-9)) {
            std::cout << "\nNOT monotone: " << cur.label
                      << " uses more energy than " << prev.label
                      << " (" << cur.energyJ << " J > "
                      << prev.energyJ << " J)\n";
            monotone = false;
        }
    }

    bool governed = false;
    for (const FrontierPoint &p : frontier) {
        if (p.governor && p.governor->stepsDown() > 0)
            governed = true;
    }

    std::cout << "\nfrontier monotone: "
              << (monotone ? "yes" : "NO")
              << "; governor changed frequency mid-run: "
              << (governed ? "yes" : "NO") << '\n';
    if (!monotone || !governed)
        return 1;
    return result.exitCode();
}
