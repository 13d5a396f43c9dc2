/**
 * @file
 * Text renderers for the paper's tables and figures: pie-style
 * component budgets (Figs. 5/7), per-mode stacked power (Fig. 6),
 * kernel-service power (Fig. 8), time profiles (Figs. 3/4), and
 * Tables 2-5; plus the argument and no-data helpers the harnesses
 * in bench/ and examples/ share.
 */

#ifndef SOFTWATT_CORE_REPORT_HH
#define SOFTWATT_CORE_REPORT_HH

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "os/service.hh"
#include "power/power_calculator.hh"
#include "sim/counters.hh"

namespace softwatt
{

class Config;
struct BenchmarkRun;

/** Print the component power-budget shares (Figures 5 and 7). */
void printPowerBudget(std::ostream &out, const std::string &title,
                      const PowerBreakdown &breakdown);

/** Print per-mode average power split by component (Figure 6). */
void printModePower(std::ostream &out, const std::string &title,
                    const PowerBreakdown &breakdown);

/**
 * Print a Table 2 row set: percentage breakdown of cycles and
 * energy per mode for each benchmark.
 */
void printTable2(std::ostream &out,
                 const std::vector<std::string> &names,
                 const std::vector<PowerBreakdown> &breakdowns);

/** Print Table 3: cache references per cycle per mode. */
void printTable3(std::ostream &out,
                 const std::vector<std::string> &names,
                 const std::vector<CounterBank> &totals);

/** Print the ALU-use-per-cycle companion of Section 3.2. */
void printAluUse(std::ostream &out,
                 const std::vector<std::string> &names,
                 const std::vector<CounterBank> &totals);

/**
 * Print Table 4 for one benchmark: services ranked by kernel cycles
 * with invocation counts, % kernel cycles, % kernel energy.
 */
void printTable4(std::ostream &out, const std::string &name,
                 const std::array<ServiceStats, numServices> &stats);

/** Print Table 5: per-invocation energy mean and CoD per service. */
void printTable5(std::ostream &out,
                 const std::array<ServiceStats, numServices> &pooled);

/** Print Figure 8: average power of key services, by component. */
void printServicePower(
    std::ostream &out,
    const std::array<ServiceStats, numServices> &pooled,
    double freq_hz);

/**
 * Print a Figure 3/4 style time profile: per window, the execution
 * time breakdown (instr/stall per mode) and per-mode power.
 * @param equiv_time_scale Multiplies window times into
 *        paper-equivalent seconds.
 */
void printTimeProfile(std::ostream &out, const std::string &title,
                      const PowerTrace &trace, const SampleLog &log,
                      double freq_hz, double equiv_time_scale);

/**
 * CPU+memory power of one profile window in watts: each mode's power
 * weighted by its share of the window's cycles. The window must not
 * be empty.
 */
double windowPowerW(const WindowPower &wp);

/** Percent with one decimal, right-aligned in 7 columns. */
std::string pct(double numerator, double denominator);

/**
 * Read a comma-separated list of numbers from @p key, or from
 * @p def when the key is absent. Each item is parsed whole, by the
 * rule Config::getDouble uses; an empty, malformed or NaN item is
 * fatal(), naming the key and the item. Callers range-check the
 * values by validating each config they build from them.
 */
std::vector<double> getDoubleList(const Config &args,
                                  const std::string &key,
                                  const std::string &def);

/**
 * Print "(no data: <bench> ended <outcome>[: <error>])" for a run
 * that left no system to report on.
 */
void printNoData(std::ostream &out, const BenchmarkRun &run);

} // namespace softwatt

#endif // SOFTWATT_CORE_REPORT_HH
