#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "sim/config.hh"
#include "sim/logging.hh"

#include "experiment.hh"

namespace softwatt
{

namespace
{

/** Ratio per mode: counter / cycles in that mode. */
double
perCycle(const CounterBank &bank, ExecMode mode, CounterId id)
{
    std::uint64_t cycles = bank.get(mode, CounterId::Cycles);
    return cycles ? double(bank.get(mode, id)) / double(cycles) : 0;
}

/**
 * A failed or skipped run contributes an all-zero counter bank; its
 * table row is rendered as a gap instead of a wall of zeros.
 */
bool
isGap(const CounterBank &bank)
{
    for (ExecMode mode : allExecModes) {
        if (bank.get(mode, CounterId::Cycles) != 0)
            return false;
    }
    return true;
}

} // namespace

double
windowPowerW(const WindowPower &wp)
{
    double len = double(wp.endTick - wp.startTick);
    double power = 0;
    for (int m = 0; m < numExecModes; ++m)
        power += wp.modePowerW[m] * double(wp.cycles[m]) / len;
    return power;
}

std::string
pct(double numerator, double denominator)
{
    std::ostringstream out;
    double value =
        denominator > 0 ? 100.0 * numerator / denominator : 0;
    out << std::setw(7) << std::fixed << std::setprecision(2)
        << value;
    return out.str();
}

void
printPowerBudget(std::ostream &out, const std::string &title,
                 const PowerBreakdown &breakdown)
{
    out << title << '\n';
    out << "  system average power: " << std::fixed
        << std::setprecision(2) << breakdown.systemAvgPowerW()
        << " W\n";
    for (Component c : allComponents) {
        out << "  " << std::left << std::setw(12) << componentName(c)
            << std::right << std::setw(7) << std::fixed
            << std::setprecision(2) << breakdown.componentSharePct(c)
            << " %   (" << std::setprecision(3)
            << breakdown.componentAvgPowerW(c) << " W)\n";
    }
}

void
printModePower(std::ostream &out, const std::string &title,
               const PowerBreakdown &breakdown)
{
    out << title << '\n';
    out << std::left << std::setw(12) << "  component";
    for (ExecMode mode : allExecModes)
        out << std::right << std::setw(9) << execModeName(mode);
    out << '\n';
    for (Component c : allComponents) {
        if (c == Component::Disk)
            continue;
        out << "  " << std::left << std::setw(10) << componentName(c);
        for (ExecMode mode : allExecModes) {
            out << std::right << std::setw(9) << std::fixed
                << std::setprecision(3)
                << breakdown.modeComponentPowerW(mode, c);
        }
        out << '\n';
    }
    out << "  " << std::left << std::setw(10) << "total";
    for (ExecMode mode : allExecModes) {
        out << std::right << std::setw(9) << std::fixed
            << std::setprecision(3) << breakdown.modeAvgPowerW(mode);
    }
    out << '\n';
}

void
printTable2(std::ostream &out, const std::vector<std::string> &names,
            const std::vector<PowerBreakdown> &breakdowns)
{
    out << "Table 2: Percentage Breakdown of Energy and Cycles\n";
    out << std::left << std::setw(10) << "bench";
    for (ExecMode mode : allExecModes) {
        out << std::right << std::setw(8)
            << (std::string(execModeName(mode)) + "%cy")
            << std::setw(8)
            << (std::string(execModeName(mode)) + "%en");
    }
    out << '\n';
    for (std::size_t i = 0; i < names.size(); ++i) {
        const PowerBreakdown &b = breakdowns[i];
        double cycles = double(b.totalCycles());
        double energy = b.cpuMemEnergyJ();
        out << std::left << std::setw(10) << names[i];
        if (cycles <= 0) {
            out << "(no data)\n";
            continue;
        }
        for (ExecMode mode : allExecModes) {
            out << std::right << std::setw(8) << std::fixed
                << std::setprecision(2)
                << (cycles > 0
                        ? 100.0 * double(b.cycles[int(mode)]) / cycles
                        : 0)
                << std::setw(8)
                << (energy > 0 ? 100.0 * b.modeEnergyJ(mode) / energy
                               : 0);
        }
        out << '\n';
    }
}

void
printTable3(std::ostream &out, const std::vector<std::string> &names,
            const std::vector<CounterBank> &totals)
{
    out << "Table 3: Cache References Per Cycle\n";
    out << std::left << std::setw(10) << "bench";
    for (ExecMode mode : allExecModes) {
        out << std::right << std::setw(9)
            << (std::string(execModeName(mode)) + ".iL1")
            << std::setw(9)
            << (std::string(execModeName(mode)) + ".dL1");
    }
    out << '\n';
    for (std::size_t i = 0; i < names.size(); ++i) {
        out << std::left << std::setw(10) << names[i];
        if (isGap(totals[i])) {
            out << "(no data)\n";
            continue;
        }
        for (ExecMode mode : allExecModes) {
            out << std::right << std::setw(9) << std::fixed
                << std::setprecision(4)
                << perCycle(totals[i], mode, CounterId::IL1Ref)
                << std::setw(9)
                << perCycle(totals[i], mode, CounterId::DL1Ref);
        }
        out << '\n';
    }
}

void
printAluUse(std::ostream &out, const std::vector<std::string> &names,
            const std::vector<CounterBank> &totals)
{
    out << "ALU use per cycle (Section 3.2)\n";
    out << std::left << std::setw(10) << "bench";
    for (ExecMode mode : allExecModes)
        out << std::right << std::setw(9) << execModeName(mode);
    out << '\n';
    for (std::size_t i = 0; i < names.size(); ++i) {
        out << std::left << std::setw(10) << names[i];
        if (isGap(totals[i])) {
            out << "(no data)\n";
            continue;
        }
        for (ExecMode mode : allExecModes) {
            double alu =
                perCycle(totals[i], mode, CounterId::IntAluOp) +
                perCycle(totals[i], mode, CounterId::FpAluOp);
            out << std::right << std::setw(9) << std::fixed
                << std::setprecision(3) << alu;
        }
        out << '\n';
    }
}

void
printTable4(std::ostream &out, const std::string &name,
            const std::array<ServiceStats, numServices> &stats)
{
    std::uint64_t kernel_cycles = 0;
    double kernel_energy = 0;
    for (const ServiceStats &s : stats) {
        kernel_cycles += s.cycles;
        kernel_energy += s.energyJ;
    }

    std::vector<ServiceKind> order(allServices.begin(),
                                   allServices.end());
    std::sort(order.begin(), order.end(),
              [&](ServiceKind a, ServiceKind b) {
                  return stats[int(a)].cycles > stats[int(b)].cycles;
              });

    out << "Table 4 (" << name
        << "): Breakdown of Kernel Computation by Service\n";
    out << std::left << std::setw(14) << "  service" << std::right
        << std::setw(12) << "num" << std::setw(10) << "%cycles"
        << std::setw(10) << "%energy" << '\n';
    for (ServiceKind kind : order) {
        const ServiceStats &s = stats[int(kind)];
        if (s.invocations == 0)
            continue;
        out << "  " << std::left << std::setw(12) << serviceName(kind)
            << std::right << std::setw(12) << s.invocations
            << std::setw(10) << std::fixed << std::setprecision(3)
            << (kernel_cycles
                    ? 100.0 * double(s.cycles) / double(kernel_cycles)
                    : 0)
            << std::setw(10)
            << (kernel_energy > 0 ? 100.0 * s.energyJ / kernel_energy
                                  : 0)
            << '\n';
    }
}

void
printTable5(std::ostream &out,
            const std::array<ServiceStats, numServices> &pooled)
{
    out << "Table 5: Variation in Behavior of Operating System "
           "Services\n";
    out << std::left << std::setw(14) << "  service" << std::right
        << std::setw(14) << "mean E (J)" << std::setw(10) << "CoD (%)"
        << std::setw(14) << "min (J)" << std::setw(14) << "max (J)"
        << '\n';
    for (ServiceKind kind : {ServiceKind::Utlb,
                             ServiceKind::DemandZero,
                             ServiceKind::CacheFlush,
                             ServiceKind::Read, ServiceKind::Write,
                             ServiceKind::Open}) {
        const ServiceStats &s = pooled[int(kind)];
        if (s.invocations == 0)
            continue;
        out << "  " << std::left << std::setw(12) << serviceName(kind)
            << std::right << std::setw(14) << std::scientific
            << std::setprecision(4) << s.meanEnergyJ() << std::setw(10)
            << std::fixed << std::setprecision(4)
            << s.coeffOfDeviationPct() << std::scientific
            << std::setw(14) << s.energyMin << std::setw(14)
            << s.energyMax << '\n';
    }
}

void
printServicePower(std::ostream &out,
                  const std::array<ServiceStats, numServices> &pooled,
                  double freq_hz)
{
    out << "Figure 8: Average Power of Operating System Services "
           "(W)\n";
    out << std::left << std::setw(14) << "  service";
    for (Component c : allComponents) {
        if (c == Component::Disk)
            continue;
        out << std::right << std::setw(11) << componentName(c);
    }
    out << std::right << std::setw(9) << "total" << '\n';
    for (ServiceKind kind :
         {ServiceKind::Utlb, ServiceKind::Read,
          ServiceKind::DemandZero, ServiceKind::CacheFlush}) {
        const ServiceStats &s = pooled[int(kind)];
        if (s.cycles == 0)
            continue;
        double seconds = double(s.cycles) / freq_hz;
        out << "  " << std::left << std::setw(12)
            << serviceName(kind);
        for (Component c : allComponents) {
            if (c == Component::Disk)
                continue;
            out << std::right << std::setw(11) << std::fixed
                << std::setprecision(3)
                << s.componentEnergyJ[int(c)] / seconds;
        }
        out << std::right << std::setw(9) << std::fixed
            << std::setprecision(3) << s.avgPowerW(freq_hz) << '\n';
    }
}

void
printTimeProfile(std::ostream &out, const std::string &title,
                 const PowerTrace &trace, const SampleLog &log,
                 double freq_hz, double equiv_time_scale)
{
    out << title << '\n';
    out << "  t(s)    user_i%  user_s%  kern_i%  kern_s%   sync%  "
           "idle%   P.user  P.kern  P.sync  P.idle  P.total\n";
    for (std::size_t w = 0; w < trace.windows.size(); ++w) {
        const WindowPower &wp = trace.windows[w];
        const SampleRecord &rec = log.at(w);
        double len = double(wp.endTick - wp.startTick);
        if (len <= 0)
            continue;
        double t = double(wp.endTick) / freq_hz * equiv_time_scale;

        auto mode_cycles = [&](ExecMode m) {
            return double(rec.counters.get(m, CounterId::Cycles));
        };
        auto commit_cycles = [&](ExecMode m) {
            return double(
                rec.counters.get(m, CounterId::CommitCycles));
        };

        double user = mode_cycles(ExecMode::User);
        double user_i = commit_cycles(ExecMode::User);
        double kern = mode_cycles(ExecMode::KernelInst);
        double kern_i = commit_cycles(ExecMode::KernelInst);
        double sync = mode_cycles(ExecMode::KernelSync);
        double idle = mode_cycles(ExecMode::Idle);

        out << std::fixed << std::setprecision(3) << std::setw(7) << t
            << ' ' << pct(user_i, len) << ' '
            << pct(user - user_i, len) << ' ' << pct(kern_i, len)
            << ' ' << pct(kern - kern_i, len) << ' ' << pct(sync, len)
            << ' ' << pct(idle, len);
        for (int m = 0; m < numExecModes; ++m) {
            out << std::setw(8) << std::setprecision(2)
                << wp.modePowerW[m];
        }
        out << std::setw(9) << std::setprecision(2) << windowPowerW(wp)
            << '\n';
    }
}

std::vector<double>
getDoubleList(const Config &args, const std::string &key,
              const std::string &def)
{
    std::string text = args.getString(key, def);
    std::vector<double> values;
    std::size_t begin = 0;
    for (;;) {
        std::size_t comma = text.find(',', begin);
        std::string item = text.substr(begin, comma - begin);
        char *end = nullptr;
        double v = std::strtod(item.c_str(), &end);
        if (end == item.c_str() || *end != '\0' || std::isnan(v))
            fatal(msg() << "config key '" << key << "': item '" << item
                        << "' of '" << text << "' is not a number");
        values.push_back(v);
        if (comma == std::string::npos)
            return values;
        begin = comma + 1;
    }
}

void
printNoData(std::ostream &out, const BenchmarkRun &run)
{
    out << "(no data: " << run.name << " ended "
        << runOutcomeName(run.result.outcome)
        << (run.error.empty() ? "" : ": " + run.error) << ")\n";
}

} // namespace softwatt
