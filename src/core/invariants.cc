#include "invariants.hh"

#include <cmath>
#include <memory>

#include "mem/cache.hh"
#include "power/power_calculator.hh"
#include "sim/logging.hh"

#include "system.hh"

namespace softwatt
{

bool
invariantApproxEqual(double a, double b, double rel, double abs)
{
    if (!std::isfinite(a) || !std::isfinite(b))
        return false;
    double diff = std::fabs(a - b);
    double scale = std::fmax(std::fabs(a), std::fabs(b));
    return diff <= abs || diff <= rel * scale;
}

void
InvariantChecker::add(std::string name, Validator validator)
{
    entries.push_back(Entry{std::move(name), std::move(validator)});
}

void
InvariantChecker::checkAll(const char *when)
{
    if (!enabledFlag)
        return;
    for (const Entry &entry : entries) {
        std::string detail = entry.validator();
        if (!detail.empty()) {
            panic(msg() << "invariant '" << entry.name
                        << "' violated (" << when << "): " << detail);
        }
    }
    ++numPasses;
}

namespace
{

/**
 * Shared incremental state: validators scan only the sample windows
 * appended since the previous sweep, so a whole run of sweeps costs
 * O(log size), not O(size^2). Held by shared_ptr because validators
 * are copyable std::functions.
 */
struct LogCursorState
{
    std::size_t seen = 0;        ///< Windows already validated.
    std::size_t seenCycles = 0;  ///< Cursor of the partition check.
    std::size_t seenStream = 0;  ///< Cursor of the stream-match check.
    Tick lastEnd = 0;            ///< endTick of the last seen window.
    bool haveLastEnd = false;

    /// Counters accumulated from seen windows (vs the totals bank).
    CounterBank runningTotals;

    /// Energy sums accumulated per window in three different orders.
    double grandJ = 0;
    std::array<double, numExecModes> modeJ{};
    ComponentEnergy componentJ{};
};

std::string
cacheAccounting(const Cache &cache)
{
    if (cache.refs() == cache.hits() + cache.misses())
        return "";
    return std::string(cache.name()) + ": refs " +
           std::to_string(cache.refs()) + " != hits " +
           std::to_string(cache.hits()) + " + misses " +
           std::to_string(cache.misses());
}

std::string
mismatch(const char *what, double got, double expected)
{
    return msg() << what << ": " << got
                 << " != " << expected << " (|diff| "
                 << std::fabs(got - expected) << ")";
}

} // namespace

void
registerSystemInvariants(InvariantChecker &checker, const System &sys)
{
    auto state = std::make_shared<LogCursorState>();
    auto lastNow = std::make_shared<Tick>(sys.now());
    auto prevTotals =
        std::make_shared<CounterBank::Matrix>(sys.totals().raw());

    // Simulated time only moves forward, and the next pending event
    // is never in the past.
    checker.add("time.monotone", [&sys, lastNow]() -> std::string {
        Tick now = sys.now();
        if (now < *lastNow) {
            return msg() << "time moved backwards: " << now << " < "
                         << *lastNow;
        }
        *lastNow = now;
        Tick next = sys.eventQueue().nextEventTick();
        if (next != maxTick && next < now) {
            return msg() << "pending event at " << next
                         << " is before now (" << now << ")";
        }
        return "";
    });

    // Sample windows are nonempty and tile time without gaps.
    checker.add("log.window-contiguity",
                [&sys, state]() -> std::string {
        const SampleLog &log = sys.log();
        for (; state->seen < log.size(); ++state->seen) {
            const SampleRecord &rec = log.at(state->seen);
            if (rec.endTick <= rec.startTick) {
                return msg() << "window " << state->seen
                             << " is empty: [" << rec.startTick
                             << ", " << rec.endTick << ")";
            }
            if (state->haveLastEnd &&
                rec.startTick != state->lastEnd) {
                return msg() << "window " << state->seen
                             << " starts at " << rec.startTick
                             << " but the previous window ended at "
                             << state->lastEnd;
            }
            state->lastEnd = rec.endTick;
            state->haveLastEnd = true;

            state->runningTotals.accumulate(rec.counters);
            for (int m = 0; m < numExecModes; ++m) {
                ExecMode mode = ExecMode(m);
                Cycles mode_cycles =
                    rec.counters.get(mode, CounterId::Cycles);
                // energiesForRecord applies the window's operating
                // point (DVFS voltage/frequency scaling), so the
                // accumulated sums stay comparable to the power pass
                // under a closed-loop governor.
                ComponentEnergy e =
                    sys.powerCalculator().energiesForRecord(
                        rec, mode, mode_cycles);
                for (int c = 0; c < numComponents; ++c) {
                    if (!std::isfinite(e[c]) || e[c] < 0) {
                        return msg()
                            << "window " << state->seen << " mode "
                            << execModeName(mode) << " component "
                            << componentName(Component(c))
                            << " energy is " << e[c];
                    }
                    state->grandJ += e[c];
                    state->modeJ[m] += e[c];
                    state->componentJ[c] += e[c];
                }
            }
        }
        return "";
    });

    // Every tick of a window is charged to exactly one execution
    // mode: per-mode Cycles counters partition the window length.
    // Holds exactly because detailed execution charges one cycle per
    // tick and idle fast-forward charges whole chunks.
    checker.add("counters.cycles-partition",
                [&sys, state]() -> std::string {
        const SampleLog &log = sys.log();
        for (; state->seenCycles < log.size(); ++state->seenCycles) {
            const SampleRecord &rec = log.at(state->seenCycles);
            std::uint64_t sum =
                rec.counters.total(CounterId::Cycles);
            if (sum != rec.length()) {
                return msg() << "window " << state->seenCycles
                             << ": mode cycles sum to " << sum
                             << " but the window spans "
                             << rec.length() << " ticks";
            }
        }
        return "";
    });

    // Counter totals never decrease between sweeps.
    checker.add("counters.monotone",
                [&sys, prevTotals]() -> std::string {
        const CounterBank::Matrix &now = sys.totals().raw();
        for (int m = 0; m < numExecModes; ++m) {
            for (int c = 0; c < numCounters; ++c) {
                if (now[m][c] < (*prevTotals)[m][c]) {
                    return msg()
                        << execModeName(ExecMode(m)) << "/"
                        << counterName(CounterId(c))
                        << " decreased: " << now[m][c] << " < "
                        << (*prevTotals)[m][c];
                }
            }
        }
        *prevTotals = now;
        return "";
    });

    // The totals bank is exactly the sum of the logged windows.
    checker.add("counters.totals-match-log",
                [&sys, state]() -> std::string {
        const CounterBank::Matrix &bank = sys.totals().raw();
        const CounterBank::Matrix &acc =
            state->runningTotals.raw();
        for (int m = 0; m < numExecModes; ++m) {
            for (int c = 0; c < numCounters; ++c) {
                if (bank[m][c] != acc[m][c]) {
                    return msg()
                        << execModeName(ExecMode(m)) << "/"
                        << counterName(CounterId(c))
                        << ": totals bank has " << bank[m][c]
                        << " but the log sums to " << acc[m][c];
                }
            }
        }
        return "";
    });

    // The streaming accumulator keeps pace with the log — one window
    // per record — and each window's average powers, re-derived
    // independently from the record's counters and operating point,
    // match what the stream produced when the window closed.
    checker.add("power.stream-window-match",
                [&sys, state]() -> std::string {
        const SampleLog &log = sys.log();
        const PowerTrace &trace = sys.powerTrace();
        if (trace.windows.size() != log.size()) {
            return msg() << "stream has " << trace.windows.size()
                         << " window(s) but the log has "
                         << log.size();
        }
        double freq_hz =
            sys.powerCalculator().model().technology().freqHz();
        for (; state->seenStream < log.size();
             ++state->seenStream) {
            const SampleRecord &rec = log.at(state->seenStream);
            const WindowPower &wp =
                trace.windows[state->seenStream];
            if (wp.startTick != rec.startTick ||
                wp.endTick != rec.endTick) {
                return msg() << "window " << state->seenStream
                             << " spans [" << wp.startTick << ", "
                             << wp.endTick << ") in the stream but ["
                             << rec.startTick << ", " << rec.endTick
                             << ") in the log";
            }
            double window_seconds =
                double(rec.length()) / freq_hz;
            ComponentEnergy comp_j{};
            for (int m = 0; m < numExecModes; ++m) {
                ExecMode mode = ExecMode(m);
                Cycles mode_cycles =
                    rec.counters.get(mode, CounterId::Cycles);
                ComponentEnergy e =
                    sys.powerCalculator().energiesForRecord(
                        rec, mode, mode_cycles);
                double mode_j = 0;
                for (int c = 0; c < numComponents; ++c) {
                    comp_j[c] += e[c];
                    mode_j += e[c];
                }
                // Mode power is averaged over the mode's own
                // cycles, not the whole window.
                double mode_seconds =
                    double(mode_cycles) / freq_hz;
                double mode_w =
                    mode_seconds > 0 ? mode_j / mode_seconds : 0;
                if (!invariantApproxEqual(wp.modePowerW[m],
                                          mode_w)) {
                    return mismatch(execModeName(mode),
                                    wp.modePowerW[m], mode_w);
                }
            }
            for (int c = 0; c < numComponents; ++c) {
                double comp_w = comp_j[c] / window_seconds;
                if (!invariantApproxEqual(wp.componentPowerW[c],
                                          comp_w)) {
                    return mismatch(componentName(Component(c)),
                                    wp.componentPowerW[c], comp_w);
                }
            }
        }
        return "";
    });

    // The power pass conserves energy: the incrementally accumulated
    // per-window sums equal the stream's running totals, and
    // mode/component views partition the same total. Reads the live
    // stream accumulator — O(1) per sweep, no batch recompute.
    checker.add("energy.conservation",
                [&sys, state]() -> std::string {
        const PowerTrace &trace = sys.powerTrace();
        double total = trace.total.cpuMemEnergyJ();
        if (!invariantApproxEqual(total, state->grandJ))
            return mismatch("cpu+mem total J", total, state->grandJ);
        for (int m = 0; m < numExecModes; ++m) {
            double mode_j = trace.total.modeEnergyJ(ExecMode(m));
            if (!invariantApproxEqual(mode_j, state->modeJ[m])) {
                return mismatch(execModeName(ExecMode(m)), mode_j,
                                state->modeJ[m]);
            }
        }
        for (int c = 0; c < numComponents; ++c) {
            // process() leaves diskEnergyJ at 0, so the component
            // view contains only counter-derived energy here.
            double comp_j =
                trace.total.componentEnergyJ(Component(c));
            if (!invariantApproxEqual(comp_j,
                                      state->componentJ[c])) {
                return mismatch(componentName(Component(c)), comp_j,
                                state->componentJ[c]);
            }
        }
        return "";
    });

    // Every cache reference is exactly one hit or one miss.
    checker.add("cache.hit-miss-accounting", [&sys]() -> std::string {
        const CacheHierarchy &h = sys.hierarchy();
        for (const Cache *cache :
             {&h.icache(), &h.dcache(), &h.l2cache()}) {
            std::string detail = cacheAccounting(*cache);
            if (!detail.empty())
                return detail;
        }
        return "";
    });

    // The disk only ever follows the Figure-2 operating-mode graph.
    checker.add("disk.legal-transitions", [&sys]() -> std::string {
        const Disk &disk = sys.disk();
        if (disk.illegalTransitions() == 0)
            return "";
        return msg() << disk.illegalTransitions()
                     << " illegal transition(s); first: "
                     << disk.firstIllegalTransition();
    });

    // The online energy integral equals power-weighted residencies.
    checker.add("disk.energy-conservation", [&sys]() -> std::string {
        double online = sys.disk().energyJ();
        double residency = sys.disk().residencyEnergyJ();
        if (invariantApproxEqual(online, residency))
            return "";
        return mismatch("disk J", online, residency);
    });

    // Per-state residencies account for all elapsed time.
    checker.add("disk.residency-accounting", [&sys]() -> std::string {
        const Disk &disk = sys.disk();
        double sum = 0;
        for (int s = 0; s <= int(DiskState::Seeking); ++s)
            sum += disk.stateSeconds(DiskState(s));
        double elapsed = disk.elapsedEquivSeconds();
        if (invariantApproxEqual(sum, elapsed))
            return "";
        return mismatch("disk residency s", sum, elapsed);
    });
}

} // namespace softwatt
