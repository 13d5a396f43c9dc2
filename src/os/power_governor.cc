#include "power_governor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace softwatt
{

DvfsGovernor::DvfsGovernor(double nominal_freq_mhz,
                           double nominal_vdd, double budget_w,
                           double headroom)
    : budget(budget_w), headroom(headroom)
{
    if (!(budget_w > 0)) {
        fatal(msg() << "DvfsGovernor needs a positive power budget "
                    << "(got " << budget_w << " W)");
    }
    if (!(headroom > 0) || headroom >= 1.0) {
        fatal(msg() << "DvfsGovernor headroom must be in (0, 1) "
                    << "(got " << headroom << ")");
    }

    // The historical DVFS ladder, expressed as exact fractions of the
    // nominal point so the 200 MHz / 3.3 V machine lands on the
    // historical 200/166/133/100/66 MHz at 3.3/3.0/2.7/2.4/2.1 V.
    struct Rung
    {
        std::uint64_t freqNum;
        std::uint64_t vddNum;
    };
    constexpr Rung rungs[] = {
        {200, 33}, {166, 30}, {133, 27}, {100, 24}, {66, 21},
    };
    for (const Rung &r : rungs) {
        Point p;
        p.freqMhz = nominal_freq_mhz * double(r.freqNum) / 200.0;
        p.vdd = nominal_vdd * double(r.vddNum) / 33.0;
        p.dutyNum = r.freqNum;
        p.dutyDen = 200;
        ladder.push_back(p);
    }
}

bool
DvfsGovernor::observe(const PowerReading &reading)
{
    if (!reading.valid)
        return false;
    int next = idx;
    if (reading.systemPowerW > budget) {
        next = std::min(idx + 1, int(ladder.size()) - 1);
    } else if (reading.systemPowerW < budget * headroom) {
        next = std::max(idx - 1, 0);
    }
    if (next == idx)
        return false;
    if (next > idx)
        ++numStepsDown;
    else
        ++numStepsUp;
    idx = next;
    deepest = std::max(deepest, idx);
    return true;
}

void
DvfsGovernor::saveState(ChunkWriter &out) const
{
    out.u64(std::uint64_t(idx));
    out.u64(std::uint64_t(deepest));
    out.u64(numStepsDown);
    out.u64(numStepsUp);
}

void
DvfsGovernor::loadState(ChunkReader &in)
{
    idx = int(in.u64());
    deepest = int(in.u64());
    numStepsDown = in.u64();
    numStepsUp = in.u64();
    if (idx < 0 || idx >= int(ladder.size())) {
        fatal(msg() << "restored DVFS ladder index " << idx
                    << " is outside the " << ladder.size()
                    << "-rung ladder");
    }
}

AdaptiveSpindownPolicy::AdaptiveSpindownPolicy(
    double initial_threshold_s, double min_s, double max_s,
    double grow, double shrink, int quiet_windows)
    : thresholdS(initial_threshold_s), minS(min_s), maxS(max_s),
      growFactor(grow), shrinkFactor(shrink),
      quietWindows(quiet_windows)
{
    if (!(initial_threshold_s > 0)) {
        fatal(msg() << "adaptive spin-down needs a positive initial "
                    << "threshold (got " << initial_threshold_s
                    << " s)");
    }
    if (!(min_s > 0) || !(max_s >= min_s)) {
        fatal(msg() << "adaptive spin-down clamp range ["
                    << min_s << ", " << max_s << "] is invalid");
    }
    if (!(grow > 1.0) || !(shrink > 0) || !(shrink < 1.0) ||
        quiet_windows < 1) {
        fatal("adaptive spin-down tuning out of range (grow > 1, "
              "0 < shrink < 1, quiet windows >= 1)");
    }
    thresholdS = std::clamp(thresholdS, minS, maxS);
}

bool
AdaptiveSpindownPolicy::observe(std::uint64_t total_spin_ups)
{
    double next = thresholdS;
    if (total_spin_ups > lastSpinUps) {
        // The disk spun up this window: the last spin-down was too
        // eager, back off.
        next = std::min(thresholdS * growFactor, maxS);
        quietStreak = 0;
    } else if (++quietStreak >= quietWindows) {
        next = std::max(thresholdS * shrinkFactor, minS);
        quietStreak = 0;
    }
    lastSpinUps = total_spin_ups;
    if (next == thresholdS)
        return false;
    thresholdS = next;
    ++numAdjustments;
    return true;
}

void
AdaptiveSpindownPolicy::saveState(ChunkWriter &out) const
{
    out.f64(thresholdS);
    out.u64(lastSpinUps);
    out.u64(std::uint64_t(std::int64_t(quietStreak)));
    out.u64(numAdjustments);
}

void
AdaptiveSpindownPolicy::loadState(ChunkReader &in)
{
    thresholdS = in.f64();
    lastSpinUps = in.u64();
    quietStreak = int(std::int64_t(in.u64()));
    numAdjustments = in.u64();
}

} // namespace softwatt
