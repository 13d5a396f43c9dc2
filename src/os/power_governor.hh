/**
 * @file
 * Window-granular power feedback policies.
 *
 * DvfsGovernor closes the loop the paper's Table-3 style frequency/
 * voltage sweep leaves open: instead of fixing one operating point
 * per run, it walks a discrete f/V ladder one step per sample window
 * to keep the measured whole-system power under a configured budget.
 * AdaptiveSpindownPolicy replaces the static Table-5 spin-down
 * threshold with one that backs off after observed spin-ups and
 * tightens during quiet windows.
 *
 * Both policies are pure functions of the window reading sequence,
 * so runs stay deterministic and checkpoint/restore reproduces the
 * uninterrupted trajectory.
 */

#ifndef SOFTWATT_OS_POWER_GOVERNOR_HH
#define SOFTWATT_OS_POWER_GOVERNOR_HH

#include <cstdint>
#include <vector>

#include "sim/checkpoint.hh"

#include "power_meter.hh"

namespace softwatt
{

/**
 * Closed-loop DVFS governor.
 *
 * The ladder mirrors the historical open-loop DVFS sweep, whose
 * fixed operating points were {1.0, 0.83, 0.665, 0.5, 0.33} of nominal
 * frequency paired with {33, 30, 27, 24, 21}/33 of nominal Vdd (the
 * 200 MHz / 3.3 V point maps to exactly 200/166/133/100/66 MHz at
 * 3.3/3.0/2.7/2.4/2.1 V). Each observed window moves at most one
 * step: down when the window's system power exceeded the budget, up
 * when it fell below budget * headroom.
 *
 * Frequency ratios are carried as exact integer duty fractions so
 * the System can throttle the cycle loop deterministically (execute
 * dutyNum of every dutyDen ticks).
 */
class DvfsGovernor
{
  public:
    /** One rung of the frequency/voltage ladder. */
    struct Point
    {
        double freqMhz = 0;
        double vdd = 0;

        /** Exact duty fraction of nominal frequency. */
        std::uint64_t dutyNum = 1;
        std::uint64_t dutyDen = 1;
    };

    /**
     * @param nominal_freq_mhz Ladder anchor (machine frequency).
     * @param nominal_vdd Ladder anchor (machine supply).
     * @param budget_w Whole-system power budget, watts (> 0).
     * @param headroom Step-up threshold fraction of the budget.
     */
    DvfsGovernor(double nominal_freq_mhz, double nominal_vdd,
                 double budget_w, double headroom = 0.9);

    /**
     * Consume one window reading; @return true when the operating
     * point changed (the kernel should account the governor's work).
     */
    bool observe(const PowerReading &reading);

    /** Current operating point. */
    const Point &point() const { return ladder[std::size_t(idx)]; }

    /** Ladder rung index (0 = nominal, larger = slower). */
    int level() const { return idx; }

    int ladderSize() const { return int(ladder.size()); }
    double budgetW() const { return budget; }

    std::uint64_t stepsDown() const { return numStepsDown; }
    std::uint64_t stepsUp() const { return numStepsUp; }

    /** Total operating-point changes (both directions). */
    std::uint64_t changes() const { return numStepsDown + numStepsUp; }

    /** Slowest rung reached so far. */
    int deepestLevel() const { return deepest; }

    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    std::vector<Point> ladder;
    double budget;    // ckpt:derived: fixed at construction
    double headroom;  // ckpt:derived: fixed at construction

    int idx = 0;
    int deepest = 0;
    std::uint64_t numStepsDown = 0;
    std::uint64_t numStepsUp = 0;
};

/**
 * Adaptive disk spin-down threshold.
 *
 * Starts from the configured (Table-5 style) threshold. A window in
 * which the disk spun up doubles the threshold (a spin-up means the
 * idle period was shorter than the wait already paid for); after
 * quietWindows consecutive windows without a spin-up the threshold
 * decays by shrink, creeping back toward aggressive spin-down. The
 * threshold is clamped to [minSeconds, maxSeconds].
 */
class AdaptiveSpindownPolicy
{
  public:
    explicit AdaptiveSpindownPolicy(double initial_threshold_s,
                                    double min_s = 0.25,
                                    double max_s = 16.0,
                                    double grow = 2.0,
                                    double shrink = 0.9,
                                    int quiet_windows = 8);

    /**
     * Consume one window's cumulative spin-up count; @return true
     * when the threshold changed (the caller re-arms the disk).
     */
    bool observe(std::uint64_t total_spin_ups);

    double thresholdSeconds() const { return thresholdS; }
    std::uint64_t adjustments() const { return numAdjustments; }

    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    double thresholdS;
    double minS;          // ckpt:derived: fixed at construction
    double maxS;          // ckpt:derived: fixed at construction
    double growFactor;    // ckpt:derived: fixed at construction
    double shrinkFactor;  // ckpt:derived: fixed at construction
    int quietWindows;     // ckpt:derived: fixed at construction

    std::uint64_t lastSpinUps = 0;
    int quietStreak = 0;
    std::uint64_t numAdjustments = 0;
};

} // namespace softwatt

#endif // SOFTWATT_OS_POWER_GOVERNOR_HH
