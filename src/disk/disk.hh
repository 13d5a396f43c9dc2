/**
 * @file
 * The low-power disk model: HP97560-style timing (seek curve,
 * rotation, transfer) under the Toshiba MK3003MAN operating-mode
 * state machine and power values of the paper's Figure 2.
 */

#ifndef SOFTWATT_DISK_DISK_HH
#define SOFTWATT_DISK_DISK_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

#include "fault_model.hh"

namespace softwatt
{

/** Figure 2: MK3003MAN per-mode power in watts. */
struct DiskPowerSpec
{
    double sleepW = 0.15;
    double idleW = 1.6;
    double standbyW = 0.35;
    double activeW = 3.2;
    double seekW = 4.1;
    double spinupW = 4.2;

    /** Spin-up takes 5 s; spin-down takes the same and is free. */
    double spinupSeconds = 5.0;
};

/** Mechanical timing parameters (HP97560-class). */
struct DiskTimingSpec
{
    double trackToTrackMs = 2.0;
    double avgSeekMs = 8.5;
    double rpm = 4200.0;
    double transferMbPerS = 12.0;
    int blockBytes = 4096;
    std::uint64_t numBlocks = 1 << 20;

    /** One full rotation in milliseconds. */
    double rotationMs() const { return 60000.0 / rpm; }

    /** Transfer time for one block in milliseconds. */
    double
    blockTransferMs() const
    {
        return double(blockBytes) / (transferMbPerS * 1e6) * 1e3;
    }

    /** SimOS's base disk: the HP97560 (no low-power modes). */
    static DiskTimingSpec hp97560();

    /** The paper's replacement: Toshiba MK3003MAN. */
    static DiskTimingSpec mk3003man();
};

/** Operating mode (Figure 2 state machine). */
enum class DiskState : std::uint8_t
{
    Sleep,
    Standby,
    SpinningDown,
    SpinningUp,
    Idle,
    Active,     ///< Read/write transfer in progress.
    Seeking,
};

/** Display name of a disk state. */
const char *diskStateName(DiskState s);

/** The four evaluated disk configurations (Section 4). */
enum class DiskConfigKind : std::uint8_t
{
    /** No power management: spins at ACTIVE power between requests. */
    Conventional,

    /** Transitions to IDLE after each request; never spins down. */
    IdleOnly,

    /** IDLE plus STANDBY after a fixed inactivity threshold. */
    Spindown,
};

/** A disk configuration: management kind plus its threshold. */
struct DiskConfig
{
    DiskConfigKind kind = DiskConfigKind::Conventional;

    /** Spin-down threshold in (paper-equivalent) seconds. */
    double spindownThresholdSeconds = 2.0;

    /** Fault injection; disabled by default (the happy path). */
    DiskFaultConfig fault;

    static DiskConfig conventional();
    static DiskConfig idleOnly();
    static DiskConfig spindown(double threshold_seconds);

    /** Name for reports ("Baseline", "Without Spindowns", ...). */
    const char *name() const;
};

/**
 * The disk: request queue, mechanical timing, mode state machine and
 * online energy accounting (the one power model the paper evaluates
 * during simulation rather than in post-processing, because mode
 * transitions need exact timing).
 *
 * All mechanical durations are divided by @p time_scale so that
 * multi-second disk behaviour fits in tractable simulations; energy
 * is integrated against paper-equivalent (uncompressed) time, so
 * reported joules are directly comparable to the paper's Figure 9.
 */
class Disk : public Checkpointable
{
  public:
    /**
     * Completion callback: Ok means the data transferred; any other
     * status means the request was consumed without transferring and
     * the caller must decide whether to resubmit (the kernel's disk
     * driver retries with backoff — see Kernel::requestDiskBlocks).
     */
    using Callback = std::function<void(DiskIoStatus)>;

    /**
     * @param queue Event queue (ticks are CPU cycles).
     * @param freq_hz CPU clock, to convert seconds to ticks.
     * @param config Power-management configuration.
     * @param time_scale Compression factor for all durations.
     * @param seed Deterministic rotational-latency stream.
     */
    Disk(EventQueue &queue, double freq_hz, const DiskConfig &config,
         double time_scale = 100.0, std::uint64_t seed = 12345);

    /**
     * Submit a read/write of @p num_blocks starting at @p block.
     * @p done fires when the transfer completes.
     */
    void submit(std::uint64_t block, std::uint32_t num_blocks,
                Callback done);

    /** Lowest-power mode; entered only via this explicit command. */
    void sleep();

    /** Current operating mode. */
    DiskState state() const { return currentState; }

    /**
     * True if the Figure-2 operating-mode state machine permits the
     * @p from → @p to edge (self-transitions are permitted).
     */
    static bool legalTransition(DiskState from, DiskState to);

    /**
     * Transitions taken that violated the legal state graph. Always 0
     * in a correct run; surfaced by the disk.legal-transitions
     * invariant rather than asserted inline so observation never
     * perturbs the simulation.
     */
    std::uint64_t illegalTransitions() const { return numIllegal; }

    /** "FROM->TO" label of the first illegal transition; "" if none. */
    std::string firstIllegalTransition() const;

    /**
     * Energy re-derived from the per-state residencies, joules.
     * Accumulated independently of energyJ(); the two must agree to
     * floating-point tolerance (the disk.energy-conservation
     * invariant).
     */
    double residencyEnergyJ() const;

    /** Paper-equivalent seconds since construction. */
    double elapsedEquivSeconds() const;

    /** Paper-equivalent seconds per simulated second, which the
     *  kernel's timers share. */
    double timeCompression() const { return timeScale; }

    /**
     * TEST HOOK: drive the state machine straight to @p s through
     * transitionTo(), recording legality exactly as a real transition
     * would. Lets tests inject illegal edges.
     */
    void testForceState(DiskState s) { transitionTo(s); }

    /** Energy so far in paper-equivalent joules (includes now). */
    double energyJ() const;

    /** Residency so far in a state, paper-equivalent seconds. */
    double stateSeconds(DiskState s) const;

    /** True if no request is in flight or queued. */
    bool quiescent() const { return !busy && pending.empty(); }

    std::uint64_t requestsServed() const { return numRequests; }
    std::uint64_t spinUps() const { return numSpinUps; }
    std::uint64_t spinDowns() const { return numSpinDowns; }
    std::uint64_t seeks() const { return numSeeks; }

    /** Requests completed with a failure status. */
    std::uint64_t requestsFailed() const { return numFailed; }

    /** Injection bookkeeping (all zero with faults disabled). */
    const DiskFaultModel &faults() const { return faultModel; }

    const DiskConfig &config() const { return cfg; }

    /**
     * Re-tune the spin-down threshold (adaptive policy). Takes
     * effect the next time the idle timer is armed; an already-armed
     * timer keeps its original deadline, so the change is a pure
     * function of when it was made. No-op for non-spindown disks.
     * The threshold is part of the adaptive policy's state, not the
     * machine configuration, so it is serialized by the policy and
     * re-applied after restore.
     */
    void setSpindownThreshold(double seconds);

    /**
     * True when the disk can be checkpointed: no request in flight
     * or queued, and not mid spin-up/spin-down (those phases hold
     * anonymous completion events that cannot be serialized).
     */
    bool
    checkpointSafe() const
    {
        return quiescent() &&
               currentState != DiskState::SpinningUp &&
               currentState != DiskState::SpinningDown;
    }

    // Checkpointable. A pending spindown timer is re-registered with
    // its original event id during loadState.
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

  private:
    struct Request
    {
        std::uint64_t block;
        std::uint32_t numBlocks;
        Callback done;
    };

    EventQueue &queue;
    double freqHz;            // ckpt:derived: fixed at construction
    DiskConfig cfg;           // ckpt:derived: fixed at construction
    double timeScale;         // ckpt:derived: fixed at construction
    DiskPowerSpec power;      // ckpt:derived: fixed at construction
    DiskTimingSpec timing;    // ckpt:derived: fixed at construction
    Random rng;
    DiskFaultModel faultModel;

    DiskState currentState;
    Tick lastTransition = 0;
    Tick epochTick = 0;
    double accumulatedJ = 0;
    double stateSecondsAcc[8] = {};

    std::uint64_t numIllegal = 0;
    DiskState illegalFrom = DiskState::Idle;
    DiskState illegalTo = DiskState::Idle;

    std::deque<Request> pending;  // ckpt:derived: empty when safe
    bool busy = false;            // ckpt:derived: false when safe
    std::uint64_t lastBlock = 0;
    EventQueue::EventId spindownEvent = 0;
    bool spindownScheduled = false;

    /** Absolute fire tick of the armed spindown timer. */
    Tick spindownTick = 0;

    std::uint64_t numRequests = 0;
    std::uint64_t numSpinUps = 0;
    std::uint64_t numSpinDowns = 0;
    std::uint64_t numSeeks = 0;
    std::uint64_t numFailed = 0;

    /** Power drawn in a state, watts. */
    double statePowerW(DiskState s) const;

    /** Seconds (sim-compressed) → event-queue ticks. */
    Tick ticksFor(double seconds) const;

    /** Current time in paper-equivalent seconds (fault windows). */
    double equivNowSeconds() const;

    /** Pop the head request and fail it with @p status. */
    void failHead(DiskIoStatus status);

    /** Accumulate energy since lastTransition, then switch states. */
    void transitionTo(DiskState next);

    /** Seek time for the distance from lastBlock, milliseconds. */
    double seekMs(std::uint64_t block) const;

    /** Start servicing the head of the queue (spins up if needed). */
    void startNext();

    /** Begin the seek+transfer for a request (disk is spinning). */
    void beginService();

    void cancelSpindown();
    void armSpindown();

    /** Body of the inactivity-threshold timer (named so a restored
     *  checkpoint can re-register the event). */
    void onSpindownTimer();
};

} // namespace softwatt

#endif // SOFTWATT_DISK_DISK_HH
