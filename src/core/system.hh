/**
 * @file
 * SoftWatt's top level: assembles CPU, memory hierarchy, TLB,
 * MiniOS kernel and disk into a complete machine, drives the cycle
 * loop with idle fast-forward, samples the counter log, and exposes
 * the post-processed power results.
 */

#ifndef SOFTWATT_CORE_SYSTEM_HH
#define SOFTWATT_CORE_SYSTEM_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "cpu/cpu.hh"
#include "disk/disk.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "os/kernel.hh"
#include "os/power_governor.hh"
#include "os/power_meter.hh"
#include "power/cpu_power.hh"
#include "power/power_calculator.hh"
#include "sim/cancel.hh"
#include "sim/config.hh"
#include "sim/counter_sink.hh"
#include "sim/event_queue.hh"
#include "sim/machine_params.hh"
#include "sim/sample_log.hh"
#include "workload/workload.hh"

#include "sim/checkpoint.hh"
#include "idle_profile.hh"
#include "invariants.hh"

namespace softwatt
{

/** Which CPU timing model drives the system. */
enum class CpuModel
{
    InOrder,      ///< Mipsy-equivalent.
    Superscalar,  ///< MXS-equivalent.
};

/** Complete configuration of a simulation. */
struct SystemConfig
{
    MachineParams machine;
    CpuModel cpuModel = CpuModel::Superscalar;
    DiskConfig diskConfig = DiskConfig::idleOnly();
    Kernel::Params kernelParams;

    /** Time compression shared by disk timing and clock interrupts. */
    double timeScale = 100.0;

    /** Sample-log window length in cycles. */
    Cycles sampleWindow = 100'000;

    /** Use the calibrated power preset (the reproduction path). */
    bool useCalibratedPower = true;

    /** Consecutive idle-wait cycles before fast-forwarding. */
    Cycles idleFastForwardAfter = 256;

    /** Watchdog: abort runs longer than this many cycles. */
    Cycles maxCycles = 4'000'000'000ull;

    /** Enable the periodic timer interrupt. */
    bool clockInterrupts = true;

    /**
     * Whole-system power budget in watts for the closed-loop DVFS
     * governor; 0 = no budget. Required (> 0) when dvfs is on.
     */
    double powerBudgetW = 0.0;

    /**
     * Close the power loop: a window-granular DVFS governor walks
     * the frequency/voltage ladder against powerBudgetW, throttling
     * the cycle loop and re-pricing the sample log's windows at the
     * chosen operating point.
     */
    bool dvfsEnabled = false;

    /**
     * Adapt the disk spin-down threshold online (replacing the
     * static Table-5 sweep value): back off after observed
     * spin-ups, tighten over quiet windows. Requires
     * disk.config=spindown; the configured disk.threshold_s is the
     * starting point.
     */
    bool adaptiveSpindown = false;

    /**
     * Per-run budget in simulated seconds (cycles / core clock);
     * 0 disables. Unlike the cycle-granular watchdog, expiry is
     * reported as RunOutcome::DeadlineExceeded so sweeps can
     * distinguish "this configuration hung" from "this run was over
     * its time budget". Deterministic: the same configuration
     * expires at the same cycle on every host and jobs= setting.
     */
    double deadlineSeconds = 0.0;

    /**
     * After a Drain cancellation (first SIGINT/SIGTERM), how many
     * additional simulated seconds an in-flight run may consume
     * before it is cut off at a sample-window boundary; 0 lets
     * in-flight runs finish completely.
     */
    double shutdownGraceSeconds = 0.0;

    /** Build from a generic key=value Config and validate ranges. */
    static SystemConfig fromConfig(const Config &config);

    /**
     * fromConfig() for a harness's command line: also warns about
     * each key nobody read (likely a typo) — harnesses should read
     * their own keys (bench, scale, ...) *before* calling this so
     * they are not flagged. A serve spec reports such keys to its
     * client instead.
     */
    static SystemConfig fromArgs(const Config &args);

    /**
     * Fatal on out-of-range values (non-positive timeScale, zero
     * sampleWindow, bad fault rates, ...). fromConfig calls this;
     * call it directly on hand-built configurations.
     */
    void validate() const;
};

/**
 * Append every configuration field a run's simulated results depend
 * on to @p w, in a fixed order: machine, disk, kernel, sampling and
 * power-manager settings, then the workload spec. This is the only
 * listing of those fields; the checkpoint fingerprint hashes exactly
 * these bytes and specFingerprint() (journal.hh) prefixes them with
 * the run's identity. It leaves out the CPU model (so a checkpoint
 * restores across models as a warm start) and the deadline and grace
 * budgets (run management, which restore ignores). The kernel's time
 * scale, which it reads from the disk, is config.timeScale, written in
 * the kernel's slot.
 */
void writeConfigFields(ChunkWriter &w, const SystemConfig &config,
                       const WorkloadSpec &workload);

/**
 * FNV-1a-64 of writeConfigFields(): the fingerprint a checkpoint of
 * @p config running @p workload carries in its header.
 */
std::uint64_t configFingerprint(const SystemConfig &config,
                                const WorkloadSpec &workload);

/** How a simulation ended. */
enum class RunOutcome
{
    Completed,         ///< The workload ran to completion.
    WatchdogExpired,   ///< maxCycles elapsed first.
    IoFailed,          ///< The disk driver abandoned a request.
    DeadlineExceeded,  ///< The per-run deadline_s budget expired.
    Cancelled,         ///< Cooperative cancellation (signal/drain).
    Failed,            ///< An exception escaped the run (firewall).
};

/** Display name of a run outcome. */
const char *runOutcomeName(RunOutcome outcome);

/**
 * Parse a runOutcomeName() string back into the enum (journal
 * replay). @return false when @p name matches no outcome.
 */
bool runOutcomeFromName(const std::string &name, RunOutcome &out);

/**
 * Structured result of System::run. Anomalies no longer kill the
 * process: the caller decides whether a watchdog expiry or an
 * abandoned I/O request is fatal, and the partial statistics
 * accumulated up to the failure stay inspectable.
 */
struct RunResult
{
    RunOutcome outcome = RunOutcome::Completed;

    /** Simulated cycles at the end of the run. */
    Tick cycles = 0;

    /** Human-readable detail for non-completed outcomes. */
    std::string diagnostics;

    bool ok() const { return outcome == RunOutcome::Completed; }
};

/**
 * A complete simulated machine plus its power models.
 *
 * Implements PowerMeter: the streaming power pass closes each sample
 * window into a PowerReading that the kernel (PowerRead service) and
 * the feedback policies observe while the machine runs.
 */
class System : public PowerMeter
{
  public:
    explicit System(const SystemConfig &config);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Attach the benchmark: registers its files, pre-maps its heap,
     * and installs it as the kernel's user program.
     */
    void attachWorkload(std::unique_ptr<Workload> workload);

    /**
     * Run until the workload completes, the watchdog or deadline
     * expires, an I/O request is abandoned, or the cancel token
     * fires; the outcome is returned rather than terminating the
     * process.
     */
    RunResult run();

    /**
     * Attach a cooperative-cancellation token (nullptr detaches).
     * The token is polled only at sample-window boundaries, so a
     * cancelled run always ends on a complete sample record: Hard
     * stops at the next boundary; Drain arms the
     * shutdownGraceSeconds budget (0 = finish the run).
     */
    void setCancelToken(const CancelToken *token) { cancel = token; }

    /** Current simulated time in cycles. */
    Tick now() const { return queue.now(); }

    /**
     * Arm periodic autosave checkpoints: once per @p every_seconds
     * of simulated time, run() writes the machine state to
     * @p autosave_path (atomic write-to-temp-then-rename, keeping
     * the previous generation as "<path>.1"), and appends the sample
     * windows closed since the previous autosave to the log beside
     * it, "<path>.log". 0 disables.
     *
     * Taking a checkpoint squashes the pipeline at the checkpoint
     * tick (a deterministic perturbation), so bit-identity holds
     * between runs with the SAME checkpoint cadence: an interrupted
     * run restored from an autosave reproduces exactly the results
     * of an uninterrupted run with the same checkpoint_every_s.
     *
     * @p autosave_durability selects the write barrier discipline
     * (Durability::Full = power-cut-safe fsync chains).
     */
    void setCheckpointPolicy(
        double every_seconds, const std::string &autosave_path,
        Durability autosave_durability = Durability::Buffered);

    /**
     * True once a checkpoint autosave failed and the run degraded to
     * checkpoint-less execution. The simulation itself continues
     * unaffected; only crash-resumability inside the run is lost.
     * NOTE: a degraded run stops taking autosave squashes, so its
     * trajectory is only bit-identical to other runs up to the
     * failed autosave — which is why degradation is reported rather
     * than silent.
     */
    bool checkpointingDegraded() const { return ckptDegraded; }

    /**
     * Restore machine state from a checkpoint file. Must be called
     * after attachWorkload() and before run(). A damaged image, or
     * one whose prefix of the shared log "<path>.log" is short or
     * damaged, falls back to the previous autosave generation
     * ("<path>.1"); if both
     * generations are unusable the run starts from scratch and this
     * returns false. A version or configuration-fingerprint mismatch
     * is fatal().
     *
     * Warm start: when the image was taken under a different CPU
     * model, the CPU chunk is skipped and the core starts cold while
     * caches, TLB, disk, OS and workload state are restored — the
     * SimOS mode-switch semantics (warm up under the fast in-order
     * model, study under the detailed superscalar model).
     */
    bool restoreCheckpoint(const std::string &path);

    /**
     * Write a checkpoint of the current machine state to @p path,
     * and the whole sample log to "<path>.log" (no generation
     * rotation). The machine must be at a safe point
     * (checkpointSafeNow()); in-flight work is squashed and requeued.
     */
    void writeCheckpointNow(const std::string &path);

    /** True when kernel and disk are both at a safe point. */
    bool
    checkpointSafeNow() const
    {
        return machineKernel->checkpointSafe() &&
               machineDisk->checkpointSafe();
    }

    /** configFingerprint() of this machine and its workload. */
    std::uint64_t checkpointFingerprint() const;

    /** Autosave checkpoints written during run(). */
    std::uint64_t checkpointsTaken() const { return numCheckpoints; }

    /** True when this system was restored from a checkpoint. */
    bool restored() const { return restoredState; }

    // Results.
    const SampleLog &log() const { return sampleLog; }
    const CounterBank &totals() const { return totalsBank; }

    /**
     * The power trace of the run so far: a live view of the streaming
     * pass's accumulator (no re-processing), bit-identical to
     * powerCalculator().process(log()) by construction. Every
     * sample-log append is immediately followed by
     * stream->onWindow(), so the view never lags the log.
     */
    const PowerTrace &powerTrace() const { return stream->trace(); }

    // PowerMeter: the last closed window's power reading.
    const PowerReading &lastReading() const override
    {
        return meterReading;
    }

    /** The DVFS governor, or null when dvfs is off. */
    const DvfsGovernor *dvfsGovernor() const
    {
        return governor.get();
    }

    /** The adaptive spin-down policy, or null when off. */
    const AdaptiveSpindownPolicy *spindownPolicy() const
    {
        return spindown.get();
    }

    /**
     * Totals with disk energy injected. @p conventional_disk reports
     * the disk as the unmanaged baseline (ACTIVE between requests)
     * computed from the same run's residencies.
     */
    PowerBreakdown breakdown(bool conventional_disk = false) const;

    /** Disk energy in paper-equivalent joules (Figure 9). */
    double diskEnergyJ() const { return machineDisk->energyJ(); }

    /** Same run re-priced as the unmanaged conventional disk. */
    double diskEnergyConventionalJ() const;

    Kernel &kernel() { return *machineKernel; }
    const Kernel &kernel() const { return *machineKernel; }
    Disk &disk() { return *machineDisk; }
    const Disk &disk() const { return *machineDisk; }
    Cpu &cpu() { return *machineCpu; }
    const Cpu &cpu() const { return *machineCpu; }
    CacheHierarchy &hierarchy() { return *machineHierarchy; }
    const CacheHierarchy &hierarchy() const
    {
        return *machineHierarchy;
    }
    Tlb &tlb() { return *machineTlb; }
    const Tlb &tlb() const { return *machineTlb; }
    EventQueue &eventQueue() { return queue; }
    const EventQueue &eventQueue() const { return queue; }
    const CpuPowerModel &powerModel() const { return *power; }
    const PowerCalculator &powerCalculator() const
    {
        return *calculator;
    }
    const SystemConfig &config() const { return cfg; }

    /**
     * The runtime invariant registry for this system. Swept at every
     * sample-window boundary and at end of run; enabled by default
     * only in builds that compile contract checks in (see
     * sim/check.hh), and togglable at runtime for tests.
     */
    InvariantChecker &invariants() { return checker; }
    const InvariantChecker &invariants() const { return checker; }

    /** Sweep all registered invariants now (for tests/tools). */
    void checkInvariants(const char *when = "on-demand")
    {
        checker.checkAll(when);
    }

    /**
     * TEST HOOK: mutable access to the totals bank so tests can
     * corrupt a counter and prove the invariant sweep catches it.
     */
    CounterBank &totalsForTest() { return totalsBank; }

    /** Cycles skipped by idle fast-forward. */
    Cycles fastForwardedCycles() const { return ffCycles; }

    /** Cycles executed in detail. */
    Cycles detailedCycles() const { return detailCycles; }

    /** Stall ticks inserted by the DVFS duty-cycle throttle. */
    Cycles throttledCycles() const { return throttleCycles; }

    /**
     * Dump performance statistics (IPC, miss rates, predictor
     * accuracy, TLB/service/disk activity) in gem5-style
     * "name value # description" lines.
     */
    void dumpStats(std::ostream &out) const;

  private:
    SystemConfig cfg;
    EventQueue queue;
    CounterSink sink;
    std::unique_ptr<CacheHierarchy> machineHierarchy;
    std::unique_ptr<Tlb> machineTlb;
    std::unique_ptr<Disk> machineDisk;
    std::unique_ptr<Kernel> machineKernel;
    std::unique_ptr<Cpu> machineCpu;
    std::unique_ptr<CpuPowerModel> power;
    std::unique_ptr<PowerCalculator> calculator;
    std::unique_ptr<PowerStream> stream;
    std::unique_ptr<Workload> workload;

    SampleLog sampleLog;
    CounterBank totalsBank;
    Tick windowStart = 0;

    /** Last closed window's reading (PowerMeter). */
    PowerReading meterReading;

    /** Disk energy at the previous window boundary (for deltas). */
    double lastDiskEnergyJ = 0;

    std::unique_ptr<DvfsGovernor> governor;
    std::unique_ptr<AdaptiveSpindownPolicy> spindown;

    /** Duty-cycle accumulator of the DVFS throttle. */
    std::uint64_t dutyAcc = 0;

    /** Stall ticks inserted by the throttle. */
    Cycles throttleCycles = 0;

    InvariantChecker checker;

    IdleProfile idleProfile;
    bool idleProfileMeasured = false;

    Cycles ffCycles = 0;
    Cycles detailCycles = 0;

    /** Consecutive idle-wait cycles (hoisted from run() so it can
     *  cross a checkpoint: fast-forward timing must not depend on
     *  whether the run was restored). */
    Cycles idleStreak = 0;

    double checkpointEverySeconds = 0;
    std::string autosavePath;
    Durability ckptDurability = Durability::Buffered;
    bool ckptDegraded = false;
    bool restoredState = false;
    std::uint64_t numCheckpoints = 0;

    /** The image buffer every checkpoint of this machine reuses. */
    CheckpointWriter ckptFile;

    const CancelToken *cancel = nullptr;

    /** Tick at which the Drain grace budget expires; 0 = unarmed. */
    Tick graceDeadline = 0;

    /** Close the current sample window at @p end_tick. */
    void closeWindow(Tick end_tick);

    /** Operating point the core is currently running at. */
    double currentFreqMhz() const;
    double currentVdd() const;

    /** Fold a freshly closed window into the power meter. */
    void updateMeter(const SampleRecord &rec, const WindowPower &wp);

    /** Run the window-boundary feedback policies. */
    void runPowerPolicies();

    /** One tick of the cycle loop, through the DVFS throttle. */
    bool throttledCpuCycle();

    /** Replay the restored sample log through the power stream. */
    void rebuildPowerStream();

    /**
     * Window-boundary cancellation poll: fills @p result and
     * returns true when the run must stop now.
     */
    bool cancellationRequested(RunResult &result);

    /** Skip ahead to the next event, charging bulk idle activity. */
    void fastForwardToNextEvent();

    /** Squash in-flight work and serialize every component into
     *  ckptFile. */
    void serializeCheckpoint();

    /** Load every chunk of a verified image into the components. */
    void applyCheckpointImage(const CheckpointImage &image);

    /** Fingerprint/version gate; throws CheckpointMismatch. */
    void checkCheckpointCompatible(const CheckpointImage &image,
                                   const std::string &source) const;

    /** Autosave one checkpoint to autosavePath. */
    void takeCheckpoint();
};

} // namespace softwatt

#endif // SOFTWATT_CORE_SYSTEM_HH
