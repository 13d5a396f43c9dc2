#include "system.hh"

#include <algorithm>
#include <ostream>

#include "cpu/inorder_cpu.hh"
#include "cpu/superscalar_cpu.hh"
#include "sim/check.hh"
#include "sim/logging.hh"

namespace softwatt
{

SystemConfig
SystemConfig::fromConfig(const Config &config)
{
    SystemConfig sc;
    sc.machine.applyConfig(config);

    std::string cpu = config.getString("cpu.model", "superscalar");
    if (cpu == "superscalar" || cpu == "mxs") {
        sc.cpuModel = CpuModel::Superscalar;
    } else if (cpu == "inorder" || cpu == "mipsy") {
        sc.cpuModel = CpuModel::InOrder;
    } else {
        fatal(msg() << "unknown cpu.model '" << cpu
                    << "' (expected superscalar/mxs or "
                    << "inorder/mipsy)");
    }

    std::string disk = config.getString("disk.config", "idle");
    if (disk == "conventional") {
        sc.diskConfig = DiskConfig::conventional();
    } else if (disk == "idle") {
        sc.diskConfig = DiskConfig::idleOnly();
    } else if (disk == "spindown") {
        sc.diskConfig = DiskConfig::spindown(
            config.getDouble("disk.threshold_s", 2.0));
    } else {
        fatal(msg() << "unknown disk.config '" << disk
                    << "' (expected conventional, idle or "
                    << "spindown)");
    }

    DiskFaultConfig &fault = sc.diskConfig.fault;
    fault.enabled = config.getBool("disk.fault.enabled", false);
    fault.transientErrorRate = config.getDouble(
        "disk.fault.transient_rate", fault.transientErrorRate);
    fault.seekErrorRate = config.getDouble("disk.fault.seek_rate",
                                           fault.seekErrorRate);
    fault.spinupFailureRate = config.getDouble(
        "disk.fault.spinup_rate", fault.spinupFailureRate);
    fault.windowStartSeconds = config.getDouble(
        "disk.fault.window_start_s", fault.windowStartSeconds);
    fault.windowEndSeconds = config.getDouble(
        "disk.fault.window_end_s", fault.windowEndSeconds);
    fault.seed = std::uint64_t(
        config.getInt("disk.fault.seed", std::int64_t(fault.seed)));

    Kernel::DiskRetryPolicy &retry = sc.kernelParams.diskRetry;
    retry.maxAttempts = config.getNarrowInt("disk.retry.max_attempts",
                                            retry.maxAttempts);
    retry.backoffSeconds = config.getDouble("disk.retry.backoff_s",
                                            retry.backoffSeconds);
    retry.backoffMultiplier = config.getDouble(
        "disk.retry.multiplier", retry.backoffMultiplier);

    sc.timeScale = config.getDouble("time_scale", sc.timeScale);
    sc.kernelParams.timeScale = sc.timeScale;
    sc.sampleWindow =
        Cycles(config.getInt("sample_window", sc.sampleWindow));
    sc.maxCycles = Cycles(
        config.getInt("max_cycles", std::int64_t(sc.maxCycles)));
    sc.useCalibratedPower =
        config.getBool("power.calibrated", sc.useCalibratedPower);
    sc.clockInterrupts =
        config.getBool("clock_interrupts", sc.clockInterrupts);
    sc.kernelParams.seed =
        std::uint64_t(config.getInt("seed", sc.kernelParams.seed));
    sc.kernelParams.haltOnIdle =
        config.getBool("halt_on_idle", sc.kernelParams.haltOnIdle);

    sc.powerBudgetW =
        config.getDouble("power_budget_w", sc.powerBudgetW);
    sc.dvfsEnabled = config.getBool("dvfs", sc.dvfsEnabled);
    sc.adaptiveSpindown =
        config.getBool("adaptive_spindown", sc.adaptiveSpindown);

    sc.validate();

    // A set-but-never-read key is almost always a typo (the store
    // is schema-less, so a misspelt override silently changes
    // nothing). Keys the caller reads before or after this call are
    // marked used and not reported.
    for (const std::string &key : config.unusedKeys()) {
        warn(msg() << "config key '" << key
                   << "' was never read by any consumer; "
                   << "possible typo?");
    }
    return sc;
}

void
SystemConfig::validate() const
{
    machine.validate();
    if (timeScale <= 0) {
        fatal(msg() << "config: time_scale must be > 0 (got "
                    << timeScale
                    << "); use 1 for real time or 100 for the "
                    << "paper's compression");
    }
    if (sampleWindow == 0) {
        fatal(msg() << "config: sample_window must be >= 1 cycle "
                    << "(got 0); the sample log needs nonempty "
                    << "windows");
    }
    if (maxCycles == 0) {
        fatal(msg() << "config: max_cycles must be >= 1 (got 0); "
                    << "the watchdog would expire immediately");
    }
    if (!(deadlineSeconds >= 0) ||
        deadlineSeconds > 1e18) {
        fatal(msg() << "config: deadline_s must be a finite value "
                    << ">= 0 (got " << deadlineSeconds
                    << "); 0 disables the per-run deadline");
    }
    if (!(shutdownGraceSeconds >= 0) ||
        shutdownGraceSeconds > 1e18) {
        fatal(msg() << "config: grace_s must be a finite value >= 0 "
                    << "(got " << shutdownGraceSeconds
                    << "); 0 lets in-flight runs finish on drain");
    }
    if (diskConfig.kind == DiskConfigKind::Spindown &&
        diskConfig.spindownThresholdSeconds <= 0) {
        fatal(msg() << "config: disk.threshold_s must be > 0 for "
                    << "the spindown policy (got "
                    << diskConfig.spindownThresholdSeconds << ")");
    }
    if (!(powerBudgetW >= 0) || powerBudgetW > 1e6) {
        fatal(msg() << "config: power_budget_w must be a finite "
                    << "value in [0, 1e6] watts (got " << powerBudgetW
                    << "); 0 means no budget");
    }
    if (dvfsEnabled && powerBudgetW <= 0) {
        fatal("config: dvfs=1 needs a positive power_budget_w= "
              "budget for the governor to regulate against");
    }
    if (adaptiveSpindown &&
        diskConfig.kind != DiskConfigKind::Spindown) {
        fatal("config: adaptive_spindown=1 requires "
              "disk.config=spindown (disk.threshold_s seeds the "
              "adaptive threshold)");
    }
    diskConfig.fault.validate("config");
    kernelParams.diskRetry.validate("config");
}

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Completed: return "completed";
      case RunOutcome::WatchdogExpired: return "watchdog-expired";
      case RunOutcome::IoFailed: return "io-failed";
      case RunOutcome::DeadlineExceeded: return "deadline-exceeded";
      case RunOutcome::Cancelled: return "cancelled";
      case RunOutcome::Failed: return "failed";
    }
    panic("runOutcomeName: invalid outcome");
}

bool
runOutcomeFromName(const std::string &name, RunOutcome &out)
{
    for (RunOutcome candidate :
         {RunOutcome::Completed, RunOutcome::WatchdogExpired,
          RunOutcome::IoFailed, RunOutcome::DeadlineExceeded,
          RunOutcome::Cancelled, RunOutcome::Failed}) {
        if (name == runOutcomeName(candidate)) {
            out = candidate;
            return true;
        }
    }
    return false;
}

System::System(const SystemConfig &config) : cfg(config)
{
    cfg.validate();
    cfg.kernelParams.timeScale = cfg.timeScale;

    machineHierarchy =
        std::make_unique<CacheHierarchy>(cfg.machine, sink);
    machineTlb = std::make_unique<Tlb>(cfg.machine.tlbEntries,
                                       cfg.machine.pageBytes);
    machineDisk = std::make_unique<Disk>(
        queue, cfg.machine.freqMhz * 1e6, cfg.diskConfig,
        cfg.timeScale, cfg.kernelParams.seed ^ 0xd15c);
    machineKernel = std::make_unique<Kernel>(
        queue, *machineTlb, *machineHierarchy, *machineDisk,
        cfg.machine, cfg.kernelParams, sink);

    if (cfg.cpuModel == CpuModel::Superscalar) {
        machineCpu = std::make_unique<SuperscalarCpu>(
            cfg.machine, *machineHierarchy, *machineTlb, sink,
            *machineKernel);
    } else {
        machineCpu = std::make_unique<InOrderCpu>(
            cfg.machine, *machineHierarchy, *machineTlb, sink,
            *machineKernel);
    }

    power = std::make_unique<CpuPowerModel>(cfg.machine,
                                            cfg.useCalibratedPower);
    calculator = std::make_unique<PowerCalculator>(*power);
    stream = std::make_unique<PowerStream>(*calculator);

    machineKernel->setEnergyFn([this](const CounterBank &bank) {
        return calculator->componentEnergiesOf(bank);
    });
    machineKernel->setPowerMeter(this);

    if (cfg.dvfsEnabled) {
        governor = std::make_unique<DvfsGovernor>(
            cfg.machine.freqMhz, cfg.machine.vdd, cfg.powerBudgetW);
    }
    if (cfg.adaptiveSpindown) {
        spindown = std::make_unique<AdaptiveSpindownPolicy>(
            cfg.diskConfig.spindownThresholdSeconds);
    }

    registerSystemInvariants(checker, *this);
}

void
System::attachWorkload(std::unique_ptr<Workload> wl)
{
    workload = std::move(wl);
    workload->registerFiles(machineKernel->fs());
    for (const AddrRange &range : workload->premapRanges()) {
        PageTable &pages = machineKernel->pageTable();
        for (Addr a = range.base; a < range.base + range.bytes;
             a += Addr(pages.pageBytes())) {
            pages.map(a);
        }
    }
    machineKernel->setUserProgram(workload.get());
}

double
System::currentFreqMhz() const
{
    return governor ? governor->point().freqMhz : cfg.machine.freqMhz;
}

double
System::currentVdd() const
{
    return governor ? governor->point().vdd : cfg.machine.vdd;
}

void
System::closeWindow(Tick end_tick)
{
    if (end_tick <= windowStart)
        return;
    SampleRecord record;
    record.startTick = windowStart;
    record.endTick = end_tick;
    record.freqMhz = currentFreqMhz();
    record.vdd = currentVdd();
    record.counters = sink.global();
    totalsBank.accumulate(record.counters);
    sampleLog.append(std::move(record));
    sink.global().clear();
    windowStart = end_tick;

    // Stream the window through the incremental power pass and
    // publish it as the machine's power reading before the invariant
    // sweep, so the sweep can check the stream against the log.
    const SampleRecord &rec = sampleLog.all().back();
    const WindowPower &wp = stream->onWindow(rec);
    updateMeter(rec, wp);
    runPowerPolicies();

    checker.checkAll("sample-boundary");
}

void
System::updateMeter(const SampleRecord &rec, const WindowPower &wp)
{
    meterReading.windowIndex = sampleLog.size() - 1;
    meterReading.startTick = rec.startTick;
    meterReading.endTick = rec.endTick;
    meterReading.cpuMemPowerW = wp.cpuMemPowerW();

    // Disk energy integrates against paper-equivalent time; divide
    // by the compression factor so the window's disk power is
    // consistent with the CPU-side (sim-time) powers — the same
    // pricing breakdown() applies to the whole run.
    double disk_j = machineDisk->energyJ();
    double delta_j = (disk_j - lastDiskEnergyJ) / cfg.timeScale;
    lastDiskEnergyJ = disk_j;
    double window_s =
        double(rec.length()) / (cfg.machine.freqMhz * 1e6);
    meterReading.diskPowerW = window_s > 0 ? delta_j / window_s : 0;

    meterReading.systemPowerW =
        meterReading.cpuMemPowerW + meterReading.diskPowerW;
    meterReading.freqMhz = rec.freqMhz;
    meterReading.vdd = rec.vdd;
    meterReading.valid = true;
}

void
System::runPowerPolicies()
{
    if (governor && governor->observe(meterReading)) {
        // The governor's decision ran in the kernel: account one
        // power-meter read (the reading it acted on) as a service.
        machineKernel->pollPowerMeter();
    }
    if (spindown && spindown->observe(machineDisk->spinUps())) {
        machineDisk->setSpindownThreshold(
            spindown->thresholdSeconds());
    }
}

void
System::fastForwardToNextEvent()
{
    Tick next = queue.nextEventTick();
    if (next == maxTick)
        panic("idle fast-forward with no pending events: deadlock");
    Tick now = queue.now();
    if (next <= now + 1)
        return;

    if (!idleProfileMeasured) {
        if (cfg.kernelParams.haltOnIdle) {
            // Halted idle: no activity at all, only elapsed cycles.
            idleProfile = IdleProfile{};
            idleProfile.perCycle[int(CounterId::Cycles)] = 1.0;
        } else {
            idleProfile = measureIdleProfile(
                cfg.machine, cfg.cpuModel == CpuModel::Superscalar);
        }
        idleProfileMeasured = true;
    }

    // Discard the in-flight idle busy-waiting (its effect over the
    // skipped span is charged analytically from the measured
    // profile), requeueing any real work that was in flight.
    machineKernel->requeue(machineCpu->squashAllCollect());

    Cycles skip = next - now;
    ffCycles += skip;
    Tick cursor = now;
    while (skip > 0) {
        Cycles room = windowStart + cfg.sampleWindow - cursor;
        if (room == 0) {
            closeWindow(cursor);
            continue;
        }
        Cycles chunk = skip < room ? skip : room;
        idleProfile.apply(sink.global(), chunk);
        cursor += chunk;
        skip -= chunk;
        if (cursor >= windowStart + cfg.sampleWindow)
            closeWindow(cursor);
    }
    queue.advanceTo(next);  // runs the unblocking event(s)
}

namespace
{

/**
 * Simulated seconds -> ticks, saturating: a budget large enough to
 * overflow Tick arithmetic behaves as "effectively unbounded"
 * instead of wrapping into a tiny (or UB) deadline.
 */
Tick
ticksFromSeconds(double seconds, double freq_mhz)
{
    double ticks = seconds * freq_mhz * 1e6;
    const double max_tick = 9.2e18;  // < 2^63, exactly convertible
    return ticks >= max_tick ? Tick(max_tick) : Tick(ticks);
}

} // namespace

bool
System::throttledCpuCycle()
{
    // Duty-cycle throttle: a tick stays one nominal-frequency cycle
    // (disk and event timing are unaffected), but the core executes
    // on only dutyNum of every dutyDen ticks. The integer
    // accumulator makes the stall pattern an exact function of the
    // tick count. Stall ticks charge one cycle to the current
    // execution mode so per-mode Cycles still partition the window.
    const DvfsGovernor::Point &p = governor->point();
    dutyAcc += p.dutyNum;
    if (dutyAcc >= p.dutyDen) {
        dutyAcc -= p.dutyDen;
        ++detailCycles;
        return machineCpu->cycle();
    }
    sink.addCycle();
    ++throttleCycles;
    return true;
}

bool
System::cancellationRequested(RunResult &result)
{
    if (!cancel)
        return false;
    CancelToken::Level level = cancel->level();
    if (level == CancelToken::Live)
        return false;
    if (level >= CancelToken::Hard) {
        result.outcome = RunOutcome::Cancelled;
        result.diagnostics =
            "cancelled at sample-window boundary (hard)";
        return true;
    }
    // Drain: finish this run, bounded by the grace budget.
    if (cfg.shutdownGraceSeconds <= 0)
        return false;
    if (graceDeadline == 0) {
        graceDeadline =
            queue.now() + ticksFromSeconds(cfg.shutdownGraceSeconds,
                                           cfg.machine.freqMhz);
        return false;
    }
    if (queue.now() >= graceDeadline) {
        result.outcome = RunOutcome::Cancelled;
        result.diagnostics =
            msg() << "cancelled: drain grace budget of "
                  << cfg.shutdownGraceSeconds
                  << " simulated seconds exhausted";
        return true;
    }
    return false;
}

RunResult
System::run()
{
    if (!workload)
        fatal("System::run: no workload attached");
    if (cfg.clockInterrupts)
        machineKernel->startClock();

    if (!restoredState) {
        windowStart = queue.now();
        idleStreak = 0;
    }
    RunResult result;

    // Checkpoint cadence is anchored to the previous checkpoint's
    // tick, so a restored run (now() == that tick) arms the next
    // autosave at exactly the tick the uninterrupted run would.
    const Tick ckpt_interval =
        checkpointEverySeconds > 0
            ? ticksFromSeconds(checkpointEverySeconds,
                               cfg.machine.freqMhz)
            : 0;
    Tick next_ckpt =
        ckpt_interval ? queue.now() + ckpt_interval : 0;

    // The deadline is simulated time, so expiry is deterministic:
    // the same configuration ends at the same cycle regardless of
    // host load or the jobs= setting.
    const Tick deadline_tick =
        cfg.deadlineSeconds > 0
            ? ticksFromSeconds(cfg.deadlineSeconds,
                               cfg.machine.freqMhz)
            : 0;

    while (true) {
        if (machineKernel->ioFailed()) {
            result.outcome = RunOutcome::IoFailed;
            result.diagnostics =
                machineKernel->ioFailure().describe();
            break;
        }
        if (queue.now() >= cfg.maxCycles) {
            result.outcome = RunOutcome::WatchdogExpired;
            result.diagnostics =
                msg() << "watchdog: simulation exceeded "
                      << cfg.maxCycles << " cycles";
            break;
        }
        if (deadline_tick && queue.now() >= deadline_tick) {
            result.outcome = RunOutcome::DeadlineExceeded;
            result.diagnostics =
                msg() << "deadline: run exceeded its budget of "
                      << cfg.deadlineSeconds
                      << " simulated seconds (" << deadline_tick
                      << " cycles)";
            break;
        }

        bool alive;
        if (governor) {
            alive = throttledCpuCycle();
        } else {
            // Stall-span fold: cycles that would only charge a stall
            // to the instruction in flight are charged in one step,
            // up to but not onto the next tick at which anything else
            // can happen (an event, a window close, a checkpoint poll,
            // the watchdog or the deadline). Busy-waiting idle cycles
            // stay on the per-cycle path, which counts them towards
            // idle fast-forward.
            Cycles quiet = machineCpu->quietCycles();
            if (quiet > 0 && !machineKernel->idleWaiting()) {
                Tick horizon = queue.nextEventTick();
                horizon = std::min(horizon, windowStart + cfg.sampleWindow);
                horizon = std::min(horizon, Tick(cfg.maxCycles));
                if (ckpt_interval && !ckptDegraded)
                    horizon = std::min(horizon, next_ckpt);
                if (deadline_tick)
                    horizon = std::min(horizon, deadline_tick);
                Tick now = queue.now();
                Cycles span =
                    horizon > now + 1
                        ? std::min(quiet, Cycles(horizon - now - 1))
                        : 0;
                if (span > 0) {
                    machineCpu->skipQuietCycles(span);
                    detailCycles += span;
                    idleStreak = 0;
                    queue.advanceTo(now + span);
                    continue;
                }
            }
            alive = machineCpu->cycle();
            ++detailCycles;
        }
        queue.advanceTo(queue.now() + 1);

        bool window_closed = false;
        if (queue.now() - windowStart >= cfg.sampleWindow) {
            closeWindow(queue.now());
            window_closed = true;
        }

        if (!alive)
            break;

        if (machineKernel->idleWaiting()) {
            if (++idleStreak >= cfg.idleFastForwardAfter) {
                fastForwardToNextEvent();
                idleStreak = 0;
                // Fast-forward may have closed several windows.
                window_closed = true;
            }
        } else {
            idleStreak = 0;
        }

        if (window_closed && cancellationRequested(result))
            break;

        // Checkpoint poll, last in the iteration: a restored run
        // resumes at the top of the loop, which is exactly where the
        // uninterrupted run continues after the autosave. The squash
        // inside buildCheckpointImage() happens at the same tick in
        // every run with the same cadence, so trajectories match.
        if (ckpt_interval && !ckptDegraded &&
            queue.now() >= next_ckpt && checkpointSafeNow()) {
            takeCheckpoint();
            next_ckpt = queue.now() + ckpt_interval;
        }
    }
    closeWindow(queue.now());
    checker.checkAll("end-of-run");
    result.cycles = queue.now();
    return result;
}

void
System::setCheckpointPolicy(double every_seconds,
                            const std::string &autosave_path,
                            Durability autosave_durability)
{
    ckptDurability = autosave_durability;
    if (!(every_seconds >= 0) || every_seconds > 1e18) {
        fatal(msg() << "checkpoint interval must be a finite value "
                    << ">= 0 seconds (got " << every_seconds
                    << "); 0 disables autosave");
    }
    if (every_seconds > 0 && autosave_path.empty()) {
        fatal("checkpoint autosave needs a destination path; "
              "set an output file for the run");
    }
    checkpointEverySeconds = every_seconds;
    autosavePath = autosave_path;
}

std::uint64_t
System::checkpointFingerprint() const
{
    SW_CHECK(workload != nullptr,
             "checkpoint fingerprint needs an attached workload");
    ChunkWriter w;
    auto i32 = [&w](int v) { w.u64(std::uint64_t(std::int64_t(v))); };

    const MachineParams &m = cfg.machine;
    i32(m.instWindowSize);
    i32(m.intRegs);
    i32(m.fpRegs);
    i32(m.lsqSize);
    i32(m.fetchWidth);
    i32(m.decodeWidth);
    i32(m.issueWidth);
    i32(m.commitWidth);
    i32(m.intAlus);
    i32(m.fpAlus);
    i32(m.bhtEntries);
    i32(m.btbEntries);
    i32(m.rasEntries);
    w.u64(m.memorySizeBytes);
    for (const CacheParams &c : {m.icache, m.dcache, m.l2cache}) {
        w.u64(c.sizeBytes);
        i32(c.lineBytes);
        i32(c.ways);
        i32(c.hitLatency);
    }
    i32(m.tlbEntries);
    i32(m.memoryLatency);
    i32(m.pageBytes);
    w.f64(m.featureSizeUm);
    w.f64(m.vdd);
    w.f64(m.freqMhz);

    w.u8(std::uint8_t(cfg.diskConfig.kind));
    w.f64(cfg.diskConfig.spindownThresholdSeconds);
    const DiskFaultConfig &fault = cfg.diskConfig.fault;
    w.b(fault.enabled);
    w.f64(fault.transientErrorRate);
    w.f64(fault.seekErrorRate);
    w.f64(fault.spinupFailureRate);
    w.f64(fault.windowStartSeconds);
    w.f64(fault.windowEndSeconds);
    w.u64(fault.seed);

    const Kernel::Params &k = cfg.kernelParams;
    w.f64(k.tlbSlowPathProb);
    w.f64(k.vfaultProb);
    w.f64(k.clockTickSeconds);
    w.f64(k.timeScale);
    w.u64(k.fileCacheBlocks);
    w.b(k.haltOnIdle);
    w.u64(k.seed);
    const ServiceTuning &t = k.tuning;
    for (std::uint64_t len :
         {t.utlbLength, t.tlbMissLength, t.vfaultLength,
          t.demandZeroLength, t.cacheflushLength, t.openLength,
          t.openSyncLength, t.xstatLength, t.duPollLength,
          t.bsdLength, t.clockLength, t.clockSyncLength,
          t.ioSyncLength, t.ioSetupLength, t.ioFinishLength,
          t.errorRecoveryLength, t.errorRecoverySyncLength,
          t.powerReadLength}) {
        w.u64(len);
    }
    w.f64(t.openMetadataMissProb);
    i32(k.diskRetry.maxAttempts);
    w.f64(k.diskRetry.backoffSeconds);
    w.f64(k.diskRetry.backoffMultiplier);

    w.f64(cfg.timeScale);
    w.u64(cfg.sampleWindow);
    w.b(cfg.useCalibratedPower);
    w.u64(cfg.idleFastForwardAfter);
    w.u64(cfg.maxCycles);
    w.b(cfg.clockInterrupts);
    w.f64(cfg.powerBudgetW);
    w.b(cfg.dvfsEnabled);
    w.b(cfg.adaptiveSpindown);

    const WorkloadSpec &wl = workload->spec();
    w.str(wl.name);
    w.u64(wl.mainInsts);
    wl.mainSpec.saveState(w);
    i32(wl.numClassFiles);
    w.u64(wl.classFileBytes);
    w.u64(wl.loadComputeOps);
    w.u32(wl.loadReadChunk);
    i32(wl.jitFlushes);
    w.u64(wl.jitComputeOps);
    w.u64(wl.gcPeriodInsts);
    w.u64(wl.gcBurstInsts);
    w.f64(wl.sys.readsPerMInst);
    w.u32(wl.sys.readBytesMin);
    w.u32(wl.sys.readBytesMax);
    w.f64(wl.sys.writesPerMInst);
    w.u32(wl.sys.writeBytes);
    w.f64(wl.sys.xstatPerMInst);
    w.f64(wl.sys.bsdPerMInst);
    w.f64(wl.sys.duPollPerMInst);
    w.f64(wl.sys.openPerMInst);
    w.f64(wl.sys.powerPollPerMInst);
    w.u64(wl.seed);
    w.u64(wl.coldBurstFracs.size());
    for (double frac : wl.coldBurstFracs)
        w.f64(frac);
    w.u64(wl.dataFileBytes);

    return fnv1a64(w.bytes().data(), w.bytes().size());
}

CheckpointImage
System::buildCheckpointImage()
{
    SW_CHECK(checkpointSafeNow(),
             "checkpoint requested outside a safe point");
    // Squash in-flight work back to the kernel's replay queues: the
    // pipeline content becomes serializable data, and the squash
    // happens at this tick in every run with the same cadence.
    machineKernel->requeue(machineCpu->squashAllCollect());

    CheckpointImage image;
    image.configFingerprint = checkpointFingerprint();
    image.cpuModel = std::uint8_t(cfg.cpuModel);

    auto chunk = [&image](const char *name, auto &&fill) {
        ChunkWriter w;
        fill(w);
        image.add(name, std::move(w));
    };
    chunk("event-queue",
          [&](ChunkWriter &w) { queue.saveState(w); });
    chunk("cpu", [&](ChunkWriter &w) { machineCpu->saveState(w); });
    chunk("caches",
          [&](ChunkWriter &w) { machineHierarchy->saveState(w); });
    chunk("tlb", [&](ChunkWriter &w) { machineTlb->saveState(w); });
    chunk("disk", [&](ChunkWriter &w) { machineDisk->saveState(w); });
    chunk("kernel",
          [&](ChunkWriter &w) { machineKernel->saveState(w); });
    chunk("workload",
          [&](ChunkWriter &w) { workload->saveState(w); });
    chunk("counters", [&](ChunkWriter &w) {
        sink.saveState(w);
        totalsBank.saveState(w);
    });
    chunk("sample-log",
          [&](ChunkWriter &w) { sampleLog.saveState(w); });
    chunk("system", [&](ChunkWriter &w) {
        w.u64(windowStart);
        w.u64(idleStreak);
        w.u64(ffCycles);
        w.u64(detailCycles);
    });
    // Power subsystem: meter reading, throttle and policy state.
    // The stream accumulator itself is NOT serialized — it is a pure
    // function of the sample log and is rebuilt by re-streaming the
    // restored log (applyCheckpointImage).
    chunk("power", [&](ChunkWriter &w) {
        meterReading.saveState(w);
        w.f64(lastDiskEnergyJ);
        w.u64(dutyAcc);
        w.u64(throttleCycles);
        w.b(governor != nullptr);
        if (governor)
            governor->saveState(w);
        w.b(spindown != nullptr);
        if (spindown)
            spindown->saveState(w);
    });
    return image;
}

void
System::applyCheckpointImage(const CheckpointImage &image)
{
    bool warm_start = image.cpuModel != std::uint8_t(cfg.cpuModel);

    // Verify every needed chunk exists before mutating anything, so
    // a damaged-but-checksum-valid image cannot leave the machine
    // half restored.
    std::vector<const char *> needed = {
        "event-queue", "caches", "tlb",      "disk",
        "kernel",      "workload", "counters", "sample-log",
        "system",      "power"};
    if (!warm_start)
        needed.push_back("cpu");
    for (const char *name : needed) {
        if (!image.find(name)) {
            throw CheckpointError(
                msg() << "checkpoint is missing chunk '" << name
                      << "'");
        }
    }

    auto apply = [&image](const char *name, auto &&fn) {
        const CheckpointChunk *found = image.find(name);
        ChunkReader reader(found->payload, name);
        fn(reader);
        reader.finish();
    };
    // The event queue goes first: component loadState calls
    // re-register their live events against the restored clock and
    // id counter.
    apply("event-queue",
          [&](ChunkReader &r) { queue.loadState(r); });
    if (warm_start) {
        inform(msg() << "warm start: checkpoint was taken under a "
                     << "different CPU model; restoring memory, "
                     << "disk, OS and workload state with a cold "
                     << "core (SimOS mode-switch semantics)");
    } else {
        apply("cpu",
              [&](ChunkReader &r) { machineCpu->loadState(r); });
    }
    apply("caches",
          [&](ChunkReader &r) { machineHierarchy->loadState(r); });
    apply("tlb", [&](ChunkReader &r) { machineTlb->loadState(r); });
    apply("disk",
          [&](ChunkReader &r) { machineDisk->loadState(r); });
    apply("kernel",
          [&](ChunkReader &r) { machineKernel->loadState(r); });
    apply("workload",
          [&](ChunkReader &r) { workload->loadState(r); });
    apply("counters", [&](ChunkReader &r) {
        sink.loadState(r);
        totalsBank.loadState(r);
    });
    apply("sample-log",
          [&](ChunkReader &r) { sampleLog.loadState(r); });
    apply("system", [&](ChunkReader &r) {
        windowStart = r.u64();
        idleStreak = r.u64();
        ffCycles = r.u64();
        detailCycles = r.u64();
    });
    apply("power", [&](ChunkReader &r) {
        meterReading.loadState(r);
        lastDiskEnergyJ = r.f64();
        dutyAcc = r.u64();
        throttleCycles = r.u64();
        bool had_governor = r.b();
        if (had_governor != (governor != nullptr)) {
            throw CheckpointError(
                msg() << "checkpoint "
                      << (had_governor ? "has" : "lacks")
                      << " DVFS governor state but this run "
                      << (governor ? "enables" : "disables")
                      << " the governor");
        }
        if (governor)
            governor->loadState(r);
        bool had_spindown = r.b();
        if (had_spindown != (spindown != nullptr)) {
            throw CheckpointError(
                msg() << "checkpoint "
                      << (had_spindown ? "has" : "lacks")
                      << " adaptive spin-down state but this run "
                      << (spindown ? "enables" : "disables")
                      << " the policy");
        }
        if (spindown)
            spindown->loadState(r);
    });
    // The policy threshold lives outside the disk's own chunk; push
    // the restored value back so the next arming uses it.
    if (spindown)
        machineDisk->setSpindownThreshold(spindown->thresholdSeconds());
    // The stream accumulator is a pure function of the sample log:
    // replay the restored log so subsequent windows (and the batch
    // trace) continue bit-identically.
    rebuildPowerStream();
}

void
System::rebuildPowerStream()
{
    stream->beginRun();
    for (const SampleRecord &rec : sampleLog.all())
        stream->onWindow(rec);
}

void
System::checkCheckpointCompatible(const CheckpointImage &image,
                                  const std::string &source) const
{
    std::uint64_t expected = checkpointFingerprint();
    if (image.configFingerprint != expected) {
        throw CheckpointMismatch(
            msg() << source << ": checkpoint was written under a "
                  << "different machine/workload configuration "
                  << "(fingerprint " << image.configFingerprint
                  << ", this run has " << expected << ")");
    }
}

bool
System::restoreCheckpoint(const std::string &path)
{
    if (!workload)
        fatal("System::restoreCheckpoint: attach the workload "
              "before restoring");

    CheckpointImage image;
    bool have_image = false;
    std::string source = path;
    try {
        image = readCheckpoint(path);
        checkCheckpointCompatible(image, path);
        have_image = true;
    } catch (const CheckpointMismatch &err) {
        fatal(msg() << "cannot restore: " << err.what());
    } catch (const CheckpointError &err) {
        warn(msg() << "checkpoint " << path << " is unusable ("
                   << err.what()
                   << "); falling back to the previous generation");
    }
    if (!have_image) {
        source = checkpointPreviousGeneration(path);
        try {
            image = readCheckpoint(source);
            checkCheckpointCompatible(image, source);
            have_image = true;
        } catch (const CheckpointMismatch &err) {
            fatal(msg() << "cannot restore: " << err.what());
        } catch (const CheckpointError &err) {
            warn(msg() << "previous-generation checkpoint " << source
                       << " is unusable too (" << err.what()
                       << "); starting the run from scratch");
            return false;
        }
    }

    try {
        applyCheckpointImage(image);
    } catch (const CheckpointError &err) {
        // The image verified but a chunk would not parse: a format
        // bug, and the machine may be half restored — do not limp on.
        panic(msg() << "checkpoint " << source << " verified but "
                    << "failed to apply: " << err.what());
    }
    restoredState = true;
    inform(msg() << "restored machine state from " << source
                 << " at tick " << queue.now());
    return true;
}

void
System::writeCheckpointNow(const std::string &path)
{
    writeCheckpoint(path, buildCheckpointImage());
}

void
System::takeCheckpoint()
{
    // Structured degradation: a failed autosave (ENOSPC, EIO, a
    // torn rename chain) downgrades the run to checkpoint-less
    // execution instead of killing a simulation that is otherwise
    // healthy. The image-building squash already happened, so the
    // trajectory up to this tick still matches other runs at the
    // same cadence; further autosaves are disarmed because their
    // squashes could no longer be paired with saved images.
    try {
        autosaveCheckpoint(autosavePath, buildCheckpointImage(),
                           ckptDurability);
        ++numCheckpoints;
    } catch (const CheckpointError &err) {
        ckptDegraded = true;
        warn(msg() << "checkpoint autosave failed; continuing "
                   << "checkpoint-less (degraded): " << err.what());
    }
}

void
System::dumpStats(std::ostream &out) const
{
    auto line = [&out](const char *name, double value,
                       const char *desc) {
        out << name << ' ' << value << " # " << desc << '\n';
    };
    line("sim.cycles", double(queue.now()), "total simulated cycles");
    line("sim.detailed_cycles", double(detailCycles),
         "cycles simulated in detail");
    line("sim.ff_cycles", double(ffCycles),
         "cycles covered by idle fast-forward");
    line("cpu.committed_insts", double(machineCpu->committedInsts()),
         "instructions committed");
    line("cpu.ipc", machineCpu->ipc(),
         "committed instructions per cycle");
    line("cpu.bpred_accuracy",
         machineCpu->predictor().accuracy(),
         "branch prediction accuracy");
    line("l1i.miss_ratio", machineHierarchy->icache().missRatio(),
         "L1 I-cache miss ratio");
    line("l1d.miss_ratio", machineHierarchy->dcache().missRatio(),
         "L1 D-cache miss ratio");
    line("l2.miss_ratio", machineHierarchy->l2cache().missRatio(),
         "unified L2 miss ratio");
    line("mem.accesses", double(machineHierarchy->memAccesses()),
         "main-memory accesses");
    line("tlb.miss_ratio",
         machineTlb->refs()
             ? double(machineTlb->misses()) /
                   double(machineTlb->refs())
             : 0,
         "unified TLB miss ratio");
    line("filecache.hit_ratio",
         machineKernel->fileCache().hitRatio(),
         "buffer cache hit ratio");
    line("disk.requests", double(machineDisk->requestsServed()),
         "disk requests served");
    line("disk.spinups", double(machineDisk->spinUps()),
         "disk spin-ups");
    if (machineDisk->config().fault.active() ||
        machineKernel->diskFaults() > 0) {
        const DiskFaultModel &faults = machineDisk->faults();
        line("disk.faults.transient",
             double(faults.transientErrors()),
             "injected transient transfer errors");
        line("disk.faults.seek", double(faults.seekErrors()),
             "injected seek (servo) errors");
        line("disk.faults.spinup", double(faults.spinupFailures()),
             "injected spin-up failures");
        line("disk.requests_failed",
             double(machineDisk->requestsFailed()),
             "requests completed with an error status");
        line("kernel.disk_retries",
             double(machineKernel->diskRetries()),
             "disk driver retries");
        line("kernel.disk_giveups",
             double(machineKernel->diskGiveUps()),
             "disk requests abandoned after max attempts");
    }
    line("kernel.clock_interrupts",
         double(machineKernel->clockInterrupts()),
         "timer interrupts taken");
    if (governor) {
        line("sim.throttled_cycles", double(throttleCycles),
             "cycles stalled by the DVFS duty-cycle throttle");
        line("dvfs.budget_w", governor->budgetW(),
             "governor power budget");
        line("dvfs.level", double(governor->level()),
             "final DVFS ladder level (0 = nominal)");
        line("dvfs.deepest_level", double(governor->deepestLevel()),
             "deepest DVFS ladder level reached");
        line("dvfs.steps_down", double(governor->stepsDown()),
             "governor frequency reductions");
        line("dvfs.steps_up", double(governor->stepsUp()),
             "governor frequency restorations");
    }
    if (spindown) {
        line("disk.adaptive_threshold_s",
             spindown->thresholdSeconds(),
             "final adaptive spin-down threshold");
        line("disk.threshold_adjustments",
             double(spindown->adjustments()),
             "adaptive spin-down threshold changes");
    }
    for (ServiceKind kind : allServices) {
        const ServiceStats &svc = machineKernel->serviceStats(kind);
        if (svc.invocations == 0)
            continue;
        out << "kernel." << serviceName(kind) << ".invocations "
            << svc.invocations << " # service invocation count\n";
    }
}

PowerTrace
System::powerTrace() const
{
    // Served from the incremental stream: every sample-log append is
    // immediately followed by stream->onWindow(), so the accumulator
    // always equals calculator->process(sampleLog) bit-for-bit (the
    // batch path is itself a wrapper over the same streaming code).
    return stream->trace();
}

double
System::diskEnergyConventionalJ() const
{
    // Re-price the same run as the unmanaged disk: every non-seek,
    // non-transfer second is spent at ACTIVE power.
    DiskPowerSpec spec;
    double seek_s = machineDisk->stateSeconds(DiskState::Seeking);
    double active_s = machineDisk->stateSeconds(DiskState::Active);
    double other_s =
        machineDisk->stateSeconds(DiskState::Idle) +
        machineDisk->stateSeconds(DiskState::Standby) +
        machineDisk->stateSeconds(DiskState::SpinningDown) +
        machineDisk->stateSeconds(DiskState::SpinningUp) +
        machineDisk->stateSeconds(DiskState::Sleep);
    return spec.seekW * seek_s +
           spec.activeW * (active_s + other_s);
}

PowerBreakdown
System::breakdown(bool conventional_disk) const
{
    PowerBreakdown total = powerTrace().total;
    double equiv_j = conventional_disk ? diskEnergyConventionalJ()
                                       : machineDisk->energyJ();
    // Disk energy is integrated against paper-equivalent time;
    // divide by the compression factor so component *power* shares
    // stay consistent with the CPU-side (sim-time) energies.
    total.diskEnergyJ = equiv_j / cfg.timeScale;
    return total;
}

} // namespace softwatt
