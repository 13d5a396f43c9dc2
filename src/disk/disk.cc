#include "disk.hh"

#include <cmath>

#include "sim/check.hh"
#include "sim/logging.hh"

namespace softwatt
{

const char *
diskStateName(DiskState s)
{
    switch (s) {
      case DiskState::Sleep: return "SLEEP";
      case DiskState::Standby: return "STANDBY";
      case DiskState::SpinningDown: return "SPINDOWN";
      case DiskState::SpinningUp: return "SPINUP";
      case DiskState::Idle: return "IDLE";
      case DiskState::Active: return "ACTIVE";
      case DiskState::Seeking: return "SEEK";
    }
    panic("diskStateName: invalid state");
}

DiskTimingSpec
DiskTimingSpec::hp97560()
{
    DiskTimingSpec t;
    t.trackToTrackMs = 2.5;
    t.avgSeekMs = 13.5;
    t.rpm = 4002.0;
    t.transferMbPerS = 2.2;
    return t;
}

DiskTimingSpec
DiskTimingSpec::mk3003man()
{
    return DiskTimingSpec{};
}

DiskConfig
DiskConfig::conventional()
{
    DiskConfig c;
    c.kind = DiskConfigKind::Conventional;
    c.spindownThresholdSeconds = 0;
    return c;
}

DiskConfig
DiskConfig::idleOnly()
{
    DiskConfig c;
    c.kind = DiskConfigKind::IdleOnly;
    c.spindownThresholdSeconds = 0;
    return c;
}

DiskConfig
DiskConfig::spindown(double threshold_seconds)
{
    DiskConfig c;
    c.kind = DiskConfigKind::Spindown;
    c.spindownThresholdSeconds = threshold_seconds;
    return c;
}

const char *
DiskConfig::name() const
{
    switch (kind) {
      case DiskConfigKind::Conventional:
        return "Baseline";
      case DiskConfigKind::IdleOnly:
        return "Without Spindowns";
      case DiskConfigKind::Spindown:
        return spindownThresholdSeconds <= 2.0
                   ? "With 2 Sec. Spindown"
                   : "With 4 Sec. Spindown";
    }
    panic("DiskConfig::name: invalid kind");
}

bool
Disk::legalTransition(DiskState from, DiskState to)
{
    if (from == to)
        return true;
    switch (from) {
      case DiskState::Sleep:
        return to == DiskState::SpinningUp;
      case DiskState::Standby:
        return to == DiskState::SpinningUp || to == DiskState::Sleep;
      case DiskState::SpinningDown:
        return to == DiskState::Standby || to == DiskState::Sleep;
      case DiskState::SpinningUp:
        // Success reaches IDLE; a spin-up failure falls back to
        // STANDBY after the full spin-up time and energy are paid.
        return to == DiskState::Idle || to == DiskState::Standby;
      case DiskState::Idle:
        return to == DiskState::Seeking ||
               to == DiskState::SpinningDown;
      case DiskState::Active:
        return to == DiskState::Idle || to == DiskState::Seeking;
      case DiskState::Seeking:
        // A servo error settles back to IDLE without transferring.
        return to == DiskState::Active || to == DiskState::Idle;
    }
    return false;
}

std::string
Disk::firstIllegalTransition() const
{
    if (numIllegal == 0)
        return "";
    return std::string(diskStateName(illegalFrom)) + "->" +
           diskStateName(illegalTo);
}

Disk::Disk(EventQueue &queue, double freq_hz, const DiskConfig &config,
           double time_scale, std::uint64_t seed)
    : queue(queue), freqHz(freq_hz), cfg(config), timeScale(time_scale),
      rng(seed), faultModel(config.fault),
      currentState(config.kind == DiskConfigKind::Conventional
                       ? DiskState::Active
                       : DiskState::Idle),
      lastTransition(queue.now()), epochTick(queue.now())
{
    if (!(time_scale > 0))
        fatal("disk time_scale must be positive");
    config.fault.validate("disk fault config");
}

double
Disk::statePowerW(DiskState s) const
{
    switch (s) {
      case DiskState::Sleep: return power.sleepW;
      case DiskState::Standby: return power.standbyW;
      case DiskState::SpinningDown: return 0;  // free, per the paper
      case DiskState::SpinningUp: return power.spinupW;
      case DiskState::Idle:
        // The conventional disk has no IDLE mode: it keeps spinning
        // at ACTIVE power between requests.
        return cfg.kind == DiskConfigKind::Conventional ? power.activeW
                                                        : power.idleW;
      case DiskState::Active: return power.activeW;
      case DiskState::Seeking: return power.seekW;
    }
    panic("statePowerW: invalid state");
}

Tick
Disk::ticksFor(double seconds) const
{
    double ticks = seconds / timeScale * freqHz;
    return ticks < 1 ? 1 : Tick(ticks);
}

double
Disk::equivNowSeconds() const
{
    return double(queue.now()) / freqHz * timeScale;
}

void
Disk::failHead(DiskIoStatus status)
{
    Request req = std::move(pending.front());
    pending.pop_front();
    ++numFailed;
    busy = false;
    if (!pending.empty()) {
        startNext();
    } else {
        armSpindown();
    }
    if (req.done)
        req.done(status);
}

void
Disk::transitionTo(DiskState next)
{
    // Record rather than assert: the disk.legal-transitions invariant
    // reports this at the next sample boundary, so observation never
    // changes simulation behaviour.
    if (!legalTransition(currentState, next) && numIllegal++ == 0) {
        illegalFrom = currentState;
        illegalTo = next;
    }
    Tick now = queue.now();
    double sim_seconds = double(now - lastTransition) / freqHz;
    double equiv_seconds = sim_seconds * timeScale;
    accumulatedJ += statePowerW(currentState) * equiv_seconds;
    stateSecondsAcc[int(currentState)] += equiv_seconds;
    currentState = next;
    lastTransition = now;
}

double
Disk::residencyEnergyJ() const
{
    double sum = 0;
    for (int s = 0; s <= int(DiskState::Seeking); ++s) {
        sum += stateSeconds(DiskState(s)) *
               statePowerW(DiskState(s));
    }
    return sum;
}

double
Disk::elapsedEquivSeconds() const
{
    return double(queue.now() - epochTick) / freqHz * timeScale;
}

double
Disk::energyJ() const
{
    double sim_seconds =
        double(queue.now() - lastTransition) / freqHz;
    return accumulatedJ +
           statePowerW(currentState) * sim_seconds * timeScale;
}

double
Disk::stateSeconds(DiskState s) const
{
    double extra = 0;
    if (s == currentState) {
        extra = double(queue.now() - lastTransition) / freqHz *
                timeScale;
    }
    return stateSecondsAcc[int(s)] + extra;
}

double
Disk::seekMs(std::uint64_t block) const
{
    std::uint64_t distance = block > lastBlock ? block - lastBlock
                                               : lastBlock - block;
    if (distance == 0)
        return 0;
    // Square-root seek curve between track-to-track and full-stroke.
    double frac = double(distance) / double(timing.numBlocks);
    double full_stroke = 2.0 * timing.avgSeekMs;
    return timing.trackToTrackMs +
           (full_stroke - timing.trackToTrackMs) * std::sqrt(frac);
}

void
Disk::cancelSpindown()
{
    if (spindownScheduled) {
        queue.cancel(spindownEvent);
        spindownScheduled = false;
    }
}

void
Disk::onSpindownTimer()
{
    spindownScheduled = false;
    if (currentState != DiskState::Idle || busy ||
        !pending.empty()) {
        return;
    }
    ++numSpinDowns;
    transitionTo(DiskState::SpinningDown);
    queue.scheduleIn(ticksFor(power.spinupSeconds), [this] {
        if (currentState != DiskState::SpinningDown)
            return;
        transitionTo(DiskState::Standby);
        // A request may have queued while spinning down.
        if (!pending.empty() && !busy)
            startNext();
    });
}

void
Disk::setSpindownThreshold(double seconds)
{
    if (cfg.kind != DiskConfigKind::Spindown)
        return;
    if (!(seconds > 0)) {
        fatal(msg() << "disk spin-down threshold must be > 0 "
                    << "seconds (got " << seconds << ")");
    }
    cfg.spindownThresholdSeconds = seconds;
}

void
Disk::armSpindown()
{
    if (cfg.kind != DiskConfigKind::Spindown)
        return;
    cancelSpindown();
    spindownTick =
        queue.now() + ticksFor(cfg.spindownThresholdSeconds);
    spindownEvent =
        queue.schedule(spindownTick, [this] { onSpindownTimer(); });
    spindownScheduled = true;
}

void
Disk::submit(std::uint64_t block, std::uint32_t num_blocks,
             Callback done)
{
    if (num_blocks == 0)
        fatal("disk request must transfer at least one block");
    pending.push_back(Request{block, num_blocks, std::move(done)});
    cancelSpindown();
    if (!busy)
        startNext();
}

void
Disk::sleep()
{
    if (busy || !pending.empty())
        return;  // refuse while work is outstanding
    cancelSpindown();
    if (currentState == DiskState::Idle) {
        transitionTo(DiskState::SpinningDown);
        queue.scheduleIn(ticksFor(power.spinupSeconds), [this] {
            if (currentState == DiskState::SpinningDown)
                transitionTo(DiskState::Sleep);
        });
    } else if (currentState == DiskState::Standby) {
        transitionTo(DiskState::Sleep);
    }
}

void
Disk::startNext()
{
    if (pending.empty())
        return;
    busy = true;

    switch (currentState) {
      case DiskState::Standby:
      case DiskState::Sleep:
        // Spin back up before servicing: time and energy penalty.
        ++numSpinUps;
        transitionTo(DiskState::SpinningUp);
        queue.scheduleIn(ticksFor(power.spinupSeconds), [this] {
            // The full spin-up time and energy are spent even when
            // the attempt fails: the drive only knows at the end
            // that the platters did not reach speed.
            if (faultModel.injectSpinupFailure(equivNowSeconds())) {
                transitionTo(DiskState::Standby);
                failHead(DiskIoStatus::SpinupFailure);
                return;
            }
            transitionTo(DiskState::Idle);
            beginService();
        });
        return;
      case DiskState::SpinningDown:
        // Wait for the spin-down to finish; its completion event
        // calls startNext() again from STANDBY.
        busy = false;
        return;
      case DiskState::SpinningUp:
        // Already spinning up for an earlier request; it will drain
        // the queue when service completes.
        return;
      case DiskState::Idle:
      case DiskState::Active:
      case DiskState::Seeking:
        beginService();
        return;
    }
}

void
Disk::beginService()
{
    const Request &req = pending.front();

    double seek_ms = seekMs(req.block);
    // Rotational latency: uniform over one revolution.
    double rot_ms = rng.uniform() * timing.rotationMs();
    double transfer_ms = timing.blockTransferMs() * req.numBlocks;

    ++numSeeks;
    transitionTo(DiskState::Seeking);
    queue.scheduleIn(ticksFor((seek_ms + rot_ms) * 1e-3), [this,
                                                           transfer_ms] {
        // A servo error is detected once the seek settles: the full
        // seek time was spent at SEEK power but the head is off
        // track, so the transfer never starts.
        if (faultModel.injectSeekError(equivNowSeconds())) {
            transitionTo(DiskState::Idle);
            failHead(DiskIoStatus::SeekError);
            return;
        }
        transitionTo(DiskState::Active);
        queue.scheduleIn(ticksFor(transfer_ms * 1e-3), [this] {
            // A transient media error surfaces after the transfer
            // window: time and energy were spent, no data moved.
            if (faultModel.injectTransientError(equivNowSeconds())) {
                transitionTo(DiskState::Idle);
                failHead(DiskIoStatus::TransientError);
                return;
            }
            Request req = std::move(pending.front());
            pending.pop_front();
            lastBlock = req.block + req.numBlocks;
            ++numRequests;
            // ACTIVE -> IDLE is free and instantaneous.
            transitionTo(DiskState::Idle);
            busy = false;
            if (!pending.empty()) {
                startNext();
            } else {
                armSpindown();
            }
            if (req.done)
                req.done(DiskIoStatus::Ok);
        });
    });
}

void
Disk::saveState(ChunkWriter &out) const
{
    SW_CHECK(checkpointSafe(),
             "Disk::saveState outside a checkpoint-safe state");
    out.u8(std::uint8_t(currentState));
    out.u64(lastTransition);
    out.u64(epochTick);
    out.f64(accumulatedJ);
    for (double seconds : stateSecondsAcc)
        out.f64(seconds);
    out.u64(numIllegal);
    out.u8(std::uint8_t(illegalFrom));
    out.u8(std::uint8_t(illegalTo));
    out.u64(lastBlock);
    out.u64(rng.rawState());
    faultModel.saveState(out);
    out.b(spindownScheduled);
    out.u64(spindownEvent);
    out.u64(spindownTick);
    out.u64(numRequests);
    out.u64(numSpinUps);
    out.u64(numSpinDowns);
    out.u64(numSeeks);
    out.u64(numFailed);
}

void
Disk::loadState(ChunkReader &in)
{
    SW_CHECK(quiescent(), "Disk::loadState with work outstanding");
    currentState = DiskState(in.u8());
    lastTransition = in.u64();
    epochTick = in.u64();
    accumulatedJ = in.f64();
    for (double &seconds : stateSecondsAcc)
        seconds = in.f64();
    numIllegal = in.u64();
    illegalFrom = DiskState(in.u8());
    illegalTo = DiskState(in.u8());
    lastBlock = in.u64();
    rng.setRawState(in.u64());
    faultModel.loadState(in);
    spindownScheduled = in.b();
    spindownEvent = in.u64();
    spindownTick = in.u64();
    numRequests = in.u64();
    numSpinUps = in.u64();
    numSpinDowns = in.u64();
    numSeeks = in.u64();
    numFailed = in.u64();
    if (spindownScheduled) {
        queue.restoreEvent(spindownTick, spindownEvent,
                           [this] { onSpindownTimer(); });
    }
}

} // namespace softwatt
