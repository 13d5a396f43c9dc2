#include "kernel.hh"

#include <algorithm>
#include <cmath>

#include "sim/check.hh"
#include "sim/logging.hh"

#include "syscalls.hh"

namespace softwatt
{

void
Kernel::DiskRetryPolicy::validate(const char *context) const
{
    if (maxAttempts < 1) {
        fatal(msg() << context << ": disk retry max attempts must be "
                    << ">= 1 (got " << maxAttempts
                    << "); 1 means no retries at all");
    }
    if (!(backoffSeconds > 0)) {
        fatal(msg() << context << ": disk retry backoff must be > 0 "
                    << "seconds (got " << backoffSeconds << ")");
    }
    if (!(backoffMultiplier >= 1.0)) {
        fatal(msg() << context << ": disk retry backoff multiplier "
                    << "must be >= 1 (got " << backoffMultiplier
                    << "); use 1 for constant backoff");
    }
}

std::string
Kernel::IoFailure::describe() const
{
    if (!failed)
        return "no I/O failure";
    return msg() << "disk request for block " << block << " ("
                 << numBlocks << " blocks) abandoned after "
                 << attempts << " attempts; last error: "
                 << diskIoStatusName(lastStatus);
}

Kernel::Kernel(EventQueue &queue, Tlb &tlb, CacheHierarchy &hierarchy,
               Disk &disk, const MachineParams &machine,
               const Params &params, CounterSink &sink)
    : queue(queue), tlb(tlb), hierarchy(hierarchy), disk(disk),
      machine(machine), cfg(params), sink(sink),
      fileSystem(4096), bufferCache(params.fileCacheBlocks),
      pages(machine.pageBytes), rng(params.seed),
      idleStream(idleLoopSpec(), params.seed ^ 0x1d1e)
{
    cfg.diskRetry.validate("kernel params");
}

void
Kernel::setUserProgram(InstSource *program, std::uint32_t asid)
{
    userProgram = program;
    userAsid = asid;
    userDone = false;
}

void
Kernel::setEnergyFn(EnergyFn fn)
{
    energyFn = std::move(fn);
}

void
Kernel::scheduleClockTick()
{
    double sim_seconds = cfg.clockTickSeconds / disk.timeCompression();
    Cycles delta =
        Cycles(sim_seconds * machine.freqMhz * 1e6);
    if (delta == 0)
        delta = 1;
    nextClockTick = queue.now() + delta;
    clockEvent =
        queue.schedule(nextClockTick, [this] { onClockTick(); });
}

void
Kernel::onClockTick()
{
    if (!clockRunning)
        return;
    pendingClockInt = true;
    scheduleClockTick();
}

void
Kernel::startClock()
{
    if (clockRunning)
        return;
    clockRunning = true;
    scheduleClockTick();
}

void
Kernel::pushService(ServiceKind kind,
                    std::unique_ptr<InstSource> stream,
                    std::function<void()> on_complete,
                    IoService *io_service)
{
    auto frame = std::make_unique<Frame>();
    frame->src = std::move(stream);
    frame->service = kind;
    frame->onComplete = std::move(on_complete);
    frame->ioService = io_service;
    frame->tag = nextFrameTag++;
    sink.registerBank(frame->tag, &frame->bank);
    stack.push_back(std::move(frame));
}

Kernel::Frame *
Kernel::activeFrame() const
{
    for (std::size_t i = stack.size(); i-- > 0;) {
        Frame *frame = stack[i].get();
        if (!frame->replay.empty() || !frame->endPending)
            return frame;
    }
    return nullptr;
}

void
Kernel::finalizeService(std::size_t index, bool force)
{
    Frame &frame = *stack[index];
    if (!force &&
        (!frame.endPending || !frame.replay.empty() ||
         frame.committed < frame.emitted)) {
        return;
    }
    std::uint64_t cycles =
        frame.bank.get(ExecMode::KernelInst, CounterId::Cycles) +
        frame.bank.get(ExecMode::KernelSync, CounterId::Cycles);
    std::array<double, numComponents> by_component{};
    if (energyFn)
        by_component = energyFn(frame.bank);
    double energy = 0;
    ServiceStats &entry = stats[int(frame.service)];
    for (int c = 0; c < numComponents; ++c) {
        energy += by_component[c];
        entry.componentEnergyJ[c] += by_component[c];
    }
    entry.record(cycles, energy);
    if (frame.onComplete)
        frame.onComplete();

    sink.unregisterBank(frame.tag);
    stack.erase(stack.begin() +
                static_cast<std::ptrdiff_t>(index));
}

void
Kernel::maybeFinalize(std::size_t index)
{
    Frame &frame = *stack[index];
    if (frame.endPending && frame.replay.empty() &&
        frame.committed >= frame.emitted) {
        finalizeService(index);
    }
}

void
Kernel::stashReplay(std::vector<MicroOp> replay)
{
    Frame *active = activeFrame();
    std::deque<MicroOp> &target =
        active ? active->replay : baseReplay;
    // Prepend in order, dropping idle-loop filler.
    for (auto it = replay.rbegin(); it != replay.rend(); ++it) {
        if (it->mode != ExecMode::Idle)
            target.push_front(*it);
    }
}

void
Kernel::requeue(std::vector<MicroOp> replay)
{
    stashReplay(std::move(replay));
}

std::uint32_t
Kernel::privilegedTag() const
{
    if (stack.empty())
        return 0;
    const Frame &top = *stack.back();
    if (top.ioService && top.ioService->waitingForIo())
        return 0;  // blocked on the disk: the idle process runs
    return top.tag;
}

FetchOutcome
Kernel::fetchNext(MicroOp &op)
{
    // Service frames, newest first. Frames that have ended but whose
    // instructions are still in flight are skipped (no drain stall);
    // their accounting closes when their last instruction commits.
    for (std::size_t i = stack.size(); i-- > 0;) {
        Frame &frame = *stack[i];
        if (!frame.replay.empty()) {
            op = frame.replay.front();
            frame.replay.pop_front();
            return FetchOutcome::Op;
        }
        if (frame.endPending)
            continue;
        FetchOutcome outcome = frame.src->next(op);
        switch (outcome) {
          case FetchOutcome::Op:
            op.frameTag = frame.tag;
            ++frame.emitted;
            return FetchOutcome::Op;
          case FetchOutcome::Stall:
            // Blocked on I/O: the scheduler runs the idle process,
            // or halts the core if the halt extension is enabled.
            if (cfg.haltOnIdle)
                return FetchOutcome::Stall;
            return idleStream.next(op);
          case FetchOutcome::End:
            frame.endPending = true;
            maybeFinalize(i);
            // Fall through to the frame below (or the user program).
            i = stack.size();
            continue;
        }
    }

    if (!baseReplay.empty()) {
        op = baseReplay.front();
        baseReplay.pop_front();
        return FetchOutcome::Op;
    }

    if (userProgram && !userDone) {
        FetchOutcome outcome = userProgram->next(op);
        switch (outcome) {
          case FetchOutcome::Op:
            return FetchOutcome::Op;
          case FetchOutcome::Stall:
            if (cfg.haltOnIdle)
                return FetchOutcome::Stall;
            return idleStream.next(op);
          case FetchOutcome::End:
            userDone = true;
            break;
        }
    }
    return FetchOutcome::End;
}

void
Kernel::onCommit(const MicroOp &op)
{
    if (op.frameTag == 0)
        return;
    for (std::size_t i = stack.size(); i-- > 0;) {
        if (stack[i]->tag == op.frameTag) {
            ++stack[i]->committed;
            maybeFinalize(i);
            return;
        }
    }
}

void
Kernel::dataTlbMiss(Addr vaddr, std::uint32_t asid,
                    std::vector<MicroOp> replay)
{
    stashReplay(std::move(replay));

    bool first_touch = !pages.isMapped(vaddr);
    std::uint64_t seed = serviceSeed++;

    // Install the translation now: the faulting instruction can only
    // re-dispatch after the handler stream has been fetched (the
    // handler frame sits above the replay), so the handler's timing
    // is still charged, but the retry is guaranteed to hit.
    pages.map(vaddr);
    tlb.insert(asid, vaddr);

    if (first_touch) {
        // utlb discovers the invalid PTE; vfault validates (on a
        // fraction of touches the fault is resolved inside utlb);
        // demand_zero allocates and zeroes the page. LIFO push order
        // is the reverse of execution order.
        bool with_vfault = rng.chance(cfg.vfaultProb);
        pushService(ServiceKind::DemandZero,
                    makeFixedService(ServiceKind::DemandZero,
                                     cfg.tuning, seed),
                    {});
        if (with_vfault) {
            pushService(ServiceKind::Vfault,
                        makeFixedService(ServiceKind::Vfault,
                                         cfg.tuning, seed + 7),
                        {});
        }
        pushService(ServiceKind::Utlb,
                    makeFixedService(ServiceKind::Utlb, cfg.tuning,
                                     seed + 13),
                    {});
        return;
    }

    bool slow_path = rng.chance(cfg.tlbSlowPathProb);
    ServiceKind kind =
        slow_path ? ServiceKind::TlbMiss : ServiceKind::Utlb;
    pushService(kind, makeFixedService(kind, cfg.tuning, seed), {});
}

void
Kernel::syscall(const MicroOp &op)
{
    std::uint64_t seed = serviceSeed++;
    switch (SyscallId(op.syscallId)) {
      case SyscallId::Read:
      case SyscallId::Write: {
        bool is_write = SyscallId(op.syscallId) == SyscallId::Write;
        auto service = std::make_unique<IoService>(
            *this, ioArgFileId(op.syscallArg),
            ioArgOffset(op.syscallArg), ioArgBytes(op.syscallArg),
            is_write, cfg.tuning, seed);
        IoService *raw = service.get();
        pushService(is_write ? ServiceKind::Write : ServiceKind::Read,
                    std::move(service), {}, raw);
        return;
      }
      case SyscallId::Open: {
        auto seq = std::make_unique<SequenceStream>();
        auto body = makeFixedService(ServiceKind::Open, cfg.tuning,
                                     seed);
        seq->append(std::move(body));
        IoService *raw = nullptr;
        if (rng.chance(cfg.tuning.openMetadataMissProb)) {
            // Cold open: fetch the file's first (metadata) block.
            auto meta = std::make_unique<IoService>(
                *this, ioArgFileId(op.syscallArg), 0, 512, false,
                cfg.tuning, seed + 3);
            raw = meta.get();
            seq->append(std::move(meta));
        }
        pushService(ServiceKind::Open, std::move(seq), {}, raw);
        return;
      }
      case SyscallId::Xstat:
        pushService(ServiceKind::Xstat,
                    makeFixedService(ServiceKind::Xstat, cfg.tuning,
                                     seed),
                    {});
        return;
      case SyscallId::DuPoll:
        pushService(ServiceKind::DuPoll,
                    makeFixedService(ServiceKind::DuPoll, cfg.tuning,
                                     seed),
                    {});
        return;
      case SyscallId::Bsd:
        pushService(ServiceKind::Bsd,
                    makeFixedService(ServiceKind::Bsd, cfg.tuning,
                                     seed),
                    {});
        return;
      case SyscallId::CacheFlush:
        pushService(ServiceKind::CacheFlush,
                    makeFixedService(ServiceKind::CacheFlush,
                                     cfg.tuning, seed),
                    [this] {
                        hierarchy.flushL1(ExecMode::KernelInst);
                    });
        return;
      case SyscallId::PowerRead:
        pollPowerMeter();
        return;
    }
    warn(msg() << "unknown syscall id " << op.syscallId);
}

void
Kernel::pollPowerMeter()
{
    if (meter)
        lastPowerRead = meter->lastReading();
    pushService(ServiceKind::PowerRead,
                makeFixedService(ServiceKind::PowerRead, cfg.tuning,
                                 serviceSeed++),
                {});
}

bool
Kernel::interruptPending() const
{
    return pendingClockInt;
}

void
Kernel::takeInterrupt(std::vector<MicroOp> replay)
{
    if (!pendingClockInt)
        return;
    pendingClockInt = false;
    ++numClockInts;
    stashReplay(std::move(replay));
    pushService(ServiceKind::ClockInt,
                makeFixedService(ServiceKind::ClockInt, cfg.tuning,
                                 serviceSeed++),
                {});
}

void
Kernel::onPipelineEmpty()
{
    // Safety net: with nothing in flight, every ended frame can be
    // closed even if some of its instructions were discarded.
    for (std::size_t i = stack.size(); i-- > 0;) {
        Frame &frame = *stack[i];
        if (frame.endPending && frame.replay.empty())
            finalizeService(i, true);
    }
}

ExecMode
Kernel::currentStreamMode() const
{
    if (const Frame *frame = activeFrame()) {
        if (frame->ioService && frame->ioService->waitingForIo())
            return ExecMode::Idle;
        return ExecMode::KernelInst;
    }
    if (userProgram && !userDone)
        return ExecMode::User;
    return ExecMode::Idle;
}

Tick
Kernel::ticksForEquivSeconds(double seconds) const
{
    double ticks =
        seconds / disk.timeCompression() * machine.freqMhz * 1e6;
    return ticks < 1 ? 1 : Tick(ticks);
}

void
Kernel::submitDiskAttempt(std::uint64_t block,
                          std::uint32_t num_blocks,
                          std::function<void()> done, int attempt)
{
    disk.submit(
        block, num_blocks,
        [this, block, num_blocks, done = std::move(done),
         attempt](DiskIoStatus status) mutable {
            if (status == DiskIoStatus::Ok) {
                if (done)
                    done();
                return;
            }
            ++numDiskFaults;
            sink.global().addTo(ExecMode::KernelInst,
                                CounterId::DiskFault, 1);
            if (attempt >= cfg.diskRetry.maxAttempts) {
                ++numDiskGiveUps;
                sink.global().addTo(ExecMode::KernelInst,
                                    CounterId::DiskGiveUp, 1);
                if (!ioFailureInfo.failed) {
                    ioFailureInfo.failed = true;
                    ioFailureInfo.block = block;
                    ioFailureInfo.numBlocks = num_blocks;
                    ioFailureInfo.attempts = attempt;
                    ioFailureInfo.lastStatus = status;
                }
                warn(msg() << "disk driver: "
                           << IoFailure{true, block, num_blocks,
                                        attempt, status}
                                  .describe());
                // The blocked service never resumes; the run loop
                // observes ioFailed() and ends with a structured
                // io-failed result.
                return;
            }
            ++numDiskRetries;
            sink.global().addTo(ExecMode::KernelInst,
                                CounterId::DiskRetry, 1);
            // The recovery handler runs now (sense + error path);
            // the resubmission waits out the exponential backoff.
            pushService(ServiceKind::ErrorRecovery,
                        makeFixedService(ServiceKind::ErrorRecovery,
                                         cfg.tuning, serviceSeed++),
                        {});
            double delay =
                cfg.diskRetry.backoffSeconds *
                std::pow(cfg.diskRetry.backoffMultiplier,
                         attempt - 1);
            queue.scheduleIn(
                ticksForEquivSeconds(delay),
                [this, block, num_blocks, done = std::move(done),
                 attempt]() mutable {
                    submitDiskAttempt(block, num_blocks,
                                      std::move(done), attempt + 1);
                });
        });
}

void
Kernel::requestDiskBlocks(std::uint64_t block,
                          std::uint32_t num_blocks,
                          std::function<void()> done)
{
    submitDiskAttempt(block, num_blocks, std::move(done), 1);
}

bool
Kernel::idleWaiting() const
{
    if (pendingClockInt)
        return false;
    const Frame *frame = activeFrame();
    return frame != nullptr && frame->ioService != nullptr &&
           frame->ioService->waitingForIo();
}

std::uint64_t
Kernel::totalServiceCycles() const
{
    std::uint64_t sum = 0;
    for (const ServiceStats &s : stats)
        sum += s.cycles;
    return sum;
}

void
Kernel::saveState(ChunkWriter &out) const
{
    SW_CHECK(checkpointSafe(),
             "Kernel::saveState with live service frames");
    out.u64(rng.rawState());
    out.u64(serviceSeed);
    out.u32(nextFrameTag);
    out.b(userDone);
    out.u32(userAsid);
    out.b(pendingClockInt);
    out.u64(numClockInts);
    out.b(clockRunning);
    if (clockRunning) {
        out.u64(nextClockTick);
        out.u64(clockEvent);
    }
    for (const ServiceStats &entry : stats)
        entry.saveState(out);
    out.u64(numDiskFaults);
    out.u64(numDiskRetries);
    out.u64(numDiskGiveUps);
    out.b(ioFailureInfo.failed);
    out.u64(ioFailureInfo.block);
    out.u32(ioFailureInfo.numBlocks);
    out.u32(std::uint32_t(ioFailureInfo.attempts));
    out.u8(std::uint8_t(ioFailureInfo.lastStatus));
    out.u64(baseReplay.size());
    for (const MicroOp &op : baseReplay)
        saveMicroOp(out, op);
    fileSystem.saveState(out);
    bufferCache.saveState(out);
    pages.saveState(out);
    idleStream.saveState(out);
    lastPowerRead.saveState(out);
}

void
Kernel::loadState(ChunkReader &in)
{
    SW_CHECK(checkpointSafe(),
             "Kernel::loadState with live service frames");
    rng.setRawState(in.u64());
    serviceSeed = in.u64();
    nextFrameTag = in.u32();
    userDone = in.b();
    userAsid = in.u32();
    pendingClockInt = in.b();
    numClockInts = in.u64();
    clockRunning = in.b();
    if (clockRunning) {
        nextClockTick = in.u64();
        clockEvent = in.u64();
        queue.restoreEvent(nextClockTick, clockEvent,
                           [this] { onClockTick(); });
    }
    for (ServiceStats &entry : stats)
        entry.loadState(in);
    numDiskFaults = in.u64();
    numDiskRetries = in.u64();
    numDiskGiveUps = in.u64();
    ioFailureInfo.failed = in.b();
    ioFailureInfo.block = in.u64();
    ioFailureInfo.numBlocks = in.u32();
    ioFailureInfo.attempts = int(in.u32());
    ioFailureInfo.lastStatus = DiskIoStatus(in.u8());
    baseReplay.clear();
    std::uint64_t replay_count = in.u64();
    for (std::uint64_t i = 0; i < replay_count; ++i)
        baseReplay.push_back(loadMicroOp(in));
    fileSystem.loadState(in);
    bufferCache.loadState(in);
    pages.loadState(in);
    idleStream.loadState(in);
    lastPowerRead.loadState(in);
}

} // namespace softwatt
