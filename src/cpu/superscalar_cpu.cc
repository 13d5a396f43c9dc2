#include "superscalar_cpu.hh"

#include <algorithm>
#include <bit>

#include "sim/check.hh"
#include "sim/logging.hh"

namespace softwatt
{

namespace
{

void
setBit(std::uint64_t *words, std::size_t bit)
{
    words[bit / 64] |= std::uint64_t(1) << (bit % 64);
}

void
clearBit(std::uint64_t *words, std::size_t bit)
{
    words[bit / 64] &= ~(std::uint64_t(1) << (bit % 64));
}

} // namespace

SuperscalarCpu::SuperscalarCpu(const MachineParams &params,
                               CacheHierarchy &hierarchy, Tlb &tlb,
                               CounterSink &sink, KernelIface &kernel)
    : Cpu(params, hierarchy, tlb, sink, kernel)
{
    SW_CHECK(params.instWindowSize >= 1 &&
                 params.instWindowSize <= MachineParams::maxInstWindow,
             "SuperscalarCpu: cpu.inst_window outside the validated "
             "range");
    std::size_t slots = std::bit_ceil(std::size_t(params.instWindowSize));
    robMask = slots - 1;
    slotWords = (slots + 63) / 64;
    rob.resize(slots);
    readyBits.assign(slotWords, 0);
    consumerBits.assign(slots * slotWords, 0);
    issuedSlots.reserve(slots);
}

bool
SuperscalarCpu::pipelineEmpty() const
{
    return robSize() == 0 && fetchCount == 0;
}

bool
SuperscalarCpu::depSatisfied(std::uint64_t dep)
{
    if (dep < headSeq || dep >= nextSeq)
        return true;  // none (0) or retired
    return entryAt(dep).state == EntryState::Completed;
}

std::uint64_t
SuperscalarCpu::readyWindow() const
{
    static_assert(issueScanLimit < 64, "candidates fit one word");
    std::uint64_t n =
        std::min<std::uint64_t>(issueScanLimit, robSize());
    std::uint64_t window = 0;
    for (std::uint64_t got = 0; got < n;) {
        std::uint64_t slot = (headSeq + got) & robMask;
        std::uint64_t bit = slot % 64;
        std::uint64_t take =
            std::min({n - got, 64 - bit, robMask + 1 - slot});
        std::uint64_t chunk = (readyBits[slot / 64] >> bit) &
                              ((std::uint64_t(1) << take) - 1);
        window |= chunk << got;
        got += take;
    }
    return window;
}

std::uint64_t
SuperscalarCpu::referenceReadyWindow()
{
    std::uint64_t n =
        std::min<std::uint64_t>(issueScanLimit, robSize());
    std::uint64_t window = 0;
    for (std::uint64_t pos = 0; pos < n; ++pos) {
        const Entry &entry = entryAt(headSeq + pos);
        if (entry.state == EntryState::Waiting &&
            depSatisfied(entry.depA) && depSatisfied(entry.depB)) {
            window |= std::uint64_t(1) << pos;
        }
    }
    return window;
}

void
SuperscalarCpu::resetWindow(std::uint64_t seq)
{
    for (std::uint64_t s = headSeq; s != nextSeq; ++s) {
        std::size_t slot = s & robMask;
        std::fill_n(&consumerBits[slot * slotWords], slotWords, 0);
    }
    std::fill(readyBits.begin(), readyBits.end(), 0);
    issuedSlots.clear();
    nextCompleteAt = noCompletion;
    headSeq = nextSeq = seq;
    fetchHead = fetchCount = 0;
    regProducer.fill(0);
    fetchBlockedOnBranch = 0;
    blockedSyscallSeq = 0;
}

std::vector<MicroOp>
SuperscalarCpu::squashWindow()
{
    std::vector<MicroOp> replay;
    replay.reserve(robSize() + fetchCount);
    for (std::uint64_t s = headSeq; s != nextSeq; ++s)
        replay.push_back(entryAt(s).op);
    for (std::uint32_t i = 0; i < fetchCount; ++i)
        replay.push_back(
            fetchQueue[(fetchHead + i) % fetchQueueCap].op);
    resetWindow(headSeq);
    return replay;
}

std::vector<MicroOp>
SuperscalarCpu::squashAllCollect()
{
    std::vector<MicroOp> replay = squashWindow();
    fetchBusyUntil = 0;
    return replay;
}

void
SuperscalarCpu::squashAll()
{
    resetWindow(nextSeq);
    fetchBusyUntil = 0;
}

void
SuperscalarCpu::saveState(ChunkWriter &out) const
{
    SW_CHECK(pipelineEmpty(),
             "SuperscalarCpu::saveState: pipeline not drained");
    saveBaseState(out);
    out.b(sourceEnded);
    out.u64(nextSeq);
    out.u64(now);
    out.u64(mispredStalls);
}

void
SuperscalarCpu::loadState(ChunkReader &in)
{
    SW_CHECK(pipelineEmpty(),
             "SuperscalarCpu::loadState: pipeline not drained");
    loadBaseState(in);
    sourceEnded = in.b();
    nextSeq = in.u64();
    now = in.u64();
    mispredStalls = in.u64();
    headSeq = nextSeq;  // an empty ring anchored at the restored seq
}

void
SuperscalarCpu::doCommit()
{
    int committed = 0;
    while (committed < params.commitWidth && robSize() > 0 &&
           entryAt(headSeq).state == EntryState::Completed) {
        const Entry &entry = entryAt(headSeq++);
        ++committed;
        ++totalCommitted;
        sink.add(entry.op.mode, CounterId::CommittedInsts, 1,
                 entry.op.frameTag);
        if (entry.op.dst != noReg &&
            regProducer[entry.op.dst] == entry.seq) {
            regProducer[entry.op.dst] = 0;
        }
        if (entry.op.cls == InstClass::Syscall) {
            if (blockedSyscallSeq == entry.seq)
                blockedSyscallSeq = 0;
            kernel.syscall(entry.op);
        }
        kernel.onCommit(entry.op);
    }
    if (committed > 0) {
        sink.add(sink.cycleMode(), CounterId::CommitCycles, 1,
                 sink.cycleTag());
    }
}

void
SuperscalarCpu::complete(std::uint32_t slot)
{
    Entry &entry = rob[slot];
    entry.state = EntryState::Completed;
    if (entry.op.dst != noReg) {
        sink.add(entry.op.mode, CounterId::RegFileWrite, 1,
                 entry.op.frameTag);
        sink.add(entry.op.mode, CounterId::ResultBusOp, 1,
                 entry.op.frameTag);
    }
    if (entry.mispredicted && fetchBlockedOnBranch == entry.seq)
        fetchBlockedOnBranch = 0;  // redirect resolved

    std::uint64_t *consumers = &consumerBits[slot * slotWords];
    for (std::size_t w = 0; w < slotWords; ++w) {
        std::uint64_t bits = consumers[w];
        consumers[w] = 0;
        while (bits != 0) {
            std::size_t c = w * 64 + std::size_t(std::countr_zero(bits));
            bits &= bits - 1;
            if (--rob[c].pending == 0)
                setBit(readyBits.data(), c);
        }
    }
}

void
SuperscalarCpu::doWriteback()
{
    if (now < nextCompleteAt)
        return;
    std::uint64_t earliest = noCompletion;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < issuedSlots.size(); ++i) {
        std::uint32_t slot = issuedSlots[i];
        std::uint64_t at = rob[slot].completeAt;
        if (at <= now) {
            complete(slot);
        } else {
            issuedSlots[kept++] = slot;
            earliest = std::min(earliest, at);
        }
    }
    issuedSlots.resize(kept);
    nextCompleteAt = earliest;
}

void
SuperscalarCpu::doIssue()
{
    std::uint64_t candidates = readyWindow();
    SW_ASSERT(candidates == referenceReadyWindow(),
              "SuperscalarCpu: ready bits disagree with entry states");

    int issued = 0;
    int int_units = params.intAlus;
    int fp_units = params.fpAlus;
    int mem_ports = 2;

    while (candidates != 0 && issued < params.issueWidth) {
        std::uint64_t seq = headSeq + std::countr_zero(candidates);
        candidates &= candidates - 1;
        std::uint32_t slot = std::uint32_t(seq & robMask);
        Entry &entry = rob[slot];

        const MicroOp &op = entry.op;
        switch (op.cls) {
          case InstClass::IntAlu:
          case InstClass::Branch:
            if (int_units == 0)
                continue;
            break;
          case InstClass::FpAlu:
            if (fp_units == 0)
                continue;
            break;
          case InstClass::Load:
          case InstClass::Store:
            if (mem_ports == 0)
                continue;
            break;
          default:
            break;
        }

        // Register file reads and wakeup/select on issue.
        int reads = (op.srcA != noReg) + (op.srcB != noReg);
        if (reads)
            sink.add(op.mode, CounterId::RegFileRead, reads,
                     op.frameTag);
        sink.add(op.mode, CounterId::IssueWindowOp, 1, op.frameTag);

        std::uint64_t latency = 1;
        switch (op.cls) {
          case InstClass::IntAlu:
            --int_units;
            sink.add(op.mode, CounterId::IntAluOp, 1, op.frameTag);
            break;
          case InstClass::Branch:
            --int_units;
            break;
          case InstClass::FpAlu:
            --fp_units;
            sink.add(op.mode, CounterId::FpAluOp, 1, op.frameTag);
            latency = fpLatency;
            break;
          case InstClass::Load:
          case InstClass::Store: {
            --mem_ports;
            sink.add(op.mode, CounterId::LsqOp, 1, op.frameTag);
            bool is_store = op.cls == InstClass::Store;
            MemAccessOutcome data = hierarchy.dataAccess(
                op.memAddr, is_store, op.mode, op.frameTag);
            sink.add(op.mode, is_store ? CounterId::StoreInsts
                                       : CounterId::LoadInsts,
                     1, op.frameTag);
            latency = is_store ? 1 : std::uint64_t(data.latency);
            break;
          }
          default:
            break;
        }

        entry.state = EntryState::Issued;
        entry.completeAt = now + latency;
        clearBit(readyBits.data(), slot);
        issuedSlots.push_back(slot);
        nextCompleteAt = std::min(nextCompleteAt, entry.completeAt);
        ++issued;
    }
}

bool
SuperscalarCpu::doDispatch()
{
    int dispatched = 0;
    while (dispatched < params.decodeWidth && fetchCount > 0 &&
           robSize() < std::uint64_t(params.instWindowSize)) {
        FetchedOp &fetched = fetchQueue[fetchHead];

        // Software-managed TLB: probe at dispatch (the effective
        // address is available). A miss is a precise exception: the
        // faulting instruction waits at dispatch until every older
        // instruction has committed, then traps — so the refill
        // handler runs unoverlapped, as on the R10000.
        if (fetched.op.isMemOp() && !fetched.tlbProbed) {
            fetched.tlbProbed = true;
            fetched.tlbMissed = !dataTlbLookup(fetched.op);
        }
        if (fetched.tlbMissed) {
            if (robSize() > 0)
                return false;  // hold while older work drains
            Addr vaddr = fetched.op.memAddr;
            std::uint32_t asid = fetched.op.asid;
            std::vector<MicroOp> replay = squashWindow();
            kernel.dataTlbMiss(vaddr, asid, std::move(replay));
            return true;
        }
        fetchHead = (fetchHead + 1) % fetchQueueCap;
        --fetchCount;

        std::uint64_t seq = nextSeq++;
        std::uint32_t slot = std::uint32_t(seq & robMask);
        Entry &entry = rob[slot];
        entry.op = fetched.op;
        entry.seq = seq;
        entry.depA = entry.op.srcA != noReg ? regProducer[entry.op.srcA]
                                            : 0;
        entry.depB = entry.op.srcB != noReg ? regProducer[entry.op.srcB]
                                            : 0;
        entry.completeAt = 0;
        entry.state = EntryState::Waiting;
        entry.mispredicted = fetched.mispredicted;
        entry.pending = 0;
        if (fetched.mispredicted && fetchBlockedOnBranch == 0)
            fetchBlockedOnBranch = seq;
        if (entry.op.cls == InstClass::Syscall) {
            // Fetch stops behind a syscall, so it is the only one in
            // flight; commit unblocks fetch when it retires.
            SW_ASSERT(blockedSyscallSeq == syscallUndispatched,
                      "SuperscalarCpu: second syscall in flight");
            blockedSyscallSeq = seq;
        }

        // Wait on each distinct producer that has not completed.
        auto wait_on = [&](std::uint64_t producer) {
            setBit(&consumerBits[(producer & robMask) * slotWords], slot);
            ++entry.pending;
        };
        if (!depSatisfied(entry.depA))
            wait_on(entry.depA);
        if (entry.depB != entry.depA && !depSatisfied(entry.depB))
            wait_on(entry.depB);
        if (entry.pending == 0)
            setBit(readyBits.data(), slot);
        if (entry.op.dst != noReg)
            regProducer[entry.op.dst] = seq;

        sink.add(entry.op.mode, CounterId::RenameOp, 1,
                 entry.op.frameTag);
        sink.add(entry.op.mode, CounterId::IssueWindowOp, 1,
                 entry.op.frameTag);  // insert
        if (entry.op.isMemOp()) {
            sink.add(entry.op.mode, CounterId::LsqOp, 1,
                     entry.op.frameTag);  // allocate
        }
        ++dispatched;
    }
    return false;
}

void
SuperscalarCpu::doFetch()
{
    if (now < fetchBusyUntil)
        return;
    if (fetchBlockedOnBranch != 0) {
        ++mispredStalls;
        return;
    }
    if (blockedSyscallSeq != 0 || sourceEnded)
        return;

    int fetched = 0;
    while (fetched < params.fetchWidth &&
           int(fetchCount) < fetchQueueCap) {
        MicroOp op;
        FetchOutcome outcome = kernel.fetchNext(op);
        if (outcome == FetchOutcome::End) {
            sourceEnded = true;
            return;
        }
        if (outcome == FetchOutcome::Stall)
            return;

        sink.add(op.mode, CounterId::FetchedInsts, 1, op.frameTag);
        MemAccessOutcome fetch_mem =
            hierarchy.ifetch(op.pc, op.mode, op.frameTag);

        FetchedOp &entry =
            fetchQueue[(fetchHead + fetchCount) % fetchQueueCap];
        entry = FetchedOp{op};
        ++fetchCount;
        ++fetched;

        bool stop = false;
        if (fetch_mem.latency > 1) {
            // I-cache miss: fetch is blocked for the walk.
            fetchBusyUntil = now + std::uint64_t(fetch_mem.latency) - 1;
            stop = true;
        }

        if (op.isBranch()) {
            bool correct = bpred.predictAndTrain(op);
            if (!correct) {
                entry.mispredicted = true;
                stop = true;  // redirect once the branch resolves
            } else if (op.taken) {
                stop = true;  // fetch break at taken branch
            }
        }

        if (op.cls == InstClass::Syscall) {
            // Serialize: stop fetching until the syscall commits.
            blockedSyscallSeq = syscallUndispatched;
            break;
        }
        if (stop)
            break;
    }
}

bool
SuperscalarCpu::cycle()
{
    ++now;
    ++totalCycles;

    // Cycle attribution: while the machine is architecturally in
    // kernel mode (trap taken, service not yet complete), cycles
    // belong to the kernel and to the active service invocation;
    // otherwise to the oldest instruction in flight.
    const MicroOp *oldest =
        robSize() > 0 ? &entryAt(headSeq).op
                      : (fetchCount > 0 ? &fetchQueue[fetchHead].op
                                        : nullptr);
    std::uint32_t ptag = kernel.privilegedTag();
    if (ptag != 0 && oldest && oldest->mode != ExecMode::User &&
        oldest->mode != ExecMode::Idle) {
        // In kernel mode with kernel work at the commit point:
        // charge the active service invocation.
        sink.setCycleMode(oldest->mode, ptag);
    } else if (oldest) {
        sink.setCycleMode(oldest->mode, oldest->frameTag);
    } else {
        sink.setCycleMode(kernel.currentStreamMode(), 0);
    }
    sink.addCycle();

    if (kernel.interruptPending() && blockedSyscallSeq == 0)
        kernel.takeInterrupt(squashWindow());

    doCommit();
    doWriteback();
    doIssue();
    if (!doDispatch())
        doFetch();

    if (pipelineEmpty())
        kernel.onPipelineEmpty();

    return !(sourceEnded && pipelineEmpty());
}

} // namespace softwatt
