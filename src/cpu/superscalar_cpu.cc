#include "superscalar_cpu.hh"

#include <algorithm>
#include <bit>

#include "sim/check.hh"
#include "sim/logging.hh"

namespace softwatt
{

namespace
{

/** Set @p bit to 1 if @p on, else leave it, without a branch. */
void
setBitIf(std::uint64_t *words, std::size_t bit, bool on)
{
    words[bit / 64] |= std::uint64_t(on) << (bit % 64);
}

void
clearBit(std::uint64_t *words, std::size_t bit)
{
    words[bit / 64] &= ~(std::uint64_t(1) << (bit % 64));
}

/** Functional-unit pools of the select stage. */
enum UnitPool : std::uint8_t
{
    IntPool,
    FpPool,
    MemPool,
    NoPool,  ///< Needs no unit: only the issue width limits it.
    numPools,
};

/** Memory ports: loads and stores issued per cycle. */
constexpr int memPorts = 2;

constexpr std::uint8_t fpLatency = 3;

/**
 * What issue does for an op of each class: the pool it takes a unit
 * from, the counter its execution bumps (by unitCount, 0 or 1), and
 * its latency (a load's comes from the memory system instead).
 */
struct IssueClass
{
    UnitPool pool;
    CounterId unitCounter;
    std::uint8_t unitCount;
    std::uint8_t latency;
};

/**
 * Indexed by InstClass masked to three bits, so an out-of-range
 * class (only a corrupt replayed op could carry one) still reads a
 * row: the last, which like Syscall and Nop needs no unit.
 */
constexpr IssueClass issueClasses[8] = {
    {IntPool, CounterId::IntAluOp, 1, 1},  // IntAlu
    {FpPool, CounterId::FpAluOp, 1, fpLatency},  // FpAlu
    {MemPool, CounterId::LsqOp, 1, 1},     // Load
    {MemPool, CounterId::LsqOp, 1, 1},     // Store
    {IntPool, CounterId::IntAluOp, 0, 1},  // Branch
    {NoPool, CounterId::IntAluOp, 0, 1},   // Syscall
    {NoPool, CounterId::IntAluOp, 0, 1},   // Nop
    {NoPool, CounterId::IntAluOp, 0, 1},
};

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
    // None (0) and retired producers lie outside [headSeq, nextSeq);
    // the entry is read either way, since every slot is valid memory.
    bool in_flight = dep - headSeq < robSize();
    return !in_flight | (entryAt(dep).state == EntryState::Completed);
}

std::uint64_t
SuperscalarCpu::readyWindow() const
{
    static_assert(issueScanLimit < 64, "candidates fit one word");
    std::uint64_t n =
        std::min<std::uint64_t>(issueScanLimit, robSize());
    if (slotWords == 1) {
        // The ring fits one word: rotate the head's slot to bit 0.
        // Bits past the ring's width are cut by the n-bit mask, since
        // n never exceeds the ring's size.
        std::uint64_t bits = readyBits[0];
        std::uint64_t head = headSeq & robMask;
        std::uint64_t rotated =
            (bits >> head) | ((bits << 1) << (robMask - head));
        return rotated & ((std::uint64_t(1) << n) - 1);
    }
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
    drainNotified = false;
    return replay;
}

void
SuperscalarCpu::squashAll()
{
    resetWindow(nextSeq);
    fetchBusyUntil = 0;
    drainNotified = false;
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
    drainNotified = false;
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
        std::uint64_t &producer = regProducer[entry.op.dst];
        producer = producer == entry.seq ? 0 : producer;
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
    std::uint64_t writes = entry.op.dst != noReg;
    sink.add(entry.op.mode, CounterId::RegFileWrite, writes,
             entry.op.frameTag);
    sink.add(entry.op.mode, CounterId::ResultBusOp, writes,
             entry.op.frameTag);
    if (entry.mispredicted && fetchBlockedOnBranch == entry.seq)
        fetchBlockedOnBranch = 0;  // redirect resolved

    std::uint64_t *consumers = &consumerBits[slot * slotWords];
    for (std::size_t w = 0; w < slotWords; ++w) {
        std::uint64_t bits = consumers[w];
        consumers[w] = 0;
        while (bits != 0) {
            std::size_t c = w * 64 + std::size_t(std::countr_zero(bits));
            bits &= bits - 1;
            setBitIf(readyBits.data(), c, --rob[c].pending == 0);
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
    int units[numPools] = {params.intAlus, params.fpAlus, memPorts,
                           params.issueWidth};

    while (candidates != 0 && issued < params.issueWidth) {
        std::uint64_t seq = headSeq + std::countr_zero(candidates);
        candidates &= candidates - 1;
        std::uint32_t slot = std::uint32_t(seq & robMask);
        Entry &entry = rob[slot];

        const MicroOp &op = entry.op;
        const IssueClass &unit = issueClasses[std::uint8_t(op.cls) & 7];
        if (units[unit.pool] == 0)
            continue;
        --units[unit.pool];

        // Register file reads and wakeup/select on issue.
        sink.add(op.mode, CounterId::RegFileRead,
                 (op.srcA != noReg) + (op.srcB != noReg), op.frameTag);
        sink.add(op.mode, CounterId::IssueWindowOp, 1, op.frameTag);
        sink.add(op.mode, unit.unitCounter, unit.unitCount,
                 op.frameTag);

        std::uint64_t latency = unit.latency;
        if (op.isMemOp()) {
            bool is_store = op.cls == InstClass::Store;
            MemAccessOutcome data = hierarchy.dataAccess(
                op.memAddr, is_store, op.mode, op.frameTag);
            sink.add(op.mode, is_store ? CounterId::StoreInsts
                                       : CounterId::LoadInsts,
                     1, op.frameTag);
            if (!is_store)
                latency = std::uint64_t(data.latency);
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
        entry.depA = regProducer[entry.op.srcA];
        entry.depB = regProducer[entry.op.srcB];
        entry.completeAt = 0;
        entry.state = EntryState::Waiting;
        entry.mispredicted = fetched.mispredicted;
        if (fetched.mispredicted && fetchBlockedOnBranch == 0)
            fetchBlockedOnBranch = seq;
        if (entry.op.cls == InstClass::Syscall) {
            // Fetch stops behind a syscall, so it is the only one in
            // flight; commit unblocks fetch when it retires.
            SW_ASSERT(blockedSyscallSeq == syscallUndispatched,
                      "SuperscalarCpu: second syscall in flight");
            blockedSyscallSeq = seq;
        }

        // Wait on each distinct producer that has not completed. The
        // outcomes are data, not branches: a producer that needs no
        // wait gets a 0 OR-ed into its consumer mask.
        bool wait_a = !depSatisfied(entry.depA);
        bool wait_b =
            (entry.depB != entry.depA) & !depSatisfied(entry.depB);
        setBitIf(&consumerBits[(entry.depA & robMask) * slotWords], slot,
                 wait_a);
        setBitIf(&consumerBits[(entry.depB & robMask) * slotWords], slot,
                 wait_b);
        entry.pending = std::uint8_t(wait_a + wait_b);
        setBitIf(readyBits.data(), slot, entry.pending == 0);
        regProducer[entry.op.dst] = seq;
        regProducer[noReg] = 0;

        sink.add(entry.op.mode, CounterId::RenameOp, 1,
                 entry.op.frameTag);
        sink.add(entry.op.mode, CounterId::IssueWindowOp, 1,
                 entry.op.frameTag);  // insert
        sink.add(entry.op.mode, CounterId::LsqOp, entry.op.isMemOp(),
                 entry.op.frameTag);  // allocate
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
        // The op is built in its queue slot; the slot only counts
        // once an op has been fetched into it.
        FetchedOp &entry =
            fetchQueue[(fetchHead + fetchCount) % fetchQueueCap];
        FetchOutcome outcome = kernel.fetchNext(entry.op);
        if (outcome == FetchOutcome::End) {
            sourceEnded = true;
            return;
        }
        if (outcome == FetchOutcome::Stall)
            return;
        const MicroOp &op = entry.op;
        entry.mispredicted = false;
        entry.tlbProbed = false;
        entry.tlbMissed = false;

        sink.add(op.mode, CounterId::FetchedInsts, 1, op.frameTag);
        MemAccessOutcome fetch_mem =
            hierarchy.ifetch(op.pc, op.mode, op.frameTag);
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

void
SuperscalarCpu::setCycleMode()
{
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
}

Cycles
SuperscalarCpu::quietCycles() const
{
    // Cycle now + k is quiet while no stage can act in it. Writeback
    // acts from nextCompleteAt on, and fetch, unless blocked by more
    // than an I-cache walk, from fetchBusyUntil on; nothing else can
    // change before one of them does.
    if (now + 1 >= nextCompleteAt)
        return 0;
    std::uint64_t until = nextCompleteAt;
    bool fetch_held = fetchBlockedOnBranch != 0 ||
                      blockedSyscallSeq != 0 || sourceEnded ||
                      int(fetchCount) == fetchQueueCap;
    if (!fetch_held) {
        if (now + 1 >= fetchBusyUntil)
            return 0;
        until = std::min(until, fetchBusyUntil);
    }
    if (robSize() > 0 && entryAt(headSeq).state == EntryState::Completed)
        return 0;  // commit
    bool window_full =
        robSize() >= std::uint64_t(params.instWindowSize);
    bool dispatch_held =
        fetchQueue[fetchHead].tlbMissed && robSize() > 0;
    if (fetchCount > 0 && !window_full && !dispatch_held)
        return 0;  // dispatch, or its TLB probe or trap
    if (readyWindow() != 0)
        return 0;  // issue
    // An empty pipeline calls the kernel's hook every cycle: quiet
    // only once it has been called with nothing fetched since.
    if (pipelineEmpty() && (sourceEnded || !drainNotified))
        return 0;
    if (blockedSyscallSeq == 0 && kernel.interruptPending())
        return 0;
    return until - now - 1;
}

void
SuperscalarCpu::skipQuietCycles(Cycles n)
{
    SW_ASSERT(n <= quietCycles(),
              "SuperscalarCpu::skipQuietCycles past a busy cycle");
    if (fetchBlockedOnBranch != 0) {
        // doFetch() counts a stall in each cycle past the I-cache walk.
        std::uint64_t first = std::max(now + 1, fetchBusyUntil);
        if (now + n >= first)
            mispredStalls += now + n - first + 1;
    }
    now += n;
    totalCycles += n;
    setCycleMode();
    sink.addCycles(n);
}

bool
SuperscalarCpu::cycle()
{
    ++now;
    ++totalCycles;
    setCycleMode();
    sink.addCycle();

    if (kernel.interruptPending() && blockedSyscallSeq == 0)
        kernel.takeInterrupt(squashWindow());

    doCommit();
    doWriteback();
    doIssue();
    if (!doDispatch())
        doFetch();

    drainNotified = pipelineEmpty();
    if (drainNotified)
        kernel.onPipelineEmpty();

    return !(sourceEnded && drainNotified);
}

} // namespace softwatt
