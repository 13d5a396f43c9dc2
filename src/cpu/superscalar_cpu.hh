/**
 * @file
 * MXS-equivalent CPU: a MIPS R10000-like out-of-order superscalar
 * (Table 1: 4-wide fetch/decode/issue/commit, 64-entry instruction
 * window, 32-entry load/store queue, 2 INT + 2 FP units, BHT/BTB/RAS
 * branch prediction).
 */

#ifndef SOFTWATT_CPU_SUPERSCALAR_CPU_HH
#define SOFTWATT_CPU_SUPERSCALAR_CPU_HH

#include <array>
#include <vector>

#include "cpu.hh"

namespace softwatt
{

/**
 * Out-of-order superscalar timing model.
 *
 * The instruction window is modeled as a unified ROB/issue structure:
 * instructions dispatch in order, issue out of order when their
 * source producers have completed and a functional unit is free, and
 * commit in order. Mispredicted branches stall fetch until they
 * resolve (no wrong-path instructions are consumed from the stream;
 * the redirect penalty is charged instead). Data TLB misses trap at
 * dispatch once every older instruction has committed, handing the
 * faulting instruction and everything younger back to the kernel for
 * replay after the utlb handler — the MIPS software-managed TLB
 * protocol. Interrupts squash the whole window back to the kernel.
 *
 * No pipeline stage scans the window:
 * - The ROB is a ring of the next power of two >= cpu.inst_window
 *   slots; sequence number s lives in slot s & robMask. In-flight
 *   seqs are always the contiguous range [headSeq, nextSeq): dispatch
 *   appends, commit advances headSeq, and a squash empties the ring,
 *   reusing the squashed seqs when their ops are handed back for
 *   replay.
 * - Writeback walks only the issued-but-not-completed slots, and not
 *   even those while the cycle is below the earliest completion.
 * - Wakeup: dispatch counts the entry's producers that have not yet
 *   completed and records the entry in each one's consumer mask;
 *   a producer's writeback decrements its consumers' counts and sets
 *   the ready bit of each that reaches zero.
 * - Select: candidates are the ready bits of the oldest
 *   issueScanLimit ROB positions, taken oldest-first (one rotated
 *   word when the ring has at most 64 slots). A candidate whose class
 *   has no free unit is skipped; selection stops at issueWidth.
 *   Writeback runs before issue, so a producer written back this
 *   cycle lets its consumers issue this cycle.
 *
 * The stages branch little on the op: issue reads its class's unit
 * pool, execution counter and latency from a table, counters that an
 * op may or may not bump are added as 0 or 1, and regProducer has a
 * slot for every register id. Fetch builds each op in its queue slot.
 *
 * quietCycles() reports the cycles in which no stage can act, so the
 * system loop can charge them in one step (see DESIGN.md §5b item 8).
 *
 * Checks builds assert every cycle that the ready-bit candidates
 * equal the plain rule: each Waiting entry among those positions
 * whose producers have committed or completed.
 */
class SuperscalarCpu : public Cpu
{
  public:
    SuperscalarCpu(const MachineParams &params,
                   CacheHierarchy &hierarchy, Tlb &tlb,
                   CounterSink &sink, KernelIface &kernel);

    bool cycle() override;
    void squashAll() override;
    bool pipelineEmpty() const override;
    std::vector<MicroOp> squashAllCollect() override;

    /**
     * Cycles in which no stage can act: nothing can commit, complete,
     * issue, dispatch or fetch, and no interrupt waits.
     */
    Cycles quietCycles() const override;
    void skipQuietCycles(Cycles n) override;

    // Checkpointable (requires a drained pipeline).
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

    /** Cycles in which fetch was blocked on a mispredicted branch. */
    std::uint64_t mispredictStallCycles() const { return mispredStalls; }

  private:
    enum class EntryState : std::uint8_t
    {
        Waiting,
        Issued,
        Completed,
    };

    struct Entry
    {
        MicroOp op;
        std::uint64_t seq = 0;
        std::uint64_t depA = 0;    ///< Producer seq of srcA (0 none).
        std::uint64_t depB = 0;
        std::uint64_t completeAt = 0;
        EntryState state = EntryState::Waiting;
        bool mispredicted = false;
        std::uint8_t pending = 0;  ///< Producers not yet completed.
    };

    struct FetchedOp
    {
        MicroOp op;
        bool mispredicted = false;
        bool tlbProbed = false;   ///< TLB already consulted once.
        bool tlbMissed = false;   ///< Probe result (valid if probed).
    };

    static constexpr int fetchQueueCap = 16;
    static constexpr int issueScanLimit = 32;
    static constexpr std::uint64_t noCompletion = ~std::uint64_t(0);
    /** blockedSyscallSeq while the syscall is still in the fetch queue. */
    static constexpr std::uint64_t syscallUndispatched = ~std::uint64_t(0);

    // The window below is empty at every checkpoint-safe point (the
    // system drains the pipeline first), so none of it is saved.
    std::vector<Entry> rob;                   // ckpt:derived: drained
    std::uint64_t robMask = 0;                // ckpt:derived: config
    std::uint64_t headSeq = 1;                // ckpt:derived: drained
    std::size_t slotWords = 0;                // ckpt:derived: config
    /** Waiting entries with no pending producer, one bit per slot. */
    std::vector<std::uint64_t> readyBits;     // ckpt:derived: drained
    /** slotWords words per producer slot: its waiting consumers. */
    std::vector<std::uint64_t> consumerBits;  // ckpt:derived: drained
    /** Slots issued but not yet completed. */
    std::vector<std::uint32_t> issuedSlots;   // ckpt:derived: drained
    /** Earliest completeAt in issuedSlots (noCompletion if none). */
    std::uint64_t nextCompleteAt = noCompletion;  // ckpt:derived: drained

    /** Fetch queue ring: fetchCount ops from fetchHead. */
    std::array<FetchedOp, fetchQueueCap> fetchQueue;  // ckpt:derived
    std::uint32_t fetchHead = 0;              // ckpt:derived: drained
    std::uint32_t fetchCount = 0;             // ckpt:derived: drained

    /**
     * Latest in-flight producer of each register id, 0 if none. It
     * has a slot for every id so that stages index it without testing
     * for noReg; the noReg slot always reads 0.
     */
    // ckpt:derived: squashAll() zeroes this before every checkpoint
    std::array<std::uint64_t, 256> regProducer{};

    std::uint64_t nextSeq = 1;
    std::uint64_t now = 0;

    std::uint64_t fetchBusyUntil = 0;       ///< ckpt:derived: drained.
    std::uint64_t fetchBlockedOnBranch = 0; ///< ckpt:derived: drained.
    std::uint64_t blockedSyscallSeq = 0;    ///< ckpt:derived: drained.
    bool sourceEnded = false;

    /**
     * The last cycle() ended with the pipeline empty, so it called
     * kernel.onPipelineEmpty() after its last fetch.
     */
    bool drainNotified = false;  // ckpt:derived: squashes clear it

    std::uint64_t mispredStalls = 0;

    std::uint64_t robSize() const { return nextSeq - headSeq; }
    Entry &entryAt(std::uint64_t seq) { return rob[seq & robMask]; }
    const Entry &
    entryAt(std::uint64_t seq) const
    {
        return rob[seq & robMask];
    }

    /** True when the producer of @p dep has completed (or retired). */
    bool depSatisfied(std::uint64_t dep);

    /**
     * Candidate mask of this cycle's select: bit i set when the entry
     * i positions from the head is ready.
     */
    std::uint64_t readyWindow() const;

    /** readyWindow() recomputed from entry states (checks builds). */
    std::uint64_t referenceReadyWindow();

    /**
     * Squash the whole window and fetch queue, returning their
     * MicroOps in program order; the squashed seqs are reused. Leaves
     * fetchBusyUntil alone: an I-cache miss walk in progress is not
     * undone by an interrupt.
     */
    std::vector<MicroOp> squashWindow();

    /** Empty the window, anchoring it at @p seq. */
    void resetWindow(std::uint64_t seq);

    /** Writeback of one slot: mark it Completed, wake its consumers. */
    void complete(std::uint32_t slot);

    /** Charge the coming cycles to the oldest op or the kernel. */
    void setCycleMode();

    void doCommit();
    void doWriteback();
    void doIssue();
    /** @return True if a dispatch-time TLB miss trapped. */
    bool doDispatch();
    void doFetch();
};

} // namespace softwatt

#endif // SOFTWATT_CPU_SUPERSCALAR_CPU_HH
