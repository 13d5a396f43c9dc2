/**
 * @file
 * The hardware access-counter contract between the timing models and
 * the power post-processor.
 *
 * Every countable hardware event has a CounterId. The CounterBank
 * accumulates events tagged with the current execution mode; the
 * system samples and resets the bank on every log window, producing
 * the SampleLog consumed by the PowerCalculator.
 */

#ifndef SOFTWATT_SIM_COUNTERS_HH
#define SOFTWATT_SIM_COUNTERS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "types.hh"

namespace softwatt
{

class ChunkWriter;
class ChunkReader;

/**
 * Identifiers for every hardware event the power models consume.
 *
 * The paper's post-processing pass reads sampled activity counts from
 * the simulation log; this enum is the schema of those records.
 */
enum class CounterId : std::uint32_t
{
    Cycles = 0,        ///< Core cycles spent in the mode.
    CommitCycles,      ///< Cycles in which at least one inst committed.
    FetchedInsts,      ///< Instructions fetched (incl. wrong path).
    CommittedInsts,    ///< Instructions retired.
    IL1Ref,            ///< L1 I-cache references.
    IL1Miss,           ///< L1 I-cache misses.
    DL1Ref,            ///< L1 D-cache references.
    DL1Miss,           ///< L1 D-cache misses.
    L2IRef,            ///< Unified L2 references on the I-side.
    L2DRef,            ///< Unified L2 references on the D-side.
    L2Miss,            ///< Unified L2 misses (both sides).
    MemRef,            ///< Main-memory accesses.
    TlbRef,            ///< Unified TLB lookups.
    TlbMiss,           ///< TLB misses (trap to utlb handler).
    IntAluOp,          ///< Integer ALU operations executed.
    FpAluOp,           ///< Floating-point operations executed.
    RegFileRead,       ///< Register-file read ports exercised.
    RegFileWrite,      ///< Register-file write ports exercised.
    RenameOp,          ///< Register-rename table operations.
    IssueWindowOp,     ///< Issue-window wakeup/select operations.
    LsqOp,             ///< Load/store queue operations.
    ResultBusOp,       ///< Result-bus transfers.
    BhtRef,            ///< Branch history table lookups/updates.
    BtbRef,            ///< Branch target buffer lookups/updates.
    RasRef,            ///< Return address stack pushes/pops.
    BranchInsts,       ///< Conditional branches executed.
    BranchMispred,     ///< Branch mispredictions.
    LoadInsts,         ///< Loads committed.
    StoreInsts,        ///< Stores committed.
    DiskFault,         ///< Disk completions with an error status.
    DiskRetry,         ///< Driver retries after disk faults.
    DiskGiveUp,        ///< Requests abandoned by the driver.
    NumCounters,
};

/** Number of counters in the schema. */
constexpr int numCounters = static_cast<int>(CounterId::NumCounters);

/** Stable text name for a counter (used in CSV logs). */
const char *counterName(CounterId id);

/**
 * An execution mode read from a checkpoint. Throws CheckpointError
 * naming @p what unless @p raw is below numExecModes: a mode indexes
 * the counter matrix, so an unchecked one writes out of bounds.
 */
ExecMode checkpointExecMode(std::uint64_t raw, const char *what);

/**
 * Live per-mode accumulation of hardware event counts.
 *
 * Timing models call add() on every countable event; the bank tags the
 * event with the current execution mode set by the OS model. The bank
 * is sampled and cleared once per log window.
 */
class CounterBank
{
  public:
    CounterBank() { clear(); }

    /** Set the mode that subsequent events will be attributed to. */
    void setMode(ExecMode mode) { currentMode = static_cast<int>(mode); }

    /** Mode currently being charged. */
    ExecMode mode() const { return static_cast<ExecMode>(currentMode); }

    /** Record @p n events of kind @p id against the current mode. */
    void
    add(CounterId id, std::uint64_t n = 1)
    {
        values[currentMode][static_cast<int>(id)] += n;
    }

    /** Record @p n events against an explicit mode. */
    void
    addTo(ExecMode mode, CounterId id, std::uint64_t n)
    {
        values[static_cast<int>(mode)][static_cast<int>(id)] += n;
    }

    /** Overwrite one cell. */
    void
    set(ExecMode mode, CounterId id, std::uint64_t value)
    {
        values[static_cast<int>(mode)][static_cast<int>(id)] = value;
    }

    /** Read one cell. */
    std::uint64_t
    get(ExecMode mode, CounterId id) const
    {
        return values[static_cast<int>(mode)][static_cast<int>(id)];
    }

    /** Sum a counter across all modes. */
    std::uint64_t total(CounterId id) const;

    /** Zero every cell. */
    void clear();

    /** Raw matrix access for sampling. */
    using Matrix =
        std::array<std::array<std::uint64_t, numCounters>, numExecModes>;
    const Matrix &raw() const { return values; }

    /** Element-wise accumulate another bank into this one. */
    void accumulate(const CounterBank &other);

    /**
     * Checkpointing: the current mode plus the whole matrix, one
     * varint per cell. This is the one encoding of a bank in an
     * image: the live sink, the totals bank and every sample-log
     * window all go through it.
     */
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

    /** Fewest bytes saveState() writes (every cell zero). */
    static constexpr std::size_t minEncodedBytes =
        4 + std::size_t(numExecModes) * numCounters;

  private:
    int currentMode = 0;
    Matrix values;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_COUNTERS_HH
