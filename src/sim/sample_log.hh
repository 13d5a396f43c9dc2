/**
 * @file
 * Sampled simulation log — SoftWatt's post-processing interface.
 *
 * The paper computes power in a post-processing pass over the
 * simulation log files: counters are sampled at a coarse granularity,
 * so per-cycle information is lost but the simulation itself is not
 * slowed down. SampleLog is that log: one SampleRecord per window,
 * holding the per-mode counter matrix for the window.
 */

#ifndef SOFTWATT_SIM_SAMPLE_LOG_HH
#define SOFTWATT_SIM_SAMPLE_LOG_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "checkpoint.hh"
#include "counters.hh"
#include "types.hh"

namespace softwatt
{

/** One sampling window of the simulation log. */
struct SampleRecord
{
    Tick startTick = 0;
    Tick endTick = 0;
    CounterBank counters;

    /**
     * Operating point the window executed at (DVFS): core frequency
     * in MHz and supply voltage in volts. 0 means "nominal", so
     * hand-built records and logs from before the field existed
     * price identically to the unscaled path. Stored in the log so
     * the power pass stays a pure function of the log even when a
     * governor re-points the core mid-run.
     */
    double freqMhz = 0;
    double vdd = 0;

    /** Window length in cycles. */
    Cycles length() const { return endTick - startTick; }
};

/**
 * Append-only store of sampled counter windows.
 *
 * Each window is stored once, in one byte buffer, in the encoding a
 * checkpoint gives it: both ticks, the operating point, then
 * CounterBank::saveState (the bank mode and one varint per cell).
 * Most cells are zero and take one byte, so a window takes about a
 * sixth of a SampleRecord, and an autosave copies the buffer instead
 * of re-encoding the log. A window is decoded only when a reader asks
 * for it.
 *
 * Can be serialized to CSV so the power pass can also run against an
 * on-disk log, mirroring the SimOS log-file workflow.
 */
class SampleLog
{
  public:
    /** The end of a Windows range. */
    struct WindowsEnd
    {
    };

    /**
     * Input iterator over the windows in order. It decodes each
     * window once, into a record it keeps, so a loop over the whole
     * log fills one record.
     */
    class WindowIterator
    {
      public:
        WindowIterator(const std::uint8_t *at, const std::uint8_t *end);

        const SampleRecord &operator*() const { return record; }
        WindowIterator &operator++();
        bool operator==(WindowsEnd) const { return done; }

      private:
        SampleRecord record;
        const std::uint8_t *next;
        const std::uint8_t *end;
        bool done = false;
    };

    /** Every window, oldest first, decoded as it is visited. */
    class Windows
    {
      public:
        explicit Windows(const SampleLog &log) : log(log) {}

        WindowIterator begin() const;
        WindowsEnd end() const { return {}; }

        /** The newest window; the log must not be empty. */
        SampleRecord back() const { return log.at(log.size() - 1); }

      private:
        const SampleLog &log;
    };

    /** Append a completed window. */
    void append(const SampleRecord &record);

    Windows all() const { return Windows(*this); }

    std::size_t size() const { return offsets.size(); }
    bool empty() const { return offsets.empty(); }

    /** Window @p i, decoded; throws std::out_of_range past the end. */
    SampleRecord at(std::size_t i) const;

    /** Sum every window into a single counter bank. */
    CounterBank totals() const;

    /** Total simulated cycles covered by the log. */
    Cycles totalCycles() const;

    /** Serialize as CSV: one row per (window, mode). */
    void writeCsv(std::ostream &out) const;

    /** Parse a CSV produced by writeCsv(). Returns false on error. */
    static bool readCsv(std::istream &in, SampleLog &out);

    /**
     * The stored windows, back to back: a checkpoint's log, which an
     * autosave only ever appends to.
     */
    const std::vector<std::uint8_t> &encoded() const
    {
        return windows.bytes();
    }

    /** checksum64 of encoded(), hashing only what is new since the
     *  last call. */
    std::uint64_t encodedChecksum() const
    {
        return windowsChecksum.of(windows.bytes().data(),
                                  windows.bytes().size());
    }

    /**
     * Checkpointing: the window count. The windows themselves are the
     * checkpoint's log, encoded(); loading takes them as @p log, checks
     * every window as a decoder would, and leaves the log unchanged
     * when one is damaged or @p log holds more or fewer windows than
     * the count.
     */
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in, const std::vector<std::uint8_t> &log);

  private:
    /** Fewest bytes one record takes in a checkpoint: its two ticks
     *  and operating point, then its counters. */
    static constexpr std::size_t minRecordBytes =
        4 * 8 + CounterBank::minEncodedBytes;

    /** Every window's encoding, back to back. */
    ChunkWriter windows;
    /** Where each window starts in windows.bytes(). */
    std::vector<std::size_t> offsets;
    /** encodedChecksum()'s words hashed so far. */
    mutable RunningChecksum windowsChecksum;  // ckpt:derived: of windows
};

} // namespace softwatt

#endif // SOFTWATT_SIM_SAMPLE_LOG_HH
