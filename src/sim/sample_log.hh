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

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "counters.hh"
#include "types.hh"

namespace softwatt
{

class ChunkWriter;
class ChunkReader;

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
 * Held in memory during simulation; can be serialized to CSV so the
 * power pass can also run against an on-disk log, mirroring the
 * SimOS log-file workflow.
 */
class SampleLog
{
  public:
    /** Append a completed window. */
    void
    append(SampleRecord record)
    {
        records.push_back(std::move(record));
    }

    const std::vector<SampleRecord> &all() const { return records; }

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }
    const SampleRecord &at(std::size_t i) const { return records.at(i); }

    /** Sum every window into a single counter bank. */
    CounterBank totals() const;

    /** Total simulated cycles covered by the log. */
    Cycles totalCycles() const;

    /** Serialize as CSV: one row per (window, mode). */
    void writeCsv(std::ostream &out) const;

    /** Parse a CSV produced by writeCsv(). Returns false on error. */
    static bool readCsv(std::istream &in, SampleLog &out);

    /** Checkpointing: every closed window, bit-exact. */
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    /** Fewest bytes one record takes in a checkpoint: its two ticks
     *  and operating point, then its counters. */
    static constexpr std::size_t minRecordBytes =
        4 * 8 + CounterBank::minEncodedBytes;

    std::vector<SampleRecord> records;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_SAMPLE_LOG_HH
