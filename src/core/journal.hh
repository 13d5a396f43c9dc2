/**
 * @file
 * Incremental result journaling for crash-resumable experiments.
 *
 * As each run of an experiment finishes, the runner appends one
 * self-contained JSONL record to `<out>.journal.jsonl`:
 *
 *   {"schema":"softwatt-journal-v1","experiment":...,"bench":...,
 *    "variant":...,"config":<fingerprint>,"outcome":...,
 *    "attempts":N,"run":<escaped run-object text>}
 *
 * The `run` field holds the exact pretty-printed JSON object that
 * writeJson() would emit for that run, so a resumed experiment can
 * splice journaled runs into the final document byte-identical to an
 * uninterrupted one. The `config` field is specFingerprint(): the
 * run's identity (benchmark, variant, scale, CPU model, deadline and
 * grace budgets) followed by writeConfigFields(), the same field list
 * the checkpoint fingerprint hashes. Resume and the serve daemon
 * replay only an entry whose journalKey() (experiment title plus
 * that fingerprint) still matches, so editing the sweep invalidates
 * exactly the runs it changes. A journal from a build whose
 * fingerprint covered other fields matches nothing, so its runs
 * execute again once; that direction is safe, so the schema name
 * stays softwatt-journal-v1.
 *
 * Each line is flushed as it is written: a SIGKILLed sweep loses at
 * most the in-flight runs, and the reader skips a torn final line.
 */

#ifndef SOFTWATT_CORE_JOURNAL_HH
#define SOFTWATT_CORE_JOURNAL_HH

#include <mutex>
#include <string>
#include <vector>

#include "sim/host_io.hh"

#include "runner.hh"

namespace softwatt
{

/** One journaled (finished) run. */
struct JournalEntry
{
    std::string experiment;
    std::string bench;
    std::string variant;
    std::string config;   ///< specFingerprint() of the run's spec.
    std::string outcome;  ///< runOutcomeName() at completion.
    int attempts = 1;
    std::string runJson;  ///< Standalone pretty run-object text.
};

/**
 * Deterministic 64-bit FNV-1a fingerprint (16 hex digits) of
 * everything that determines a run's results: benchmark, variant,
 * scale, CPU model, the deadline and grace budgets, then
 * writeConfigFields() of the config and the scaled workload. The
 * checkpoint fingerprint leaves the variant, the CPU model and the
 * budgets out on purpose (a label, warm-start model switching, run
 * management); the journal must not replay a run across any of them.
 */
std::string specFingerprint(const RunSpec &spec);

/**
 * The identity a journaled run is matched and deduplicated on: the
 * experiment title and the run's specFingerprint(), which already
 * hashes the benchmark and variant.
 */
std::string journalKey(const std::string &experiment,
                       const std::string &fingerprint);

/** `<out>.journal.jsonl` for a given out= path. */
std::string journalPathFor(const std::string &json_path);

/**
 * Build the journal record for a finished run: a restored run
 * contributes its replayed JSON verbatim, a live one is rendered
 * through renderRunJson() — the same path writeJson() uses, so the
 * journal round-trip is byte-exact by construction.
 */
JournalEntry makeJournalEntry(const std::string &experiment,
                              const RunSpec &spec,
                              const std::string &fingerprint,
                              const BenchmarkRun &run);

/**
 * Append-side of the journal. Thread-safe: workers append entries
 * as their runs finish; each line is written and flushed atomically
 * under a mutex.
 */
class RunJournal
{
  public:
    /**
     * Open @p path for appending; @p truncate discards previous
     * contents (a fresh, non-resumed experiment must not inherit
     * stale entries). Under Durability::Full every append ends in an
     * fdatasync barrier, so an acknowledged entry survives a power
     * cut. @return false if the file cannot be opened.
     */
    bool open(const std::string &path, bool truncate,
              Durability durability = Durability::Buffered);

    bool isOpen() const { return out.isOpen(); }

    /**
     * Write one entry as a flushed JSONL line. A failed write
     * degrades the journal to non-durable mode instead of dying:
     * one structured warning is emitted, the file is closed, and
     * every later append becomes a no-op — the sweep itself keeps
     * running, it just loses crash-resumability from that point.
     */
    void append(const JournalEntry &entry);

    /** True once an append failure degraded the journal. */
    bool
    degraded() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return degradedFlag;
    }

    /**
     * Parse a journal file. Torn or unparseable lines (a crash can
     * tear at most the last one) are skipped with a warning. A
     * missing file yields an empty vector.
     */
    static std::vector<JournalEntry>
    load(const std::string &path);

    /**
     * load() deduplicated on journalKey(experiment, config): the
     * last occurrence of each key wins (it reflects the final
     * retry/diagnose state), and keys keep their first-seen order so
     * replay stays deterministic. This is the read path for journals
     * that accumulate across process generations, like the serve
     * daemon's.
     */
    static std::vector<JournalEntry>
    loadLatest(const std::string &path);

  private:
    HostFile out;
    Durability durability = Durability::Buffered;
    bool degradedFlag = false;
    mutable std::mutex mutex;
};

} // namespace softwatt

#endif // SOFTWATT_CORE_JOURNAL_HH
