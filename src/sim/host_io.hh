/**
 * @file
 * Host-I/O seam: every durability-critical filesystem operation in
 * the tree (journal appends, checkpoint temp-then-rename chains, the
 * serve pool's promote/rotate/recover moves, the runner's results
 * writer) goes through this module instead of calling the libc or
 * std::filesystem primitives directly.
 *
 * The seam buys three things:
 *
 *  1. A real durability contract. `Durability::Buffered` matches the
 *     historical behaviour (write + flush; survives SIGKILL but not a
 *     power cut), while `Durability::Full` adds fdatasync barriers on
 *     journal appends and fsync-file + fsync-parent-directory around
 *     atomic renames, so acknowledged data survives a power cut.
 *
 *  2. Deterministic fault injection. A seeded policy can fail ops
 *     with EIO/ENOSPC, truncate writes, tear renames, cut power after
 *     op N, or fail every write once a byte budget is exhausted
 *     (disk-full emulation) — all driven by softwatt::Random so a
 *     failing schedule replays exactly.
 *
 *  3. Crash-consistency replay. Record mode logs every op with its
 *     payload; replayCrashPrefix() materializes the on-disk state a
 *     crash after the first K ops could leave behind — under an
 *     everything-persisted view, a synced-only view (only data that
 *     crossed an fsync/dir-sync barrier survives), or a torn-tail
 *     view (unsynced suffixes partially lost) — so recovery code can
 *     be driven over every barrier window of a recorded session.
 *
 * All functions report failures as IoStatus values instead of
 * throwing or dying: durability callers degrade structurally (warn
 * and continue without the failing facility) rather than aborting a
 * simulation that is otherwise healthy.
 */

#ifndef SOFTWATT_SIM_HOST_IO_HH
#define SOFTWATT_SIM_HOST_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace softwatt
{

/**
 * How hard a writer must try to make its bytes survive.
 *
 * Buffered: write + stream flush only. Data reaches the kernel, so
 * it survives SIGKILL, but a power cut may lose or tear anything
 * not yet written back.
 *
 * Full: fdatasync after durable appends, fsync the temp file before
 * an atomic rename and the parent directory after it. Acknowledged
 * data survives a power cut.
 */
enum class Durability
{
    Buffered = 0,
    Full,
};

/** "buffered"/"full" for messages and config echo. */
const char *durabilityName(Durability durability);

/** Parse a durability= value; @p ok is false for unknown names. */
Durability durabilityFromName(const std::string &name, bool &ok);

/** Outcome of one host-I/O operation. */
struct IoStatus
{
    bool ok = true;
    std::string message;  ///< Failure detail; empty on success.

    explicit operator bool() const { return ok; }

    static IoStatus
    good()
    {
        return IoStatus{};
    }

    static IoStatus
    failure(std::string detail)
    {
        return IoStatus{false, std::move(detail)};
    }
};

/** Kinds of operation the seam mediates (and records). */
enum class IoOpKind : std::uint8_t
{
    Open = 0,  ///< Create/open a file for writing.
    Write,     ///< Append bytes to an open file.
    Flush,     ///< Stream flush (no durability barrier).
    Sync,      ///< fdatasync-style barrier on one file.
    Rename,    ///< Atomic rename path -> path2.
    Remove,    ///< Unlink path.
    DirSync,   ///< fsync a directory (persist entries).
};

/** Stable lowercase name for an op kind. */
const char *ioOpName(IoOpKind kind);

/** One recorded host-I/O operation. */
struct IoRecord
{
    IoOpKind kind = IoOpKind::Open;
    std::string path;      ///< Primary path.
    std::string path2;     ///< Rename destination; else empty.
    std::string data;      ///< Bytes written (Write only).
    bool truncate = false; ///< Open with truncation vs append.
};

/**
 * Deterministic, seeded fault schedule applied to every op that goes
 * through the seam. Rates are per-op Bernoulli draws from one
 * xorshift64* stream, so a given (seed, op sequence) pair always
 * fails the same ops. All-zero (the default) injects nothing.
 */
struct IoFaultPolicy
{
    bool enabled = false;
    std::uint64_t seed = 1;

    double errorRate = 0.0;       ///< Generic EIO on any op.
    double enospcRate = 0.0;      ///< ENOSPC on writes/opens.
    double shortWriteRate = 0.0;  ///< Truncate a write mid-buffer.
    double tornRenameRate = 0.0;  ///< Rename leaves a torn target.

    /** Power cut after this many ops (1-based); 0 = never. Every op
     *  after the cut fails without touching the disk. */
    std::uint64_t crashAtOp = 0;

    /** Fail every write with ENOSPC once this many bytes have been
     *  written through the seam (disk-full emulation); 0 = never. */
    std::uint64_t enospcAfterBytes = 0;
};

/**
 * Process-wide seam state: fault policy, op accounting and the
 * record-mode log. All entry points are thread-safe.
 */
class HostIo
{
  public:
    static HostIo &instance();

    /** Install @p policy (replacing any previous one) and reset the
     *  op/byte counters and the power-cut latch. */
    void setFaultPolicy(const IoFaultPolicy &policy);

    /** Remove fault injection and clear the power-cut latch. */
    void clearFaultPolicy();

    /** True once a crash-at-op-N schedule has fired; every later op
     *  fails until the policy is cleared or reinstalled. */
    bool powerLost() const;

    /** Ops issued through the seam since the last policy install (or
     *  recording start, whichever is later in the caller's hands:
     *  the counter is global and monotonic until reset). */
    std::uint64_t opsIssued() const;

    /** Begin logging every op (clears any previous log). */
    void startRecording();

    /** Stop logging and return the recorded ops. */
    std::vector<IoRecord> stopRecording();

    bool recording() const;

  private:
    HostIo() = default;

    friend class HostFile;
    friend IoStatus hostWriteFileAtomic(const std::string &,
                                        const std::string &,
                                        Durability);
    friend IoStatus hostRename(const std::string &,
                               const std::string &, Durability);
    friend IoStatus hostRemove(const std::string &);
    friend void hostRemoveBestEffort(const std::string &);
    friend IoStatus hostSyncDir(const std::string &);

    /**
     * Account, record and (possibly) fault one op. On injected
     * failure returns the failure status and the caller must not
     * touch the disk — except for a torn rename, where @p torn is
     * set and the caller materializes the torn destination. For a
     * write, @p kept receives how many leading bytes of @p data
     * reach the disk: all of them, or fewer after a short-write
     * fault, in which case the caller writes that prefix and
     * reports failure.
     */
    IoStatus gate(IoOpKind kind, const std::string &path,
                  const std::string &path2, const std::string *data,
                  bool truncate, bool *torn, std::size_t *kept);

    struct Impl;
    Impl &impl() const;
};

/**
 * RAII installer for a fault policy: installs on construction (when
 * the policy is enabled), clears on destruction. The runner uses it
 * to scope io_fault_* keys to one experiment.
 */
class ScopedIoFaults
{
  public:
    explicit ScopedIoFaults(const IoFaultPolicy &policy)
        : active(policy.enabled)
    {
        if (active)
            HostIo::instance().setFaultPolicy(policy);
    }

    ~ScopedIoFaults()
    {
        if (active)
            HostIo::instance().clearFaultPolicy();
    }

    ScopedIoFaults(const ScopedIoFaults &) = delete;
    ScopedIoFaults &operator=(const ScopedIoFaults &) = delete;

  private:
    bool active;
};

/**
 * A host file open for writing through the seam. Append-oriented:
 * the journal holds one across a sweep; atomic writers use it on
 * their temp file. Closes (without syncing) on destruction.
 */
class HostFile
{
  public:
    HostFile() = default;
    ~HostFile();

    HostFile(const HostFile &) = delete;
    HostFile &operator=(const HostFile &) = delete;

    /**
     * Open @p path for writing (@p truncate discards existing
     * contents, otherwise appends), creating it if needed. Under
     * Durability::Full the parent directory is synced after a
     * create, so the entry itself survives a power cut.
     */
    IoStatus open(const std::string &path, bool truncate,
                  Durability durability = Durability::Buffered);

    bool isOpen() const { return fd >= 0; }

    /** Write all of @p bytes, straight from the caller's buffer (an
     *  injected short write keeps only a prefix and fails). */
    IoStatus write(const std::string &bytes);

    /** Stream-level flush record; no durability barrier. */
    IoStatus flush();

    /** fdatasync barrier: bytes written so far survive a power cut. */
    IoStatus sync();

    void close();

    const std::string &path() const { return filePath; }

  private:
    int fd = -1;
    std::string filePath;
};

/**
 * Write @p bytes to @p path atomically via "<path>.tmp" + rename.
 * Under Durability::Full the temp file is fsynced before the rename
 * and the parent directory after it. On failure the temp file is
 * cleaned up best-effort and @p path is untouched (or still holds
 * its previous complete contents).
 */
IoStatus hostWriteFileAtomic(const std::string &path,
                             const std::string &bytes,
                             Durability durability);

/** Atomic rename; under Durability::Full the destination's parent
 *  directory is synced afterwards so the move survives a power cut. */
IoStatus hostRename(const std::string &from, const std::string &to,
                    Durability durability);

/** Unlink @p path; missing files are not an error. */
IoStatus hostRemove(const std::string &path);

/** Unlink @p path ignoring any failure (cleanup of scratch files
 *  whose loss is harmless; exempt from the durability-io analyzer
 *  rule on discarded statuses). */
void hostRemoveBestEffort(const std::string &path);

/** fsync a directory, persisting its entries. */
IoStatus hostSyncDir(const std::string &dir);

/** Existence probe (not gated/recorded: read-only). */
bool hostFileExists(const std::string &path);

/** File size in bytes, or 0 when absent/unreadable. */
std::uint64_t hostFileSize(const std::string &path);

/** Parent directory of @p path ("." when it has no separator). */
std::string hostParentDir(const std::string &path);

/**
 * Persistence views a crash can leave behind after a given op
 * prefix. Recovery must cope with every one of them.
 */
enum class CrashVariant
{
    /** Only data/entries that crossed a Sync/DirSync barrier
     *  survive; everything else is lost (harshest power cut). */
    SyncedOnly = 0,

    /** Every issued op persisted (kindest crash: SIGKILL, or a
     *  power cut that caught a clean cache). */
    Everything,

    /** Like Everything, but each file's unsynced suffix is torn:
     *  the synced prefix survives intact, half of the unsynced
     *  tail persists, the rest is lost. */
    TornTail,
};

constexpr CrashVariant crashVariants[] = {
    CrashVariant::SyncedOnly,
    CrashVariant::Everything,
    CrashVariant::TornTail,
};

/** Stable lowercase name for a crash variant. */
const char *crashVariantName(CrashVariant variant);

/**
 * Materialize into @p scratchRoot the on-disk state that a crash
 * after the first @p prefix ops of @p log could leave behind, under
 * @p variant's persistence rules. Paths in the log must live under
 * @p recordRoot; they are rewritten to @p scratchRoot. The scratch
 * directory is cleared first. Rename/remove are modelled as volatile
 * directory operations until a DirSync covers their directory;
 * fsync persists a file's bytes and its directory entry (ext4-like
 * journalling), tracked per inode so a renamed-after-fsync temp file
 * carries its durable contents to the new name.
 */
void replayCrashPrefix(const std::vector<IoRecord> &log,
                       std::size_t prefix, CrashVariant variant,
                       const std::string &recordRoot,
                       const std::string &scratchRoot);

} // namespace softwatt

#endif // SOFTWATT_SIM_HOST_IO_HH
