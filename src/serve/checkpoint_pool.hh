/**
 * @file
 * Warm checkpoint pool: post-warm-up machine images shared across
 * serve jobs with matching configurations.
 *
 * Every executing job autosaves checkpoints (at the service-wide
 * cadence) to a PRIVATE in-flight path, so concurrent jobs with the
 * same configuration never race on one file. When a job completes,
 * its newest image is promoted under the pool path for its machine
 * fingerprint — System::checkpointFingerprint(), which covers the
 * machine and workload but not run management like deadlines — with
 * the previous image kept one generation back, mirroring
 * autosaveCheckpoint's rotation so a corrupt newest image falls back
 * instead of failing. A later job with the same fingerprint restores
 * from the pooled image and skips straight past warm-up.
 *
 * The pool is LRU-bounded by a byte budget. A budget of zero selects
 * scratch mode: jobs still autosave at the cadence (checkpointing is
 * a deterministic perturbation, so the cadence must match for
 * byte-identical documents) but nothing is retained and lookups
 * always miss — this is how cold reference runs are produced.
 *
 * Crash recovery: a SIGKILL'd daemon leaves orphaned in-flight
 * images behind; recover() promotes them into the pool at startup,
 * so even interrupted progress warms future jobs.
 */

#ifndef SOFTWATT_SERVE_CHECKPOINT_POOL_HH
#define SOFTWATT_SERVE_CHECKPOINT_POOL_HH

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

#include "sim/host_io.hh"

namespace softwatt::serve
{

/** LRU-bounded store of warm machine checkpoints, keyed by machine
 *  fingerprint, with private in-flight paths for concurrent writers. */
class CheckpointPool
{
  public:
    /**
     * @param directory Pool directory (created by the caller).
     * @param budget_bytes LRU size budget; 0 = scratch mode (retain
     *        nothing, always miss).
     * @param pool_durability Durability::Full makes promote/rotate
     *        renames power-cut safe (fsync'd parent directory).
     */
    CheckpointPool(std::string directory, std::uint64_t budget_bytes,
                   Durability pool_durability = Durability::Buffered);

    CheckpointPool(const CheckpointPool &) = delete;
    CheckpointPool &operator=(const CheckpointPool &) = delete;

    /**
     * Scan the directory: index existing pool images, promote
     * in-flight orphans a killed daemon left behind, and recover
     * rotated pool generations whose base image vanished (promoted
     * back into their slot when intact, deleted when torn — never
     * left untracked on disk). @return number of images promoted.
     */
    std::size_t recover();

    /**
     * Path of the warm image for @p key, or "" on a miss. A hit
     * counts as a use for LRU purposes. The returned path may have a
     * previous generation beside it ("<path>.1") which
     * System::restoreCheckpoint falls back to on corruption.
     */
    std::string lookup(std::uint64_t key);

    /**
     * A fresh private autosave destination for one job warming
     * images for @p key. Never collides with another job's path or
     * the pool path itself.
     */
    std::string inflightPath(std::uint64_t key);

    /**
     * Move a finished job's in-flight image into the pool slot for
     * @p key, rotating any existing image one generation back. In
     * scratch mode (or when the job never autosaved) the in-flight
     * files are deleted instead.
     * @return true when the pool retained the image.
     */
    bool promote(std::uint64_t key, const std::string &inflight_path);

    /** Delete a job's in-flight files without promoting them. */
    void discard(const std::string &inflight_path);

    /** Pool file name for a key: 16 hex digits + ".ckpt". */
    static std::string keyName(std::uint64_t key);

    std::uint64_t bytesUsed() const;
    std::size_t entries() const;
    std::uint64_t evictions() const;

  private:
    std::string poolPath(std::uint64_t key) const;

    /**
     * Rotate the slot for @p key one generation back and rename
     * @p image — @p inflight_path or its previous generation — into
     * it (locked). Each rename is checked on its own, and a failure
     * warns and re-stats the slot. The in-flight files are gone
     * afterwards either way. @return true when the slot took @p image.
     */
    bool promoteLocked(std::uint64_t key, const std::string &image,
                       const std::string &inflight_path);

    /** Re-stat a key's files and update the accounting (locked). */
    void refreshSizeLocked(std::uint64_t key);

    /** Move @p key to the front of the LRU order (locked). */
    void touchLocked(std::uint64_t key);

    /** Evict least-recently-used entries until within budget. */
    void enforceBudgetLocked();

    std::string dir;
    std::uint64_t budget;
    Durability durability;
    std::uint64_t inflightSeq = 0;
    std::uint64_t evicted = 0;

    /** Most-recently-used first. */
    std::list<std::uint64_t> lru;

    /** key -> bytes on disk (current + previous generation). */
    std::map<std::uint64_t, std::uint64_t> sizes;

    mutable std::mutex mutex;
};

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_CHECKPOINT_POOL_HH
