#include "checkpoint_pool.hh"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace softwatt::serve
{

namespace fs = std::filesystem;

namespace
{

/** Parse a 16-hex-digit prefix; false when it is not one. */
bool
parseKeyPrefix(const std::string &name, std::uint64_t &key)
{
    if (name.size() < 16)
        return false;
    std::uint64_t value = 0;
    for (int i = 0; i < 16; ++i) {
        char c = name[std::size_t(i)];
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= std::uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= std::uint64_t(c - 'a' + 10);
        else
            return false;
    }
    key = value;
    return true;
}

} // namespace

CheckpointPool::CheckpointPool(std::string directory,
                               std::uint64_t budget_bytes,
                               Durability pool_durability)
    : dir(std::move(directory)), budget(budget_bytes),
      durability(pool_durability)
{
}

std::string
CheckpointPool::keyName(std::uint64_t key)
{
    static const char digits[] = "0123456789abcdef";
    std::string text(16, '0');
    for (int i = 0; i < 16; ++i)
        text[std::size_t(i)] = digits[(key >> (60 - 4 * i)) & 0xf];
    return text + ".ckpt";
}

std::string
CheckpointPool::poolPath(std::uint64_t key) const
{
    return dir + "/" + keyName(key);
}

std::size_t
CheckpointPool::recover()
{
    std::lock_guard<std::mutex> lock(mutex);
    std::error_code ec;
    std::vector<std::string> poolFiles;
    std::vector<std::pair<std::uint64_t, std::string>> orphans;
    std::vector<std::pair<std::uint64_t, std::string>> poolRotated;
    std::vector<std::pair<std::uint64_t, std::string>> poolLogs;
    std::vector<std::string> rotated;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        std::uint64_t key = 0;
        if (!parseKeyPrefix(name, key))
            continue;
        std::string rest = name.substr(16);
        if (rest == ".ckpt") {
            poolFiles.push_back(name);
        } else if (rest == ".ckpt.1") {
            // A rotated pool generation. With its base alive it is
            // budgeted alongside it below; with the base vanished
            // (crash between promote's rotate and rename) it must be
            // promoted back into the slot or deleted, or it is never
            // tracked and leaks across daemon generations.
            poolRotated.emplace_back(key, entry.path().string());
        } else if (rest == ".ckpt.log") {
            // A slot's log: kept while either generation is.
            poolLogs.emplace_back(key, entry.path().string());
        } else if (rest.compare(0, 10, ".inflight.") == 0) {
            if (rest.size() > 5 &&
                rest.compare(rest.size() - 5, 5, ".ckpt") == 0)
                orphans.emplace_back(key, entry.path().string());
            else
                // A rotated in-flight generation (".ckpt.1") or an
                // in-flight log (".ckpt.log"). It must outlive the
                // orphan pass — a torn newest generation falls back
                // to the former, and both read the latter — so only
                // note it for the final sweep.
                rotated.push_back(entry.path().string());
        }
    }

    // Deterministic order: existing pool entries by name, then
    // orphans by name (a fresh daemon has no usage history to rank
    // them by, and stable order keeps tests reproducible).
    std::sort(poolFiles.begin(), poolFiles.end());
    std::sort(orphans.begin(), orphans.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });

    // An image in another checkpoint format (the pool key leaves the
    // format version out) would fail the first matching warm start
    // with CheckpointMismatch, costing that job its retry or its
    // result. Such generations are dropped; the rest stay unread.
    auto staleFormat = [](const std::string &path) {
        std::uint16_t version = peekCheckpointVersion(path);
        return version != 0 && version != checkpointFormatVersion;
    };
    std::size_t stale = 0;
    for (const std::string &name : poolFiles) {
        std::uint64_t key = 0;
        parseKeyPrefix(name, key);
        std::string path = poolPath(key);
        for (const std::string &generation :
             {path, checkpointPreviousGeneration(path)}) {
            if (staleFormat(generation)) {
                hostRemoveBestEffort(generation);
                ++stale;
            }
        }
        if (!hostFileExists(path))
            continue;  // A current rotated generation is handled below.
        if (!sizes.count(key))
            lru.push_back(key);
        refreshSizeLocked(key);
    }
    if (stale > 0) {
        inform(msg() << "checkpoint pool: dropped " << stale
                     << " image(s) in another checkpoint format");
    }

    auto verifies = [](const std::string &path) {
        try {
            readCheckpoint(path);
            return true;
        } catch (const CheckpointError &) {
            return false;
        }
    };

    std::size_t promoted = 0;
    std::sort(poolRotated.begin(), poolRotated.end());
    for (const auto &[key, path] : poolRotated) {
        if (sizes.count(key))
            continue;  // Base alive; already budgeted beside it.
        // The newest generation is gone: the survivor becomes the
        // pool slot again when it verifies, and is deleted when torn
        // (or the pool runs in scratch mode).
        if (budget > 0 && verifies(path)) {
            IoStatus moved = hostRename(path, poolPath(key),
                                        durability);
            if (moved) {
                lru.push_back(key);
                refreshSizeLocked(key);
                ++promoted;
                continue;
            }
            warn(msg() << "checkpoint pool: cannot restore rotated "
                       << "generation '" << path
                       << "': " << moved.message);
        }
        hostRemoveBestEffort(path);
    }

    for (const auto &[key, path] : orphans) {
        // Only promote an image that verifies end-to-end: an orphan
        // torn by SIGKILL mid-write must not poison the pool slot.
        // A torn newest generation falls back to its rotated
        // predecessor before the progress is abandoned.
        std::string candidate = path;
        bool usable = verifies(candidate);
        if (!usable) {
            candidate = checkpointPreviousGeneration(path);
            usable = hostFileSize(candidate) > 0 && verifies(candidate);
        }
        if (!usable || budget == 0)
            discard(path);
        else if (promoteLocked(key, candidate, path))
            ++promoted;
    }
    // Now that every orphan had its chance to fall back, sweep the
    // rotated generations that remain (strays whose newest image was
    // promoted directly, or whose base vanished entirely).
    for (const std::string &path : rotated)
        hostRemoveBestEffort(path);
    for (const auto &[key, path] : poolLogs) {
        if (!sizes.count(key))
            hostRemoveBestEffort(path);
    }
    enforceBudgetLocked();
    if (promoted > 0) {
        inform(msg() << "checkpoint pool: promoted " << promoted
                     << " image(s) orphaned by a previous daemon "
                     << "generation");
    }
    return promoted;
}

std::string
CheckpointPool::lookup(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = sizes.find(key);
    if (it == sizes.end())
        return "";
    std::string path = poolPath(key);
    if (hostFileSize(path) == 0 &&
        hostFileSize(checkpointPreviousGeneration(path)) == 0) {
        // Both generations vanished under us; drop the entry.
        lru.remove(key);
        sizes.erase(it);
        return "";
    }
    touchLocked(key);
    return path;
}

std::string
CheckpointPool::inflightPath(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t seq = inflightSeq++;
    return dir + "/" + keyName(key).substr(0, 16) + ".inflight." +
           std::to_string(seq) + ".ckpt";
}

bool
CheckpointPool::promote(std::uint64_t key,
                        const std::string &inflight_path)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (budget == 0 || hostFileSize(inflight_path) == 0) {
        discard(inflight_path);
        return false;
    }
    if (!promoteLocked(key, inflight_path, inflight_path))
        return false;
    enforceBudgetLocked();
    return sizes.count(key) != 0;
}

bool
CheckpointPool::promoteLocked(std::uint64_t key, const std::string &image,
                              const std::string &inflight_path)
{
    std::string previous = checkpointPreviousGeneration(inflight_path);
    std::string pool = poolPath(key);
    // The rotate and the promote are checked separately: a failed
    // rotation must not be masked by a successful promote, which
    // would destroy the generation the fallback path depends on, and
    // a failed promote must not strand the in-flight file while the
    // slot is still indexed.
    if (hostFileExists(pool)) {
        IoStatus rotated = hostRename(
            pool, checkpointPreviousGeneration(pool), durability);
        if (!rotated) {
            warn(msg() << "checkpoint pool: cannot rotate '" << pool
                       << "': " << rotated.message
                       << " (keeping the existing image)");
            discard(inflight_path);
            refreshSizeLocked(key);
            return false;
        }
    }
    IoStatus moved = hostRename(image, pool, durability);
    if (!moved) {
        warn(msg() << "checkpoint pool: cannot promote '" << image
                   << "': " << moved.message);
        discard(inflight_path);
        // The slot may now hold only the rotated generation; re-stat
        // so the index never points at files that are not there.
        refreshSizeLocked(key);
        return false;
    }
    // The log moves after the image: until it does, the rotated
    // generation keeps the log it was written with.
    std::string log = checkpointLogPath(inflight_path);
    if (hostFileExists(log)) {
        IoStatus logged =
            hostRename(log, checkpointLogPath(pool), durability);
        if (!logged) {
            warn(msg() << "checkpoint pool: cannot promote '" << log
                       << "': " << logged.message);
            discard(inflight_path);
            refreshSizeLocked(key);
            return false;
        }
    }
    // The generation that was not renamed is stale now.
    hostRemoveBestEffort(image == inflight_path ? previous
                                                : inflight_path);
    touchLocked(key);
    refreshSizeLocked(key);
    return true;
}

void
CheckpointPool::discard(const std::string &inflight_path)
{
    hostRemoveBestEffort(inflight_path);
    hostRemoveBestEffort(checkpointPreviousGeneration(inflight_path));
    hostRemoveBestEffort(checkpointLogPath(inflight_path));
}

std::uint64_t
CheckpointPool::bytesUsed() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = 0;
    for (const auto &[key, size] : sizes)
        total += size;
    return total;
}

std::size_t
CheckpointPool::entries() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return sizes.size();
}

std::uint64_t
CheckpointPool::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return evicted;
}

void
CheckpointPool::refreshSizeLocked(std::uint64_t key)
{
    std::string path = poolPath(key);
    std::uint64_t images =
        hostFileSize(path) +
        hostFileSize(checkpointPreviousGeneration(path));
    if (images == 0) {
        lru.remove(key);
        sizes.erase(key);
        return;
    }
    sizes[key] = images + hostFileSize(checkpointLogPath(path));
}

void
CheckpointPool::touchLocked(std::uint64_t key)
{
    lru.remove(key);
    lru.push_front(key);
}

void
CheckpointPool::enforceBudgetLocked()
{
    std::uint64_t used = 0;
    for (const auto &[key, size] : sizes)
        used += size;
    while (used > budget && !lru.empty()) {
        std::uint64_t victim = lru.back();
        lru.pop_back();
        std::uint64_t size = sizes[victim];
        std::string path = poolPath(victim);
        hostRemoveBestEffort(path);
        hostRemoveBestEffort(checkpointPreviousGeneration(path));
        hostRemoveBestEffort(checkpointLogPath(path));
        sizes.erase(victim);
        used -= size;
        ++evicted;
    }
}

} // namespace softwatt::serve
