#include "sim/host_io.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace softwatt
{

namespace fs = std::filesystem;

const char *
durabilityName(Durability durability)
{
    switch (durability) {
      case Durability::Buffered:
        return "buffered";
      case Durability::Full:
        return "full";
    }
    return "?";
}

Durability
durabilityFromName(const std::string &name, bool &ok)
{
    ok = true;
    if (name == "buffered")
        return Durability::Buffered;
    if (name == "full")
        return Durability::Full;
    ok = false;
    return Durability::Buffered;
}

const char *
ioOpName(IoOpKind kind)
{
    switch (kind) {
      case IoOpKind::Open:
        return "open";
      case IoOpKind::Write:
        return "write";
      case IoOpKind::Flush:
        return "flush";
      case IoOpKind::Sync:
        return "sync";
      case IoOpKind::Rename:
        return "rename";
      case IoOpKind::Remove:
        return "remove";
      case IoOpKind::DirSync:
        return "dirsync";
    }
    return "?";
}

const char *
crashVariantName(CrashVariant variant)
{
    switch (variant) {
      case CrashVariant::SyncedOnly:
        return "synced-only";
      case CrashVariant::Everything:
        return "everything";
      case CrashVariant::TornTail:
        return "torn-tail";
    }
    return "?";
}

struct HostIo::Impl
{
    std::mutex mutex;
    IoFaultPolicy policy;
    Random rng;
    std::uint64_t ops = 0;
    std::uint64_t bytesWritten = 0;
    bool cut = false;  ///< crash-at-op latch: power is "lost".
    bool logging = false;
    std::vector<IoRecord> log;
};

HostIo &
HostIo::instance()
{
    static HostIo io;
    return io;
}

HostIo::Impl &
HostIo::impl() const
{
    static Impl state;
    return state;
}

void
HostIo::setFaultPolicy(const IoFaultPolicy &policy)
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.policy = policy;
    s.rng = Random(policy.seed);
    s.ops = 0;
    s.bytesWritten = 0;
    s.cut = false;
}

void
HostIo::clearFaultPolicy()
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.policy = IoFaultPolicy{};
    s.cut = false;
}

bool
HostIo::powerLost() const
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.cut;
}

std::uint64_t
HostIo::opsIssued() const
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.ops;
}

void
HostIo::startRecording()
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.log.clear();
    s.logging = true;
}

std::vector<IoRecord>
HostIo::stopRecording()
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.logging = false;
    std::vector<IoRecord> out;
    out.swap(s.log);
    return out;
}

bool
HostIo::recording() const
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.logging;
}

IoStatus
HostIo::gate(IoOpKind kind, const std::string &path,
             const std::string &path2, const std::string *data,
             bool truncate, bool *torn, std::size_t *kept)
{
    Impl &s = impl();
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.ops;
    const std::size_t size = data ? data->size() : 0;
    std::size_t keep = size;

    if (s.policy.enabled) {
        const IoFaultPolicy &p = s.policy;
        if (s.cut ||
            (p.crashAtOp != 0 && s.ops > p.crashAtOp)) {
            s.cut = true;
            return IoStatus::failure(
                msg() << ioOpName(kind) << " '" << path
                      << "': simulated power cut "
                      << "(io_fault_crash_at_op)");
        }
        bool writeLike = kind == IoOpKind::Open ||
                         kind == IoOpKind::Write;
        if (p.enospcAfterBytes != 0 && kind == IoOpKind::Write &&
            s.bytesWritten + size > p.enospcAfterBytes) {
            return IoStatus::failure(
                msg() << "write '" << path << "': no space left on "
                      << "device (simulated ENOSPC, byte budget "
                      << p.enospcAfterBytes << " exhausted)");
        }
        if (p.errorRate > 0 && s.rng.chance(p.errorRate)) {
            return IoStatus::failure(msg()
                                     << ioOpName(kind) << " '" << path
                                     << "': input/output error "
                                     << "(injected EIO)");
        }
        if (p.enospcRate > 0 && writeLike &&
            s.rng.chance(p.enospcRate)) {
            return IoStatus::failure(
                msg() << ioOpName(kind) << " '" << path
                      << "': no space left on device "
                      << "(injected ENOSPC)");
        }
        if (p.shortWriteRate > 0 && kind == IoOpKind::Write &&
            size > 0 && s.rng.chance(p.shortWriteRate)) {
            keep = std::size_t(s.rng.below(size));
        }
        if (p.tornRenameRate > 0 && kind == IoOpKind::Rename &&
            s.rng.chance(p.tornRenameRate)) {
            if (torn)
                *torn = true;
        }
    }

    if (kind == IoOpKind::Write)
        s.bytesWritten += keep;
    if (kept)
        *kept = keep;

    if (s.logging) {
        IoRecord record;
        record.kind = kind;
        record.path = path;
        record.path2 = path2;
        if (data)
            record.data.assign(*data, 0, keep);
        record.truncate = truncate;
        s.log.push_back(std::move(record));
    }
    return IoStatus::good();
}

namespace
{

std::string
errnoText()
{
    return std::strerror(errno);
}

/** True when the parent directory entry for @p path was created by
 *  this open (used to decide whether to dir-sync under Full). */
bool
openCreatesEntry(const std::string &path)
{
    return ::access(path.c_str(), F_OK) != 0;
}

} // namespace

HostFile::~HostFile()
{
    close();
}

IoStatus
HostFile::open(const std::string &path, bool truncate,
               Durability durability)
{
    SW_CHECK(fd < 0, "HostFile::open on an already-open file");
    bool fresh = openCreatesEntry(path);
    IoStatus gated = HostIo::instance().gate(
        IoOpKind::Open, path, "", nullptr, truncate, nullptr,
        nullptr);
    if (!gated)
        return gated;
    int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
    fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        return IoStatus::failure(msg() << "open '" << path
                                       << "': " << errnoText());
    }
    filePath = path;
    if (durability == Durability::Full && fresh) {
        // Persist the new directory entry itself: without this a
        // power cut can forget the file ever existed even after its
        // bytes were fdatasync'd.
        IoStatus dir = hostSyncDir(hostParentDir(path));
        if (!dir)
            return dir;
    }
    return IoStatus::good();
}

IoStatus
HostFile::write(const std::string &bytes)
{
    SW_CHECK(fd >= 0, "HostFile::write on a closed file");
    std::size_t kept = bytes.size();
    IoStatus gated = HostIo::instance().gate(
        IoOpKind::Write, filePath, "", &bytes, false, nullptr, &kept);
    if (!gated)
        return gated;
    std::size_t done = 0;
    while (done < kept) {
        ssize_t n = ::write(fd, bytes.data() + done, kept - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return IoStatus::failure(msg() << "write '" << filePath
                                           << "': " << errnoText());
        }
        done += std::size_t(n);
    }
    if (kept < bytes.size()) {
        // The kept prefix really hit the disk (that is the point:
        // readers must cope with the torn record), but the writer
        // is told the truth.
        return IoStatus::failure(
            msg() << "write '" << filePath << "': short write ("
                  << kept << " of " << bytes.size()
                  << " bytes; injected fault)");
    }
    return IoStatus::good();
}

IoStatus
HostFile::flush()
{
    SW_CHECK(fd >= 0, "HostFile::flush on a closed file");
    // Unbuffered fd writes have nothing to flush; the op is gated
    // and recorded so fault schedules and op logs see the boundary.
    return HostIo::instance().gate(IoOpKind::Flush, filePath, "",
                                   nullptr, false, nullptr, nullptr);
}

IoStatus
HostFile::sync()
{
    SW_CHECK(fd >= 0, "HostFile::sync on a closed file");
    IoStatus gated = HostIo::instance().gate(
        IoOpKind::Sync, filePath, "", nullptr, false, nullptr,
        nullptr);
    if (!gated)
        return gated;
    if (::fdatasync(fd) != 0) {
        return IoStatus::failure(msg() << "fdatasync '" << filePath
                                       << "': " << errnoText());
    }
    return IoStatus::good();
}

void
HostFile::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
        filePath.clear();
    }
}

IoStatus
hostWriteFileAtomic(const std::string &path, const std::string &bytes,
                    Durability durability)
{
    std::string tmp = path + ".tmp";
    HostFile file;
    IoStatus st = file.open(tmp, true, durability);
    if (st)
        st = file.write(bytes);
    if (st && durability == Durability::Full)
        st = file.sync();
    file.close();
    if (!st) {
        hostRemoveBestEffort(tmp);
        return st;
    }
    st = hostRename(tmp, path, durability);
    if (!st)
        hostRemoveBestEffort(tmp);
    return st;
}

IoStatus
hostRename(const std::string &from, const std::string &to,
           Durability durability)
{
    bool torn = false;
    IoStatus gated = HostIo::instance().gate(
        IoOpKind::Rename, from, to, nullptr, false, &torn, nullptr);
    if (!gated)
        return gated;
    if (torn) {
        // Model a rename a power cut caught half-way: the source
        // entry is gone but the destination is a zero-length stub
        // instead of the complete file.
        std::ofstream stub(to, std::ios::binary | std::ios::trunc);
        stub.close();
        ::unlink(from.c_str());
        return IoStatus::failure(
            msg() << "rename '" << from << "' -> '" << to
                  << "': torn rename (injected fault)");
    }
    if (::rename(from.c_str(), to.c_str()) != 0) {
        return IoStatus::failure(msg() << "rename '" << from
                                       << "' -> '" << to
                                       << "': " << errnoText());
    }
    if (durability == Durability::Full)
        return hostSyncDir(hostParentDir(to));
    return IoStatus::good();
}

IoStatus
hostRemove(const std::string &path)
{
    IoStatus gated = HostIo::instance().gate(
        IoOpKind::Remove, path, "", nullptr, false, nullptr,
        nullptr);
    if (!gated)
        return gated;
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
        return IoStatus::failure(msg() << "remove '" << path
                                       << "': " << errnoText());
    }
    return IoStatus::good();
}

void
hostRemoveBestEffort(const std::string &path)
{
    IoStatus st = hostRemove(path);
    (void)st;
}

IoStatus
hostSyncDir(const std::string &dir)
{
    IoStatus gated = HostIo::instance().gate(
        IoOpKind::DirSync, dir, "", nullptr, false, nullptr,
        nullptr);
    if (!gated)
        return gated;
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        return IoStatus::failure(msg() << "open dir '" << dir
                                       << "': " << errnoText());
    }
    IoStatus st = IoStatus::good();
    if (::fsync(fd) != 0) {
        st = IoStatus::failure(msg() << "fsync dir '" << dir
                                     << "': " << errnoText());
    }
    ::close(fd);
    return st;
}

bool
hostFileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

std::uint64_t
hostFileSize(const std::string &path)
{
    std::error_code ec;
    std::uint64_t size = std::uint64_t(fs::file_size(path, ec));
    return ec ? 0 : size;
}

std::string
hostParentDir(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

namespace
{

/** One file's content in the replay model: the volatile (page
 *  cache) view and the snapshot as of its last fsync. Shared so a
 *  rename carries the durable snapshot with the inode. */
struct ReplayInode
{
    std::string vol;
    std::string dur;
    bool synced = false;
};

using InodePtr = std::shared_ptr<ReplayInode>;

} // namespace

void
replayCrashPrefix(const std::vector<IoRecord> &log,
                  std::size_t prefix, CrashVariant variant,
                  const std::string &recordRoot,
                  const std::string &scratchRoot)
{
    if (prefix > log.size())
        prefix = log.size();

    // Two views of the namespace: VOL has every op applied; DUR has
    // only what crossed a barrier. A Sync persists an inode's bytes
    // and (ext4 journalling-like) its directory entry; Rename and
    // Remove stay volatile until a DirSync covers their directory.
    std::map<std::string, InodePtr> volFs;
    std::map<std::string, InodePtr> durFs;

    for (std::size_t i = 0; i < prefix; ++i) {
        const IoRecord &op = log[i];
        switch (op.kind) {
          case IoOpKind::Open: {
              InodePtr &slot = volFs[op.path];
              if (!slot)
                  slot = std::make_shared<ReplayInode>();
              if (op.truncate)
                  slot->vol.clear();
              break;
          }
          case IoOpKind::Write: {
              InodePtr &slot = volFs[op.path];
              if (!slot)
                  slot = std::make_shared<ReplayInode>();
              slot->vol += op.data;
              break;
          }
          case IoOpKind::Flush:
              break;
          case IoOpKind::Sync: {
              auto it = volFs.find(op.path);
              if (it == volFs.end())
                  break;
              it->second->dur = it->second->vol;
              it->second->synced = true;
              durFs[op.path] = it->second;
              break;
          }
          case IoOpKind::Rename: {
              auto it = volFs.find(op.path);
              if (it == volFs.end())
                  break;
              volFs[op.path2] = it->second;
              volFs.erase(it);
              break;
          }
          case IoOpKind::Remove:
              volFs.erase(op.path);
              break;
          case IoOpKind::DirSync: {
              // Persist this directory's entries: DUR's view of the
              // directory becomes VOL's.
              for (auto it = durFs.begin(); it != durFs.end();) {
                  if (hostParentDir(it->first) == op.path &&
                      !volFs.count(it->first))
                      it = durFs.erase(it);
                  else
                      ++it;
              }
              for (const auto &[path, inode] : volFs) {
                  if (hostParentDir(path) == op.path)
                      durFs[path] = inode;
              }
              break;
          }
        }
    }

    // Pick the surviving content per the variant.
    std::map<std::string, std::string> files;
    if (variant == CrashVariant::SyncedOnly) {
        for (const auto &[path, inode] : durFs) {
            // An entry persisted by a dir-sync whose bytes never
            // crossed an fsync comes back zero-length.
            files[path] = inode->synced ? inode->dur : std::string();
        }
    } else {
        for (const auto &[path, inode] : volFs) {
            if (variant == CrashVariant::Everything) {
                files[path] = inode->vol;
                continue;
            }
            const std::string &vol = inode->vol;
            std::size_t base =
                inode->synced
                    ? std::min(inode->dur.size(), vol.size())
                    : 0;
            std::size_t unsynced = vol.size() - base;
            files[path] = vol.substr(0, base + (unsynced + 1) / 2);
        }
    }

    // Materialize into the scratch root, rewriting the recording
    // root prefix. Directories are assumed to predate the recorded
    // session, so every path's parent is created even when the file
    // itself did not survive.
    std::error_code ec;
    fs::remove_all(scratchRoot, ec);
    fs::create_directories(scratchRoot, ec);
    SW_CHECK(!ec, "replayCrashPrefix: cannot create scratch root");

    auto mapPath = [&](const std::string &path) {
        SW_CHECK(path.compare(0, recordRoot.size(), recordRoot) == 0,
                 "replayCrashPrefix: op path outside record root: " +
                     path);
        return scratchRoot + path.substr(recordRoot.size());
    };

    for (std::size_t i = 0; i < prefix; ++i) {
        const IoRecord &op = log[i];
        if (!op.path.empty() && op.kind != IoOpKind::DirSync)
            fs::create_directories(hostParentDir(mapPath(op.path)),
                                   ec);
        if (!op.path2.empty())
            fs::create_directories(hostParentDir(mapPath(op.path2)),
                                   ec);
    }

    for (const auto &[path, content] : files) {
        std::string mapped = mapPath(path);
        fs::create_directories(hostParentDir(mapped), ec);
        std::ofstream out(mapped, std::ios::binary | std::ios::trunc);
        out.write(content.data(), std::streamsize(content.size()));
        out.flush();
        SW_CHECK(out.good(),
                 "replayCrashPrefix: cannot materialize " + mapped);
    }
}

} // namespace softwatt
