#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "sim/logging.hh"

namespace softwatt
{

namespace
{

constexpr char checkpointMagic[6] = {'S', 'W', 'C', 'K', 'P', 'T'};

constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

/** Where the header keeps the log prefix's length and checksum:
 *  after the magic, the version, the fingerprint and the CPU model. */
constexpr std::size_t logRefAt = sizeof(checkpointMagic) + 2 + 8 + 1;

/** Where the header keeps the chunk count, after the log reference. */
constexpr std::size_t chunkCountAt = logRefAt + 8 + 8;

/** Practical ceilings that keep a damaged length field from driving
 *  a multi-gigabyte allocation before the checksum catches it. */
constexpr std::uint64_t maxChunkBytes = 1ull << 32;
constexpr std::uint32_t maxChunks = 1u << 16;
constexpr std::uint32_t maxNameBytes = 1u << 12;

class FileCursor
{
  public:
    FileCursor(const std::vector<std::uint8_t> &bytes,
               const std::string &path)
        : data(bytes), file(path)
    {}

    std::uint64_t
    le(int n)
    {
        const std::uint8_t *at = raw(std::uint64_t(n));
        std::uint64_t value = 0;
        for (int i = 0; i < n; ++i)
            value |= std::uint64_t(at[i]) << (8 * i);
        return value;
    }

    /** The next @p n bytes, in place. */
    const std::uint8_t *
    raw(std::uint64_t n)
    {
        if (data.size() - cursor < n)
            truncated();
        const std::uint8_t *at = data.data() + cursor;
        cursor += n;
        return at;
    }

    bool atEnd() const { return cursor == data.size(); }

  private:
    [[noreturn]] void
    truncated() const
    {
        throw CheckpointError(msg()
                              << "checkpoint '" << file
                              << "' is truncated (at byte " << cursor
                              << " of " << data.size() << ")");
    }

    const std::vector<std::uint8_t> &data;
    std::string file;
    std::size_t cursor = 0;
};

/** The file's first @p limit bytes, or all of a shorter file, in one
 *  sized read. */
std::vector<std::uint8_t>
readFileBytes(const std::string &path,
              std::uintmax_t limit = ~std::uintmax_t(0))
{
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!in || ec) {
        throw CheckpointError(msg() << "checkpoint: cannot open '"
                                    << path << "' for reading");
    }
    size = std::min(size, limit);
    std::vector<std::uint8_t> bytes(size);
    in.read(reinterpret_cast<char *>(bytes.data()),
            std::streamsize(size));
    if (std::uintmax_t(in.gcount()) != size) {
        throw CheckpointError(msg() << "checkpoint: read error on '"
                                    << path << "'");
    }
    return bytes;
}

} // namespace

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t state = fnvOffsetBasis;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= data[i];
        state *= fnvPrime;
    }
    return state;
}

std::uint64_t
checksum64(const std::uint8_t *data, std::size_t size)
{
    return RunningChecksum().of(data, size);
}

std::uint64_t
RunningChecksum::of(const std::uint8_t *data, std::size_t size)
{
    for (; hashed + 8 <= size; hashed += 8) {
        std::uint64_t word = 0;
        for (int b = 0; b < 8; ++b)
            word |= std::uint64_t(data[hashed + b]) << (8 * b);
        state = (state ^ word) * fnvPrime;
    }
    std::uint64_t tail = state;
    for (std::size_t i = hashed; i < size; ++i)
        tail = (tail ^ data[i]) * fnvPrime;
    return tail;
}

void
ChunkWriter::f64(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
}

void
ChunkWriter::str(const std::string &text)
{
    u32(std::uint32_t(text.size()));
    for (char c : text)
        buffer.push_back(std::uint8_t(c));
}

double
ChunkReader::f64()
{
    std::uint64_t bits = u64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
ChunkReader::str()
{
    std::uint32_t len = u32();
    need(len);
    // data() + cursor, not &data[cursor]: an empty string may end
    // the payload, where operator[] would index one past the end.
    std::string out(reinterpret_cast<const char *>(data.data() + cursor),
                    len);
    cursor += len;
    return out;
}

std::uint64_t
ChunkReader::varintTail()
{
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        std::uint8_t byte = u8();
        // The tenth byte holds bit 63 only: anything more overflows.
        if (shift == 63 && byte > 1) {
            throw CheckpointError(msg() << "chunk '" << name
                                        << "': varint overflows 64 "
                                        << "bits");
        }
        value |= std::uint64_t(byte & 0x7f) << shift;
        if (byte < 0x80) {
            if (byte == 0) {
                throw CheckpointError(msg() << "chunk '" << name
                                            << "': overlong varint");
            }
            return value;
        }
    }
    throw CheckpointError(msg() << "chunk '" << name
                                << "': varint overflows 64 bits");
}

void
ChunkReader::need(std::size_t n) const
{
    if (data.size() - cursor < n) {
        throw CheckpointError(
            msg() << "chunk '" << name << "': payload underrun ("
                  << n << " bytes needed, " << (data.size() - cursor)
                  << " left)");
    }
}

void
ChunkReader::finish() const
{
    if (cursor != data.size()) {
        throw CheckpointError(
            msg() << "chunk '" << name << "': "
                  << (data.size() - cursor)
                  << " trailing bytes after deserialization");
    }
}

void
CheckpointImage::add(const std::string &name, ChunkWriter &&writer)
{
    chunks.push_back(CheckpointChunk{name, writer.release()});
}

const CheckpointChunk *
CheckpointImage::find(const std::string &name) const
{
    for (const CheckpointChunk &chunk : chunks) {
        if (chunk.name == name)
            return &chunk;
    }
    return nullptr;
}

void
ChunkWriter::overwriteLe(std::size_t at, std::uint64_t value, int n)
{
    for (int i = 0; i < n; ++i)
        buffer[at + std::size_t(i)] = std::uint8_t(value >> (8 * i));
}

void
CheckpointWriter::begin(std::uint64_t fingerprint,
                        std::uint8_t cpu_model, std::uint16_t version)
{
    // The header in one insert: magic, version, fingerprint, CPU
    // model, the log reference filled in at write time, and a chunk
    // count that each chunk bumps.
    std::uint8_t header[chunkCountAt + 4] = {};
    std::memcpy(header, checkpointMagic, sizeof(checkpointMagic));
    for (int i = 0; i < 2; ++i)
        header[6 + i] = std::uint8_t(version >> (8 * i));
    for (int i = 0; i < 8; ++i)
        header[8 + i] = std::uint8_t(fingerprint >> (8 * i));
    header[16] = cpu_model;
    file.clear();
    file.raw(header, sizeof(header));
    chunks = 0;
}

std::size_t
CheckpointWriter::openChunk(std::string_view name)
{
    file.overwriteLe(chunkCountAt, ++chunks, 4);
    file.u32(std::uint32_t(name.size()));
    file.raw(reinterpret_cast<const std::uint8_t *>(name.data()),
             name.size());
    std::size_t framing = file.size();
    file.u64(0);  // payload length
    file.u64(0);  // checksum
    return framing;
}

void
CheckpointWriter::closeChunk(std::size_t framing)
{
    std::size_t payload = framing + 16;
    std::size_t length = file.size() - payload;
    file.overwriteLe(framing, length, 8);
    file.overwriteLe(framing + 8,
                     checksum64(file.bytes().data() + payload, length),
                     8);
}

namespace
{

[[noreturn]] void
cannotWrite(const std::string &path, const IoStatus &status)
{
    throw CheckpointError(msg() << "checkpoint: cannot write '" << path
                                << "': " << status.message);
}

} // namespace

void
CheckpointWriter::writeLog(const std::string &path,
                           const std::vector<std::uint8_t> &log,
                           bool append, Durability durability)
{
    // An image that uses no log never reads one.
    if (log.empty())
        return;
    std::string log_path = checkpointLogPath(path);
    bool appending = append && loggedPath == log_path &&
                     logged <= log.size() &&
                     hostFileSize(log_path) == logged;
    if (appending && logged == log.size())
        return;
    loggedPath.clear();
    IoStatus status;
    if (appending) {
        // Only bytes past every prefix an image on disk uses.
        HostFile out;
        status = out.open(log_path, false, durability);
        if (status)
            status = out.write(std::string_view(
                reinterpret_cast<const char *>(log.data()) + logged,
                log.size() - logged));
        if (status && durability == Durability::Full)
            status = out.sync();
    } else {
        // Temp-then-rename through the host-I/O seam: under
        // Durability::Full the temp file is fsynced before the rename
        // and the parent directory afterwards, so a power cut can
        // never leave a zero-length or torn file under the final
        // name.
        status = hostWriteFileAtomic(log_path, log.data(), log.size(),
                                     durability);
    }
    if (!status)
        cannotWrite(log_path, status);
    loggedPath = log_path;
    logged = log.size();
}

void
CheckpointWriter::writeImage(const std::string &path,
                             const std::vector<std::uint8_t> &log,
                             std::uint64_t log_checksum,
                             Durability durability)
{
    file.overwriteLe(logRefAt, log.size(), 8);
    file.overwriteLe(logRefAt + 8, log_checksum, 8);
    const std::vector<std::uint8_t> &bytes = file.bytes();
    IoStatus status = hostWriteFileAtomic(path, bytes.data(), bytes.size(),
                                          durability);
    if (!status)
        cannotWrite(path, status);
}

void
CheckpointWriter::write(const std::string &path,
                        const std::vector<std::uint8_t> &log,
                        std::uint64_t log_checksum,
                        Durability durability)
{
    writeLog(path, log, false, durability);
    writeImage(path, log, log_checksum, durability);
}

std::string
checkpointPreviousGeneration(const std::string &path)
{
    return path + ".1";
}

std::string
checkpointLogPath(const std::string &path)
{
    return path + ".log";
}

void
CheckpointWriter::autosave(const std::string &path,
                           const std::vector<std::uint8_t> &log,
                           std::uint64_t log_checksum,
                           Durability durability)
{
    // Rotate the current image to the previous generation first; the
    // write itself goes through tmp+rename, and the log only grows
    // past the prefix the rotated image uses, so at every instant at
    // least one complete generation exists on disk. A rotation
    // failure is survivable — the overwrite still lands atomically,
    // the pool just keeps a single generation for this cycle — so
    // warn instead of failing the autosave.
    std::string previous = checkpointPreviousGeneration(path);
    if (hostFileExists(path)) {
        hostRemoveBestEffort(previous);
        IoStatus rotated = hostRename(path, previous, durability);
        if (!rotated) {
            warn(msg() << "checkpoint: cannot rotate '" << path
                       << "' to '" << previous
                       << "' (keeping a single generation): "
                       << rotated.message);
        }
    }
    writeLog(path, log, true, durability);
    writeImage(path, log, log_checksum, durability);
}

namespace
{

/** A writer holding @p image, serialized. */
CheckpointWriter
serialized(const CheckpointImage &image)
{
    CheckpointWriter writer;
    writer.begin(image.configFingerprint, image.cpuModel,
                 image.version);
    for (const CheckpointChunk &chunk : image.chunks) {
        writer.chunk(chunk.name, [&chunk](ChunkWriter &w) {
            w.raw(chunk.payload.data(), chunk.payload.size());
        });
    }
    return writer;
}

} // namespace

void
writeCheckpoint(const std::string &path,
                const CheckpointImage &image, Durability durability)
{
    serialized(image).write(
        path, image.log, checksum64(image.log.data(), image.log.size()),
        durability);
}

void
autosaveCheckpoint(const std::string &path,
                   const CheckpointImage &image,
                   Durability durability)
{
    serialized(image).autosave(
        path, image.log, checksum64(image.log.data(), image.log.size()),
        durability);
}

namespace
{

/**
 * The next @p length bytes at @p cursor, once they match @p checksum:
 * the payload of chunk @p name of the checkpoint at @p path.
 */
const std::uint8_t *
verifiedPayload(FileCursor &cursor, std::uint64_t length,
                std::uint64_t checksum, const std::string &path,
                const std::string &name)
{
    if (length > maxChunkBytes) {
        throw CheckpointError(
            msg() << "checkpoint '" << path << "': implausible "
                  << "payload length " << length << " in chunk '"
                  << name << "'");
    }
    const std::uint8_t *payload = cursor.raw(length);
    if (checksum64(payload, length) != checksum) {
        throw CheckpointError(
            msg() << "checkpoint '" << path << "': checksum "
                  << "mismatch in chunk '" << name << "'");
    }
    return payload;
}

} // namespace

CheckpointImage
readCheckpoint(const std::string &path)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    FileCursor cursor(bytes, path);
    if (std::memcmp(cursor.raw(sizeof(checkpointMagic)),
                    checkpointMagic, sizeof(checkpointMagic)) != 0) {
        throw CheckpointError(msg() << "'" << path << "' is not a "
                                    << "SoftWatt checkpoint (bad "
                                    << "magic)");
    }

    CheckpointImage image;
    image.version = std::uint16_t(cursor.le(2));
    if (image.version != checkpointFormatVersion) {
        throw CheckpointMismatch(
            msg() << "checkpoint '" << path << "' has format version "
                  << image.version << "; this build reads version "
                  << checkpointFormatVersion);
    }
    image.configFingerprint = cursor.le(8);
    image.cpuModel = std::uint8_t(cursor.le(1));
    std::uint64_t log_bytes = cursor.le(8);
    std::uint64_t log_checksum = cursor.le(8);

    std::uint32_t count = std::uint32_t(cursor.le(4));
    if (count > maxChunks) {
        throw CheckpointError(msg() << "checkpoint '" << path
                                    << "': implausible chunk count "
                                    << count);
    }
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t name_len = std::uint32_t(cursor.le(4));
        if (name_len > maxNameBytes) {
            throw CheckpointError(
                msg() << "checkpoint '" << path << "': implausible "
                      << "chunk name length " << name_len);
        }
        CheckpointChunk chunk;
        chunk.name.assign(
            reinterpret_cast<const char *>(cursor.raw(name_len)),
            name_len);
        std::uint64_t payload_len = cursor.le(8);
        std::uint64_t checksum = cursor.le(8);
        const std::uint8_t *payload = verifiedPayload(
            cursor, payload_len, checksum, path, chunk.name);
        chunk.payload.assign(payload, payload + payload_len);
        image.chunks.push_back(std::move(chunk));
    }
    if (!cursor.atEnd()) {
        throw CheckpointError(msg()
                              << "checkpoint '" << path
                              << "': trailing garbage after the last "
                              << "chunk");
    }

    // Only the prefix this image uses, checked as a chunk is: what
    // the log holds past it belongs to newer images, or to none. A
    // rotated generation "<base>.1" without a log of its own shares
    // its base's.
    if (log_bytes > 0) {
        std::string log_path = checkpointLogPath(path);
        const std::string rotated = checkpointPreviousGeneration("");
        if (!hostFileExists(log_path) && path.size() > rotated.size() &&
            path.compare(path.size() - rotated.size(), rotated.size(),
                         rotated) == 0) {
            log_path = checkpointLogPath(
                path.substr(0, path.size() - rotated.size()));
        }
        image.log = readFileBytes(log_path, log_bytes);
        FileCursor log(image.log, log_path);
        verifiedPayload(log, log_bytes, log_checksum, path, log_path);
    }
    return image;
}

std::uint16_t
peekCheckpointVersion(const std::string &path)
{
    std::uint8_t header[sizeof(checkpointMagic) + 2] = {};
    std::ifstream in(path, std::ios::binary);
    if (!in.read(reinterpret_cast<char *>(header), sizeof(header)))
        return 0;
    if (std::memcmp(header, checkpointMagic, sizeof(checkpointMagic)) != 0)
        return 0;
    return std::uint16_t(header[6] | (header[7] << 8));
}

} // namespace softwatt
