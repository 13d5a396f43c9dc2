#include "sim/checkpoint.hh"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "sim/logging.hh"

namespace softwatt
{

namespace
{

constexpr char checkpointMagic[6] = {'S', 'W', 'C', 'K', 'P', 'T'};

/** Magic, version, fingerprint, CPU model and chunk count. */
constexpr std::size_t headerBytes = sizeof(checkpointMagic) + 2 + 8 + 1 + 4;

/** Per-chunk framing besides the name: name length, payload length
 *  and checksum. */
constexpr std::size_t chunkFramingBytes = 4 + 8 + 8;

/** Practical ceilings that keep a damaged length field from driving
 *  a multi-gigabyte allocation before the checksum catches it. */
constexpr std::uint64_t maxChunkBytes = 1ull << 32;
constexpr std::uint32_t maxChunks = 1u << 16;
constexpr std::uint32_t maxNameBytes = 1u << 12;

void
putLeFile(std::string &out, std::uint64_t value, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(char(std::uint8_t(value >> (8 * i))));
}

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

/** The whole file in one sized read. */
std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!in || ec) {
        throw CheckpointError(msg() << "checkpoint: cannot open '"
                                    << path << "' for reading");
    }
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
    std::uint64_t state = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= data[i];
        state *= 0x100000001b3ull;
    }
    return state;
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
writeCheckpoint(const std::string &path,
                const CheckpointImage &image, Durability durability)
{
    // Sized up front, so each payload is copied once: into the file
    // image, which the host-I/O seam hands to write(2) as it is.
    std::size_t size = headerBytes;
    for (const CheckpointChunk &chunk : image.chunks)
        size += chunkFramingBytes + chunk.name.size() +
                chunk.payload.size();
    std::string bytes;
    bytes.reserve(size);
    bytes.append(checkpointMagic, sizeof(checkpointMagic));
    putLeFile(bytes, image.version, 2);
    putLeFile(bytes, image.configFingerprint, 8);
    putLeFile(bytes, image.cpuModel, 1);
    putLeFile(bytes, std::uint32_t(image.chunks.size()), 4);
    for (const CheckpointChunk &chunk : image.chunks) {
        putLeFile(bytes, std::uint32_t(chunk.name.size()), 4);
        bytes.append(chunk.name);
        putLeFile(bytes, std::uint64_t(chunk.payload.size()), 8);
        putLeFile(bytes,
                  fnv1a64(chunk.payload.data(),
                          chunk.payload.size()),
                  8);
        bytes.append(
            reinterpret_cast<const char *>(chunk.payload.data()),
            chunk.payload.size());
    }

    // Temp-then-rename through the host-I/O seam: under
    // Durability::Full the temp file is fsynced before the rename
    // and the parent directory afterwards, so a power cut can never
    // leave a zero-length or torn file under the final name.
    IoStatus status = hostWriteFileAtomic(path, bytes, durability);
    if (!status) {
        throw CheckpointError(msg() << "checkpoint: cannot write '"
                                    << path
                                    << "': " << status.message);
    }
}

std::string
checkpointPreviousGeneration(const std::string &path)
{
    return path + ".1";
}

void
autosaveCheckpoint(const std::string &path,
                   const CheckpointImage &image,
                   Durability durability)
{
    // Rotate the current file to the previous generation first; the
    // write itself goes through tmp+rename, so at every instant at
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
    writeCheckpoint(path, image, durability);
}

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
        if (payload_len > maxChunkBytes) {
            throw CheckpointError(
                msg() << "checkpoint '" << path << "': implausible "
                      << "payload length " << payload_len
                      << " in chunk '" << chunk.name << "'");
        }
        std::uint64_t checksum = cursor.le(8);
        const std::uint8_t *payload = cursor.raw(payload_len);
        if (fnv1a64(payload, payload_len) != checksum) {
            throw CheckpointError(
                msg() << "checkpoint '" << path << "': checksum "
                      << "mismatch in chunk '" << chunk.name << "'");
        }
        chunk.payload.assign(payload, payload + payload_len);
        image.chunks.push_back(std::move(chunk));
    }
    if (!cursor.atEnd()) {
        throw CheckpointError(msg()
                              << "checkpoint '" << path
                              << "': trailing garbage after the last "
                              << "chunk");
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
