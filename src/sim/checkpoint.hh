/**
 * @file
 * Versioned, chunked binary machine checkpoints.
 *
 * A checkpoint file holds the complete state of a simulated machine at
 * a quiescent point, one length-prefixed and checksummed chunk per
 * component, so a run can be restored and continued bit-identically to
 * an uninterrupted execution (SimOS-style save/restore; the paper's
 * warm-start methodology hands such an image from the fast in-order
 * model to the detailed superscalar model).
 *
 * File layout (all integers little-endian):
 *
 *   magic            6 bytes  "SWCKPT"
 *   version          u16      checkpointFormatVersion
 *   fingerprint      u64      machine+workload config fingerprint
 *   cpuModel         u8       CpuModel the image was taken under
 *   chunkCount       u32
 *   chunk*           chunkCount times:
 *     nameLen        u32
 *     name           nameLen bytes
 *     payloadLen     u64
 *     checksum       u64      FNV-1a-64 of the payload bytes
 *     payload        payloadLen bytes
 *
 * Corruption (truncation, flipped bytes, bad magic) raises
 * CheckpointError and is recoverable by falling back to an older
 * autosave generation; a version or fingerprint mismatch raises
 * CheckpointMismatch and is rejected outright — no older generation
 * of the same file can fix an incompatible configuration.
 */

#ifndef SOFTWATT_SIM_CHECKPOINT_HH
#define SOFTWATT_SIM_CHECKPOINT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/host_io.hh"

namespace softwatt
{

/** Recoverable checkpoint damage: truncation, bit flips, I/O errors. */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Unrecoverable incompatibility: unknown format version, or an image
 * written under a different machine/workload configuration. Retrying
 * an older generation cannot help; callers must reject the restore.
 */
class CheckpointMismatch : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/**
 * Bumped whenever the chunk contents change incompatibly. Version 2
 * stores counter cells as varints; older images are rejected as a
 * CheckpointMismatch and no reader for them is kept.
 */
constexpr std::uint16_t checkpointFormatVersion = 2;

/** FNV-1a-64 of a byte range (the per-chunk payload checksum). */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t size);

/**
 * Little-endian byte-stream builder for one chunk payload.
 *
 * Doubles are stored by bit pattern, so every value — including NaNs
 * and signed zeros — round-trips exactly. varint() stores an unsigned
 * value as minimal LEB128 (seven bits per byte, low group first), so
 * small values — above all the zero counter cells that dominate a
 * sample log — take one byte.
 */
class ChunkWriter
{
  public:
    void u8(std::uint8_t value) { buffer.push_back(value); }

    void
    u16(std::uint16_t value)
    {
        putLe(value, 2);
    }

    void
    u32(std::uint32_t value)
    {
        putLe(value, 4);
    }

    void
    u64(std::uint64_t value)
    {
        putLe(value, 8);
    }

    void
    varint(std::uint64_t value)
    {
        while (value >= 0x80) {
            buffer.push_back(std::uint8_t(value | 0x80));
            value >>= 7;
        }
        buffer.push_back(std::uint8_t(value));
    }

    void b(bool value) { u8(value ? 1 : 0); }

    void f64(double value);

    void str(const std::string &text);

    /** Append @p n bytes as they are, with no length prefix. */
    void
    raw(const std::uint8_t *data, std::size_t n)
    {
        buffer.insert(buffer.end(), data, data + n);
    }

    const std::vector<std::uint8_t> &bytes() const { return buffer; }

    /** Hand the accumulated bytes over, leaving the writer empty. */
    std::vector<std::uint8_t> release() { return std::move(buffer); }

  private:
    void
    putLe(std::uint64_t value, int n)
    {
        for (int i = 0; i < n; ++i)
            buffer.push_back(std::uint8_t(value >> (8 * i)));
    }

    std::vector<std::uint8_t> buffer;
};

/**
 * Cursor over one chunk payload. Reading past the end throws
 * CheckpointError, so a damaged (but checksum-colliding) or
 * version-skewed payload fails loudly instead of yielding garbage.
 * varint() also throws on an encoding ChunkWriter::varint never
 * produces: more than 64 bits, or a redundant trailing zero group.
 */
class ChunkReader
{
  public:
    ChunkReader(const std::vector<std::uint8_t> &payload,
                std::string chunk_name)
        : data(payload), name(std::move(chunk_name))
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return data[cursor++];
    }

    std::uint16_t u16() { return std::uint16_t(getLe(2)); }
    std::uint32_t u32() { return std::uint32_t(getLe(4)); }
    std::uint64_t u64() { return getLe(8); }

    std::uint64_t
    varint()
    {
        need(1);
        if (data[cursor] < 0x80)
            return data[cursor++];
        return varintTail();
    }

    bool b() { return u8() != 0; }

    double f64();

    std::string str();

    /** The next @p n bytes, in place; ChunkWriter::raw's mirror. */
    const std::uint8_t *
    raw(std::size_t n)
    {
        need(n);
        const std::uint8_t *at = data.data() + cursor;
        cursor += n;
        return at;
    }

    /** The remaining() bytes not yet consumed, in place; consumes
     *  nothing. */
    const std::uint8_t *unread() const { return data.data() + cursor; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return data.size() - cursor; }

    /** Throws unless the payload was consumed exactly. */
    void finish() const;

  private:
    void need(std::size_t n) const;

    /** varint() past its one-byte fast path. */
    std::uint64_t varintTail();

    std::uint64_t
    getLe(int n)
    {
        need(std::size_t(n));
        std::uint64_t value = 0;
        for (int i = 0; i < n; ++i)
            value |= std::uint64_t(data[cursor++]) << (8 * i);
        return value;
    }

    const std::vector<std::uint8_t> &data;
    std::string name;
    std::size_t cursor = 0;
};

/**
 * Serialize/deserialize interface implemented by every stateful
 * layer of the machine (CPUs, caches, TLB, page table, disk, kernel,
 * workload, event queue, counters, sample log).
 *
 * Contract: loadState() must consume exactly the bytes saveState()
 * produced, and a component restored from its own saved state must
 * behave bit-identically to one that never stopped.
 */
class Checkpointable
{
  public:
    virtual ~Checkpointable() = default;

    virtual void saveState(ChunkWriter &out) const = 0;
    virtual void loadState(ChunkReader &in) = 0;
};

/** One named component payload inside an image. */
struct CheckpointChunk
{
    std::string name;
    std::vector<std::uint8_t> payload;
};

/** In-memory form of a checkpoint file. */
struct CheckpointImage
{
    std::uint16_t version = checkpointFormatVersion;
    std::uint64_t configFingerprint = 0;
    std::uint8_t cpuModel = 0;
    std::vector<CheckpointChunk> chunks;

    /** Append a chunk, taking over the writer's bytes. */
    void add(const std::string &name, ChunkWriter &&writer);

    /** Find a chunk by name; nullptr when absent. */
    const CheckpointChunk *find(const std::string &name) const;
};

/**
 * Serialize @p image to @p path atomically: the bytes are written to
 * "<path>.tmp" and renamed over @p path, so a crash mid-write never
 * leaves a half-written file under the final name. Under
 * Durability::Full the temp file is fsynced before the rename and
 * the parent directory after it, so the image also survives a power
 * cut. Throws CheckpointError on I/O failure (the temp file is
 * cleaned up and @p path keeps its previous complete contents).
 */
void writeCheckpoint(const std::string &path,
                     const CheckpointImage &image,
                     Durability durability = Durability::Buffered);

/**
 * Autosave @p image to @p path keeping the last two generations:
 * the previous @p path (if any) is rotated to "<path>.1" before the
 * atomic write, so a crash — or corruption of the newest file — can
 * always fall back one generation. A failed rotation is survivable
 * (warn and overwrite in place, keeping a single generation); a
 * failed write throws CheckpointError with the prior generation
 * still intact on disk.
 */
void autosaveCheckpoint(const std::string &path,
                        const CheckpointImage &image,
                        Durability durability = Durability::Buffered);

/** The older-generation autosave path for @p path ("<path>.1"). */
std::string checkpointPreviousGeneration(const std::string &path);

/**
 * Parse and fully verify a checkpoint file: magic, version, chunk
 * framing and every payload checksum. Throws CheckpointMismatch on an
 * unsupported version and CheckpointError on any damage.
 */
CheckpointImage readCheckpoint(const std::string &path);

/**
 * The format version in @p path's header, read without verifying
 * anything past it; 0 when the file cannot be read, is too short or
 * lacks the magic.
 */
std::uint16_t peekCheckpointVersion(const std::string &path);

} // namespace softwatt

#endif // SOFTWATT_SIM_CHECKPOINT_HH
