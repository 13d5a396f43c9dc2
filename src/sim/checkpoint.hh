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
 *   logBytes         u64      length of the log prefix the image uses
 *   logChecksum      u64      checksum64 of that prefix
 *   chunkCount       u32
 *   chunk*           chunkCount times:
 *     nameLen        u32
 *     name           nameLen bytes
 *     payloadLen     u64
 *     checksum       u64      checksum64 of the payload bytes
 *     payload        payloadLen bytes
 *
 * The log is an append-only file beside the image, "<path>.log"
 * (checkpointLogPath), holding the bytes a machine only ever appends
 * to: its closed sample windows. Both autosave generations, "<path>"
 * and "<path>.1", share it; each image uses the first logBytes bytes,
 * so an autosave writes its fixed state plus only the log bytes added
 * since the previous one, and restore reads only the prefix it needs.
 * Bytes past an image's prefix are ignored.
 *
 * Corruption (truncation, flipped bytes, bad magic, a log shorter than
 * the recorded prefix or a prefix that fails its checksum) raises
 * CheckpointError and is recoverable by falling back to an older
 * autosave generation; a version or fingerprint mismatch raises
 * CheckpointMismatch and is rejected outright — no older generation
 * of the same file can fix an incompatible configuration.
 */

#ifndef SOFTWATT_SIM_CHECKPOINT_HH
#define SOFTWATT_SIM_CHECKPOINT_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
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
 * stores counter cells as varints; version 3 checksums each payload
 * by the word (checksum64). Older images are rejected as a
 * CheckpointMismatch and no reader for them is kept.
 */
constexpr std::uint16_t checkpointFormatVersion = 3;

/**
 * FNV-1a-64 of a byte range, one byte per step: the configuration
 * fingerprints and journal keys, which must not move.
 */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t size);

/**
 * The payload checksum: FNV-1a-64 over the little-endian 8-byte
 * words of a byte range, then over its byte tail one byte per step.
 * Like the byte-wise hash, it detects any single changed word, but it
 * takes one multiply per word instead of one per byte. A range
 * shorter than a word hashes as fnv1a64 does.
 */
std::uint64_t checksum64(const std::uint8_t *data, std::size_t size);

/**
 * checksum64 of a buffer that only grows: each call folds in only the
 * whole words added since the previous call, so checksumming a log on
 * every autosave never rehashes what it hashed before.
 */
class RunningChecksum
{
  public:
    /** checksum64(@p data, @p size); the bytes passed to earlier calls
     *  must still lead @p data. */
    std::uint64_t of(const std::uint8_t *data, std::size_t size);

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
    /** Bytes folded into state: whole words only. */
    std::size_t hashed = 0;
};

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
        std::size_t at = buffer.size();
        buffer.resize(at + n);
        if (n > 0)
            std::memcpy(buffer.data() + at, data, n);
    }

    const std::vector<std::uint8_t> &bytes() const { return buffer; }

    /** Bytes written so far. */
    std::size_t size() const { return buffer.size(); }

    /** Drop the bytes but keep their storage for the next use. */
    void clear() { buffer.clear(); }

    /** Overwrite the @p n bytes at @p at with @p value, little-endian:
     *  a length or checksum known only after what it frames. */
    void overwriteLe(std::size_t at, std::uint64_t value, int n);

    /** Hand the accumulated bytes over, leaving the writer empty. */
    std::vector<std::uint8_t> release() { return std::move(buffer); }

  private:
    /** One append per value, not one per byte. */
    void
    putLe(std::uint64_t value, int n)
    {
        std::uint8_t le[8];
        for (int i = 0; i < n; ++i)
            le[i] = std::uint8_t(value >> (8 * i));
        raw(le, std::size_t(n));
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
    /** The log prefix the image uses; empty when it uses none. */
    std::vector<std::uint8_t> log;

    /** Append a chunk, taking over the writer's bytes. */
    void add(const std::string &name, ChunkWriter &&writer);

    /** Find a chunk by name; nullptr when absent. */
    const CheckpointChunk *find(const std::string &name) const;
};

/**
 * Serializes checkpoint images straight into one file buffer, which
 * every image written through the same writer reuses: each chunk's
 * payload is written once, in place, and its length and checksum are
 * filled in after it. The writer also remembers how much of which log
 * it last wrote, so an autosave appends only the log bytes that are
 * new since then.
 */
class CheckpointWriter
{
  public:
    /** Start a new image in the buffer: its header. */
    void begin(std::uint64_t fingerprint, std::uint8_t cpu_model,
               std::uint16_t version = checkpointFormatVersion);

    /** Append the chunk @p name; @p fill writes its payload. */
    template <typename Fill>
    void
    chunk(std::string_view name, Fill &&fill)
    {
        std::size_t framing = openChunk(name);
        fill(file);
        closeChunk(framing);
    }

    /**
     * Write the image begun last, using all of @p log (whose
     * checksum64 is @p log_checksum), as the only generation at
     * @p path. The log goes whole to checkpointLogPath(@p path), then
     * the image to @p path, each atomically: the bytes go to
     * "<file>.tmp", which is renamed over the file, so a crash
     * mid-write never leaves a half-written file under its final
     * name. Under Durability::Full each temp file is fsynced before
     * its rename and the parent directory after it, so both also
     * survive a power cut. Throws CheckpointError on I/O failure (the
     * temp files are cleaned up and the files keep their previous
     * complete contents).
     */
    void write(const std::string &path,
               const std::vector<std::uint8_t> &log,
               std::uint64_t log_checksum, Durability durability);

    /**
     * Autosave the image begun last, using all of @p log, to @p path,
     * keeping the last two generations: the previous @p path (if any)
     * is rotated to "<path>.1" first, so a crash — or corruption of
     * the newest image — can always fall back one generation. Then
     * the log is brought up to date: when this writer wrote
     * checkpointLogPath(@p path) last and the file still has the
     * length it left, only the bytes of @p log past that length are
     * appended (and fsynced under Durability::Full); otherwise the
     * whole log is written atomically, so a stale log another run
     * left is never extended. The image is written atomically last.
     * Appending never touches the prefix "<path>.1" uses. A failed
     * rotation is survivable (warn and overwrite in place, keeping a
     * single generation); a failed write throws CheckpointError with
     * the prior generation still intact on disk.
     */
    void autosave(const std::string &path,
                  const std::vector<std::uint8_t> &log,
                  std::uint64_t log_checksum, Durability durability);

    /** Write the next log whole, whatever this writer wrote before:
     *  the bytes it would append to may no longer lead the log. */
    void forgetLog() { loggedPath.clear(); }

  private:
    /** Write a chunk's framing and return where its lengths go. */
    std::size_t openChunk(std::string_view name);

    /** Fill in the framing at @p framing for the payload after it. */
    void closeChunk(std::size_t framing);

    /** Bring checkpointLogPath(@p path) up to @p log, appending when
     *  @p append and this writer left the file. */
    void writeLog(const std::string &path,
                  const std::vector<std::uint8_t> &log, bool append,
                  Durability durability);

    /** Record @p log in the header and write the image to @p path. */
    void writeImage(const std::string &path,
                    const std::vector<std::uint8_t> &log,
                    std::uint64_t log_checksum, Durability durability);

    ChunkWriter file;
    std::uint32_t chunks = 0;
    /** The log this writer wrote last ("" for none), and its length
     *  on disk then. */
    std::string loggedPath;
    std::uint64_t logged = 0;
};

/** CheckpointWriter::write of @p image and its log. */
void writeCheckpoint(const std::string &path,
                     const CheckpointImage &image,
                     Durability durability = Durability::Buffered);

/** CheckpointWriter::autosave of @p image and its log, by a writer
 *  that has written nothing before. */
void autosaveCheckpoint(const std::string &path,
                        const CheckpointImage &image,
                        Durability durability = Durability::Buffered);

/** The log beside the checkpoint at @p path ("<path>.log"), which
 *  both of its generations use. */
std::string checkpointLogPath(const std::string &path);

/** The older-generation autosave path for @p path ("<path>.1"). */
std::string checkpointPreviousGeneration(const std::string &path);

/**
 * Parse and fully verify a checkpoint file: magic, version, chunk
 * framing and every payload checksum, then the prefix of the log the
 * header records, read from checkpointLogPath(@p path) (for a rotated
 * generation "<base>.1" without a log of its own, from the log it
 * shares, checkpointLogPath("<base>")) and checked as a chunk is: a
 * short log is truncation, a damaged prefix a checksum mismatch.
 * Throws CheckpointMismatch on an unsupported version and
 * CheckpointError on any damage, the log's included.
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
