/**
 * @file
 * Tests for machine checkpoint/restore: the chunked file format
 * (round-trips, checksums, truncation and bit-flip detection,
 * version gating), autosave generation rotation, restore-and-continue
 * bit-identity against an uninterrupted reference, corruption
 * fallback to the previous generation, fingerprint rejection, and
 * warm-start model switching (in-order image into the superscalar
 * model).
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "sim/counters.hh"
#include "sim/host_io.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "os/file_system.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

#include "quiet_log.hh"

using namespace softwatt;

namespace
{

/** Per-test scratch path (ctest runs tests concurrently in one dir). */
std::string
scratch(const std::string &name)
{
    return "checkpoint_" + name;
}

void
removeCheckpoint(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(checkpointPreviousGeneration(path).c_str());
    std::remove(checkpointLogPath(path).c_str());
    std::remove((path + ".tmp").c_str());
}

std::vector<std::uint8_t>
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

/** A small but complete machine with the jess benchmark attached. */
std::unique_ptr<System>
makeSystem(CpuModel model = CpuModel::Superscalar,
           double scale = 0.03)
{
    SystemConfig config;
    config.sampleWindow = 20'000;
    config.cpuModel = model;
    auto sys = std::make_unique<System>(config);
    WorkloadSpec spec =
        scaleWorkload(benchmarkSpec(Benchmark::Jess), scale);
    sys->attachWorkload(std::make_unique<Workload>(spec));
    return sys;
}

/** Autosave cadence that fires several times inside a tiny run. */
constexpr double tinyCadenceS = 0.0003;  // 60k cycles at 200 MHz

/**
 * Everything observable about a finished run, rendered bit-exactly
 * (doubles in hexfloat): tick, instruction and cycle totals, the
 * full sample log, the complete counter matrix, and disk activity.
 */
std::string
finalStateSignature(System &sys)
{
    std::ostringstream out;
    out << std::hexfloat;
    out << sys.now() << ':' << sys.cpu().committedInsts() << ':'
        << sys.detailedCycles() << ':' << sys.fastForwardedCycles()
        << ':' << sys.diskEnergyJ() << ':'
        << sys.disk().spinUps() << ':'
        << sys.kernel().diskFaults() << ':';
    for (ExecMode m : allExecModes) {
        for (int c = 0; c < numCounters; ++c)
            out << sys.totals().get(m, CounterId(c)) << ',';
    }
    sys.log().writeCsv(out);
    return out.str();
}

/** A sample image with a couple of hand-built chunks. */
CheckpointImage
sampleImage()
{
    CheckpointImage image;
    image.configFingerprint = 0x1122334455667788ull;
    image.cpuModel = 1;
    ChunkWriter a;
    a.u64(42);
    a.str("hello");
    image.add("alpha", std::move(a));
    ChunkWriter b;
    for (int i = 0; i < 100; ++i)
        b.u8(std::uint8_t(i));
    image.add("beta", std::move(b));
    return image;
}

} // namespace

TEST(CheckpointFormat, Fnv1a64KnownVectors)
{
    // Reference values of the 64-bit FNV-1a test suite.
    EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
    const std::uint8_t a[] = {'a'};
    EXPECT_EQ(fnv1a64(a, 1), 0xaf63dc4c8601ec8cull);
    const std::uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
    EXPECT_EQ(fnv1a64(foobar, 6), 0x85944171f73967e8ull);
}

TEST(CheckpointFormat, Checksum64HashesWordsThenTheTail)
{
    // Shorter than a word, the tail is all there is.
    const std::uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
    EXPECT_EQ(checksum64(foobar, 6), fnv1a64(foobar, 6));
    EXPECT_EQ(checksum64(nullptr, 0), fnv1a64(nullptr, 0));

    // One FNV-1a step per little-endian word, then one per tail byte.
    std::vector<std::uint8_t> bytes(21);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = std::uint8_t(i * 37 + 1);
    std::uint64_t state = 0xcbf29ce484222325ull;
    for (std::size_t w = 0; w < 2; ++w) {
        std::uint64_t word = 0;
        for (int b = 7; b >= 0; --b)
            word = (word << 8) | bytes[8 * w + std::size_t(b)];
        state = (state ^ word) * 0x100000001b3ull;
    }
    for (std::size_t i = 16; i < bytes.size(); ++i)
        state = (state ^ bytes[i]) * 0x100000001b3ull;
    EXPECT_EQ(checksum64(bytes.data(), bytes.size()), state);

    // Any single changed word, or tail byte, changes the checksum.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[i] ^= 0x40;
        EXPECT_NE(checksum64(flipped.data(), flipped.size()), state)
            << "byte " << i;
    }
}

TEST(CheckpointFormat, ChunkRoundTripsPrimitives)
{
    ChunkWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.b(true);
    w.b(false);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(1.0 / 3.0);
    w.str("chunky");
    w.str("");

    ChunkReader r(w.bytes(), "test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_EQ(r.f64(), 1.0 / 3.0);
    EXPECT_EQ(r.str(), "chunky");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_NO_THROW(r.finish());
}

TEST(CheckpointFormat, VarintRoundTripsAtMinimalLength)
{
    struct Case
    {
        std::uint64_t value;
        std::size_t bytes;
    };
    const Case cases[] = {
        {0, 1},
        {1, 1},
        {127, 1},
        {128, 2},
        {16'383, 2},
        {16'384, 3},
        {std::uint64_t(1) << 63, 10},
        {std::numeric_limits<std::uint64_t>::max(), 10},
    };
    for (const Case &c : cases) {
        ChunkWriter w;
        w.varint(c.value);
        EXPECT_EQ(w.bytes().size(), c.bytes) << c.value;
        ChunkReader r(w.bytes(), "varint");
        EXPECT_EQ(r.varint(), c.value);
        EXPECT_NO_THROW(r.finish());
    }
}

TEST(CheckpointFormat, OverlongAndOverflowingVarintsThrow)
{
    const std::vector<std::vector<std::uint8_t>> bad = {
        {0x80, 0x00},                    // redundant zero group
        {0xff, 0x80, 0x00},              // same, one group later
        {0x80},                          // continuation, then EOF
        {0xff, 0xff, 0xff, 0xff, 0xff,   // tenth byte sets bit 64
         0xff, 0xff, 0xff, 0xff, 0x02},
        {0xff, 0xff, 0xff, 0xff, 0xff,   // eleven bytes
         0xff, 0xff, 0xff, 0xff, 0x81, 0x00},
        {0x80, 0x80, 0x80, 0x80, 0x80,   // ten bytes, last one zero
         0x80, 0x80, 0x80, 0x80, 0x00},
    };
    for (const std::vector<std::uint8_t> &bytes : bad) {
        ChunkReader r(bytes, "varint");
        EXPECT_THROW(r.varint(), CheckpointError) << bytes.size();
    }
}

TEST(CheckpointFormat, CounterBankStoresZeroCellsInOneByte)
{
    CounterBank bank;
    bank.setMode(ExecMode::KernelSync);
    bank.addTo(ExecMode::User, CounterId::Cycles, 300);
    bank.addTo(ExecMode::Idle, CounterId::DiskGiveUp,
               std::numeric_limits<std::uint64_t>::max());
    ChunkWriter w;
    bank.saveState(w);
    // The u32 mode, 126 one-byte zeros, 300 in two bytes and the
    // all-ones cell in ten.
    EXPECT_EQ(w.bytes().size(),
              CounterBank::minEncodedBytes - 2 + 2 + 10);

    CounterBank loaded;
    ChunkReader r(w.bytes(), "counters");
    loaded.loadState(r);
    r.finish();
    EXPECT_EQ(loaded.mode(), ExecMode::KernelSync);
    EXPECT_EQ(loaded.raw(), bank.raw());
}

TEST(CheckpointFormat, ReaderOverrunAndLeftoverThrow)
{
    ChunkWriter w;
    w.u32(7);
    {
        ChunkReader r(w.bytes(), "short");
        r.u16();
        EXPECT_THROW(r.u32(), CheckpointError);
    }
    {
        ChunkReader r(w.bytes(), "leftover");
        r.u16();
        EXPECT_THROW(r.finish(), CheckpointError);
    }
}

TEST(CheckpointFormat, FileRoundTripsImage)
{
    const std::string path = scratch("roundtrip.ckpt");
    removeCheckpoint(path);
    CheckpointImage image = sampleImage();
    writeCheckpoint(path, image);

    CheckpointImage loaded = readCheckpoint(path);
    EXPECT_EQ(loaded.version, checkpointFormatVersion);
    EXPECT_EQ(loaded.configFingerprint, image.configFingerprint);
    EXPECT_EQ(loaded.cpuModel, image.cpuModel);
    ASSERT_EQ(loaded.chunks.size(), 2u);
    ASSERT_NE(loaded.find("alpha"), nullptr);
    ASSERT_NE(loaded.find("beta"), nullptr);
    EXPECT_EQ(loaded.find("alpha")->payload,
              image.find("alpha")->payload);
    EXPECT_EQ(loaded.find("beta")->payload,
              image.find("beta")->payload);
    EXPECT_EQ(loaded.find("gamma"), nullptr);
    removeCheckpoint(path);
}

TEST(CheckpointFormat, TruncationIsDetected)
{
    const std::string path = scratch("truncated.ckpt");
    removeCheckpoint(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    ASSERT_GT(bytes.size(), 40u);
    // Cut inside the last chunk's payload.
    bytes.resize(bytes.size() - 10);
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointError);
    removeCheckpoint(path);
}

TEST(CheckpointFormat, FlippedPayloadByteIsDetected)
{
    const std::string path = scratch("flipped.ckpt");
    removeCheckpoint(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    // Flip one byte near the end (inside the beta payload), leaving
    // the framing intact so only the checksum can catch it.
    bytes[bytes.size() - 5] ^= 0x40;
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointError);
    removeCheckpoint(path);
}

TEST(CheckpointFormat, BadMagicIsDetected)
{
    const std::string path = scratch("magic.ckpt");
    removeCheckpoint(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    bytes[0] = 'X';
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointError);
    removeCheckpoint(path);
}

TEST(CheckpointFormat, UnsupportedVersionIsMismatch)
{
    const std::string path = scratch("version.ckpt");
    removeCheckpoint(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    // The u16 version sits right after the 6-byte magic.
    bytes[6] = 0xff;
    bytes[7] = 0xff;
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointMismatch);
    removeCheckpoint(path);
}

TEST(CheckpointFormat, MissingFileIsCheckpointError)
{
    EXPECT_THROW(readCheckpoint(scratch("nonexistent.ckpt")),
                 CheckpointError);
}

TEST(CheckpointFormat, AutosaveKeepsTwoGenerations)
{
    const std::string path = scratch("generations.ckpt");
    removeCheckpoint(path);

    CheckpointImage first = sampleImage();
    first.configFingerprint = 1;
    autosaveCheckpoint(path, first);
    EXPECT_EQ(readCheckpoint(path).configFingerprint, 1u);
    // No previous generation yet.
    EXPECT_THROW(readCheckpoint(checkpointPreviousGeneration(path)),
                 CheckpointError);

    CheckpointImage second = sampleImage();
    second.configFingerprint = 2;
    autosaveCheckpoint(path, second);
    EXPECT_EQ(readCheckpoint(path).configFingerprint, 2u);
    EXPECT_EQ(readCheckpoint(checkpointPreviousGeneration(path))
                  .configFingerprint,
              1u);

    CheckpointImage third = sampleImage();
    third.configFingerprint = 3;
    autosaveCheckpoint(path, third);
    EXPECT_EQ(readCheckpoint(path).configFingerprint, 3u);
    EXPECT_EQ(readCheckpoint(checkpointPreviousGeneration(path))
                  .configFingerprint,
              2u);
    removeCheckpoint(path);
}

namespace softwatt
{

/** Test names print the CPU model ("InOrder", "Superscalar"). */
void
PrintTo(CpuModel model, std::ostream *out)
{
    *out << (model == CpuModel::InOrder ? "InOrder" : "Superscalar");
}

} // namespace softwatt

/** Restore tests run on both CPU models. */
class CheckpointRestoreModel : public ::testing::TestWithParam<CpuModel>
{
};

INSTANTIATE_TEST_SUITE_P(
    Models, CheckpointRestoreModel,
    ::testing::Values(CpuModel::Superscalar, CpuModel::InOrder));

TEST_P(CheckpointRestoreModel, RestoreAndContinueIsBitIdentical)
{
    // In-order runs fold stall spans, which must stop short of every
    // checkpoint tick for the restored trajectory to match.
    const CpuModel model = GetParam();
    const std::string path =
        scratch(model == CpuModel::InOrder ? "continue-inorder.ckpt"
                                           : "continue.ckpt");
    const std::string older_path =
        scratch(model == CpuModel::InOrder ? "continue-older-inorder.ckpt"
                                           : "continue-older.ckpt");
    removeCheckpoint(path);

    // Reference: uninterrupted run with periodic autosave. The final
    // autosave on disk is a mid-run state some windows before the
    // end.
    std::unique_ptr<System> reference = makeSystem(model);
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 3u);
    const std::string expected = finalStateSignature(*reference);

    // Restore the newest autosave into a fresh machine and continue
    // under the same cadence: every observable must match the
    // uninterrupted reference bit for bit.
    std::unique_ptr<System> restored = makeSystem(model);
    restored->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(restored->restoreCheckpoint(path));
    EXPECT_TRUE(restored->restored());
    EXPECT_GT(restored->now(), 0u);
    ASSERT_TRUE(restored->run().ok());
    EXPECT_EQ(finalStateSignature(*restored), expected);

    // The previous generation restores and reproduces the reference
    // as well (one more autosave happens on the way).
    std::unique_ptr<System> older = makeSystem(model);
    older->setCheckpointPolicy(tinyCadenceS, older_path);
    ASSERT_TRUE(
        older->restoreCheckpoint(checkpointPreviousGeneration(path)));
    ASSERT_TRUE(older->run().ok());
    EXPECT_EQ(finalStateSignature(*older), expected);

    removeCheckpoint(path);
    removeCheckpoint(older_path);
}

TEST(CheckpointRestore, CorruptLatestFallsBackOneGeneration)
{
    QuietLog quiet;
    const std::string path = scratch("fallback.ckpt");
    removeCheckpoint(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 2u);
    const std::string expected = finalStateSignature(*reference);

    // Both generations read one log; the older one has none of its
    // own.
    const std::string older = checkpointPreviousGeneration(path);
    ASSERT_FALSE(readCheckpoint(older).log.empty());
    EXPECT_FALSE(hostFileExists(checkpointLogPath(older)));

    // Flip a payload byte in the newest generation.
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    bytes[bytes.size() / 2] ^= 0x01;
    writeBytes(path, bytes);

    std::unique_ptr<System> restored = makeSystem();
    restored->setCheckpointPolicy(
        tinyCadenceS, scratch("fallback-b.ckpt"));
    ASSERT_TRUE(restored->restoreCheckpoint(path));
    std::unique_ptr<System> direct = makeSystem();
    ASSERT_TRUE(direct->restoreCheckpoint(older));
    EXPECT_EQ(restored->now(), direct->now());
    ASSERT_TRUE(restored->run().ok());
    EXPECT_EQ(finalStateSignature(*restored), expected);

    removeCheckpoint(path);
    removeCheckpoint(scratch("fallback-b.ckpt"));
}

TEST(CheckpointRestore, DamagedLogPrefixFallsBackOneGeneration)
{
    QuietLog quiet;
    const std::string path = scratch("log-damage.ckpt");
    const std::string log = checkpointLogPath(path);
    removeCheckpoint(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 2u);
    const std::string expected = finalStateSignature(*reference);
    const std::vector<std::uint8_t> good = slurpBytes(log);
    const std::size_t newest = readCheckpoint(path).log.size();
    const std::size_t older =
        readCheckpoint(checkpointPreviousGeneration(path)).log.size();
    ASSERT_EQ(newest, good.size());
    ASSERT_LT(older, newest);

    // The tick each generation restores to.
    auto tickOf = [&](const std::string &image) {
        std::unique_ptr<System> sys = makeSystem();
        EXPECT_TRUE(sys->restoreCheckpoint(image));
        return sys->now();
    };
    const Tick newest_tick = tickOf(path);
    const Tick older_tick = tickOf(checkpointPreviousGeneration(path));
    ASSERT_LT(older_tick, newest_tick);

    std::vector<std::uint8_t> shorter(good.begin(),
                                      good.begin() + newest - 1);
    std::vector<std::uint8_t> flipped = good;
    flipped[(older + newest) / 2] ^= 0x10;
    std::vector<std::uint8_t> longer = good;
    longer.insert(longer.end(), 100, 0xee);
    std::vector<std::uint8_t> flipped_past = longer;
    flipped_past[newest + 10] ^= 0x10;
    const struct
    {
        const char *what;
        const std::vector<std::uint8_t> &log;
        Tick tick;
    } cases[] = {
        {"shorter than the newest prefix", shorter, older_tick},
        {"flipped inside the newest prefix only", flipped, older_tick},
        {"longer than the newest prefix", longer, newest_tick},
        {"flipped past the newest prefix", flipped_past, newest_tick},
    };
    for (const auto &c : cases) {
        writeBytes(log, c.log);
        std::unique_ptr<System> restored = makeSystem();
        restored->setCheckpointPolicy(tinyCadenceS,
                                      scratch("log-damage-b.ckpt"));
        ASSERT_TRUE(restored->restoreCheckpoint(path)) << c.what;
        EXPECT_EQ(restored->now(), c.tick) << c.what;
        ASSERT_TRUE(restored->run().ok()) << c.what;
        EXPECT_EQ(finalStateSignature(*restored), expected) << c.what;
        removeCheckpoint(scratch("log-damage-b.ckpt"));
    }

    // A log too short for either generation starts from scratch.
    writeBytes(log, std::vector<std::uint8_t>(good.begin(),
                                              good.begin() + older / 2));
    std::unique_ptr<System> fresh = makeSystem();
    EXPECT_FALSE(fresh->restoreCheckpoint(path));

    removeCheckpoint(path);
}

TEST(CheckpointAutosave, EachAutosaveWritesOnlyTheNewWindows)
{
    // In-order jess with short windows and a short cadence: many
    // autosaves, each closing several windows.
    const std::string path = scratch("constant-cost.ckpt");
    removeCheckpoint(path);
    SystemConfig config;
    config.cpuModel = CpuModel::InOrder;
    config.sampleWindow = 2'000;
    System sys(config);
    sys.attachWorkload(std::make_unique<Workload>(
        scaleWorkload(benchmarkSpec(Benchmark::Jess), 0.02)));
    sys.setCheckpointPolicy(0.0001, path);
    HostIo::instance().startRecording();
    RunResult result = sys.run();
    std::vector<IoRecord> ops = HostIo::instance().stopRecording();
    ASSERT_TRUE(result.ok());
    ASSERT_GE(sys.checkpointsTaken(), 10u);

    // Every recorded image must verify against the final log, so
    // each one's prefix is a prefix of it.
    const std::vector<std::uint8_t> &windows = sys.log().encoded();
    const std::string image_file = scratch("constant-cost.image");
    const std::string final_log = checkpointLogPath(image_file);
    writeBytes(final_log, windows);

    std::string image_tmp = path + ".tmp";
    std::vector<CheckpointImage> images;
    std::vector<std::size_t> image_bytes;
    std::string logged;  // log bytes written since the last image
    std::size_t prefix = 0;
    for (const IoRecord &op : ops) {
        if (op.kind != IoOpKind::Write)
            continue;
        if (op.path != image_tmp) {
            logged += op.data;
            continue;
        }
        writeBytes(image_file, std::vector<std::uint8_t>(
                                   op.data.begin(), op.data.end()));
        images.push_back(readCheckpoint(image_file));
        image_bytes.push_back(op.data.size());
        // Exactly the encoded windows closed since the last autosave.
        std::size_t now = images.back().log.size();
        ASSERT_GE(now, prefix);
        EXPECT_EQ(logged, std::string(windows.begin() + prefix,
                                      windows.begin() + now))
            << "autosave " << images.size();
        prefix = now;
        logged.clear();
    }
    ASSERT_EQ(images.size(), sys.checkpointsTaken());
    EXPECT_TRUE(logged.empty());

    // The last image is no larger than the first plus what its
    // chunks other than the sample log grew, though the log did grow.
    auto otherChunkBytes = [](const CheckpointImage &image) {
        std::size_t bytes = 0;
        for (const CheckpointChunk &chunk : image.chunks) {
            if (chunk.name != "sample-log")
                bytes += chunk.payload.size();
        }
        return bytes;
    };
    EXPECT_GT(images.back().log.size(), images.front().log.size());
    EXPECT_LE(image_bytes.back(),
              image_bytes.front() + otherChunkBytes(images.back()) -
                  otherChunkBytes(images.front()));

    removeCheckpoint(path);
    std::remove(final_log.c_str());
    std::remove(image_file.c_str());
}

TEST(CheckpointRestore, BothGenerationsCorruptStartsFromScratch)
{
    QuietLog quiet;
    const std::string path = scratch("scorched.ckpt");
    removeCheckpoint(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    const std::string expected = finalStateSignature(*reference);

    // Damage both generations.
    for (const std::string &p :
         {path, checkpointPreviousGeneration(path)}) {
        std::vector<std::uint8_t> bytes = slurpBytes(p);
        ASSERT_FALSE(bytes.empty());
        bytes.resize(bytes.size() / 2);
        writeBytes(p, bytes);
    }

    std::unique_ptr<System> fresh = makeSystem();
    fresh->setCheckpointPolicy(
        tinyCadenceS, scratch("scorched-b.ckpt"));
    EXPECT_FALSE(fresh->restoreCheckpoint(path));
    EXPECT_FALSE(fresh->restored());
    EXPECT_EQ(fresh->now(), 0u);
    // The run still completes — from scratch — and, because the
    // cadence matches, still reproduces the reference.
    ASSERT_TRUE(fresh->run().ok());
    EXPECT_EQ(finalStateSignature(*fresh), expected);

    removeCheckpoint(path);
    removeCheckpoint(scratch("scorched-b.ckpt"));
}

TEST(CheckpointRestore, FingerprintMismatchIsFatal)
{
    QuietLog quiet;
    const std::string path = scratch("mismatch.ckpt");
    removeCheckpoint(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 1u);

    // A different workload scale is a different machine as far as
    // restore is concerned; no autosave generation can fix it.
    std::unique_ptr<System> other =
        makeSystem(CpuModel::Superscalar, /*scale=*/0.04);
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(other->restoreCheckpoint(path), SimError);
    setErrorHandler(nullptr);
    removeCheckpoint(path);
}

TEST(CheckpointRestore, VersionOneImageIsRejected)
{
    QuietLog quiet;
    const std::string path = scratch("version-one.ckpt");
    removeCheckpoint(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 1u);

    // Version 1 stored counter cells as fixed u64s. No reader for it
    // is kept: its header alone gets the image refused as a
    // mismatch, which is fatal, not a fallback to an older
    // generation.
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    ASSERT_EQ(bytes[6], checkpointFormatVersion);
    bytes[6] = 1;
    bytes[7] = 0;
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointMismatch);

    std::unique_ptr<System> restored = makeSystem();
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(restored->restoreCheckpoint(path), SimError);
    setErrorHandler(nullptr);
    EXPECT_FALSE(restored->restored());
    removeCheckpoint(path);
}

namespace
{

/**
 * A real autosave of makeSystem() under the in-order model, with
 * chunk @p name replaced by @p payload and written back through
 * writeCheckpoint, so the hand-built payload carries a valid checksum
 * and reaches the component decoders.
 */
std::string
autosaveWithChunk(const std::string &file, const char *name,
                  ChunkWriter &&payload)
{
    // ctest runs each case as its own process in one directory, so
    // the source autosave is named after the caller's file: a fixed
    // name would let concurrent cases remove each other's source.
    static const CheckpointImage source = [&file] {
        const std::string path = scratch("source-" + file);
        removeCheckpoint(path);
        std::unique_ptr<System> reference =
            makeSystem(CpuModel::InOrder);
        reference->setCheckpointPolicy(tinyCadenceS, path);
        EXPECT_TRUE(reference->run().ok());
        CheckpointImage image = readCheckpoint(path);
        removeCheckpoint(path);
        return image;
    }();
    CheckpointImage image = source;
    for (CheckpointChunk &chunk : image.chunks) {
        if (chunk.name == name)
            chunk.payload = payload.release();
    }
    const std::string path = scratch(file);
    removeCheckpoint(path);
    writeCheckpoint(path, image);
    return path;
}

/** A counter bank with every cell zero. */
void
zeroBank(ChunkWriter &w, std::uint32_t mode)
{
    w.u32(mode);
    for (int cell = 0; cell < numExecModes * numCounters; ++cell)
        w.varint(0);
}

/** A "counters" chunk: the sink's bank, cycle mode and tag, then the
 *  totals bank. */
ChunkWriter
countersChunk(std::uint32_t bank_mode, std::uint8_t cycle_mode)
{
    ChunkWriter w;
    zeroBank(w, bank_mode);
    w.u8(cycle_mode);
    w.u32(0);
    zeroBank(w, 0);
    return w;
}

/** Restore @p path into a fresh in-order machine under the throwing
 *  handler; "restored", "refused" or the SimError text. */
std::string
restoreVerdict(const std::string &path)
{
    std::unique_ptr<System> sys = makeSystem(CpuModel::InOrder);
    setErrorHandler(throwingErrorHandler);
    std::string verdict;
    try {
        verdict = sys->restoreCheckpoint(path) ? "restored" : "refused";
    } catch (const SimError &err) {
        verdict = err.what();
    }
    setErrorHandler(nullptr);
    return verdict;
}

} // namespace

TEST(CheckpointLoadChecks, SampleLogCountBeyondPayloadIsDamage)
{
    // The count is checked against the log before the reserve: 2^60
    // windows used to throw std::length_error and 2^40
    // std::bad_alloc, neither of which restoreCheckpoint recognizes
    // as a bad image. A count the log holds more than is damage too.
    QuietLog quiet;
    const struct
    {
        std::uint64_t count;
        const char *error;
    } cases[] = {
        {std::uint64_t(1) << 60, "sample log claims"},
        {std::uint64_t(1) << 40, "sample log claims"},
        {1, "sample log claims 1 windows but its log holds"},
    };
    for (const auto &c : cases) {
        ChunkWriter log;
        log.u64(c.count);
        const std::string path = autosaveWithChunk(
            "sample-log-count.ckpt", "sample-log", std::move(log));
        std::string verdict = restoreVerdict(path);
        EXPECT_NE(verdict.find("verified but failed to apply"),
                  std::string::npos)
            << c.count << ": " << verdict;
        EXPECT_NE(verdict.find(c.error), std::string::npos)
            << c.count << ": " << verdict;
        removeCheckpoint(path);
    }
}

TEST(CheckpointLoadChecks, CounterSinkCycleModeOutOfRangeIsDamage)
{
    QuietLog quiet;
    const std::string path = autosaveWithChunk(
        "sink-mode.ckpt", "counters", countersChunk(0, 0));
    // The hand-built layout itself restores...
    EXPECT_EQ(restoreVerdict(path), "restored");
    removeCheckpoint(path);

    // ...but a cycle mode past the last ExecMode would index past the
    // counter matrix on the next addCycle().
    const std::string bad = autosaveWithChunk(
        "sink-mode.ckpt", "counters", countersChunk(0, 200));
    std::string verdict = restoreVerdict(bad);
    EXPECT_NE(verdict.find("counter sink cycle mode"),
              std::string::npos)
        << verdict;
    removeCheckpoint(bad);
}

TEST(CheckpointLoadChecks, CounterBankModeOutOfRangeIsDamage)
{
    QuietLog quiet;
    const std::string path = autosaveWithChunk(
        "bank-mode.ckpt", "counters",
        countersChunk(std::uint32_t(numExecModes), 0));
    std::string verdict = restoreVerdict(path);
    EXPECT_NE(verdict.find("counter bank mode"), std::string::npos)
        << verdict;
    removeCheckpoint(path);
}

TEST(CheckpointLoadChecks, FileSystemCountBeyondPayloadIsDamage)
{
    // The file table sits inside the kernel chunk; drive its decoder
    // directly from a payload that went through the verified reader.
    const std::string path = scratch("file-system-count.ckpt");
    removeCheckpoint(path);
    for (std::uint64_t count : {std::uint64_t(1) << 60,
                                std::uint64_t(1) << 40}) {
        CheckpointImage image;
        ChunkWriter files;
        files.u64(64);
        files.u64(count);
        files.u32(0);
        files.u64(4096);
        files.u64(64);
        image.add("file-system", std::move(files));
        writeCheckpoint(path, image);
        CheckpointImage loaded = readCheckpoint(path);
        ChunkReader reader(loaded.chunks.at(0).payload, "file-system");
        FileSystem fs;
        EXPECT_THROW(fs.loadState(reader), CheckpointError) << count;
    }
    removeCheckpoint(path);
}

TEST(CheckpointRestore, FingerprintIgnoresCpuModel)
{
    std::unique_ptr<System> inorder = makeSystem(CpuModel::InOrder);
    std::unique_ptr<System> superscalar =
        makeSystem(CpuModel::Superscalar);
    EXPECT_EQ(inorder->checkpointFingerprint(),
              superscalar->checkpointFingerprint());

    std::unique_ptr<System> scaled =
        makeSystem(CpuModel::Superscalar, /*scale=*/0.04);
    EXPECT_NE(superscalar->checkpointFingerprint(),
              scaled->checkpointFingerprint());
}

TEST(CheckpointRestore, WarmStartSwitchesCpuModel)
{
    const std::string path = scratch("warmstart.ckpt");
    removeCheckpoint(path);

    // Warm up under the fast in-order model...
    std::unique_ptr<System> warmup = makeSystem(CpuModel::InOrder);
    warmup->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(warmup->run().ok());
    ASSERT_GE(warmup->checkpointsTaken(), 1u);

    // ...and continue under the detailed superscalar model: caches,
    // TLB, disk, OS and workload state carry over, the core starts
    // cold. Two such restores must agree bit for bit.
    std::string signatures[2];
    for (int i = 0; i < 2; ++i) {
        std::unique_ptr<System> detailed =
            makeSystem(CpuModel::Superscalar);
        detailed->setCheckpointPolicy(
            tinyCadenceS, scratch("warmstart-b.ckpt"));
        ASSERT_TRUE(detailed->restoreCheckpoint(path));
        EXPECT_TRUE(detailed->restored());
        ASSERT_TRUE(detailed->run().ok());
        // The warm-started run begins where the in-order image
        // stopped and executes real work on the new core.
        EXPECT_GT(detailed->cpu().committedInsts(), 0u);
        signatures[i] = finalStateSignature(*detailed);
    }
    EXPECT_EQ(signatures[0], signatures[1]);

    removeCheckpoint(path);
    removeCheckpoint(scratch("warmstart-b.ckpt"));
}

TEST(CheckpointRestore, PolicyValidation)
{
    QuietLog quiet;
    std::unique_ptr<System> sys = makeSystem();
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(sys->setCheckpointPolicy(-1.0, "x.ckpt"), SimError);
    EXPECT_THROW(sys->setCheckpointPolicy(0.5, ""), SimError);
    setErrorHandler(nullptr);
    // Disabling never needs a path.
    EXPECT_NO_THROW(sys->setCheckpointPolicy(0.0, ""));
}

TEST(CheckpointRunner, FromArgsValidatesCheckpointKeys)
{
    QuietLog quiet;
    setErrorHandler(throwingErrorHandler);

    // checkpoint_every_s without out= has nowhere to autosave.
    Config no_out;
    no_out.set("checkpoint_every_s", 0.5);
    EXPECT_THROW(ExperimentSpec::fromArgs("t", no_out), SimError);

    Config negative;
    negative.set("checkpoint_every_s", -0.5);
    negative.set("out", std::string("r.json"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", negative), SimError);

    // restore= must name a readable file up front.
    Config missing;
    missing.set("restore", std::string("no-such-file.ckpt"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", missing), SimError);

    // restore= and resume=1 are different resumption mechanisms.
    const std::string ckpt = scratch("fromargs.ckpt");
    writeCheckpoint(ckpt, sampleImage());
    Config both;
    both.set("restore", ckpt);
    both.set("resume", std::int64_t(1));
    both.set("out", std::string("r.json"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", both), SimError);
    setErrorHandler(nullptr);

    // The valid combination parses.
    Config good;
    good.set("checkpoint_every_s", 0.5);
    good.set("out", std::string("r.json"));
    good.set("restore", ckpt);
    ExperimentSpec spec = ExperimentSpec::fromArgs("t", good);
    EXPECT_EQ(spec.checkpointEveryS, 0.5);
    EXPECT_EQ(spec.restorePath, ckpt);
    std::remove(ckpt.c_str());
    std::remove("r.json");
}

TEST(CheckpointRunner, RestoreNeedsASingleRunSpec)
{
    QuietLog quiet;
    const std::string ckpt = scratch("multirun.ckpt");
    writeCheckpoint(ckpt, sampleImage());

    ExperimentSpec spec;
    spec.title = "multi";
    spec.jobs = 1;
    SystemConfig config;
    spec.add(Benchmark::Jess, config, 0.03);
    spec.add(Benchmark::Db, config, 0.03);
    spec.restorePath = ckpt;
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(runExperiment(spec), SimError);
    setErrorHandler(nullptr);
    std::remove(ckpt.c_str());
}
