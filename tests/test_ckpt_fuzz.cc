/**
 * @file
 * Seeded mutation fuzzing of checkpoint load. g++ has no libFuzzer,
 * so softwatt::Random drives the mutations and every iteration
 * replays from the seed.
 *
 * The corpus is one real autosave. Each iteration damages it in one
 * of three places: the "counters" payload or the sample log (its
 * window count, or the windows in its log; written back through
 * writeCheckpoint, which recomputes the checksums, so the damage
 * reaches the component decoders), or the file framing (header and
 * chunk headers, left unchecksummed as the reader sees them).
 * Mutations are bit flips, 0x00/0x80/0xff bytes, set continuation
 * bits and truncations. A fresh System then restores the file under
 * the throwing error handler and, when that succeeds, runs until a
 * deadline just past the checkpoint tick. SOFTWATT_FUZZ_SCALE
 * multiplies the iteration count.
 *
 * Every iteration must end restored, refused (restoreCheckpoint
 * returns false) or in SimError. Any other exception, in particular
 * std::bad_alloc or std::length_error from a damaged count, fails the
 * test; a sanitizer build reports memory errors on top.
 *
 * A second case damages the log both generations of an autosave
 * share, around the prefixes they use: each damage must restore the
 * newest generation, fall back to the older one, or refuse.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

#include "fuzz_scale.hh"
#include "quiet_log.hh"

using namespace softwatt;

namespace
{

constexpr double cadenceS = 0.0003;
const int iterations = fuzzIterations(240);

/** Simulated cycles a restored image runs before its deadline. */
constexpr Tick stretchCycles = 20'000;

/** In-order jess with 2000-cycle windows, so the sample log is long. */
std::unique_ptr<System>
makeSystem(double deadline_s = 0, Cycles window = 2'000)
{
    SystemConfig config;
    config.cpuModel = CpuModel::InOrder;
    config.sampleWindow = window;
    config.deadlineSeconds = deadline_s;
    auto sys = std::make_unique<System>(config);
    WorkloadSpec spec =
        scaleWorkload(benchmarkSpec(Benchmark::Jess), 0.02);
    sys->attachWorkload(std::make_unique<Workload>(spec));
    return sys;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
spill(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

/** One random mutation of @p bytes, at an offset drawn from
 *  [@p lo, @p hi). */
void
mutate(std::vector<std::uint8_t> &bytes, std::size_t lo, std::size_t hi,
       Random &rng)
{
    if (bytes.empty() || lo >= hi)
        return;
    std::size_t at = lo + std::size_t(rng.below(hi - lo));
    switch (rng.below(6)) {
      case 0:
        bytes[at] ^= std::uint8_t(1u << rng.below(8));
        break;
      case 1:
        bytes[at] = 0x00;
        break;
      case 2:
        bytes[at] = 0x80;
        break;
      case 3:
        bytes[at] = 0xff;
        break;
      case 4:
        bytes[at] |= 0x80;  // a varint that never ends
        break;
      default:
        bytes.resize(at);
        break;
    }
}

/** Byte ranges of a serialized image's framing: the header and each
 *  chunk's name length, name, payload length and checksum. */
std::vector<std::pair<std::size_t, std::size_t>>
framingRanges(const CheckpointImage &image)
{
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::size_t at = 6 + 2 + 8 + 1 + 8 + 8 + 4;
    ranges.emplace_back(0, at);
    for (const CheckpointChunk &chunk : image.chunks) {
        std::size_t framing = 4 + chunk.name.size() + 8 + 8;
        ranges.emplace_back(at, at + framing);
        at += framing + chunk.payload.size();
    }
    return ranges;
}

} // namespace

TEST(CheckpointFuzz, DamagedImagesRestoreRefuseOrFailCleanly)
{
    QuietLog quiet;
    const std::string seedPath = "ckptfuzz_seed.ckpt";
    const std::string path = "ckptfuzz_case.ckpt";
    for (const std::string &p :
         {seedPath, path, checkpointPreviousGeneration(seedPath),
          checkpointPreviousGeneration(path), checkpointLogPath(seedPath),
          checkpointLogPath(path)})
        std::remove(p.c_str());

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(cadenceS, seedPath);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 2u);
    const CheckpointImage corpus = readCheckpoint(seedPath);

    // The deadline sits just past the checkpoint tick; it is outside
    // the fingerprint, so it does not change which images restore.
    std::unique_ptr<System> probe = makeSystem();
    ASSERT_TRUE(probe->restoreCheckpoint(seedPath));
    const double deadline_s =
        double(probe->now() + stretchCycles) /
        (probe->config().machine.freqMhz * 1e6);
    probe.reset();

    Random rng(0x5eedf00dull);
    int restored = 0;
    int refused = 0;
    int failed = 0;
    for (int i = 0; i < iterations; ++i) {
        CheckpointImage image = corpus;
        std::uint64_t target = rng.below(3);
        if (target < 2) {
            int edits = 1 + int(rng.below(3));
            for (int e = 0; e < edits; ++e) {
                // A quarter of the edits hit the leading fields: the
                // first bank's mode, the window count, the first
                // window's head.
                bool leading = rng.chance(0.25);
                std::vector<std::uint8_t> *bytes = &image.log;
                if (target == 0 || leading) {
                    const char *name =
                        target == 0 ? "counters" : "sample-log";
                    for (CheckpointChunk &chunk : image.chunks) {
                        if (chunk.name == name)
                            bytes = &chunk.payload;
                    }
                }
                std::size_t hi =
                    leading ? std::min<std::size_t>(16, bytes->size())
                            : bytes->size();
                mutate(*bytes, 0, hi, rng);
            }
            writeCheckpoint(path, image);
        } else {
            writeCheckpoint(path, image);
            std::vector<std::uint8_t> bytes = slurp(path);
            auto ranges = framingRanges(image);
            auto [lo, hi] = ranges[rng.below(ranges.size())];
            mutate(bytes, lo, hi, rng);
            spill(path, bytes);
        }

        std::unique_ptr<System> sys = makeSystem(deadline_s);
        setErrorHandler(throwingErrorHandler);
        try {
            if (sys->restoreCheckpoint(path)) {
                sys->run();
                ++restored;
            } else {
                ++refused;
            }
        } catch (const SimError &) {
            ++failed;
        } catch (const std::bad_alloc &) {
            ADD_FAILURE() << "iteration " << i << ": std::bad_alloc";
        } catch (const std::length_error &err) {
            ADD_FAILURE() << "iteration " << i
                          << ": std::length_error: " << err.what();
        } catch (const std::exception &err) {
            ADD_FAILURE() << "iteration " << i
                          << ": unexpected exception: " << err.what();
        }
        setErrorHandler(nullptr);
    }
    // Each outcome occurs, so the corpus and mutations reach all
    // three: decoders that accept, framing the reader refuses, and
    // payloads that verify but fail to apply.
    EXPECT_GT(restored, 0);
    EXPECT_GT(refused, 0);
    EXPECT_GT(failed, 0);
    EXPECT_EQ(restored + refused + failed, iterations);

    for (const std::string &p :
         {seedPath, path, checkpointPreviousGeneration(seedPath),
          checkpointPreviousGeneration(path), checkpointLogPath(seedPath),
          checkpointLogPath(path)})
        std::remove(p.c_str());
}

TEST(CheckpointFuzz, DamagedLogsRestoreFallBackOrRefuse)
{
    QuietLog quiet;
    const std::string seedPath = "ckptfuzz_logseed.ckpt";
    const std::string otherPath = "ckptfuzz_logother.ckpt";
    const std::string path = "ckptfuzz_logcase.ckpt";
    auto files = [](const std::string &p) {
        return std::vector<std::string>{
            p, checkpointPreviousGeneration(p), checkpointLogPath(p)};
    };
    auto removeAll = [&] {
        for (const std::string &p : {seedPath, otherPath, path}) {
            for (const std::string &f : files(p))
                std::remove(f.c_str());
        }
    };
    removeAll();

    // Two runs: the autosave under test and another run's, with other
    // windows, whose log the swap case borrows.
    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(cadenceS, seedPath);
    ASSERT_TRUE(reference->run().ok());
    std::unique_ptr<System> other = makeSystem(0, 3'000);
    other->setCheckpointPolicy(cadenceS, otherPath);
    ASSERT_TRUE(other->run().ok());

    const std::vector<std::uint8_t> log =
        slurp(checkpointLogPath(seedPath));
    const std::size_t newest = readCheckpoint(seedPath).log.size();
    const std::size_t older =
        readCheckpoint(checkpointPreviousGeneration(seedPath))
            .log.size();
    ASSERT_LT(older, newest);
    ASSERT_EQ(newest, log.size());
    auto tickOf = [&](const std::string &image) {
        std::unique_ptr<System> sys = makeSystem();
        EXPECT_TRUE(sys->restoreCheckpoint(image));
        return sys->now();
    };
    const Tick newest_tick = tickOf(seedPath);
    const Tick older_tick =
        tickOf(checkpointPreviousGeneration(seedPath));

    std::vector<std::uint8_t> past = log;  // bytes past the prefix
    past.insert(past.end(), 64, 0x5a);
    std::vector<std::uint8_t> cut_past = past;
    cut_past.resize(newest + 20);
    std::vector<std::uint8_t> flip_past = past;
    flip_past[newest + 7] ^= 0x04;
    std::vector<std::uint8_t> flip_newest = log;
    flip_newest[older + (newest - older) / 3] ^= 0x04;
    std::vector<std::uint8_t> flip_older = log;
    flip_older[older / 2] ^= 0x04;
    const std::vector<std::uint8_t> swapped =
        slurp(checkpointLogPath(otherPath));

    constexpr Tick refused = ~Tick(0);
    struct Case
    {
        std::string what;
        std::vector<std::uint8_t> log;
        Tick tick;  ///< Where the restore lands; refused for none.
        bool present = true;
    };
    std::vector<Case> cases = {
        {"cut before the newest prefix ends",
         {log.begin(), log.begin() + (older + newest) / 2}, older_tick},
        {"cut before the older prefix ends",
         {log.begin(), log.begin() + older / 2}, refused},
        {"cut after the newest prefix", cut_past, newest_tick},
        {"flipped inside the newest prefix only", flip_newest,
         older_tick},
        {"flipped inside both prefixes", flip_older, refused},
        {"flipped past the newest prefix", flip_past, newest_tick},
        {"swapped with another run's", swapped, refused},
        {"missing", {}, refused, false},
    };
    // Random cuts and flips anywhere in the log, on top.
    Random rng(0x10ca5eedull);
    for (int i = 0; i < fuzzIterations(8); ++i) {
        std::vector<std::uint8_t> bytes = log;
        mutate(bytes, 0, bytes.size(), rng);
        cases.push_back({"random damage " + std::to_string(i), bytes, 0});
    }

    for (const Case &c : cases) {
        for (const std::string &f : files(path))
            std::remove(f.c_str());
        spill(path, slurp(seedPath));
        spill(checkpointPreviousGeneration(path),
              slurp(checkpointPreviousGeneration(seedPath)));
        if (c.present)
            spill(checkpointLogPath(path), c.log);

        std::unique_ptr<System> sys = makeSystem();
        setErrorHandler(throwingErrorHandler);
        try {
            bool restored = sys->restoreCheckpoint(path);
            Tick tick = restored ? sys->now() : refused;
            if (c.tick != 0)
                EXPECT_EQ(tick, c.tick) << c.what;
            else
                EXPECT_TRUE(tick == newest_tick || tick == older_tick ||
                            tick == refused)
                    << c.what << ": restored at " << tick;
        } catch (const std::exception &err) {
            ADD_FAILURE() << c.what << ": " << err.what();
        }
        setErrorHandler(nullptr);
    }
    for (const std::string &f : files(path))
        std::remove(f.c_str());
    removeAll();
}
