/**
 * @file
 * Seeded mutation fuzzing of checkpoint load. g++ has no libFuzzer,
 * so softwatt::Random drives the mutations and every iteration
 * replays from the seed.
 *
 * The corpus is one real autosave. Each iteration damages it in one
 * of three places: the "counters" payload or the "sample-log" payload
 * (written back through writeCheckpoint, which recomputes the
 * checksums, so the damage reaches the component decoders), or the
 * file framing (header and chunk headers, left unchecksummed as the
 * reader sees them). Mutations are bit flips, 0x00/0x80/0xff bytes,
 * set continuation bits and truncations. A fresh System then restores
 * the file under the throwing error handler and, when that succeeds,
 * runs until a deadline just past the checkpoint tick.
 *
 * Every iteration must end restored, refused (restoreCheckpoint
 * returns false) or in SimError. Any other exception, in particular
 * std::bad_alloc or std::length_error from a damaged count, fails the
 * test; a sanitizer build reports memory errors on top.
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

#include "quiet_log.hh"

using namespace softwatt;

namespace
{

constexpr double cadenceS = 0.0003;
constexpr int iterations = 240;

/** Simulated cycles a restored image runs before its deadline. */
constexpr Tick stretchCycles = 20'000;

/** In-order jess with 2000-cycle windows, so the sample log is long. */
std::unique_ptr<System>
makeSystem(double deadline_s = 0)
{
    SystemConfig config;
    config.cpuModel = CpuModel::InOrder;
    config.sampleWindow = 2'000;
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
    std::size_t at = 6 + 2 + 8 + 1 + 4;
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
          checkpointPreviousGeneration(path)})
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
            const char *name = target == 0 ? "counters" : "sample-log";
            for (CheckpointChunk &chunk : image.chunks) {
                if (chunk.name != name)
                    continue;
                int edits = 1 + int(rng.below(3));
                for (int e = 0; e < edits; ++e) {
                    // A quarter of the edits hit the leading fields
                    // (the window count, the first bank's mode).
                    std::size_t hi = rng.chance(0.25)
                                         ? std::min<std::size_t>(
                                               16, chunk.payload.size())
                                         : chunk.payload.size();
                    mutate(chunk.payload, 0, hi, rng);
                }
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
          checkpointPreviousGeneration(path)})
        std::remove(p.c_str());
}
