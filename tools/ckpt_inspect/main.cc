/**
 * @file
 * softwatt-ckpt: inspect and verify machine checkpoint files.
 *
 * For every file named on the command line, parses the image with the
 * same fully-verifying reader the simulator uses (magic, version,
 * chunk framing, every payload checksum, and the prefix of the log
 * beside it that the image uses: "<path>.log", or "<base>.log" for a
 * rotated generation "<base>.1") and prints the header, the log
 * prefix and the chunk table. Exits nonzero when any file fails
 * verification, so CI and shell scripts can gate on checkpoint
 * integrity:
 *
 *   $ softwatt-ckpt run.json.jess.ckpt
 *   run.json.jess.ckpt: format v3, fingerprint 0x4f1d..., cpu in-order
 *     log prefix: 402112 bytes, checksum64 0x1d0c...
 *     chunk        bytes  checksum64
 *     event-queue     24  0x8c7f3a2b9e4d1c05
 *     ...
 *   run.json.jess.ckpt: OK (10 chunks, 18342 bytes of payload)
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "sim/checkpoint.hh"

namespace fs = std::filesystem;

namespace
{

const char *
cpuModelName(std::uint8_t model)
{
    switch (model) {
      case 0:
        return "in-order";
      case 1:
        return "superscalar";
      default:
        return "unknown";
    }
}

/**
 * Decode and pretty-print the power-subsystem chunk: the kernel's
 * last power-meter reading plus the DVFS governor and adaptive
 * spin-down policy state, mirroring System::serializeCheckpoint.
 * Decode errors are reported but non-fatal — the chunk's checksum
 * already verified, so a short payload means a format-version skew,
 * worth seeing rather than dying over in an inspection tool.
 */
void
printPowerChunk(const softwatt::CheckpointChunk &chunk)
{
    try {
        softwatt::ChunkReader r(chunk.payload, "power");
        std::uint64_t window = r.u64();
        std::uint64_t start = r.u64();
        std::uint64_t end = r.u64();
        double cpu_mem_w = r.f64();
        double disk_w = r.f64();
        double system_w = r.f64();
        double freq_mhz = r.f64();
        double vdd = r.f64();
        bool valid = r.b();
        std::printf("  power meter:\n");
        if (valid) {
            std::printf("    window %" PRIu64 " [%" PRIu64
                        ", %" PRIu64 ")\n",
                        window, start, end);
            std::printf("    cpu+mem %.4f W, disk %.4f W, "
                        "system %.4f W\n",
                        cpu_mem_w, disk_w, system_w);
            std::printf("    operating point: %.1f MHz @ %.2f V%s\n",
                        freq_mhz, vdd,
                        freq_mhz == 0 ? " (nominal)" : "");
        } else {
            std::printf("    no reading yet (no closed window)\n");
        }
        double last_disk_j = r.f64();
        std::uint64_t duty_acc = r.u64();
        std::uint64_t throttled = r.u64();
        std::printf("    disk energy cursor %.6f J, duty acc %" PRIu64
                    ", throttled cycles %" PRIu64 "\n",
                    last_disk_j, duty_acc, throttled);
        if (r.b()) {
            std::uint64_t level = r.u64();
            std::uint64_t deepest = r.u64();
            std::uint64_t down = r.u64();
            std::uint64_t up = r.u64();
            std::printf("  dvfs governor: level %" PRIu64
                        " (deepest %" PRIu64 "), %" PRIu64
                        " down / %" PRIu64 " up\n",
                        level, deepest, down, up);
        } else {
            std::printf("  dvfs governor: off\n");
        }
        if (r.b()) {
            double threshold_s = r.f64();
            std::uint64_t spin_ups = r.u64();
            std::uint64_t quiet = r.u64();
            std::uint64_t adjustments = r.u64();
            std::printf("  adaptive spin-down: threshold %.3f s, "
                        "%" PRIu64 " adjustment(s), %" PRIu64
                        " spin-up(s) seen, quiet streak %" PRIu64
                        "\n",
                        threshold_s, adjustments, spin_ups, quiet);
        } else {
            std::printf("  adaptive spin-down: off\n");
        }
        r.finish();
    } catch (const softwatt::CheckpointError &err) {
        std::printf("  power chunk: decode failed (%s)\n",
                    err.what());
    }
}

/**
 * Per-file verdicts, ordered so the process exit code can take the
 * worst across all arguments: 0 verified, 1 parse failure (corrupt
 * or incompatible bytes), 2 not even bytes to parse — missing,
 * unreadable, or a zero-length stub. The distinction matters to
 * scripts: exit 2 on a pool directory usually means a torn rename
 * or crashed writer left a placeholder, not that a checkpoint went
 * bad, and the remedy (delete the stub, let recovery fall back) is
 * different from a corruption investigation.
 */
int
inspect(const char *path)
{
    std::error_code ec;
    std::uintmax_t size = fs::file_size(path, ec);
    if (ec) {
        std::fprintf(stderr, "%s: UNREADABLE: %s\n", path,
                     ec.message().c_str());
        return 2;
    }
    if (size == 0) {
        std::fprintf(stderr,
                     "%s: EMPTY: zero-length image (a torn rename "
                     "or crashed writer left a stub; remove it and "
                     "rely on the previous generation)\n",
                     path);
        return 2;
    }

    softwatt::CheckpointImage image;
    try {
        image = softwatt::readCheckpoint(path);
    } catch (const softwatt::CheckpointMismatch &err) {
        std::fprintf(stderr, "%s: INCOMPATIBLE: %s\n", path,
                     err.what());
        return 1;
    } catch (const softwatt::CheckpointError &err) {
        std::fprintf(stderr, "%s: CORRUPT: %s\n", path, err.what());
        return 1;
    }

    std::printf("%s: format v%u, fingerprint 0x%016" PRIx64
                ", cpu %s (%u)\n",
                path, unsigned(image.version),
                image.configFingerprint,
                cpuModelName(image.cpuModel),
                unsigned(image.cpuModel));

    std::printf("  log prefix: %zu bytes, checksum64 0x%016" PRIx64 "\n",
                image.log.size(),
                softwatt::checksum64(image.log.data(), image.log.size()));

    std::size_t widest = std::strlen("chunk");
    for (const softwatt::CheckpointChunk &chunk : image.chunks)
        widest = std::max(widest, chunk.name.size());

    std::printf("  %-*s  %10s  %-18s\n", int(widest), "chunk",
                "bytes", "checksum64");
    std::uint64_t payload_bytes = 0;
    for (const softwatt::CheckpointChunk &chunk : image.chunks) {
        // readCheckpoint already proved the stored checksum matches
        // the payload, so recomputing it here prints the same value
        // the file carries.
        std::uint64_t checksum = softwatt::checksum64(
            chunk.payload.data(), chunk.payload.size());
        std::printf("  %-*s  %10zu  0x%016" PRIx64 "\n", int(widest),
                    chunk.name.c_str(), chunk.payload.size(),
                    checksum);
        payload_bytes += chunk.payload.size();
    }
    if (const softwatt::CheckpointChunk *power =
            image.find("power")) {
        printPowerChunk(*power);
    }
    std::printf("%s: OK (%zu chunks, %" PRIu64
                " bytes of payload)\n",
                path, image.chunks.size(), payload_bytes);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 ||
        std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        std::printf(
            "usage: %s <checkpoint.ckpt> [more.ckpt ...]\n"
            "  Verify and dump SoftWatt machine checkpoints: header,\n"
            "  the prefix of the log beside each image that it uses,\n"
            "  chunk table with sizes and checksum64 checksums.\n"
            "  Exits 1 if any file is corrupt or incompatible, 2 if\n"
            "  any is missing, unreadable, or a zero-length stub\n"
            "  (worst verdict across all files wins).\n",
            argv[0]);
        return argc < 2 ? 2 : 0;
    }

    int worst = 0;
    for (int i = 1; i < argc; ++i)
        worst = std::max(worst, inspect(argv[i]));
    return worst;
}
