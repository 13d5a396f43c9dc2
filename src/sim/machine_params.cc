#include "machine_params.hh"

#include "config.hh"
#include "logging.hh"

namespace softwatt
{

void
MachineParams::applyConfig(const Config &config)
{
    instWindowSize =
        int(config.getInt("cpu.inst_window", instWindowSize));
    lsqSize = int(config.getInt("cpu.lsq_size", lsqSize));
    fetchWidth = int(config.getInt("cpu.fetch_width", fetchWidth));
    decodeWidth = int(config.getInt("cpu.decode_width", decodeWidth));
    issueWidth = int(config.getInt("cpu.issue_width", issueWidth));
    commitWidth = int(config.getInt("cpu.commit_width", commitWidth));
    intAlus = int(config.getInt("cpu.int_alus", intAlus));
    fpAlus = int(config.getInt("cpu.fp_alus", fpAlus));
    bhtEntries = int(config.getInt("cpu.bht_entries", bhtEntries));
    btbEntries = int(config.getInt("cpu.btb_entries", btbEntries));
    rasEntries = int(config.getInt("cpu.ras_entries", rasEntries));

    icache.sizeBytes = std::uint64_t(
        config.getInt("icache.size_kb", icache.sizeBytes / 1024)) *
        1024;
    icache.lineBytes = int(config.getInt("icache.line", icache.lineBytes));
    icache.ways = int(config.getInt("icache.ways", icache.ways));
    dcache.sizeBytes = std::uint64_t(
        config.getInt("dcache.size_kb", dcache.sizeBytes / 1024)) *
        1024;
    dcache.lineBytes = int(config.getInt("dcache.line", dcache.lineBytes));
    dcache.ways = int(config.getInt("dcache.ways", dcache.ways));
    l2cache.sizeBytes = std::uint64_t(
        config.getInt("l2.size_kb", l2cache.sizeBytes / 1024)) *
        1024;
    l2cache.lineBytes = int(config.getInt("l2.line", l2cache.lineBytes));
    l2cache.ways = int(config.getInt("l2.ways", l2cache.ways));
    l2cache.hitLatency =
        int(config.getInt("l2.latency", l2cache.hitLatency));

    tlbEntries = int(config.getInt("tlb.entries", tlbEntries));
    memoryLatency = int(config.getInt("mem.latency", memoryLatency));
    memorySizeBytes = std::uint64_t(config.getInt(
        "mem.size_mb", memorySizeBytes / (1024 * 1024))) *
        1024 * 1024;

    featureSizeUm = config.getDouble("tech.feature_um", featureSizeUm);
    vdd = config.getDouble("tech.vdd", vdd);
    freqMhz = config.getDouble("tech.mhz", freqMhz);
}

void
MachineParams::validate() const
{
    struct Shape
    {
        const char *key;
        int value;
    };
    const Shape shapes[] = {
        {"cpu.inst_window", instWindowSize},
        {"cpu.fetch_width", fetchWidth},
        {"cpu.decode_width", decodeWidth},
        {"cpu.issue_width", issueWidth},
        {"cpu.commit_width", commitWidth},
        {"cpu.int_alus", intAlus},
        {"cpu.fp_alus", fpAlus},
    };
    for (const Shape &shape : shapes) {
        if (shape.value < 1) {
            fatal(msg() << "config: " << shape.key << " must be >= 1 "
                        << "(got " << shape.value << "); the pipeline "
                        << "cannot make progress without it");
        }
    }
    if (instWindowSize > maxInstWindow) {
        fatal(msg() << "config: cpu.inst_window must be <= "
                    << maxInstWindow << " (got " << instWindowSize
                    << "); the ROB ring is allocated from it");
    }
}

} // namespace softwatt
