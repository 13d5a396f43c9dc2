#include "machine_params.hh"

#include "config.hh"
#include "logging.hh"

namespace softwatt
{

void
MachineParams::applyConfig(const Config &config)
{
    instWindowSize =
        config.getNarrowInt("cpu.inst_window", instWindowSize);
    lsqSize = config.getNarrowInt("cpu.lsq_size", lsqSize);
    fetchWidth = config.getNarrowInt("cpu.fetch_width", fetchWidth);
    decodeWidth = config.getNarrowInt("cpu.decode_width", decodeWidth);
    issueWidth = config.getNarrowInt("cpu.issue_width", issueWidth);
    commitWidth = config.getNarrowInt("cpu.commit_width", commitWidth);
    intAlus = config.getNarrowInt("cpu.int_alus", intAlus);
    fpAlus = config.getNarrowInt("cpu.fp_alus", fpAlus);
    bhtEntries = config.getNarrowInt("cpu.bht_entries", bhtEntries);
    btbEntries = config.getNarrowInt("cpu.btb_entries", btbEntries);
    rasEntries = config.getNarrowInt("cpu.ras_entries", rasEntries);

    icache.sizeBytes = std::uint64_t(
        config.getInt("icache.size_kb", icache.sizeBytes / 1024)) *
        1024;
    icache.lineBytes =
        config.getNarrowInt("icache.line", icache.lineBytes);
    icache.ways = config.getNarrowInt("icache.ways", icache.ways);
    dcache.sizeBytes = std::uint64_t(
        config.getInt("dcache.size_kb", dcache.sizeBytes / 1024)) *
        1024;
    dcache.lineBytes =
        config.getNarrowInt("dcache.line", dcache.lineBytes);
    dcache.ways = config.getNarrowInt("dcache.ways", dcache.ways);
    l2cache.sizeBytes = std::uint64_t(
        config.getInt("l2.size_kb", l2cache.sizeBytes / 1024)) *
        1024;
    l2cache.lineBytes = config.getNarrowInt("l2.line", l2cache.lineBytes);
    l2cache.ways = config.getNarrowInt("l2.ways", l2cache.ways);
    l2cache.hitLatency =
        config.getNarrowInt("l2.latency", l2cache.hitLatency);

    tlbEntries = config.getNarrowInt("tlb.entries", tlbEntries);
    memoryLatency = config.getNarrowInt("mem.latency", memoryLatency);
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
    if (tlbEntries < 1) {
        fatal(msg() << "config: tlb.entries must be >= 1 (got "
                    << tlbEntries << "); every mapped access needs "
                    << "a TLB slot");
    }
    if (instWindowSize > maxInstWindow) {
        fatal(msg() << "config: cpu.inst_window must be <= "
                    << maxInstWindow << " (got " << instWindowSize
                    << "); the ROB ring is allocated from it");
    }
}

} // namespace softwatt
