/**
 * @file
 * The simulated machine's architectural parameters — Table 1 of the
 * paper. Shared by the timing models (src/cpu, src/mem) and the
 * power models (src/power).
 */

#ifndef SOFTWATT_SIM_MACHINE_PARAMS_HH
#define SOFTWATT_SIM_MACHINE_PARAMS_HH

#include <cstdint>

namespace softwatt
{

class Config;

/** Parameters of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes;
    int lineBytes;
    int ways;
    int hitLatency;    ///< Cycles.
};

/**
 * The complete machine configuration (paper Table 1 defaults).
 */
struct MachineParams
{
    // Out-of-order core.
    int instWindowSize = 64;
    int intRegs = 34;
    int fpRegs = 32;
    int lsqSize = 32;
    int fetchWidth = 4;
    int decodeWidth = 4;
    int issueWidth = 4;
    int commitWidth = 4;
    int intAlus = 2;
    int fpAlus = 2;

    // Branch prediction.
    int bhtEntries = 1024;
    int btbEntries = 1024;
    int rasEntries = 32;

    // Memory system.
    std::uint64_t memorySizeBytes = 128ull * 1024 * 1024;
    CacheParams icache{32 * 1024, 64, 2, 1};
    CacheParams dcache{32 * 1024, 64, 2, 1};
    CacheParams l2cache{1024 * 1024, 128, 2, 10};
    int tlbEntries = 64;
    int memoryLatency = 60;    ///< Cycles from L2 miss to data.
    int pageBytes = 4096;

    // Process / clock (Table 1: 0.35 um, 3.3 V, 200 MHz).
    double featureSizeUm = 0.35;
    double vdd = 3.3;
    double freqMhz = 200.0;

    /** Cycles per simulated second at the configured clock. */
    std::uint64_t
    cyclesPerSecond() const
    {
        return std::uint64_t(freqMhz * 1.0e6);
    }

    /**
     * Largest accepted cpu.inst_window. The superscalar core allocates
     * its ROB ring and one consumer mask per slot from the window
     * size, so the mask memory grows with its square.
     */
    static constexpr int maxInstWindow = 1024;

    /** Override fields from a Config ("icache.size_kb", ...). */
    void applyConfig(const Config &config);

    /**
     * fatal() naming the key when the core shape cannot run: every
     * cpu.* width, unit count and cpu.inst_window must be >= 1, and
     * cpu.inst_window <= maxInstWindow.
     */
    void validate() const;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_MACHINE_PARAMS_HH
