/**
 * @file
 * Output pinning: FNV-1a-64 digests of each run's result document
 * (renderRunJson) plus its sample-log CSV, with per-field digests so a
 * mismatch can name the first field that differs, and the pin table
 * stored next to the benchmark.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace perfbench
{

/** Incremental FNV-1a-64, the hash journal.cc and checkpoints use. */
class Fnv1a
{
  public:
    void
    update(const char *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i) {
            state ^= static_cast<unsigned char>(data[i]);
            state *= 0x100000001b3ull;
        }
    }
    void update(const std::string &s) { update(s.data(), s.size()); }
    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/** Digest of one run's outputs. */
struct RunDigest
{
    /** FNV-1a-64 of the run JSON followed by the CSV bytes. */
    std::uint64_t whole = 0;

    /**
     * Per-field digests in document order: "json.<top-level key>"
     * for each member of the run object, then "csv.<column>" for
     * each sample-log column. Folded to 32 bits; they only locate a
     * difference, the whole digest decides it.
     */
    std::vector<std::pair<std::string, std::uint32_t>> fields;

    bool operator==(const RunDigest &o) const { return whole == o.whole; }
    bool operator!=(const RunDigest &o) const { return !(*this == o); }
};

/** Digest a run's JSON object text and its sample-log CSV. */
RunDigest digestRun(const std::string &runJson, const std::string &csv);

/**
 * Name of the first field whose digest differs between @p expected
 * and @p got ("" when the field lists agree or are absent).
 */
std::string firstDifferingField(const RunDigest &expected,
                                const RunDigest &got);

/** Human-readable verdict for a digest mismatch. */
std::string describeMismatch(const RunDigest &expected,
                             const RunDigest &got);

/** 16 lowercase hex digits. */
std::string hex64(std::uint64_t value);

/**
 * The checked-in table of expected digests, keyed by (workload,
 * seed, run label). Text format, one run per line:
 *
 *   <workload> <seed> <label> <whole> [<field>=<digest32> ...]
 *
 * '#' starts a comment line. Only the explicit regeneration mode
 * writes it.
 */
class PinTable
{
  public:
    using Key = std::tuple<std::string, std::uint64_t, std::string>;

    /** Parse @p path; false with @p error set on any failure. */
    bool load(const std::string &path, std::string &error);

    /** Write the table; false if the file cannot be written. */
    bool save(const std::string &path) const;

    /** Pin for one run, or null when none is stored. */
    const RunDigest *find(const std::string &workload,
                          std::uint64_t seed,
                          const std::string &label) const;

    /** True when any run of (@p workload, @p seed) is pinned. */
    bool pinned(const std::string &workload, std::uint64_t seed) const;

    /** Store a pin, with its per-field digests. */
    void set(const std::string &workload, std::uint64_t seed,
             const std::string &label, const RunDigest &digest);

    std::size_t size() const { return pins.size(); }

  private:
    std::map<Key, RunDigest> pins;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
