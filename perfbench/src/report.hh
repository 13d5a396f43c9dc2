/**
 * @file
 * What the benchmark prints: named metrics with units, the one-line
 * JSON result the last line of stdout carries, and the provenance of
 * the measured build.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * True when @p name is a legal metric name: 1-64 characters from
 * [A-Za-z0-9_.-], starting with a letter or digit.
 */
bool validMetricName(const std::string &name);

/**
 * The result object: {"correct":..,"attempted":..,"failed":..,
 * "metrics":{name:{"value":..,"unit":..},..}} on one line, each value
 * with all its digits. Throws std::invalid_argument on an invalid or
 * repeated metric name or a non-finite value.
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

/**
 * The @p q quantile (0..1) of @p values, interpolating linearly
 * between the two nearest order statistics; 0 when empty.
 */
double quantile(std::vector<double> values, double q);

/** Median of @p values (mean of the middle two); 0 when empty. */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** How the measured program was built and where it ran. */
struct Provenance
{
    std::string compiler;
    std::string buildType;
    bool checks = false;      ///< SOFTWATT_CHECKS contract checks on.
    std::string sanitizer;    ///< "" when none.
    unsigned nproc = 0;

    /**
     * False for a checks or sanitizer build: it measures a different
     * program, so its numbers must not be compared with a plain one.
     */
    bool comparable() const { return !checks && sanitizer.empty(); }

    /** One-line JSON object. */
    std::string json() const;
};

/** Provenance of this binary. */
Provenance buildProvenance();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
