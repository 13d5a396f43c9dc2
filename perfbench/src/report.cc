#include "report.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/json_writer.hh"
#include "sim/check.hh"

namespace perfbench
{

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    // Validate first: an exception must not unwind through an open
    // JsonWriter, whose destructor panics on an unfinished document.
    std::set<std::string> seen;
    for (const Metric &m : metrics) {
        if (!validMetricName(m.name) || !seen.insert(m.name).second)
            throw std::invalid_argument("bad metric name '" + m.name +
                                        "'");
        if (!std::isfinite(m.value))
            throw std::invalid_argument("metric " + m.name +
                                        " is not a finite number");
    }
    std::ostringstream out;
    {
        softwatt::JsonWriter json(out, 0);
        json.beginObject();
        json.member("correct", correct);
        json.member("attempted", attempted);
        json.member("failed", failed);
        json.key("metrics");
        json.beginObject();
        for (const Metric &m : metrics) {
            json.key(m.name);
            json.beginObject();
            json.member("value", m.value);
            json.member("unit", m.unit);
            json.endObject();
        }
        json.endObject();
        json.endObject();
    }
    return out.str();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = std::clamp(q, 0.0, 1.0) * double(values.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

std::string
Provenance::json() const
{
    std::ostringstream out;
    {
        softwatt::JsonWriter json(out, 0);
        json.beginObject();
        json.member("compiler", compiler);
        json.member("build_type", buildType);
        json.member("softwatt_checks", checks);
        json.member("sanitizer", sanitizer);
        json.member("nproc", nproc);
        json.member("comparable", comparable());
        json.endObject();
    }
    return out.str();
}

Provenance
buildProvenance()
{
    Provenance p;
#if defined(__clang__)
    p.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    p.compiler = "g++ " __VERSION__;
#else
    p.compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
    p.buildType = PERFBENCH_BUILD_TYPE;
#endif
    // Live in a SOFTWATT_CHECKS build and in any build without NDEBUG.
    p.checks = softwatt::checksEnabled();
#if defined(__SANITIZE_ADDRESS__)
    p.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
    p.sanitizer = "thread";
#endif
    p.nproc = std::thread::hardware_concurrency();
    return p;
}

} // namespace perfbench
