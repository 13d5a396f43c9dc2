/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded by
 * the benchmark's own code around its calls into the simulator's
 * layers (nothing inside src/ is instrumented), kept in memory, and
 * written at exit as Chrome trace-event JSON, which Perfetto and
 * chrome://tracing open directly.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** One timed interval; times are seconds since the recorder began. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;  ///< Index of the enclosing span; -1 for a root.
};

/**
 * Records nested spans on one thread. When disabled, begin() and
 * end() do nothing, so untraced passes run the same code path.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = false) : on(enabled) {}

    bool enabled() const { return on; }
    void setEnabled(bool enabled) { on = enabled; }

    /** Open a span nested in the innermost open one; -1 when off. */
    int begin(std::string name);

    /** Close span @p id (a no-op for -1). */
    void end(int id);

    /** Append a finished span as-is (tests, imported timings). */
    int add(Span span);

    const std::vector<Span> &spans() const { return all; }

    /** Seconds since this recorder was created. */
    double now() const;

    /**
     * Self time of span @p i: its duration minus the part of its
     * interval covered by its direct children (overlapping children
     * counted once, parts outside the parent ignored).
     */
    double selfSeconds(std::size_t i) const;

    /**
     * Self time summed per span name, over the spans for which
     * @p keep returns true.
     */
    template <typename Pred>
    std::map<std::string, double>
    selfSecondsByName(Pred keep) const
    {
        std::map<std::string, double> total;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (keep(i))
                total[all[i].name] += selfSeconds(i);
        }
        return total;
    }

    /** Index of the root span enclosing span @p i (itself if root). */
    std::size_t rootOf(std::size_t i) const;

    /**
     * Write every span as a Chrome "X" (complete) event, with
     * @p metadata as the top-level "otherData" object.
     */
    void writeChromeTrace(
        std::ostream &out,
        const std::vector<std::pair<std::string, std::string>>
            &metadata) const;

  private:
    bool on;
    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    std::vector<Span> all;
    std::vector<int> open;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name)
        : rec(rec), id(rec.begin(std::move(name)))
    {}
    ~ScopedSpan() { rec.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec;
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
