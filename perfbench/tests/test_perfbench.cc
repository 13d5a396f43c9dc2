/**
 * @file
 * Tests of the benchmark's own code: span self-time arithmetic, the
 * path by which a digest mismatch becomes a named run failure, the
 * metric-name charset, the trace output's JSON well-formedness, and
 * that a timed pass renders exactly the runner's documents.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "sim/logging.hh"

#include "digest.hh"
#include "pass.hh"
#include "reference.hh"
#include "report.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

/** Minimal recursive-descent JSON validator (RFC 8259 grammar). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        skip();
        if (!value())
            return false;
        skip();
        return pos == s.size();
    }

  private:
    const std::string &s;
    std::size_t pos = 0;

    void
    skip()
    {
        while (pos < s.size() && std::isspace((unsigned char)s[pos]))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        std::string w(word);
        if (s.compare(pos, w.size(), w) != 0)
            return false;
        pos += w.size();
        return true;
    }

    bool
    string()
    {
        if (pos >= s.size() || s[pos] != '"')
            return false;
        for (++pos; pos < s.size(); ++pos) {
            char c = s[pos];
            if ((unsigned char)c < 0x20)
                return false;
            if (c == '\\') {
                ++pos;
                continue;
            }
            if (c == '"') {
                ++pos;
                return true;
            }
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit((unsigned char)s[pos]) || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E' || s[pos] == '+' ||
                s[pos] == '-'))
            ++pos;
        if (pos == start)
            return false;
        char *end = nullptr;
        std::string text = s.substr(start, pos - start);
        std::strtod(text.c_str(), &end);
        return end == text.c_str() + text.size();
    }

    bool
    members(char close, bool keyed)
    {
        ++pos;
        skip();
        if (pos < s.size() && s[pos] == close) {
            ++pos;
            return true;
        }
        while (true) {
            skip();
            if (keyed) {
                if (!string())
                    return false;
                skip();
                if (pos >= s.size() || s[pos++] != ':')
                    return false;
                skip();
            }
            if (!value())
                return false;
            skip();
            if (pos >= s.size())
                return false;
            char c = s[pos++];
            if (c == close)
                return true;
            if (c != ',')
                return false;
        }
    }

    bool
    value()
    {
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{':
            return members('}', true);
          case '[':
            return members(']', false);
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }
};

Span
span(const char *name, double start, double end, int parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

/** A directory under the working directory, removed at scope exit. */
struct TempDir
{
    TempDir()
    {
        std::string templ = "perfbench-test-XXXXXX";
        path = mkdtemp(templ.data());
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

} // namespace

TEST(SpanSelfTime, SubtractsUnionOfDirectChildrenClippedToParent)
{
    SpanRecorder rec;
    int root = rec.add(span("pass", 0, 10, -1));
    rec.add(span("a", 1, 3, root));
    int b = rec.add(span("b", 2, 5, root));  // overlaps a: [1,5]
    rec.add(span("c", 9, 12, root));         // clipped to [9,10]
    rec.add(span("grandchild", 2, 4, b));    // not a direct child
    EXPECT_DOUBLE_EQ(rec.selfSeconds(0), 10 - 4 - 1);
    EXPECT_DOUBLE_EQ(rec.selfSeconds(std::size_t(b)), 3 - 2);
    EXPECT_DOUBLE_EQ(rec.selfSeconds(1), 2);
    EXPECT_EQ(rec.rootOf(4), 0u);
}

TEST(SpanSelfTime, SelfTimesByNameSumToTheRootDuration)
{
    SpanRecorder rec;
    int root = rec.add(span("pass", 0, 8, -1));
    rec.add(span("core.run", 1, 4, root));
    rec.add(span("core.run", 5, 7, root));
    auto by = rec.selfSecondsByName([](std::size_t) { return true; });
    EXPECT_DOUBLE_EQ(by["core.run"], 5);
    EXPECT_DOUBLE_EQ(by["pass"], 3);
    EXPECT_DOUBLE_EQ(by["core.run"] + by["pass"], 8);
}

TEST(SpanRecorder, NestsScopedSpansAndRecordsNothingWhenDisabled)
{
    SpanRecorder off(false);
    {
        ScopedSpan outer(off, "pass");
        ScopedSpan inner(off, "core.run");
    }
    EXPECT_TRUE(off.spans().empty());

    SpanRecorder on(true);
    {
        ScopedSpan outer(on, "pass");
        ScopedSpan inner(on, "core.run");
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_LE(on.spans()[0].start, on.spans()[1].start);
    EXPECT_GE(on.spans()[0].end, on.spans()[1].end);
}

TEST(ChromeTrace, OutputParsesAsJson)
{
    SpanRecorder rec(true);
    {
        ScopedSpan outer(rec, "pass");
        ScopedSpan inner(rec, "core.run \"quoted\"\tname");
    }
    rec.add(span("probe.mem.tlb", 0.5, 0.25, -1));
    std::ostringstream out;
    rec.writeChromeTrace(out, {{"workload", "mxs-suite"},
                               {"provenance", "{\"nproc\": 4}"}});
    std::string text = out.str();
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);

    EXPECT_FALSE(JsonChecker("{\"a\": [1, 2,]}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": 1").valid());
}

TEST(MetricNames, CharsetIsLettersDigitsUnderscoreDotDash)
{
    EXPECT_TRUE(validMetricName("wall_s"));
    EXPECT_TRUE(validMetricName("mem.tlb_ns_per_lookup"));
    EXPECT_TRUE(validMetricName("9-lives.x_Y"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName("quote\"name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    for (const std::string &name : countNames())
        EXPECT_TRUE(validMetricName(name)) << name;
}

TEST(ResultLine, IsOneJsonObjectAndRejectsBadOrRepeatedNames)
{
    std::string line = resultLine(true, 12, 0,
                                  {{"wall_s", 1.25, "s"},
                                   {"setup_s", 0.001953125, "s"}});
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    EXPECT_NE(line.find("\"attempted\":12"), std::string::npos);
    EXPECT_NE(line.find("0.001953125"), std::string::npos);
    EXPECT_THROW(resultLine(true, 1, 0, {{"bad name", 1, "s"}}),
                 std::invalid_argument);
    EXPECT_THROW(resultLine(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}),
                 std::invalid_argument);
    EXPECT_THROW(resultLine(true, 1, 0, {{"a", 0.0 / 0.0, "s"}}),
                 std::invalid_argument);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics)
{
    // Same convention as numpy's default (linear) percentile.
    const std::vector<double> v = {4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.75), 3.25);
    EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    EXPECT_DOUBLE_EQ(median({7, 1, 5}), 5.0);
    EXPECT_DOUBLE_EQ(quantile({}, 0.75), 0.0);
}

TEST(HostReference, ScalesToTheNominalSliceTime)
{
    // Slices that took twice the nominal time halve a pass's seconds.
    EXPECT_DOUBLE_EQ(HostReference::referenceScale(7 * 2 * kNominalSliceS,
                                                   7),
                     0.5);
    EXPECT_DOUBLE_EQ(HostReference::referenceScale(3 * kNominalSliceS, 3),
                     1.0);
    // No slices: host seconds are reported unscaled.
    EXPECT_DOUBLE_EQ(HostReference::referenceScale(0, 0), 1.0);

    HostReference ref;
    ref.slice();
    ref.slice();
    EXPECT_EQ(ref.slices(), 2);
    EXPECT_GT(ref.seconds(), 0);
    EXPECT_DOUBLE_EQ(ref.scale(), 2 * kNominalSliceS / ref.seconds());
    ref.reset();
    EXPECT_EQ(ref.slices(), 0);
    EXPECT_DOUBLE_EQ(ref.scale(), 1.0);
}

TEST(HostReference, KernelIsAFixedAmountOfWork)
{
    // The same accesses every time, on every host: only its time varies.
    const std::uint64_t hits = referenceWork(kSliceAccesses);
    EXPECT_EQ(referenceWork(kSliceAccesses), hits);
    EXPECT_GT(hits, kSliceAccesses / 2);
    EXPECT_LT(hits, kSliceAccesses);
}

namespace
{

const std::string kJson = "{\n  \"bench\": \"jess\",\n  \"cycles\": "
                          "1234,\n  \"breakdown\": {\n    \"x\": [1, "
                          "2]\n  },\n  \"ipc\": 0.5\n}";
const std::string kCsv = "window,start,end\n0,0,100\n1,100,200\n";

/** @p text with the byte at the first occurrence of @p at flipped. */
std::string
flipped(std::string text, const std::string &at)
{
    std::size_t pos = text.find(at);
    EXPECT_NE(pos, std::string::npos);
    text[pos] ^= 0x01;
    return text;
}

PassResult
onePassOf(const RunDigest &digest)
{
    PassResult pass;
    pass.runs.push_back({"jess", "", digest});
    pass.runs.push_back({"jess/resumed", "", digest});
    return pass;
}

} // namespace

TEST(Digest, WholeDigestIsFnv1aOverJsonThenCsv)
{
    Fnv1a h;
    h.update(kJson + kCsv);
    EXPECT_EQ(digestRun(kJson, kCsv).whole, h.value());
    EXPECT_EQ(hex64(0xcbf29ce484222325ull), "cbf29ce484222325");
}

TEST(Digest, FlippedByteIsNamedByItsField)
{
    RunDigest good = digestRun(kJson, kCsv);
    RunDigest badJson = digestRun(flipped(kJson, "1234"), kCsv);
    EXPECT_NE(good, badJson);
    EXPECT_EQ(firstDifferingField(good, badJson), "json.cycles");

    RunDigest nested = digestRun(flipped(kJson, "2]"), kCsv);
    EXPECT_EQ(firstDifferingField(good, nested), "json.breakdown");

    RunDigest badCsv = digestRun(kJson, flipped(kCsv, "200"));
    EXPECT_EQ(firstDifferingField(good, badCsv), "csv.end");
    EXPECT_NE(describeMismatch(good, badCsv).find("csv.end"),
              std::string::npos);
}

TEST(Verdict, PinMismatchBecomesANamedFailedRunNotAnAbort)
{
    RunDigest good = digestRun(kJson, kCsv);
    RunDigest bad = digestRun(flipped(kJson, "0.5"), kCsv);

    PinTable pins;
    pins.set("mxs-suite", 0, "jess", good);

    Verdict ok(pins, "mxs-suite", 0);
    ok.check(onePassOf(good));
    EXPECT_TRUE(ok.pinsChecked());
    EXPECT_EQ(ok.attempted(), 2u);
    EXPECT_EQ(ok.failed(), 0u);

    Verdict mismatch(pins, "mxs-suite", 0);
    mismatch.check(onePassOf(bad));
    EXPECT_EQ(mismatch.attempted(), 2u);
    ASSERT_EQ(mismatch.failed(), 2u);  // the run and its resumed twin
    EXPECT_NE(mismatch.failures()[0].find("json.ipc"), std::string::npos)
        << mismatch.failures()[0];

    // An unpinned seed skips the pins but still demands repetition.
    Verdict heldOut(pins, "mxs-suite", 99);
    heldOut.check(onePassOf(bad));
    heldOut.check(onePassOf(good));
    EXPECT_FALSE(heldOut.pinsChecked());
    EXPECT_EQ(heldOut.attempted(), 4u);
    EXPECT_EQ(heldOut.failed(), 2u);
}

TEST(Verdict, RunErrorsAndCountChangesFail)
{
    PinTable pins;
    RunDigest d = digestRun(kJson, kCsv);
    Verdict v(pins, "mipsy-suite", 3);
    PassResult first = onePassOf(d);
    first.counts["core.detailed_cycles"] = 10;
    v.check(first);
    PassResult second = onePassOf(d);
    second.counts["core.detailed_cycles"] = 11;
    second.runs[1].error = "outcome watchdog";
    v.check(second);
    ASSERT_EQ(v.failed(), 2u);
    EXPECT_NE(v.failures()[0].find("count metrics"), std::string::npos);
    EXPECT_NE(v.failures()[1].find("watchdog"), std::string::npos);
}

TEST(PinTable, RoundTripsThroughItsFile)
{
    TempDir dir;
    PinTable pins;
    RunDigest d = digestRun(kJson, kCsv);
    pins.set("managed-resume", 0, "db", d);
    ASSERT_TRUE(pins.save(dir.path + "/pins.txt"));

    PinTable back;
    std::string error;
    ASSERT_TRUE(back.load(dir.path + "/pins.txt", error)) << error;
    ASSERT_EQ(back.size(), 1u);
    const RunDigest *full = back.find("managed-resume", 0, "db");
    ASSERT_NE(full, nullptr);
    EXPECT_EQ(full->whole, d.whole);
    EXPECT_EQ(full->fields, d.fields);
    EXPECT_TRUE(back.pinned("managed-resume", 0));
    EXPECT_FALSE(back.pinned("managed-resume", 1));
    EXPECT_FALSE(back.load(dir.path + "/missing.txt", error));
}

namespace
{

/** @p name's workload, shrunk so a whole pass takes well under 1 s. */
WorkloadDef
tiny(const std::string &name)
{
    WorkloadDef wl = *findWorkload(name);
    for (std::string &a : wl.assignments) {
        if (a.rfind("scale=", 0) == 0)
            a = "scale=0.01";
    }
    return wl;
}

} // namespace

TEST(Pass, DocumentIsByteIdenticalToRunExperiment)
{
    softwatt::setLogLevel(softwatt::LogLevel::Quiet);
    for (const char *name : {"mipsy-suite", "managed-resume"}) {
        WorkloadDef wl = tiny(name);
        TempDir ours, theirs;
        softwatt::ExperimentSpec mine =
            makeSpec(wl, 0, ours.path + "/doc.json");
        mine.runs.resize(2);
        SpanRecorder rec(true);
        PassResult pass = runPass(mine, wl.resume, rec);
        for (const RunCheck &run : pass.runs)
            EXPECT_EQ(run.error, "") << name << ' ' << run.label;
        EXPECT_EQ(pass.runs.size(), wl.resume ? 4u : 2u);
        EXPECT_GT(pass.setupS, 0);
        EXPECT_GE(pass.wallS, pass.runS + pass.setupS);

        softwatt::ExperimentSpec spec =
            makeSpec(wl, 0, theirs.path + "/doc.json");
        spec.runs.resize(2);
        softwatt::ExperimentResult result = runExperiment(spec);
        std::ostringstream doc;
        result.writeJson(doc);
        EXPECT_EQ(pass.document, doc.str()) << name;
    }
}

TEST(Pass, SeedChangesTheMachineAndSeedZeroIsStock)
{
    softwatt::setLogLevel(softwatt::LogLevel::Quiet);
    WorkloadDef wl = tiny("mipsy-suite");
    softwatt::ExperimentSpec zero = makeSpec(wl, 0, "");
    softwatt::ExperimentSpec five = makeSpec(wl, 5, "");
    ASSERT_EQ(zero.runs.size(), 6u);
    EXPECT_EQ(zero.runs[0].config.kernelParams.seed,
              softwatt::SystemConfig{}.kernelParams.seed);
    EXPECT_EQ(five.runs[0].config.kernelParams.seed,
              zero.runs[0].config.kernelParams.seed + 5);
    EXPECT_EQ(zero.jobs, 1);
}
