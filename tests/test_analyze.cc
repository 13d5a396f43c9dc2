/**
 * @file
 * Fixture tests for softwatt-analyze: each rule is driven over a
 * small in-memory source tree seeded with exactly one defect, and
 * the test asserts the finding fires with the right file, line and
 * rule — and that the corrected twin of the fixture is clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyze.hh"
#include "common/scanner.hh"

using softwatt::analyze::AnalyzerInput;
using softwatt::analyze::analyzeSources;
using softwatt::analyze::layerDag;
using softwatt::analyze::SourceText;
using softwatt::tools::Finding;

namespace
{

std::vector<Finding>
run(std::vector<SourceText> files, std::string experiments = "")
{
    AnalyzerInput input;
    input.files = std::move(files);
    input.experimentsDoc = std::move(experiments);
    return analyzeSources(input);
}

std::vector<Finding>
withRule(const std::vector<Finding> &findings, const std::string &rule)
{
    std::vector<Finding> out;
    std::copy_if(findings.begin(), findings.end(),
                 std::back_inserter(out),
                 [&rule](const Finding &f) { return f.rule == rule; });
    return out;
}

// A minimal Checkpointable class: `ticks` serialized, `stray` not.
const char *const kUnserializedMember = R"(
class Widget
{
  public:
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    std::uint64_t ticks = 0;
    std::uint64_t stray = 0;
};

void
Widget::saveState(ChunkWriter &out) const
{
    out.u64(ticks);
}

void
Widget::loadState(ChunkReader &in)
{
    ticks = in.u64();
}
)";

} // namespace

TEST(Analyze, FlagsUnserializedMember)
{
    auto findings = run({{"src/sim/widget.hh", kUnserializedMember}});
    auto coverage = withRule(findings, "checkpoint-coverage");
    ASSERT_EQ(coverage.size(), 1u);
    EXPECT_EQ(coverage[0].path, "src/sim/widget.hh");
    EXPECT_EQ(coverage[0].line, 10);  // the `stray` declaration
    EXPECT_NE(coverage[0].message.find("Widget::stray"),
              std::string::npos);
}

TEST(Analyze, DerivedAnnotationSilencesCoverage)
{
    std::string fixed = kUnserializedMember;
    const std::string decl = "std::uint64_t stray = 0;";
    std::size_t at = fixed.find(decl);
    ASSERT_NE(at, std::string::npos);
    fixed.insert(at + decl.size(), "  // ckpt:derived: recomputed");
    auto findings = run({{"src/sim/widget.hh", fixed}});
    EXPECT_TRUE(withRule(findings, "checkpoint-coverage").empty());
}

TEST(Analyze, CoverageSeesBothHeaderAndImpl)
{
    // Member declared in the header, referenced only in the .cc
    // body: no finding, regardless of file scan order.
    const char *hh = R"(
class Gadget
{
  public:
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    std::uint64_t count = 0;
};
)";
    const char *cc = R"(
void
Gadget::saveState(ChunkWriter &out) const
{
    out.u64(count);
}

void
Gadget::loadState(ChunkReader &in)
{
    count = in.u64();
}
)";
    auto findings = run({{"src/sim/gadget.cc", cc},
                         {"src/sim/gadget.hh", hh}});
    EXPECT_TRUE(withRule(findings, "checkpoint-coverage").empty());
}

TEST(Analyze, FlagsSaveLoadTypeMismatch)
{
    // save writes u64 at position 2; load reads f64 there.
    const char *source = R"(
class Meter
{
  public:
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

void
Meter::saveState(ChunkWriter &out) const
{
    out.u64(a);
    out.u64(b);
}

void
Meter::loadState(ChunkReader &in)
{
    a = in.u64();
    b = std::uint64_t(in.f64());
}
)";
    auto findings = run({{"src/sim/meter.hh", source}});
    auto symmetry = withRule(findings, "save-load-symmetry");
    ASSERT_EQ(symmetry.size(), 1u);
    EXPECT_EQ(symmetry[0].path, "src/sim/meter.hh");
    EXPECT_EQ(symmetry[0].line, 24);  // the in.f64() read
    EXPECT_NE(symmetry[0].message.find("'u64'"), std::string::npos);
    EXPECT_NE(symmetry[0].message.find("'f64'"), std::string::npos);
    EXPECT_NE(symmetry[0].message.find("position 2"),
              std::string::npos);
}

TEST(Analyze, FlagsVarintSavedButFixedWidthLoaded)
{
    // A cell written as a varint but read back as a u64 parses as
    // garbage; reserve() moves no data and is not sequenced.
    const char *source = R"(
class Bank
{
  public:
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    std::uint64_t cell = 0;
};

void
Bank::saveState(ChunkWriter &out) const
{
    out.reserve(10);
    out.varint(cell);
}

void
Bank::loadState(ChunkReader &in)
{
    cell = in.u64();
}
)";
    auto findings = run({{"src/sim/bank.hh", source}});
    auto symmetry = withRule(findings, "save-load-symmetry");
    ASSERT_EQ(symmetry.size(), 1u);
    EXPECT_EQ(symmetry[0].line, 22);  // the in.u64() read
    EXPECT_NE(symmetry[0].message.find("'varint'"), std::string::npos);
    EXPECT_NE(symmetry[0].message.find("'u64'"), std::string::npos);
    EXPECT_NE(symmetry[0].message.find("position 1"),
              std::string::npos);
}

TEST(Analyze, FlagsSaveLoadCountMismatch)
{
    const char *source = R"(
class Meter
{
  public:
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

void
Meter::saveState(ChunkWriter &out) const
{
    out.u64(a);
    out.u64(b);
}

void
Meter::loadState(ChunkReader &in)
{
    a = in.u64();
}
)";
    auto findings = run({{"src/sim/meter.hh", source}});
    auto symmetry = withRule(findings, "save-load-symmetry");
    ASSERT_EQ(symmetry.size(), 1u);
    EXPECT_NE(symmetry[0].message.find("2 stream call(s)"),
              std::string::npos);
    EXPECT_NE(symmetry[0].message.find("load makes 1"),
              std::string::npos);
}

TEST(Analyze, DelegationCountsAsOneSlot)
{
    // member.saveState(out) on save mirrored by member.loadState(in)
    // on load: symmetric, no finding.
    const char *source = R"(
class Outer
{
  public:
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    Inner inner;
    std::uint64_t n = 0;
};

void
Outer::saveState(ChunkWriter &out) const
{
    out.u64(n);
    inner.saveState(out);
}

void
Outer::loadState(ChunkReader &in)
{
    n = in.u64();
    inner.loadState(in);
}
)";
    auto findings = run({{"src/sim/outer.hh", source}});
    EXPECT_TRUE(withRule(findings, "save-load-symmetry").empty());
}

TEST(Analyze, PairsFreeHelpersBySuffix)
{
    // saveThing writes u32+u64; loadThing reads u32 only.
    const char *source = R"(
void
saveThing(ChunkWriter &out, const Thing &thing)
{
    out.u32(thing.id);
    out.u64(thing.when);
}

Thing
loadThing(ChunkReader &in)
{
    Thing thing;
    thing.id = in.u32();
    return thing;
}
)";
    auto findings = run({{"src/sim/thing.cc", source}});
    auto symmetry = withRule(findings, "save-load-symmetry");
    ASSERT_EQ(symmetry.size(), 1u);
    EXPECT_NE(symmetry[0].message.find("saveThing/loadThing"),
              std::string::npos);
}

TEST(Analyze, FlagsUndocumentedConfigKey)
{
    const char *source = R"(
void
setup(const Config &config)
{
    int window = int(config.getInt("cpu.window", 64));
    double vdd = config.getDouble("tech.vdd", 3.3);
}
)";
    auto findings = run({{"src/core/setup.cc", source}},
                        "Documented keys: `tech.vdd=` only.\n");
    auto keys = withRule(findings, "config-key");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].path, "src/core/setup.cc");
    EXPECT_EQ(keys[0].line, 5);
    EXPECT_NE(keys[0].message.find("'cpu.window'"),
              std::string::npos);
}

TEST(Analyze, SeesKeysReadThroughGetNarrowInt)
{
    const char *source = R"(
void
setup(const Config &config)
{
    int entries = config.getNarrowInt("tlb.slots", 64);
}
)";
    auto findings = run({{"src/core/setup.cc", source}},
                        "Documented keys: none.\n");
    auto keys = withRule(findings, "config-key");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].line, 5);
    EXPECT_NE(keys[0].message.find("'tlb.slots'"), std::string::npos);
}

TEST(Analyze, FlagsRunnerKeyMissingFromUsage)
{
    // "turbo" is read in fromArgs and documented in EXPERIMENTS.md
    // but missing from usageText.
    const char *source = R"(
ExperimentSpec
ExperimentSpec::fromArgs(const KeyValues &args)
{
    ExperimentSpec spec;
    spec.turbo = boolFlag(args, "turbo");
    return spec;
}

std::string
usageText(const char *argv0)
{
    return std::string(argv0) + " [jobs=N] [out=path]";
}
)";
    auto findings = run({{"src/core/runner_fixture.cc", source}},
                        "`turbo=` documented here.\n");
    auto keys = withRule(findings, "config-key");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].line, 6);
    EXPECT_NE(keys[0].message.find("usageText"), std::string::npos);
}

TEST(Analyze, FlagsUpwardInclude)
{
    const char *source = R"(
#include "sim/types.hh"
#include "os/kernel.hh"
)";
    auto findings = run({{"src/mem/rogue.hh", source}});
    auto layers = withRule(findings, "layer-dag");
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0].path, "src/mem/rogue.hh");
    EXPECT_EQ(layers[0].line, 3);  // the os/kernel.hh include
    EXPECT_NE(layers[0].message.find("os/kernel.hh"),
              std::string::npos);
}

TEST(Analyze, AllowsDownwardAndSameLayerIncludes)
{
    const char *source = R"(
#include "sim/types.hh"
#include "mem/cache.hh"
#include "cpu/branch_predictor.hh"
// #include "os/kernel.hh" -- commented out, must not fire
)";
    auto findings = run({{"src/cpu/fixture.hh", source}});
    EXPECT_TRUE(withRule(findings, "layer-dag").empty());
}

TEST(Analyze, FlagsSeamBypassInDurabilityFile)
{
    const char *source = R"(
#include <cstdio>
void rotate(const std::string &path, const std::string &prev)
{
    std::rename(path.c_str(), prev.c_str());
    std::ofstream out(path);
}
)";
    auto findings = run({{"src/core/journal.cc", source}});
    auto durability = withRule(findings, "durability-io");
    ASSERT_EQ(durability.size(), 2u);
    EXPECT_EQ(durability[0].line, 5);  // the std::rename call
    EXPECT_NE(durability[0].message.find("hostRename"),
              std::string::npos);
    EXPECT_EQ(durability[1].line, 6);  // the ofstream write channel
    EXPECT_NE(durability[1].message.find("HostFile"),
              std::string::npos);
}

TEST(Analyze, SeamBypassIgnoresNonDurabilityFilesAndReads)
{
    // Raw primitives outside the declared durability set are fine
    // (runner.cc's writability probe), and std::ifstream reads never
    // match the ofstream needle.
    auto findings =
        run({{"src/core/runner.cc",
              "void probe() { std::ofstream out(\"x\"); }\n"},
             {"src/core/journal.cc",
              "void load() { std::ifstream in(\"x\"); }\n"}});
    EXPECT_TRUE(withRule(findings, "durability-io").empty());
}

TEST(Analyze, FlagsDiscardedIoStatus)
{
    const char *source = R"(
void cleanup(const std::string &tmp, const std::string &path)
{
    hostRename(tmp, path, Durability::Full);
}
)";
    auto findings = run({{"src/serve/widget.cc", source}});
    auto durability = withRule(findings, "durability-io");
    ASSERT_EQ(durability.size(), 1u);
    EXPECT_EQ(durability[0].path, "src/serve/widget.cc");
    EXPECT_EQ(durability[0].line, 4);
    EXPECT_NE(durability[0].message.find("IoStatus"),
              std::string::npos);
}

TEST(Analyze, CheckedIoStatusAndBestEffortCleanupPass)
{
    const char *source = R"(
bool swap(const std::string &tmp, const std::string &path)
{
    IoStatus moved = hostRename(tmp, path, Durability::Full);
    if (!moved)
        hostRemoveBestEffort(tmp);
    return moved.ok;
}
)";
    auto findings = run({{"src/serve/widget.cc", source}});
    EXPECT_TRUE(withRule(findings, "durability-io").empty());
}

TEST(Analyze, LayerDagMatchesDesignDoc)
{
    // The graph is acyclic and sim is its bottom.
    const auto &dag = layerDag();
    EXPECT_TRUE(dag.at("sim").empty());
    for (const auto &[layer, deps] : dag) {
        for (const std::string &dep : deps) {
            ASSERT_TRUE(dag.count(dep)) << layer << " -> " << dep;
            EXPECT_FALSE(dag.at(dep).count(layer))
                << "cycle: " << layer << " <-> " << dep;
        }
    }
}

TEST(Analyze, FindingsAreSortedAndBaselineable)
{
    std::string experiments = "nothing documented\n";
    auto findings = run(
        {{"src/mem/rogue.hh", "#include \"os/kernel.hh\"\n"},
         {"src/core/setup.cc",
          "void f(const Config &config)\n"
          "{ config.getInt(\"zz.key\", 1); }\n"}},
        experiments);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_TRUE(std::is_sorted(findings.begin(), findings.end(),
                               softwatt::tools::findingLess));

    softwatt::tools::Suppressions baseline;
    std::string error;
    ASSERT_TRUE(baseline.parse(
        "src/mem/rogue.hh layer-dag\n"
        "src/core/setup.cc config-key\n"
        "src/gone.cc config-key  # stale\n",
        error));
    EXPECT_EQ(baseline.apply(findings), 2u);
    EXPECT_TRUE(findings.empty());
    auto unused = baseline.unusedEntries();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "src/gone.cc config-key");
}
