/**
 * @file
 * Tests for the determinism linter's token rules: each rule is
 * exercised with a negative fixture, masking keeps comments and
 * strings from triggering rules, and path scoping plus the
 * suppression list behave as documented.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "lint/softwatt_lint.hh"

using softwatt::lint::Issue;
using softwatt::lint::lintSource;
using softwatt::lint::maskCommentsAndStrings;
using softwatt::lint::Suppressions;

namespace
{

std::vector<Issue>
lint(const std::string &path, const std::string &source)
{
    Suppressions none;
    return lintSource(path, source, none);
}

bool
hasRule(const std::vector<Issue> &issues, const std::string &rule)
{
    for (const Issue &issue : issues) {
        if (issue.rule == rule)
            return true;
    }
    return false;
}

} // namespace

TEST(LintMasking, BlanksCommentsAndStringsPreservingLines)
{
    std::string masked = maskCommentsAndStrings(
        "int a; // std::rand()\n"
        "/* rand() spans\n   two lines */\n"
        "const char *s = \"rand()\";\n"
        "char c = 'x';\n");
    EXPECT_EQ(masked.find("rand"), std::string::npos);
    EXPECT_EQ(masked.find('x'), std::string::npos);
    // Line structure survives for line-number reporting.
    EXPECT_EQ(std::count(masked.begin(), masked.end(), '\n'), 5);
    EXPECT_NE(masked.find("int a;"), std::string::npos);
}

TEST(LintMasking, HandlesRawStrings)
{
    std::string masked = maskCommentsAndStrings(
        "auto s = R\"(std::rand() time( )\";\nint b;\n");
    EXPECT_EQ(masked.find("rand"), std::string::npos);
    EXPECT_NE(masked.find("int b;"), std::string::npos);
}

TEST(LintRules, FlagsBannedRandomSources)
{
    auto issues = lint("src/cpu/foo.cc",
                       "int x = std::rand();\n"
                       "std::random_device rd;\n"
                       "srand(42);\n");
    ASSERT_EQ(issues.size(), 3u);
    EXPECT_TRUE(hasRule(issues, "banned-rand"));
    EXPECT_EQ(issues[0].line, 1);
    EXPECT_EQ(issues[1].line, 2);
    EXPECT_EQ(issues[2].line, 3);
}

TEST(LintRules, BlessedRandomHeaderIsExempt)
{
    EXPECT_TRUE(lint("src/sim/random.hh",
                     "std::random_device rd;  // seeding docs\n"
                     "std::random_device rd2;\n")
                    .empty());
}

TEST(LintRules, FlagsWallClockOnlyInSimSources)
{
    std::string source = "auto t = std::chrono::system_clock::now();\n"
                         "time_t now = time(nullptr);\n";
    EXPECT_TRUE(hasRule(lint("src/os/kernel.cc", source),
                        "wall-clock"));
    // Harness timing code outside src/ may read the clock.
    EXPECT_TRUE(lint("bench/bench_serve_stress.cpp", source).empty());
}

TEST(LintRules, WallClockIdentifierNeedsCallSite)
{
    // A variable or member merely *named* time/clock is fine; only
    // call sites are flagged.
    EXPECT_TRUE(lint("src/disk/disk.cc",
                     "double time = 0; int clock = 1;\n"
                     "double seekTime(int d);\n")
                    .empty());
    EXPECT_FALSE(lint("src/disk/disk.cc",
                      "double t = clock();\n")
                     .empty());
}

TEST(LintRules, FlagsRawExitAndAbort)
{
    auto issues = lint("examples/demo.cpp",
                       "std::exit(1);\n"
                       "abort();\n"
                       "std::quick_exit(2);\n");
    ASSERT_EQ(issues.size(), 3u);
    EXPECT_TRUE(hasRule(issues, "raw-exit"));
    // exitCode / cleanExit identifiers are not call sites of exit().
    EXPECT_TRUE(lint("examples/demo.cpp",
                     "return cli.exitCode;\nbool cleanExit(true);\n")
                    .empty());
}

TEST(LintRules, FlagsUnorderedContainersOnlyInEmissionPaths)
{
    std::string source = "std::unordered_map<int, int> m;\n";
    EXPECT_TRUE(hasRule(lint("src/core/report.cc", source),
                        "unordered-emission"));
    EXPECT_TRUE(hasRule(lint("src/core/json_writer.hh", source),
                        "unordered-emission"));
    EXPECT_TRUE(lint("src/cpu/superscalar_cpu.cc", source).empty());
}

TEST(LintRules, FlagsRawAssertButNotContractMacros)
{
    EXPECT_TRUE(hasRule(lint("src/mem/cache.cc",
                             "#include <cassert>\nassert(p != q);\n"),
                        "raw-assert"));
    EXPECT_TRUE(lint("src/mem/cache.cc",
                     "static_assert(sizeof(int) == 4);\n"
                     "SW_ASSERT(p != q, \"aliasing\");\n"
                     "SW_CHECK(ok, \"state\");\n")
                    .empty());
}

TEST(LintOutput, IssuesAreSortedByLine)
{
    auto issues = lint("src/a.cc",
                       "int a;\n"
                       "abort();\n"
                       "int b;\n"
                       "std::rand();\n"
                       "std::exit(0);\n");
    ASSERT_EQ(issues.size(), 3u);
    EXPECT_EQ(issues[0].line, 2);
    EXPECT_EQ(issues[1].line, 4);
    EXPECT_EQ(issues[2].line, 5);
}

TEST(LintSuppressions, SilenceExactPathRulePairs)
{
    Suppressions sup;
    std::string error;
    ASSERT_TRUE(sup.parse("# comment\n"
                          "\n"
                          "src/sim/logging.cc raw-exit\n"
                          "src/a.cc banned-rand  # trailing note\n",
                          error))
        << error;
    EXPECT_EQ(sup.size(), 2u);
    EXPECT_TRUE(sup.suppressed("src/sim/logging.cc", "raw-exit"));
    EXPECT_FALSE(sup.suppressed("src/sim/logging.cc",
                                "banned-rand"));
    EXPECT_FALSE(sup.suppressed("src/b.cc", "raw-exit"));

    EXPECT_TRUE(lintSource("src/a.cc", "std::rand();\nabort();\n",
                           sup)
                    .size() == 1);
}

TEST(LintSuppressions, RejectsMalformedLines)
{
    Suppressions sup;
    std::string error;
    EXPECT_FALSE(sup.parse("just-a-path-without-a-rule\n", error));
    EXPECT_NE(error.find("line 1"), std::string::npos);

    Suppressions sup2;
    EXPECT_FALSE(sup2.parse("path rule extra-field\n", error));
}
