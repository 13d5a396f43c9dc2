/**
 * @file
 * Seeded mutation fuzzing of the run journal reader. g++ has no
 * libFuzzer, so softwatt::Random drives the mutations and every
 * iteration replays from the seed.
 *
 * The corpus is a real journal: a three-run sweep written by
 * runExperiment. Each iteration applies one to three mutations to it:
 * truncation (anywhere, at a line start, before a newline, after a
 * quote, a backslash or a structural byte), byte flips and structural
 * bytes, and duplicated, swapped or spliced lines. RunJournal::load
 * and loadLatest then read the result.
 *
 * Neither may throw. Every entry load() returns must round-trip
 * through RunJournal::append, and there can be no more entries than
 * lines that hold all eight journal fields. loadLatest() must equal
 * load() deduplicated on journalKey(), last occurrence winning, keys
 * in first-seen order.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/runner.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

#include "quiet_log.hh"

using namespace softwatt;

namespace
{

constexpr int iterations = 400;

const char *const journalFields[] = {
    "schema", "experiment", "bench",    "variant",
    "config", "outcome",    "attempts", "run",
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
spill(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + '\n';
    return text;
}

/** Lines of @p text that name every journal field. */
std::size_t
linesWithAllFields(const std::string &text)
{
    std::size_t count = 0;
    for (const std::string &line : splitLines(text)) {
        bool all = true;
        for (const char *field : journalFields) {
            all = all && line.find('"' + std::string(field) + "\":") !=
                             std::string::npos;
        }
        count += all;
    }
    return count;
}

/** One truncation, byte edit or line edit of @p text. */
void
mutate(std::string &text, Random &rng)
{
    if (text.empty())
        return;
    switch (rng.below(3)) {
      case 0: {
        // Truncate just after a byte of one kind (after a newline is
        // a line start), just before a newline, or anywhere.
        const char kinds[] = {'\n', '"', '\\', '{', ':', ','};
        const std::size_t beforeNewline = sizeof(kinds);
        const std::size_t anywhere = sizeof(kinds) + 1;
        std::size_t pick = rng.below(sizeof(kinds) + 2);
        std::vector<std::size_t> cuts;
        for (std::size_t i = 0; i < text.size(); ++i) {
            bool next_is_newline =
                i + 1 < text.size() && text[i + 1] == '\n';
            if (pick == anywhere ||
                (pick == beforeNewline && next_is_newline) ||
                (pick < sizeof(kinds) && text[i] == kinds[pick]))
                cuts.push_back(i + 1);
        }
        if (!cuts.empty())
            text.resize(cuts[rng.below(cuts.size())]);
        break;
      }
      case 1: {
        const char bytes[] = {'"', '\\', '{', '}', ':', ',',
                              '\n', '\0', '\x7f', '\xff'};
        char &at = text[rng.below(text.size())];
        if (rng.chance(0.5))
            at ^= char(1u << rng.below(8));
        else
            at = bytes[rng.below(sizeof(bytes))];
        break;
      }
      default: {
        std::vector<std::string> lines = splitLines(text);
        if (lines.empty())
            return;
        std::size_t a = rng.below(lines.size());
        std::size_t b = rng.below(lines.size());
        switch (rng.below(3)) {
          case 0:
            lines.insert(lines.begin() + std::ptrdiff_t(b), lines[a]);
            break;
          case 1:
            std::swap(lines[a], lines[b]);
            break;
          default: {
            // Head of one line, tail of another.
            std::string head =
                lines[a].substr(0, rng.below(lines[a].size() + 1));
            std::string tail =
                lines[b].substr(rng.below(lines[b].size() + 1));
            lines.insert(lines.begin() + std::ptrdiff_t(b),
                         head + tail);
            break;
          }
        }
        text = joinLines(lines);
        break;
      }
    }
}

void
expectSameEntry(const JournalEntry &got, const JournalEntry &want,
                int iteration)
{
    EXPECT_EQ(got.experiment, want.experiment) << iteration;
    EXPECT_EQ(got.bench, want.bench) << iteration;
    EXPECT_EQ(got.variant, want.variant) << iteration;
    EXPECT_EQ(got.config, want.config) << iteration;
    EXPECT_EQ(got.outcome, want.outcome) << iteration;
    EXPECT_EQ(got.attempts, want.attempts) << iteration;
    EXPECT_EQ(got.runJson, want.runJson) << iteration;
}

} // namespace

TEST(JournalFuzz, DamagedJournalsLoadOnlyWholeEntries)
{
    QuietLog quiet;
    const std::string out = "journalfuzz_sweep.json";
    const std::string path = "journalfuzz_case.jsonl";
    const std::string echo = "journalfuzz_echo.jsonl";
    auto cleanup = [&] {
        for (const std::string &p :
             {out, journalPathFor(out), path, echo})
            std::remove(p.c_str());
    };
    cleanup();

    ExperimentSpec spec;
    spec.title = "journal-fuzz";
    spec.jobs = 1;
    spec.jsonPath = out;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.01);
    spec.add(Benchmark::Db, SystemConfig{}, 0.01, "v");
    spec.add(Benchmark::Compress, SystemConfig{}, 0.01);
    runExperiment(spec);
    const std::string corpus = slurp(journalPathFor(out));
    ASSERT_EQ(linesWithAllFields(corpus), 3u);
    ASSERT_EQ(RunJournal::load(journalPathFor(out)).size(), 3u);

    Random rng(0x10a1f0221ull);
    std::size_t loaded = 0;
    std::size_t deduplicated = 0;
    for (int i = 0; i < iterations; ++i) {
        std::string text = corpus;
        int edits = 1 + int(rng.below(3));
        for (int e = 0; e < edits; ++e)
            mutate(text, rng);
        spill(path, text);

        std::vector<JournalEntry> entries;
        std::vector<JournalEntry> latest;
        setErrorHandler(throwingErrorHandler);
        try {
            entries = RunJournal::load(path);
            latest = RunJournal::loadLatest(path);
        } catch (const std::exception &err) {
            ADD_FAILURE() << "iteration " << i << ": " << err.what();
        }
        setErrorHandler(nullptr);
        loaded += entries.size();
        deduplicated += entries.size() - latest.size();

        // Only lines holding all eight fields yield entries, and
        // each entry is whole: the writer renders it back into a
        // line the reader returns unchanged.
        EXPECT_LE(entries.size(), linesWithAllFields(text)) << i;
        RunJournal writer;
        ASSERT_TRUE(writer.open(echo, /*truncate=*/true));
        for (const JournalEntry &entry : entries)
            writer.append(entry);
        std::vector<JournalEntry> echoed = RunJournal::load(echo);
        ASSERT_EQ(echoed.size(), entries.size()) << i;
        for (std::size_t k = 0; k < entries.size(); ++k)
            expectSameEntry(echoed[k], entries[k], i);

        // loadLatest: last occurrence wins, first-seen key order.
        std::vector<JournalEntry> expected;
        std::map<std::string, std::size_t> slot;
        for (const JournalEntry &entry : entries) {
            auto [it, fresh] = slot.emplace(
                journalKey(entry.experiment, entry.config),
                expected.size());
            if (fresh)
                expected.push_back(entry);
            else
                expected[it->second] = entry;
        }
        ASSERT_EQ(latest.size(), expected.size()) << i;
        for (std::size_t k = 0; k < latest.size(); ++k)
            expectSameEntry(latest[k], expected[k], i);
    }
    // The mutations reach both paths: damaged journals still yield
    // entries, and duplicated lines exercise the dedup.
    EXPECT_GT(loaded, std::size_t(iterations));
    EXPECT_GT(deduplicated, 0u);

    cleanup();
}
