/**
 * @file
 * Seeded mutation fuzzing of the serve wire protocol. g++ has no
 * libFuzzer, so softwatt::Random drives the mutations and every
 * iteration replays from the seed.
 *
 * The corpus is four lines the client and the daemon really write:
 * renderServeRequest of a run whose spec carries every run key and
 * the power-manager keys, of a cancel, and of a run with a wall
 * budget, and renderServeResponse of an answer whose document holds
 * quotes, backslashes and newlines. Each iteration applies one to
 * three mutations to one of them: truncation (anywhere or after a
 * structural byte), bit flips and structural bytes, \u escape
 * fragments, and duplicated or spliced members.
 *
 * Neither parser may throw. A line either parser accepts must render
 * back into a line that parses to the same fields. The spec of every
 * accepted run must parse through parseServeSpec or be refused with a
 * non-empty error, both with a throwing error handler installed and
 * without one; that reaches Config::parseAssignment and
 * SystemConfig::fromConfig.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

#include "serve/executor.hh"
#include "serve/protocol.hh"

#include "fuzz_scale.hh"
#include "quiet_log.hh"

using namespace softwatt;
using namespace softwatt::serve;

namespace
{

const int iterations = fuzzIterations(400);

/** Offsets where a member of a compact JSON object line starts. */
std::vector<std::size_t>
memberStarts(const std::string &line)
{
    std::vector<std::size_t> starts;
    for (std::size_t i = 1; i < line.size(); ++i) {
        if (line[i] == '"' && (line[i - 1] == '{' || line[i - 1] == ','))
            starts.push_back(i);
    }
    return starts;
}

/** The member text starting at @p start, without its trailing comma. */
std::string
memberAt(const std::string &line, std::size_t start,
         const std::vector<std::size_t> &starts)
{
    std::size_t end = line.size() - 1;  // The closing brace.
    for (std::size_t next : starts) {
        if (next > start) {
            end = next - 1;  // The comma before the next member.
            break;
        }
    }
    return line.substr(start, end > start ? end - start : 0);
}

/** One truncation, byte edit, escape fragment or member edit. */
void
mutate(std::string &line, Random &rng)
{
    if (line.empty())
        return;
    switch (rng.below(4)) {
      case 0: {
        // Truncate just after a byte of one kind, or anywhere.
        const char kinds[] = {'"', '\\', '{', ':', ','};
        std::size_t pick = rng.below(sizeof(kinds) + 1);
        std::vector<std::size_t> cuts;
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (pick == sizeof(kinds) || line[i] == kinds[pick])
                cuts.push_back(i + 1);
        }
        if (!cuts.empty())
            line.resize(cuts[rng.below(cuts.size())]);
        break;
      }
      case 1: {
        const char bytes[] = {'"', '\\', '{', '}', ':', ',',
                              '\n', '\0', '\x7f', '\xff'};
        char &at = line[rng.below(line.size())];
        if (rng.chance(0.5))
            at ^= char(1u << rng.below(8));
        else
            at = bytes[rng.below(sizeof(bytes))];
        break;
      }
      case 2: {
        // A whole, partial, surrogate or malformed \u escape.
        const char *const fragments[] = {
            "\\u",     "\\u0",     "\\u00",    "\\u002",
            "\\u0022", "\\u005c",  "\\u000a",  "\\u0000",
            "\\uZZZZ", "\\ud800",  "\\udc00",  "\\ud83d\\ude00",
            "\\u00e9", "\\uFFFF",  "\\",       "\\x41",
        };
        std::size_t count = sizeof(fragments) / sizeof(fragments[0]);
        line.insert(rng.below(line.size() + 1),
                    fragments[rng.below(count)]);
        break;
      }
      default: {
        std::vector<std::size_t> starts = memberStarts(line);
        if (starts.empty())
            return;
        std::size_t a = starts[rng.below(starts.size())];
        std::size_t b = starts[rng.below(starts.size())];
        std::string member = memberAt(line, a, starts);
        if (rng.chance(0.5)) {
            // The same member twice.
            line.insert(b, member + ",");
        } else {
            // Head of one member, tail of another.
            std::string other = memberAt(line, b, starts);
            std::string splice =
                member.substr(0, rng.below(member.size() + 1)) +
                other.substr(rng.below(other.size() + 1));
            line.insert(b, splice + ",");
        }
        break;
      }
    }
}

void
expectSameRequest(const ServeRequest &got, const ServeRequest &want,
                  int iteration)
{
    EXPECT_EQ(got.op, want.op) << iteration;
    EXPECT_EQ(got.id, want.id) << iteration;
    EXPECT_EQ(got.client, want.client) << iteration;
    EXPECT_EQ(got.experiment, want.experiment) << iteration;
    EXPECT_EQ(got.spec, want.spec) << iteration;
    EXPECT_EQ(got.wallMs, want.wallMs) << iteration;
}

void
expectSameResponse(const ServeResponse &got, const ServeResponse &want,
                   int iteration)
{
    EXPECT_EQ(got.id, want.id) << iteration;
    EXPECT_EQ(got.status, want.status) << iteration;
    EXPECT_EQ(got.error, want.error) << iteration;
    EXPECT_EQ(got.servedFrom, want.servedFrom) << iteration;
    EXPECT_EQ(got.warmStart, want.warmStart) << iteration;
    EXPECT_EQ(got.warmStartTick, want.warmStartTick) << iteration;
    EXPECT_EQ(got.ticksExecuted, want.ticksExecuted) << iteration;
    EXPECT_EQ(got.attempts, want.attempts) << iteration;
    EXPECT_EQ(got.degraded, want.degraded) << iteration;
    EXPECT_EQ(got.document, want.document) << iteration;
}

/**
 * parseServeSpec must answer @p text without throwing: true, or false
 * with a reason. @return whether it accepted the spec.
 */
bool
specAnswers(const std::string &text, int iteration)
{
    RunSpec spec;
    std::string error;
    bool accepted = false;
    try {
        accepted = parseServeSpec(text, spec, error);
    } catch (const std::exception &err) {
        ADD_FAILURE() << "iteration " << iteration << ": " << err.what();
        return false;
    }
    if (!accepted) {
        EXPECT_FALSE(error.empty()) << iteration << ": " << text;
    }
    return accepted;
}

} // namespace

TEST(ServeFuzz, DamagedLinesParseWholeOrNotAtAll)
{
    QuietLog quiet;
    // A spec that carries every run key and the power-manager keys.
    ServeRequest run;
    run.id = "sweep-7";
    run.client = "fuzz \"client\"";
    run.experiment = "fig5";
    run.spec = "bench=javac scale=0.02 variant=managed deadline_s=30 "
               "grace_s=2 cpu.model=inorder disk.config=spindown "
               "disk.threshold_s=2 adaptive_spindown=1 dvfs=1 "
               "power_budget_w=6 sample_window=2000";
    ServeRequest cancel;
    cancel.op = "cancel";
    cancel.id = "sweep-7";
    cancel.client = "fuzz";
    ServeRequest budgeted;
    budgeted.id = "budgeted";
    budgeted.client = "fuzz";
    budgeted.spec = "bench=jess scale=0.05";
    budgeted.wallMs = 1500;

    ServeResponse answer;
    answer.id = "sweep-7";
    answer.status = "ok";
    answer.error = "retried after \"io-failed\"";
    answer.servedFrom = "executed";
    answer.warmStart = true;
    answer.warmStartTick = 531369;
    answer.ticksExecuted = 4329;
    answer.attempts = 2;
    answer.degraded = true;
    answer.document = "{\n  \"title\": \"say \\\"hi\\\"\",\n"
                      "  \"path\": \"C:\\\\runs\\\\x\"\n}\n";

    const std::vector<std::string> corpus = {
        renderServeRequest(run), renderServeRequest(cancel),
        renderServeRequest(budgeted), renderServeResponse(answer)};
    for (const ServeRequest &request : {run, budgeted})
        ASSERT_TRUE(specAnswers(request.spec, -1)) << request.spec;

    Random rng(0x5e7fe0221ull);
    std::size_t requests = 0;
    std::size_t responses = 0;
    std::size_t specsAccepted = 0;
    std::size_t specsRefused = 0;
    for (int i = 0; i < iterations; ++i) {
        std::string line = corpus[rng.below(corpus.size())];
        int edits = 1 + int(rng.below(3));
        for (int e = 0; e < edits; ++e)
            mutate(line, rng);

        ServeRequest request;
        ServeResponse response;
        std::string error;
        bool isRequest = false;
        bool isResponse = false;
        try {
            isRequest = parseServeRequest(line, request, error);
            isResponse = parseServeResponse(line, response, error);
        } catch (const std::exception &err) {
            ADD_FAILURE() << "iteration " << i << ": " << err.what();
            continue;
        }

        if (isRequest) {
            ++requests;
            ServeRequest echoed;
            ASSERT_TRUE(parseServeRequest(renderServeRequest(request),
                                          echoed, error))
                << i << ": " << error;
            expectSameRequest(echoed, request, i);
            if (request.op == "run") {
                // Once as the client calls it, once as the daemon
                // does, under its lifetime throwing handler.
                bool bare = specAnswers(request.spec, i);
                setErrorHandler(throwingErrorHandler);
                bool handled = specAnswers(request.spec, i);
                setErrorHandler(nullptr);
                EXPECT_EQ(bare, handled) << i << ": " << request.spec;
                (handled ? specsAccepted : specsRefused) += 1;
            }
        }
        if (isResponse) {
            ++responses;
            ServeResponse echoed;
            ASSERT_TRUE(parseServeResponse(
                renderServeResponse(response), echoed, error))
                << i << ": " << error;
            expectSameResponse(echoed, response, i);
        }
    }
    // The mutations reach every path: damaged lines still parse, and
    // damaged specs are both accepted and refused.
    EXPECT_GT(requests, std::size_t(iterations / 10));
    EXPECT_GT(responses, std::size_t(iterations / 20));
    EXPECT_GT(specsAccepted, 0u);
    EXPECT_GT(specsRefused, 0u);
}
