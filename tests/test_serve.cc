/**
 * @file
 * Coverage for the softwatt-serve service layer (DESIGN.md §4j):
 * admission queue fairness and shedding, the wire protocol, the
 * journal's cross-generation read path under adversarial truncation,
 * the warm checkpoint pool (promotion, rotation, LRU eviction, orphan
 * recovery), spec parsing, session I/O against dead peers, the
 * executor's warm-start evidence (a warm-started run must skip the
 * warm-up it shares with its predecessor and still produce a
 * byte-identical document), and an in-process end-to-end daemon
 * driven through ServeClient — including a journal replay across a
 * simulated daemon restart.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/journal.hh"
#include "core/runner.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

#include "serve/admission.hh"
#include "serve/checkpoint_pool.hh"
#include "serve/client.hh"
#include "serve/executor.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/session.hh"

namespace fs = std::filesystem;

using softwatt::CancelToken;
using softwatt::CheckpointImage;
using softwatt::ChunkWriter;
using softwatt::Config;
using softwatt::JournalEntry;
using softwatt::journalKey;
using softwatt::RunJournal;
using softwatt::RunSpec;
using softwatt::ScopedErrorHandler;
using softwatt::SimError;
using softwatt::specFingerprint;
using softwatt::throwingErrorHandler;
using softwatt::writeCheckpoint;

using softwatt::serve::AdmissionQueue;
using softwatt::serve::CheckpointPool;
using softwatt::serve::executeServeSpec;
using softwatt::serve::parseServeRequest;
using softwatt::serve::parseServeResponse;
using softwatt::serve::parseServeSpec;
using softwatt::serve::renderServeRequest;
using softwatt::serve::renderServeResponse;
using softwatt::serve::ServeClient;
using softwatt::serve::ServeExecOptions;
using softwatt::serve::ServeExecResult;
using softwatt::serve::ServeOptions;
using softwatt::serve::ServeRequest;
using softwatt::serve::ServeResponse;
using softwatt::serve::ServeServer;
using softwatt::serve::Session;

namespace
{

/** Per-test scratch directory, removed on teardown. */
class ServeDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path() /
               ("softwatt-serve-" + std::to_string(getpid()) + "-" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name()))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

/** A valid checkpoint image with a payload of @p bytes bytes. */
CheckpointImage
makeImage(std::uint64_t fingerprint, std::size_t bytes)
{
    CheckpointImage image;
    image.configFingerprint = fingerprint;
    ChunkWriter chunk;
    for (std::size_t i = 0; i < bytes; ++i)
        chunk.u8(std::uint8_t(i));
    image.add("payload", std::move(chunk));
    return image;
}

JournalEntry
makeEntry(const std::string &bench, const std::string &config,
          int attempts, const std::string &body)
{
    JournalEntry entry;
    entry.experiment = "serve";
    entry.bench = bench;
    entry.variant = "";
    entry.config = config;
    entry.outcome = "completed";
    entry.attempts = attempts;
    entry.runJson = body;
    return entry;
}

} // namespace

// ---------------------------------------------------------------
// AdmissionQueue

TEST(ServeAdmission, RoundRobinsAcrossClients)
{
    AdmissionQueue<int> queue(0);
    ASSERT_EQ(queue.push("a", 1), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("a", 2), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("a", 3), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("b", 10), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("c", 20), AdmissionQueue<int>::Admit::Admitted);

    // One job from each client in turn; a's backlog only drains once
    // b and c got their slot.
    std::vector<int> order;
    int item = 0;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(queue.pop(item));
        order.push_back(item);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 10, 20, 2, 3}));
    EXPECT_EQ(queue.size(), 0u);
}

TEST(ServeAdmission, ShedsAtTheBoundAndRecovers)
{
    AdmissionQueue<int> queue(2);
    EXPECT_EQ(queue.push("a", 1), AdmissionQueue<int>::Admit::Admitted);
    EXPECT_EQ(queue.push("b", 2), AdmissionQueue<int>::Admit::Admitted);
    EXPECT_EQ(queue.push("c", 3), AdmissionQueue<int>::Admit::Shed);

    int item = 0;
    ASSERT_TRUE(queue.pop(item));
    EXPECT_EQ(queue.push("c", 3), AdmissionQueue<int>::Admit::Admitted);
}

TEST(ServeAdmission, CloseDrainsBacklogThenUnblocks)
{
    AdmissionQueue<int> queue(0);
    queue.push("a", 1);
    queue.close();
    EXPECT_EQ(queue.push("a", 2), AdmissionQueue<int>::Admit::Closed);
    EXPECT_TRUE(queue.closed());

    int item = 0;
    ASSERT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 1);
    EXPECT_FALSE(queue.pop(item));
}

TEST(ServeAdmission, DrainReturnsRoundRobinOrder)
{
    AdmissionQueue<int> queue(0);
    queue.push("a", 1);
    queue.push("a", 2);
    queue.push("b", 10);
    std::vector<int> dropped = queue.drain();
    EXPECT_EQ(dropped, (std::vector<int>{1, 10, 2}));
    EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------
// Wire protocol

TEST(ServeProtocol, RequestRoundTrips)
{
    ServeRequest request;
    request.op = "run";
    request.id = "job-7";
    request.client = "sweeper \"alpha\"";
    request.experiment = "fig5";
    request.spec = "bench=gcc scale=0.25 variant=x\ty";
    request.wallMs = 12345;

    ServeRequest parsed;
    std::string error;
    ASSERT_TRUE(
        parseServeRequest(renderServeRequest(request), parsed, error))
        << error;
    EXPECT_EQ(parsed.op, request.op);
    EXPECT_EQ(parsed.id, request.id);
    EXPECT_EQ(parsed.client, request.client);
    EXPECT_EQ(parsed.experiment, request.experiment);
    EXPECT_EQ(parsed.spec, request.spec);
    EXPECT_EQ(parsed.wallMs, request.wallMs);
}

TEST(ServeProtocol, ResponseRoundTrips)
{
    ServeResponse response;
    response.id = "job-7";
    response.status = "ok";
    response.error = "";
    response.servedFrom = "journal";
    response.warmStart = true;
    response.warmStartTick = 531369;
    response.ticksExecuted = 4329;
    response.attempts = 2;
    response.document = "{\n  \"schema\": \"x\"\n}\n";

    ServeResponse parsed;
    std::string error;
    ASSERT_TRUE(parseServeResponse(renderServeResponse(response),
                                   parsed, error))
        << error;
    EXPECT_EQ(parsed.id, response.id);
    EXPECT_EQ(parsed.status, response.status);
    EXPECT_EQ(parsed.servedFrom, response.servedFrom);
    EXPECT_TRUE(parsed.warmStart);
    EXPECT_EQ(parsed.warmStartTick, response.warmStartTick);
    EXPECT_EQ(parsed.ticksExecuted, response.ticksExecuted);
    EXPECT_EQ(parsed.attempts, response.attempts);
    EXPECT_EQ(parsed.document, response.document);
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    ServeRequest parsed;
    std::string error;

    // Not this protocol at all.
    EXPECT_FALSE(parseServeRequest("", parsed, error));
    EXPECT_FALSE(parseServeRequest("garbage", parsed, error));
    EXPECT_FALSE(parseServeRequest(
        "{\"schema\":\"softwatt-journal-v1\"}", parsed, error));

    ServeRequest request;
    request.id = "j";
    request.client = "c";
    request.spec = "bench=jess";

    // Unknown op.
    request.op = "frobnicate";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));
    EXPECT_NE(error.find("frobnicate"), std::string::npos);
    request.op = "run";

    // Missing id / client / spec.
    request.id = "";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));
    request.id = "j";
    request.client = "";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));
    request.client = "c";
    request.spec = "";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));

    // A cancel needs no spec.
    request.op = "cancel";
    EXPECT_TRUE(
        parseServeRequest(renderServeRequest(request), parsed, error))
        << error;
}

// ---------------------------------------------------------------
// Journal: the cross-generation read path (loadLatest) under the
// truncation and duplication patterns a SIGKILL'd daemon produces.

TEST_F(ServeDirTest, JournalSkipsTornFinalLine)
{
    std::string path = dir + "/serve.journal.jsonl";
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, true));
        journal.append(makeEntry("jess", "aaaa", 1, "{one}"));
        journal.append(makeEntry("gcc", "bbbb", 1, "{two}"));
    }
    // Tear the last line mid-record, as a crash mid-append would.
    std::uintmax_t size = fs::file_size(path);
    fs::resize_file(path, size - 9);

    std::vector<JournalEntry> entries = RunJournal::loadLatest(path);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].bench, "jess");
    EXPECT_EQ(entries[0].runJson, "{one}");
}

TEST_F(ServeDirTest, JournalLastDuplicateWins)
{
    std::string path = dir + "/serve.journal.jsonl";
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, true));
        journal.append(makeEntry("jess", "aaaa", 1, "{stale}"));
        journal.append(makeEntry("gcc", "bbbb", 1, "{other}"));
        journal.append(makeEntry("jess", "aaaa", 2, "{fresh}"));
    }
    std::vector<JournalEntry> entries = RunJournal::loadLatest(path);
    ASSERT_EQ(entries.size(), 2u);
    // Keys keep first-seen order; the duplicate's payload is the
    // last (final retry) occurrence.
    EXPECT_EQ(entries[0].bench, "jess");
    EXPECT_EQ(entries[0].attempts, 2);
    EXPECT_EQ(entries[0].runJson, "{fresh}");
    EXPECT_EQ(entries[1].bench, "gcc");
}

TEST_F(ServeDirTest, JournalInterleavesDaemonGenerations)
{
    std::string path = dir + "/serve.journal.jsonl";
    {
        // Generation 1 answers two jobs, then is SIGKILL'd.
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, true));
        journal.append(makeEntry("jess", "aaaa", 1, "{gen1-jess}"));
        journal.append(makeEntry("gcc", "bbbb", 1, "{gen1-gcc}"));
    }
    {
        // Generation 2 opens in append mode (truncate=false), re-runs
        // one job and answers a new one.
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, false));
        journal.append(makeEntry("gcc", "bbbb", 2, "{gen2-gcc}"));
        journal.append(makeEntry("perl", "cccc", 1, "{gen2-perl}"));
    }
    std::vector<JournalEntry> entries = RunJournal::loadLatest(path);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].runJson, "{gen1-jess}");
    EXPECT_EQ(entries[1].runJson, "{gen2-gcc}");
    EXPECT_EQ(entries[1].attempts, 2);
    EXPECT_EQ(entries[2].runJson, "{gen2-perl}");
}

TEST_F(ServeDirTest, JournalMissingFileYieldsNoEntries)
{
    EXPECT_TRUE(
        RunJournal::loadLatest(dir + "/absent.jsonl").empty());
}

// ---------------------------------------------------------------
// Warm checkpoint pool

TEST_F(ServeDirTest, PoolPromotesAndLooksUp)
{
    CheckpointPool pool(dir, 64 << 20);
    const std::uint64_t key = 0x1234abcd5678ef01ull;

    EXPECT_EQ(pool.lookup(key), "");

    std::string inflight = pool.inflightPath(key);
    EXPECT_NE(inflight, pool.inflightPath(key));
    writeCheckpoint(inflight, makeImage(key, 256));
    EXPECT_TRUE(pool.promote(key, inflight));

    std::string warm = pool.lookup(key);
    EXPECT_EQ(warm, dir + "/" + CheckpointPool::keyName(key));
    EXPECT_TRUE(fs::exists(warm));
    EXPECT_FALSE(fs::exists(inflight));
    EXPECT_EQ(pool.entries(), 1u);
    EXPECT_GT(pool.bytesUsed(), 0u);
}

TEST_F(ServeDirTest, PoolRotatesThePreviousGeneration)
{
    CheckpointPool pool(dir, 64 << 20);
    const std::uint64_t key = 42;

    std::string first = pool.inflightPath(key);
    writeCheckpoint(first, makeImage(key, 100));
    ASSERT_TRUE(pool.promote(key, first));
    std::uintmax_t firstSize =
        fs::file_size(dir + "/" + CheckpointPool::keyName(key));

    std::string second = pool.inflightPath(key);
    writeCheckpoint(second, makeImage(key, 300));
    ASSERT_TRUE(pool.promote(key, second));

    std::string warm = pool.lookup(key);
    std::string previous =
        softwatt::checkpointPreviousGeneration(warm);
    ASSERT_TRUE(fs::exists(previous));
    EXPECT_EQ(fs::file_size(previous), firstSize);
    EXPECT_GT(fs::file_size(warm), fs::file_size(previous));
    // Both generations count against the budget.
    EXPECT_EQ(pool.bytesUsed(),
              fs::file_size(warm) + fs::file_size(previous));
}

TEST_F(ServeDirTest, PoolScratchModeRetainsNothing)
{
    CheckpointPool pool(dir, 0);
    const std::uint64_t key = 7;
    std::string inflight = pool.inflightPath(key);
    writeCheckpoint(inflight, makeImage(key, 64));
    EXPECT_FALSE(pool.promote(key, inflight));
    EXPECT_FALSE(fs::exists(inflight));
    EXPECT_EQ(pool.lookup(key), "");
    EXPECT_EQ(pool.entries(), 0u);
}

TEST_F(ServeDirTest, PoolDropsEntriesWhoseFilesVanished)
{
    CheckpointPool pool(dir, 64 << 20);
    const std::uint64_t key = 9;
    std::string inflight = pool.inflightPath(key);
    writeCheckpoint(inflight, makeImage(key, 64));
    ASSERT_TRUE(pool.promote(key, inflight));

    fs::remove(dir + "/" + CheckpointPool::keyName(key));
    EXPECT_EQ(pool.lookup(key), "");
    EXPECT_EQ(pool.entries(), 0u);
}

TEST_F(ServeDirTest, PoolEvictsLeastRecentlyUsedOverBudget)
{
    // Size one image, then budget the pool for two of them.
    const std::size_t payload = 4096;
    std::string probe = dir + "/probe.bin";
    writeCheckpoint(probe, makeImage(1, payload));
    std::uintmax_t imageSize = fs::file_size(probe);
    fs::remove(probe);

    CheckpointPool pool(dir, std::uint64_t(imageSize) * 2 +
                                 imageSize / 2);
    for (std::uint64_t key = 1; key <= 3; ++key) {
        std::string inflight = pool.inflightPath(key);
        writeCheckpoint(inflight, makeImage(key, payload));
        pool.promote(key, inflight);
    }

    EXPECT_GE(pool.evictions(), 1u);
    EXPECT_EQ(pool.lookup(1), "");  // Oldest key paid for the rest.
    EXPECT_NE(pool.lookup(3), "");
    EXPECT_LE(pool.bytesUsed(), std::uint64_t(imageSize) * 2 +
                                    imageSize / 2);
}

TEST_F(ServeDirTest, PoolRecoversOrphansAndDropsTornOnes)
{
    const std::uint64_t pooled = 0x11;
    const std::uint64_t orphan = 0x22;
    const std::uint64_t torn = 0x33;

    // An existing pool image from the previous daemon generation.
    writeCheckpoint(dir + "/" + CheckpointPool::keyName(pooled),
                    makeImage(pooled, 128));

    // A healthy orphaned in-flight image...
    std::string orphanPath =
        dir + "/" + CheckpointPool::keyName(orphan).substr(0, 16) +
        ".inflight.0.ckpt";
    writeCheckpoint(orphanPath, makeImage(orphan, 128));
    // ...with a stale rotated generation beside it.
    writeCheckpoint(orphanPath + ".1", makeImage(orphan, 64));

    // An orphan torn by SIGKILL mid-write, whose rotated predecessor
    // is intact: recovery must fall back one generation.
    std::string tornPath =
        dir + "/" + CheckpointPool::keyName(torn).substr(0, 16) +
        ".inflight.0.ckpt";
    writeCheckpoint(tornPath, makeImage(torn, 256));
    fs::resize_file(tornPath, fs::file_size(tornPath) / 2);
    writeCheckpoint(tornPath + ".1", makeImage(torn, 128));

    CheckpointPool pool(dir, 64 << 20);
    EXPECT_EQ(pool.recover(), 2u);
    EXPECT_EQ(pool.entries(), 3u);
    EXPECT_NE(pool.lookup(pooled), "");
    EXPECT_NE(pool.lookup(orphan), "");
    EXPECT_NE(pool.lookup(torn), "");
    EXPECT_FALSE(fs::exists(orphanPath));
    EXPECT_FALSE(fs::exists(tornPath));

    // The recovered torn key serves its intact predecessor.
    EXPECT_NO_THROW(softwatt::readCheckpoint(pool.lookup(torn)));
}

TEST_F(ServeDirTest, PoolRecoversRotatedGenerationWithoutBase)
{
    const std::uint64_t lost = 0x44;
    const std::uint64_t torn = 0x55;

    // A rotated pool generation whose newest image vanished (crash
    // between promote's rotate and rename): recovery must put the
    // survivor back into the pool slot, not leak it untracked.
    std::string lostBase = dir + "/" + CheckpointPool::keyName(lost);
    writeCheckpoint(lostBase + ".1", makeImage(lost, 128));

    // Same shape but the survivor itself is torn: recovery must
    // delete it rather than leave it on disk forever.
    std::string tornBase = dir + "/" + CheckpointPool::keyName(torn);
    writeCheckpoint(tornBase + ".1", makeImage(torn, 256));
    fs::resize_file(tornBase + ".1",
                    fs::file_size(tornBase + ".1") / 2);

    CheckpointPool pool(dir, 64 << 20);
    EXPECT_EQ(pool.recover(), 1u);
    EXPECT_EQ(pool.entries(), 1u);
    EXPECT_EQ(pool.lookup(lost), lostBase);
    EXPECT_TRUE(fs::exists(lostBase));
    EXPECT_FALSE(fs::exists(lostBase + ".1"));
    EXPECT_NO_THROW(softwatt::readCheckpoint(lostBase));
    EXPECT_EQ(pool.lookup(torn), "");
    EXPECT_FALSE(fs::exists(tornBase + ".1"));
}

TEST_F(ServeDirTest, PoolDropsImagesInAnotherFormatVersion)
{
    const std::uint64_t old_key = 0x66;
    const std::uint64_t mixed = 0x77;
    const std::uint64_t current = 0x88;

    // A pool image (and its rotated generation) written by a daemon
    // with version-1 checkpoints: the pool key has no format version
    // in it, so only the header tells the generations apart.
    CheckpointImage v1 = makeImage(old_key, 128);
    v1.version = 1;
    std::string oldBase = dir + "/" + CheckpointPool::keyName(old_key);
    writeCheckpoint(oldBase, v1);
    writeCheckpoint(oldBase + ".1", v1);
    ASSERT_EQ(softwatt::peekCheckpointVersion(oldBase), 1u);

    // A current image whose rotated generation is stale.
    CheckpointImage stale = makeImage(mixed, 64);
    stale.version = 1;
    std::string mixedBase = dir + "/" + CheckpointPool::keyName(mixed);
    writeCheckpoint(mixedBase, makeImage(mixed, 128));
    writeCheckpoint(mixedBase + ".1", stale);

    writeCheckpoint(dir + "/" + CheckpointPool::keyName(current),
                    makeImage(current, 128));

    CheckpointPool pool(dir, 64 << 20);
    EXPECT_EQ(pool.recover(), 0u);
    EXPECT_EQ(pool.lookup(old_key), "");
    EXPECT_FALSE(fs::exists(oldBase));
    EXPECT_FALSE(fs::exists(oldBase + ".1"));
    EXPECT_EQ(pool.lookup(mixed), mixedBase);
    EXPECT_FALSE(fs::exists(mixedBase + ".1"));
    EXPECT_NE(pool.lookup(current), "");
    EXPECT_EQ(pool.entries(), 2u);
}

// ---------------------------------------------------------------
// Spec parsing and service options

TEST(ServeSpec, ParsesRunKeysAndMachineKeys)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(parseServeSpec(
        "bench=db scale=0.25 variant=base deadline_s=2 grace_s=1 "
        "tech.mhz=400",
        spec, error))
        << error;
    EXPECT_STREQ(softwatt::benchmarkName(spec.bench), "db");
    EXPECT_EQ(spec.variant, "base");
    EXPECT_DOUBLE_EQ(spec.scale, 0.25);
    EXPECT_DOUBLE_EQ(spec.config.deadlineSeconds, 2.0);
    EXPECT_DOUBLE_EQ(spec.config.shutdownGraceSeconds, 1.0);
    EXPECT_DOUBLE_EQ(spec.config.machine.freqMhz, 400.0);
}

TEST(ServeSpec, RejectsBadSpecsWithoutTerminating)
{
    RunSpec spec;
    std::string error;

    EXPECT_FALSE(parseServeSpec("notakv", spec, error));
    EXPECT_NE(error.find("notakv"), std::string::npos);

    EXPECT_FALSE(parseServeSpec("bench=nosuch", spec, error));

    for (const char *bad :
         {"bench=jess scale=0", "bench=jess scale=nan",
          "bench=jess scale=-1", "bench=jess scale=inf",
          "bench=jess scale=1e7"}) {
        EXPECT_FALSE(parseServeSpec(bad, spec, error)) << bad;
        EXPECT_NE(error.find("scale"), std::string::npos) << bad;
    }

    EXPECT_FALSE(parseServeSpec("bench=jess bogus_key=1", spec, error));
    EXPECT_NE(error.find("bogus_key"), std::string::npos);
}

TEST(ServeSpec, UsesTheCallersInstalledHandler)
{
    // With a handler already installed (as in the daemon, for its
    // whole lifetime), parsing must not swap the process-global
    // handler — session threads would race each other doing so. The
    // caller's handler observing the error proves it stayed put.
    int calls = 0;
    ScopedErrorHandler firewall(
        [&calls](softwatt::ErrorKind, const std::string &) {
            ++calls;
        });
    RunSpec spec;
    std::string error;
    EXPECT_FALSE(parseServeSpec("notakv", spec, error));
    EXPECT_EQ(calls, 1);
    EXPECT_NE(error.find("notakv"), std::string::npos);
}

TEST(ServeExecutor, RetryBackoffIsClampedAndDefined)
{
    using softwatt::serve::retryBackoffMs;

    // The plain exponential prefix.
    EXPECT_EQ(retryBackoffMs(100, 1), 100u);
    EXPECT_EQ(retryBackoffMs(100, 2), 200u);
    EXPECT_EQ(retryBackoffMs(100, 5), 1600u);

    // Growth caps at 2^6 and the delay at a few seconds; attempt
    // counts past 64 (serve_retries allows 100) must stay defined
    // instead of shifting a 64-bit value by >= 64.
    EXPECT_EQ(retryBackoffMs(100, 7), 5000u);
    EXPECT_EQ(retryBackoffMs(100, 65), 5000u);
    EXPECT_EQ(retryBackoffMs(100, 100), 5000u);
    EXPECT_EQ(retryBackoffMs(0, 100), 0u);

    // An explicitly large base is honoured but never exceeded.
    EXPECT_EQ(retryBackoffMs(60000, 3), 60000u);
}

TEST(ServeSpec, OptionsValidateRanges)
{
    ScopedErrorHandler firewall(throwingErrorHandler);

    Config good;
    good.parseAssignment("serve_socket=/tmp/x.sock");
    good.parseAssignment("serve_state=/tmp/x.state");
    good.parseAssignment("serve_jobs=4");
    good.parseAssignment("serve_queue_max=8");
    good.parseAssignment("serve_warm_s=0.5");
    ServeOptions options = ServeOptions::fromConfig(good);
    EXPECT_EQ(options.jobs, 4);
    EXPECT_EQ(options.queueMax, 8u);
    EXPECT_DOUBLE_EQ(options.warmS, 0.5);

    Config missingSocket;
    missingSocket.parseAssignment("serve_state=/tmp/x.state");
    EXPECT_THROW(ServeOptions::fromConfig(missingSocket), SimError);

    Config badJobs;
    badJobs.parseAssignment("serve_socket=/tmp/x.sock");
    badJobs.parseAssignment("serve_state=/tmp/x.state");
    badJobs.parseAssignment("serve_jobs=0");
    EXPECT_THROW(ServeOptions::fromConfig(badJobs), SimError);

    Config badRetries;
    badRetries.parseAssignment("serve_socket=/tmp/x.sock");
    badRetries.parseAssignment("serve_state=/tmp/x.state");
    badRetries.parseAssignment("serve_retries=101");
    EXPECT_THROW(ServeOptions::fromConfig(badRetries), SimError);
}

// ---------------------------------------------------------------
// Session I/O against misbehaving peers

TEST(ServeSession, SplitsLinesAndStripsNewlines)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);

    const char *bytes = "alpha\nbeta\n";
    ASSERT_EQ(::send(fds[1], bytes, 11, 0), 11);
    ::close(fds[1]);

    std::string line;
    ASSERT_TRUE(session.readLine(line));
    EXPECT_EQ(line, "alpha");
    ASSERT_TRUE(session.readLine(line));
    EXPECT_EQ(line, "beta");
    EXPECT_FALSE(session.readLine(line));
}

TEST(ServeSession, DiscardsTornLineAtEof)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);

    const char *bytes = "whole\ntorn-partial";
    ASSERT_EQ(::send(fds[1], bytes, 18, 0), 18);
    ::close(fds[1]);

    std::string line;
    ASSERT_TRUE(session.readLine(line));
    EXPECT_EQ(line, "whole");
    EXPECT_FALSE(session.readLine(line));
}

TEST(ServeSession, DeadPeerBreaksTheSessionNotTheProcess)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);
    ::close(fds[1]);

    // The first write may land in the socket buffer; repeated writes
    // must surface EPIPE as a broken session, never a SIGPIPE kill.
    std::string line(4096, 'x');
    bool failed = false;
    for (int i = 0; i < 64 && !failed; ++i)
        failed = !session.writeLine(line);
    EXPECT_TRUE(failed);
    EXPECT_TRUE(session.broken());
    EXPECT_FALSE(session.writeLine("still broken"));
}

TEST(ServeSession, ShutdownUnblocksAReader)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);

    std::thread reader([&session] {
        std::string line;
        EXPECT_FALSE(session.readLine(line));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    session.shutdownBoth();
    reader.join();
    ::close(fds[1]);
}

// ---------------------------------------------------------------
// Executor: the warm start must demonstrably skip the warm-up and
// still produce a byte-identical document.

TEST_F(ServeDirTest, WarmStartSkipsWarmupByteIdentically)
{
    ScopedErrorHandler firewall(throwingErrorHandler);
    CancelToken token;

    // Autosave every 20k ticks (1e-4 simulated seconds at the
    // default 200 MHz) so even this short run banks many images.
    ServeExecOptions policy;
    policy.warmEveryS = 0.0001;

    fs::create_directories(dir + "/pool");
    CheckpointPool pool(dir + "/pool", 64 << 20);
    policy.pool = &pool;

    RunSpec spec;
    std::string error;
    ASSERT_TRUE(parseServeSpec("bench=jess scale=0.05", spec, error))
        << error;

    // Run 1: cold, fills the pool.
    ServeExecResult cold = executeServeSpec(spec, policy, token);
    ASSERT_TRUE(cold.run.hasData());
    EXPECT_FALSE(cold.run.warmStarted);
    EXPECT_GT(cold.run.ticksExecuted, 0u);
    EXPECT_EQ(pool.entries(), 1u);

    // Run 2: same machine, different run management (a non-binding
    // deadline changes specFingerprint but not the machine
    // fingerprint), so it shares the warm image.
    RunSpec warmSpec;
    ASSERT_TRUE(parseServeSpec("bench=jess scale=0.05 deadline_s=999",
                               warmSpec, error))
        << error;
    ServeExecResult warm = executeServeSpec(warmSpec, policy, token);
    ASSERT_TRUE(warm.run.hasData());
    EXPECT_TRUE(warm.run.warmStarted);
    EXPECT_GT(warm.run.warmStartTick, 0u);

    // The warm start must skip the bulk of the run, not a sliver.
    EXPECT_LT(warm.run.ticksExecuted, cold.run.ticksExecuted / 2);
    EXPECT_EQ(warm.run.warmStartTick + warm.run.ticksExecuted,
              cold.run.ticksExecuted);

    // Byte-identity against a cold reference of the SAME spec at the
    // same cadence, produced through a scratch pool (always misses).
    fs::create_directories(dir + "/scratch");
    CheckpointPool scratch(dir + "/scratch", 0);
    ServeExecOptions reference = policy;
    reference.pool = &scratch;
    ServeExecResult coldRef =
        executeServeSpec(warmSpec, reference, token);
    ASSERT_TRUE(coldRef.run.hasData());
    EXPECT_FALSE(coldRef.run.warmStarted);
    EXPECT_EQ(warm.runJson, coldRef.runJson);
}

// ---------------------------------------------------------------
// End to end: an in-process daemon driven through ServeClient.

namespace
{

/** Start @p server's serveUntil on a thread; joins on destruction. */
class ServerThread
{
  public:
    explicit ServerThread(ServeServer &server)
        : thread([&server, this] { server.serveUntil(stop); })
    {}

    ~ServerThread()
    {
        stop.request(CancelToken::Hard);
        if (thread.joinable())
            thread.join();
    }

    /** Graceful drain, then wait for exit. */
    void
    drain()
    {
        stop.request(CancelToken::Drain);
        thread.join();
    }

    CancelToken stop;

  private:
    std::thread thread;
};

} // namespace

TEST_F(ServeDirTest, ServerAnswersJournalsAndReplaysAcrossRestart)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 2;
    options.warmS = 0.0001;
    options.retries = 0;

    std::string firstDocument;
    {
        ServeServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        ServerThread running(server);

        ServeClient client;
        ASSERT_TRUE(client.connect(options.socketPath, error))
            << error;

        ServeRequest request;
        request.id = "job-1";
        request.client = "e2e";
        request.spec = "bench=jess scale=0.03";
        ServeResponse response;
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.id, "job-1");
        EXPECT_EQ(response.status, "ok") << response.error;
        EXPECT_EQ(response.servedFrom, "executed");
        ASSERT_FALSE(response.document.empty());
        EXPECT_EQ(response.document.front(), '{');
        firstDocument = response.document;

        // Same spec under a new id: answered from the journal,
        // byte-identically, without executing anything.
        request.id = "job-2";
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "ok") << response.error;
        EXPECT_EQ(response.servedFrom, "journal");
        EXPECT_EQ(response.document, firstDocument);

        // The same run under closed-loop DVFS is another answer: the
        // power-manager settings are part of the journal key. Once
        // executed, it too is answered from the journal.
        request.id = "job-dvfs";
        request.spec = "bench=jess scale=0.03 dvfs=1 power_budget_w=6";
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "ok") << response.error;
        EXPECT_EQ(response.servedFrom, "executed");
        EXPECT_NE(response.document.find("\"dvfs\""),
                  std::string::npos);
        const std::string dvfsDocument = response.document;
        request.id = "job-dvfs-again";
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.servedFrom, "journal");
        EXPECT_EQ(response.document, dvfsDocument);

        // A malformed line gets a structured rejection, and the
        // session survives to serve the next request.
        ASSERT_TRUE(client.session()->writeLine("not json"));
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.status, "bad-request");

        // A run whose spec cannot parse is rejected, not executed.
        request.id = "job-3";
        request.spec = "bench=jess nonsense_key=1";
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "bad-request");
        EXPECT_NE(response.error.find("nonsense_key"),
                  std::string::npos);

        EXPECT_EQ(server.executedJobs(), 2u);
        EXPECT_EQ(server.journalHits(), 2u);
        running.drain();
        EXPECT_FALSE(fs::exists(options.socketPath));
    }

    // "Restart" the daemon on the same state directory: the journal
    // must re-answer the finished job byte-identically.
    {
        ServeServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        ServerThread running(server);

        ServeClient client;
        ASSERT_TRUE(client.connect(options.socketPath, error))
            << error;
        ServeRequest request;
        request.id = "job-after-restart";
        request.client = "e2e";
        request.spec = "bench=jess scale=0.03";
        ServeResponse response;
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "ok") << response.error;
        EXPECT_EQ(response.servedFrom, "journal");
        EXPECT_EQ(response.document, firstDocument);
        EXPECT_EQ(server.executedJobs(), 0u);
        EXPECT_EQ(server.journalHits(), 1u);
        running.drain();
    }
}

namespace
{

/**
 * Send a cancel for a job that does not exist and return every
 * response that arrives before its acknowledgement. A session handles
 * its lines in order, so once the ack arrives every request sent
 * before it has been admitted or answered.
 */
std::vector<ServeResponse>
syncSession(ServeClient &client, const std::string &name)
{
    ServeRequest ping;
    ping.op = "cancel";
    ping.id = "sync";
    ping.client = name;
    EXPECT_TRUE(client.send(ping));
    std::vector<ServeResponse> before;
    ServeResponse response;
    std::string error;
    while (client.receive(response, error)) {
        if (response.id == "sync")
            return before;
        before.push_back(response);
    }
    ADD_FAILURE() << "no ack for the sync cancel: " << error;
    return before;
}

} // namespace

TEST_F(ServeDirTest, ServerShedsWhenTheQueueIsFull)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;
    options.queueMax = 1;
    options.retries = 0;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;

    // One slow job occupies the only worker.
    ServeRequest request;
    request.id = "slow-1";
    request.client = "flood";
    request.spec = "bench=jess scale=2.0";
    ASSERT_TRUE(client.send(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // serve_queue_max counts the jobs waiting for a worker: of seven
    // more, one waits and six draw a structured overloaded rejection.
    // The pauses would let any buffer behind the queue take a job
    // before the next one arrives.
    for (int i = 2; i <= 8; ++i) {
        request.id = "slow-" + std::to_string(i);
        ASSERT_TRUE(client.send(request));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::vector<ServeResponse> shed = syncSession(client, "flood");
    ASSERT_EQ(shed.size(), 6u);
    for (const ServeResponse &response : shed)
        EXPECT_EQ(response.status, "overloaded") << response.id;
    EXPECT_EQ(server.shedJobs(), 6u);
    // Destructor hard-cancels the in-flight jobs.
}

TEST_F(ServeDirTest, ServerRoundRobinsEveryWaitingJob)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;
    options.retries = 0;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    ServeClient alpha;
    ServeClient beta;
    ASSERT_TRUE(alpha.connect(options.socketPath, error)) << error;
    ASSERT_TRUE(beta.connect(options.socketPath, error)) << error;

    // Client a: one slow job on the only worker, then four cheap ones
    // with distinct specs. Client b then sends one cheap job.
    ServeRequest request;
    request.id = "a0";
    request.client = "a";
    request.spec = "bench=jess scale=2.0";
    ASSERT_TRUE(alpha.send(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::map<std::string, std::string> jobOf;
    auto submit = [&](ServeClient &client, const std::string &name,
                      const std::string &id, const std::string &spec) {
        request.id = id;
        request.client = name;
        request.spec = spec;
        ASSERT_TRUE(client.send(request));
        RunSpec parsed;
        std::string specError;
        ASSERT_TRUE(parseServeSpec(spec, parsed, specError))
            << specError;
        jobOf[journalKey("serve", specFingerprint(parsed))] = id;
    };
    for (int i = 1; i <= 4; ++i) {
        submit(alpha, "a", "a" + std::to_string(i),
               "bench=jess scale=0.01" + std::to_string(i));
    }
    EXPECT_TRUE(syncSession(alpha, "a").empty());
    submit(beta, "b", "b1", "bench=db scale=0.01");
    EXPECT_TRUE(syncSession(beta, "b").empty());

    ServeRequest cancel;
    cancel.op = "cancel";
    cancel.id = "a0";
    cancel.client = "a";
    ASSERT_TRUE(alpha.send(cancel));

    // a's slow job: its cancel ack and its cancelled answer, then the
    // four cheap answers; b's one answer.
    ServeResponse response;
    std::multiset<std::string> slowAnswers;
    std::set<std::string> cheapAnswers;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(alpha.receive(response, error)) << error;
        if (response.id == "a0") {
            slowAnswers.insert(response.status);
            continue;
        }
        EXPECT_EQ(response.status, "ok") << response.id;
        cheapAnswers.insert(response.id);
    }
    EXPECT_EQ(slowAnswers,
              (std::multiset<std::string>{"cancelled", "ok"}));
    ASSERT_TRUE(beta.receive(response, error)) << error;
    EXPECT_EQ(response.status, "ok");
    cheapAnswers.insert(response.id);
    EXPECT_EQ(cheapAnswers.size(), 5u);

    // One worker journals its answers in the order it ran them:
    // round-robin puts b's job right after a's first cheap one.
    std::vector<std::string> order;
    for (const JournalEntry &entry :
         RunJournal::load(server.journalPath())) {
        auto it = jobOf.find(journalKey(entry.experiment, entry.config));
        ASSERT_NE(it, jobOf.end());
        order.push_back(it->second);
    }
    EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2", "a3",
                                               "a4"}));
    running.drain();
}

TEST_F(ServeDirTest, ServerHardStopAnswersEveryQueuedJob)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;
    options.retries = 0;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;

    // One slow job on the only worker, three more waiting behind it.
    ServeRequest request;
    request.id = "running";
    request.client = "stop";
    request.spec = "bench=jess scale=2.0";
    ASSERT_TRUE(client.send(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int i = 1; i <= 3; ++i) {
        request.id = "queued-" + std::to_string(i);
        ASSERT_TRUE(client.send(request));
    }
    EXPECT_TRUE(syncSession(client, "stop").empty());

    // A hard stop answers every waiting job the same way and cancels
    // the running one at its next sample window.
    running.stop.request(CancelToken::Hard);
    std::set<std::string> queued;
    ServeResponse response;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.status, "cancelled") << response.id;
        if (response.id == "running")
            continue;
        EXPECT_EQ(response.error, "cancelled by daemon shutdown")
            << response.id;
        queued.insert(response.id);
    }
    EXPECT_EQ(queued, (std::set<std::string>{"queued-1", "queued-2",
                                             "queued-3"}));
}

TEST_F(ServeDirTest, ServerCancelsAndEnforcesWallDeadlines)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 2;
    options.retries = 0;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;

    // A job with a tiny wall budget is cancelled by the accept loop's
    // deadline scan.
    ServeRequest request;
    request.id = "deadline";
    request.client = "e2e";
    request.spec = "bench=jess scale=2.0";
    request.wallMs = 50;
    ServeResponse response;
    ASSERT_TRUE(client.call(request, response, error)) << error;
    EXPECT_EQ(response.id, "deadline");
    EXPECT_EQ(response.status, "cancelled");

    // An explicit cancel stops a long run; both the ack and the run's
    // terminal response arrive, correlated by the id.
    request.id = "victim";
    request.wallMs = 0;
    ASSERT_TRUE(client.send(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ServeRequest cancel;
    cancel.op = "cancel";
    cancel.id = "victim";
    cancel.client = "e2e";
    ASSERT_TRUE(client.send(cancel));

    std::set<std::string> statuses;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.id, "victim");
        statuses.insert(response.status);
    }
    EXPECT_TRUE(statuses.count("cancelled"));

    // Cancel is idempotent: cancelling a job that is not in flight
    // still acknowledges, but says so.
    cancel.id = "no-such-job";
    ASSERT_TRUE(client.call(cancel, response, error)) << error;
    EXPECT_EQ(response.status, "ok");
    EXPECT_NE(response.error.find("no in-flight job"),
              std::string::npos);
}

TEST_F(ServeDirTest, ServerReapsFinishedSessionThreads)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;
    options.retries = 0;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    // A long-lived daemon serving many short-lived clients must not
    // accumulate one unjoined thread per historical connection.
    for (int i = 0; i < 8; ++i) {
        ServeClient churn;
        ASSERT_TRUE(churn.connect(options.socketPath, error))
            << error;
        churn.disconnect();
    }

    // A client that stays connected is still tracked; the eight
    // dead readers are reaped once they notice the disconnect.
    ServeClient keeper;
    ASSERT_TRUE(keeper.connect(options.socketPath, error)) << error;
    // Wait for exactly one tracked session: the keeper accepted and
    // every dead reader noticed its disconnect and got reaped.
    for (int i = 0; i < 500 && server.sessionCount() != 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.sessionCount(), 1u);

    // And the keeper's session still works after the sweep.
    ServeRequest request;
    request.op = "cancel";
    request.id = "nothing";
    request.client = "reap";
    ServeResponse response;
    ASSERT_TRUE(keeper.call(request, response, error)) << error;
    EXPECT_EQ(response.status, "ok");
}
