/**
 * @file
 * Crash-consistency and fault-injection tests for the host-I/O seam
 * (DESIGN.md §4k): deterministic fault policies (EIO, ENOSPC, short
 * writes, torn renames, crash-at-op, byte budgets), op-log recording
 * and prefix replay under every CrashVariant, and the structured
 * degradation paths — journal append failure degrades a sweep to
 * non-durable mode (and resume=1 splices what landed), autosave
 * ENOSPC degrades a run to checkpoint-less execution, and the serve
 * protocol carries the degraded flag.
 *
 * The exhaustive prefix sweep (hundreds of prefixes over a recorded
 * runner sweep and serve-pool session) lives in bench_crashsim; the
 * tests here cover each invariant once with small recorded sessions.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "serve/checkpoint_pool.hh"
#include "serve/protocol.hh"
#include "sim/checkpoint.hh"
#include "sim/host_io.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

#include "quiet_log.hh"

using namespace softwatt;

namespace fs = std::filesystem;

namespace
{

/** Per-test scratch path (ctest runs tests concurrently in one dir). */
std::string
scratch(const std::string &name)
{
    return "crashsim_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A checkpoint image whose identity is its config fingerprint. */
CheckpointImage
imageWithFingerprint(std::uint64_t fingerprint)
{
    CheckpointImage image;
    image.configFingerprint = fingerprint;
    image.cpuModel = 1;
    ChunkWriter payload;
    payload.u64(fingerprint);
    payload.str("crash-consistency");
    image.add("payload", std::move(payload));
    return image;
}

/** A small but complete machine with the jess benchmark attached. */
std::unique_ptr<System>
makeSystem(double scale = 0.03)
{
    SystemConfig config;
    config.sampleWindow = 20'000;
    auto sys = std::make_unique<System>(config);
    WorkloadSpec spec =
        scaleWorkload(benchmarkSpec(Benchmark::Jess), scale);
    sys->attachWorkload(std::make_unique<Workload>(spec));
    return sys;
}

/** Number of Sync barriers on @p path within the first @p prefix
 *  ops: each one acknowledges everything written to it so far. */
std::size_t
ackedSyncs(const std::vector<IoRecord> &log, std::size_t prefix,
           const std::string &path)
{
    std::size_t acked = 0;
    for (std::size_t i = 0; i < prefix && i < log.size(); ++i) {
        if (log[i].kind == IoOpKind::Sync && log[i].path == path)
            ++acked;
    }
    return acked;
}

} // namespace

TEST(HostIoFaults, DurabilityNamesRoundTrip)
{
    EXPECT_STREQ(durabilityName(Durability::Buffered), "buffered");
    EXPECT_STREQ(durabilityName(Durability::Full), "full");

    bool ok = false;
    EXPECT_EQ(durabilityFromName("buffered", ok),
              Durability::Buffered);
    EXPECT_TRUE(ok);
    EXPECT_EQ(durabilityFromName("full", ok), Durability::Full);
    EXPECT_TRUE(ok);
    durabilityFromName("paranoid", ok);
    EXPECT_FALSE(ok);
}

TEST(HostIoFaults, ShortWriteTruncatesAndReportsFailure)
{
    const std::string path = scratch("short.txt");
    hostRemoveBestEffort(path);

    IoFaultPolicy policy;
    policy.enabled = true;
    policy.seed = 7;
    policy.shortWriteRate = 1.0;
    const std::string payload = "twelve bytes";
    std::vector<IoRecord> log;
    {
        ScopedIoFaults faults(policy);
        HostIo::instance().startRecording();
        HostFile file;
        ASSERT_TRUE(file.open(path, /*truncate=*/true));
        IoStatus st = file.write(payload);
        log = HostIo::instance().stopRecording();
        // The writer is told the truth...
        EXPECT_FALSE(st);
        EXPECT_NE(st.message.find("short write"), std::string::npos);
    }
    // ...but the kept prefix really reached the disk, and the op log
    // holds exactly the same bytes, so crash replay materializes
    // what the disk saw.
    ASSERT_EQ(log.size(), 2u);
    ASSERT_EQ(log[1].kind, IoOpKind::Write);
    const std::string kept = log[1].data;
    EXPECT_GT(kept.size(), 0u);
    EXPECT_LT(kept.size(), payload.size());
    EXPECT_EQ(kept, payload.substr(0, kept.size()));
    EXPECT_EQ(slurp(path), kept);
    hostRemoveBestEffort(path);
}

TEST(HostIoFaults, TornRenameLeavesZeroLengthStub)
{
    const std::string from = scratch("torn-src.txt");
    const std::string to = scratch("torn-dst.txt");
    hostRemoveBestEffort(from);
    hostRemoveBestEffort(to);
    ASSERT_TRUE(
        hostWriteFileAtomic(from, "payload", Durability::Buffered));

    IoFaultPolicy policy;
    policy.enabled = true;
    policy.seed = 11;
    policy.tornRenameRate = 1.0;
    {
        ScopedIoFaults faults(policy);
        IoStatus st = hostRename(from, to, Durability::Buffered);
        EXPECT_FALSE(st);
    }
    // A torn rename: the source entry is gone, the destination is a
    // detectable stub rather than the complete file.
    EXPECT_FALSE(hostFileExists(from));
    EXPECT_TRUE(hostFileExists(to));
    EXPECT_EQ(hostFileSize(to), 0u);
    hostRemoveBestEffort(to);
}

TEST(HostIoFaults, CrashAtOpFailsEveryLaterOperation)
{
    const std::string path = scratch("cut.txt");
    hostRemoveBestEffort(path);

    IoFaultPolicy policy;
    policy.enabled = true;
    policy.crashAtOp = 2;
    {
        ScopedIoFaults faults(policy);
        HostFile file;
        ASSERT_TRUE(file.open(path, /*truncate=*/true));  // op 1
        ASSERT_TRUE(file.write("a"));                     // op 2
        EXPECT_FALSE(file.write("b"));                    // op 3
        EXPECT_TRUE(HostIo::instance().powerLost());
        // The latch holds: nothing works after the cut.
        EXPECT_FALSE(file.flush());
        EXPECT_FALSE(hostRemove(path));
    }
    EXPECT_FALSE(HostIo::instance().powerLost());
    EXPECT_EQ(slurp(path), "a");
    hostRemoveBestEffort(path);
}

TEST(HostIoFaults, EnospcAfterBytesEnforcesBudget)
{
    const std::string path = scratch("budget.txt");
    hostRemoveBestEffort(path);

    IoFaultPolicy policy;
    policy.enabled = true;
    policy.enospcAfterBytes = 10;
    {
        ScopedIoFaults faults(policy);
        HostFile file;
        ASSERT_TRUE(file.open(path, /*truncate=*/true));
        EXPECT_TRUE(file.write("12345678"));  // 8 <= 10: fits
        IoStatus st = file.write("12345678"); // 16 > 10: disk full
        EXPECT_FALSE(st);
        EXPECT_NE(st.message.find("no space left"),
                  std::string::npos);
    }
    EXPECT_EQ(hostFileSize(path), 8u);
    hostRemoveBestEffort(path);
}

TEST(CrashReplay, JournalAckedEntriesSurviveEveryPrefix)
{
    QuietLog quiet;
    const std::string rec = scratch("journal_rec");
    const std::string replay = scratch("journal_replay");
    fs::remove_all(rec);
    fs::create_directories(rec);
    const std::string journalFile = rec + "/answers.jsonl";

    // Record a full-durability journal session: every append ends in
    // an fdatasync barrier, so each entry is acknowledged durable.
    std::vector<JournalEntry> appended;
    HostIo::instance().startRecording();
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(journalFile, /*truncate=*/true,
                                 Durability::Full));
        for (int i = 0; i < 4; ++i) {
            JournalEntry entry;
            entry.experiment = "crashsim";
            entry.bench = "jess";
            entry.variant = "v" + std::to_string(i);
            entry.config = "00000000000000" +
                           std::to_string(10 + i);
            entry.outcome = "completed";
            entry.attempts = 1;
            entry.runJson = "{\n  \"run\": " + std::to_string(i) +
                            "\n}";
            journal.append(entry);
            ASSERT_FALSE(journal.degraded());
            appended.push_back(entry);
        }
    }
    std::vector<IoRecord> log = HostIo::instance().stopRecording();
    ASSERT_GE(log.size(), appended.size() * 3);

    // A crash after any op prefix, under any persistence variant,
    // must never lose an acknowledged entry, and every line that
    // parses must be one of the appended entries (no corruption).
    for (std::size_t prefix = 0; prefix <= log.size(); ++prefix) {
        for (CrashVariant variant : crashVariants) {
            replayCrashPrefix(log, prefix, variant, rec, replay);
            std::size_t acked =
                ackedSyncs(log, prefix, journalFile);
            std::vector<JournalEntry> loaded =
                RunJournal::load(replay + "/answers.jsonl");
            EXPECT_GE(loaded.size(), acked)
                << "prefix " << prefix << " variant "
                << crashVariantName(variant);
            ASSERT_LE(loaded.size(), appended.size());
            for (std::size_t j = 0; j < loaded.size(); ++j) {
                EXPECT_EQ(loaded[j].variant, appended[j].variant);
                EXPECT_EQ(loaded[j].config, appended[j].config);
                EXPECT_EQ(loaded[j].runJson, appended[j].runJson);
            }
        }
    }
    fs::remove_all(rec);
    fs::remove_all(replay);
}

TEST(CrashReplay, AutosaveChainNeverServesACorruptImage)
{
    QuietLog quiet;
    const std::string rec = scratch("autosave_rec");
    const std::string replay = scratch("autosave_replay");
    fs::remove_all(rec);
    fs::create_directories(rec);
    const std::string ckpt = rec + "/auto.ckpt";

    HostIo::instance().startRecording();
    for (std::uint64_t generation = 1; generation <= 3; ++generation)
        autosaveCheckpoint(ckpt, imageWithFingerprint(generation),
                           Durability::Full);
    std::vector<IoRecord> log = HostIo::instance().stopRecording();
    ASSERT_GE(log.size(), 12u);

    const std::string replayCkpt = replay + "/auto.ckpt";
    for (std::size_t prefix = 0; prefix <= log.size(); ++prefix) {
        for (CrashVariant variant : crashVariants) {
            replayCrashPrefix(log, prefix, variant, rec, replay);
            // Restore-with-fallback: the newest generation first,
            // the rotated one when the newest is torn or absent.
            // Whatever reads cleanly must be an image we wrote —
            // recovery may lose progress, never invent state.
            std::uint64_t restored = 0;
            for (const std::string &candidate :
                 {replayCkpt,
                  checkpointPreviousGeneration(replayCkpt)}) {
                try {
                    restored =
                        readCheckpoint(candidate).configFingerprint;
                    break;
                } catch (const CheckpointError &) {
                    // Detected corruption/absence: fall back.
                }
            }
            EXPECT_LE(restored, 3u)
                << "prefix " << prefix << " variant "
                << crashVariantName(variant);
        }
    }

    // With the whole session persisted — even under the harshest
    // synced-only view — the newest autosave must read back intact:
    // full durability means an acknowledged autosave survives.
    replayCrashPrefix(log, log.size(), CrashVariant::SyncedOnly, rec,
                      replay);
    EXPECT_EQ(readCheckpoint(replayCkpt).configFingerprint, 3u);
    fs::remove_all(rec);
    fs::remove_all(replay);
}

TEST(CrashReplay, PoolPromoteRecoveryToleratesEveryPrefix)
{
    QuietLog quiet;
    const std::string rec = scratch("pool_rec");
    const std::string replay = scratch("pool_replay");
    fs::remove_all(rec);
    fs::create_directories(rec);
    const std::uint64_t key = 0x00c0ffee00c0ffeeull;

    HostIo::instance().startRecording();
    {
        serve::CheckpointPool pool(rec, 64 << 20, Durability::Full);
        for (std::uint64_t generation = 1; generation <= 2;
             ++generation) {
            std::string inflight = pool.inflightPath(key);
            writeCheckpoint(inflight,
                            imageWithFingerprint(generation),
                            Durability::Full);
            ASSERT_TRUE(pool.promote(key, inflight));
        }
    }
    std::vector<IoRecord> log = HostIo::instance().stopRecording();
    ASSERT_GE(log.size(), 10u);

    for (std::size_t prefix = 0; prefix <= log.size(); ++prefix) {
        for (CrashVariant variant : crashVariants) {
            replayCrashPrefix(log, prefix, variant, rec, replay);
            serve::CheckpointPool pool(replay, 64 << 20,
                                       Durability::Full);
            // Recovery over any crash state must not throw, and any
            // image it then serves must verify as one we wrote.
            pool.recover();
            std::string hit = pool.lookup(key);
            if (hit.empty())
                continue;  // Lost progress: acceptable, cold start.
            std::uint64_t restored = 0;
            for (const std::string &candidate :
                 {hit, checkpointPreviousGeneration(hit)}) {
                try {
                    restored =
                        readCheckpoint(candidate).configFingerprint;
                    break;
                } catch (const CheckpointError &) {
                }
            }
            EXPECT_LE(restored, 2u)
                << "prefix " << prefix << " variant "
                << crashVariantName(variant);
        }
    }

    // The fully-persisted synced-only state recovers the newest
    // promoted image.
    replayCrashPrefix(log, log.size(), CrashVariant::SyncedOnly, rec,
                      replay);
    serve::CheckpointPool pool(replay, 64 << 20, Durability::Full);
    pool.recover();
    std::string hit = pool.lookup(key);
    ASSERT_FALSE(hit.empty());
    EXPECT_EQ(readCheckpoint(hit).configFingerprint, 2u);
    fs::remove_all(rec);
    fs::remove_all(replay);
}

TEST(DurabilityDegrade, JournalEnospcMidSweepDegradesAndResumes)
{
    QuietLog quiet;
    const std::string out = scratch("enospc.json");
    const std::string journalFile = journalPathFor(out);
    hostRemoveBestEffort(out);
    hostRemoveBestEffort(journalFile);

    auto makeSpec = [&](bool resume) {
        ExperimentSpec spec;
        spec.title = "crashsim-enospc";
        spec.jobs = 1;
        spec.jsonPath = out;
        spec.resume = resume;
        SystemConfig config;
        config.sampleWindow = 20'000;
        spec.add(Benchmark::Jess, config, 0.03);
        spec.add(Benchmark::Db, config, 0.03);
        return spec;
    };

    // Reference sweep: no faults; learn the byte extent of the first
    // journal entry so the disk can "fill up" right after it lands.
    ExperimentResult reference = runExperiment(makeSpec(false));
    ASSERT_EQ(reference.failedRuns(), 0u);
    ASSERT_FALSE(reference.storageDegraded());
    const std::string referenceDoc = slurp(out);
    ASSERT_FALSE(referenceDoc.empty());
    std::string firstLine;
    {
        std::ifstream in(journalFile);
        ASSERT_TRUE(bool(std::getline(in, firstLine)));
        ASSERT_FALSE(firstLine.empty());
    }

    // Faulted sweep: the first append fits the byte budget exactly,
    // the second hits ENOSPC. The sweep must complete every run and
    // degrade to non-durable mode instead of dying.
    ExperimentSpec faulted = makeSpec(false);
    faulted.ioFaults.enabled = true;
    faulted.ioFaults.enospcAfterBytes = firstLine.size() + 1;
    ExperimentResult degraded = runExperiment(faulted);
    EXPECT_EQ(degraded.failedRuns(), 0u);
    EXPECT_TRUE(degraded.storageDegraded());

    // Exactly the acknowledged run landed in the journal.
    std::vector<JournalEntry> entries =
        RunJournal::load(journalFile);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].bench, "jess");

    // resume=1 splices the landed run and re-executes the lost one;
    // the final document is byte-identical to the uninterrupted
    // reference.
    ExperimentResult resumed = runExperiment(makeSpec(true));
    EXPECT_EQ(resumed.failedRuns(), 0u);
    EXPECT_FALSE(resumed.storageDegraded());
    EXPECT_EQ(slurp(out), referenceDoc);

    hostRemoveBestEffort(out);
    hostRemoveBestEffort(journalFile);
}

TEST(DurabilityDegrade, AutosaveEnospcContinuesCheckpointless)
{
    QuietLog quiet;
    const std::string ckpt = scratch("degraded.ckpt");
    hostRemoveBestEffort(ckpt);
    hostRemoveBestEffort(ckpt + ".tmp");
    hostRemoveBestEffort(checkpointPreviousGeneration(ckpt));

    IoFaultPolicy policy;
    policy.enabled = true;
    policy.seed = 3;
    policy.enospcRate = 1.0;

    std::unique_ptr<System> sys = makeSystem();
    sys->setCheckpointPolicy(/*everyS=*/0.0003, ckpt);
    {
        ScopedIoFaults faults(policy);
        // The run survives the full disk: it degrades to
        // checkpoint-less execution instead of dying mid-simulation.
        ASSERT_TRUE(sys->run().ok());
    }
    EXPECT_TRUE(sys->checkpointingDegraded());
    EXPECT_EQ(sys->checkpointsTaken(), 0u);
    EXPECT_FALSE(hostFileExists(ckpt));

    // The degraded run computed the same answer a healthy one does.
    std::unique_ptr<System> healthy = makeSystem();
    ASSERT_TRUE(healthy->run().ok());
    EXPECT_EQ(sys->cpu().committedInsts(),
              healthy->cpu().committedInsts());
    hostRemoveBestEffort(ckpt + ".tmp");
}

TEST(ServeDurability, DegradedFlagRoundTripsTheProtocol)
{
    serve::ServeResponse response;
    response.id = "job-1";
    response.status = "ok";
    response.degraded = true;
    response.document = "{}";

    serve::ServeResponse parsed;
    std::string error;
    ASSERT_TRUE(serve::parseServeResponse(
        serve::renderServeResponse(response), parsed, error))
        << error;
    EXPECT_TRUE(parsed.degraded);

    // Absent or zero stays false (older daemons never set it).
    response.degraded = false;
    ASSERT_TRUE(serve::parseServeResponse(
        serve::renderServeResponse(response), parsed, error));
    EXPECT_FALSE(parsed.degraded);
}

TEST(DurabilityDegrade, FromArgsParsesDurabilityAndFaultKeys)
{
    QuietLog quiet;
    Config good;
    good.set("durability", std::string("full"));
    good.set("io_fault_seed", std::int64_t(9));
    good.set("io_fault_rate", 0.25);
    ExperimentSpec spec = ExperimentSpec::fromArgs("t", good);
    EXPECT_EQ(spec.durability, Durability::Full);
    EXPECT_TRUE(spec.ioFaults.enabled);
    EXPECT_EQ(spec.ioFaults.seed, 9u);
    EXPECT_EQ(spec.ioFaults.errorRate, 0.25);

    setErrorHandler(throwingErrorHandler);
    Config badName;
    badName.set("durability", std::string("paranoid"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", badName), SimError);

    Config badRate;
    badRate.set("io_fault_rate", 1.5);
    EXPECT_THROW(ExperimentSpec::fromArgs("t", badRate), SimError);
    setErrorHandler(nullptr);
}
