/**
 * @file
 * Crash-consistency sweep over the host-I/O seam (DESIGN.md §4k).
 *
 * Records two real durability sessions through the seam's op log:
 *
 *  1. A runner sweep under durability=full — resume journal appends
 *     with fdatasync barriers, periodic checkpoint autosaves
 *     (temp-then-rename with fsync'd directories), and the final
 *     atomic document write.
 *  2. A serve checkpoint-pool session — in-flight image writes and
 *     promote/rotate rename chains for several keys.
 *
 * It then replays EVERY op-log prefix of both sessions under every
 * CrashVariant (synced-only, everything-persisted, torn-tail) into a
 * scratch directory and runs the real recovery code over the wreck:
 * RunJournal::load, checkpoint restore with generation fallback, and
 * CheckpointPool::recover. Checked invariants:
 *
 *  - Recovery never crashes, whatever the prefix left behind.
 *  - Recovery never serves corrupt data: every journal entry that
 *    parses is byte-identical to one the reference session wrote,
 *    and every checkpoint that reads back is byte-identical to a
 *    recorded image payload.
 *  - No acknowledged answer is lost: under durability=full, a
 *    journal entry whose fdatasync barrier completed inside the
 *    prefix is present in every variant — a power cut after the ack
 *    cannot take it back.
 *  - The fully-persisted synced-only state reproduces the reference
 *    document and journal byte for byte.
 *
 * The run fails unless at least 200 distinct crash prefixes were
 * replayed (the sessions above yield several hundred).
 *
 * Keys: scale= (default 0.03), cadence_s= (default 0.0003),
 * state= (default a fresh directory under the system temp path),
 * oplog_out= (write the recorded op logs as JSONL — CI uploads this
 * artifact when the sweep fails).
 *
 * Exit status 0 only when every invariant held on every prefix.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "core/journal.hh"
#include "core/json_writer.hh"
#include "core/runner.hh"
#include "serve/checkpoint_pool.hh"
#include "sim/checkpoint.hh"
#include "sim/host_io.hh"
#include "sim/logging.hh"

using namespace softwatt;
namespace fs = std::filesystem;

namespace
{

struct Check
{
    int failures = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Reference state captured from one recorded session. */
struct Session
{
    std::string name;
    std::vector<IoRecord> log;
    std::string journalPath;              ///< "" when none.
    std::vector<JournalEntry> refEntries; ///< Journal ground truth.
    std::string documentPath;             ///< "" when none.
    std::string documentBytes;
    /** Every complete image payload that went through an atomic
     *  checkpoint write ("<dest>.tmp" Write ops). A recovered
     *  checkpoint file must byte-match one of these. */
    std::set<std::string> imagePayloads;
    /** Atomic-rename destinations ending in ".ckpt" (autosave and
     *  pool slots): the files recovery probes. */
    std::set<std::string> checkpointPaths;
    std::vector<std::uint64_t> poolKeys;  ///< Pool sessions only.
};

/** Sync barriers on @p path inside the first @p prefix ops. */
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

/** Harvest image payloads and checkpoint destinations from a log. */
void
harvestCheckpoints(Session &session)
{
    for (const IoRecord &op : session.log) {
        if (op.kind == IoOpKind::Write && endsWith(op.path, ".tmp"))
            session.imagePayloads.insert(op.data);
        if (op.kind == IoOpKind::Rename &&
            endsWith(op.path, ".tmp") && endsWith(op.path2, ".ckpt"))
            session.checkpointPaths.insert(op.path2);
    }
}

/**
 * Record session 1: a two-run sweep under durability=full with
 * checkpoint autosaves and a resume journal.
 */
Session
recordSweep(const std::string &root, double scale, double cadenceS)
{
    Session session;
    session.name = "runner-sweep";
    session.documentPath = root + "/sweep.json";
    session.journalPath = journalPathFor(session.documentPath);

    ExperimentSpec spec;
    spec.title = "crashsim";
    spec.jobs = 1;
    spec.jsonPath = session.documentPath;
    spec.durability = Durability::Full;
    spec.checkpointEveryS = cadenceS;
    SystemConfig config;
    config.sampleWindow = 20'000;
    spec.add(Benchmark::Jess, config, scale);
    spec.add(Benchmark::Db, config, scale);

    HostIo::instance().startRecording();
    ExperimentResult result = runExperiment(spec);
    session.log = HostIo::instance().stopRecording();

    if (result.failedRuns() != 0 || result.storageDegraded())
        fatal("crashsim: the reference sweep must run clean");
    session.refEntries = RunJournal::load(session.journalPath);
    session.documentBytes = slurp(session.documentPath);
    harvestCheckpoints(session);
    return session;
}

/**
 * Record session 2: a serve checkpoint-pool session — two keys, two
 * promoted generations each, full-durability rename chains.
 */
Session
recordPool(const std::string &root)
{
    Session session;
    session.name = "serve-pool";
    session.poolKeys = {0x00c0ffee00c0ffeeull, 0x0badcafe0badcafeull};

    std::string dir = root + "/pool";
    fs::create_directories(dir);
    HostIo::instance().startRecording();
    {
        serve::CheckpointPool pool(dir, 64 << 20, Durability::Full);
        std::uint64_t generation = 0;
        for (int round = 0; round < 2; ++round) {
            for (std::uint64_t key : session.poolKeys) {
                std::string inflight = pool.inflightPath(key);
                CheckpointImage image;
                image.configFingerprint = ++generation;
                ChunkWriter payload;
                payload.u64(generation);
                payload.str("crashsim-pool");
                image.add("payload", std::move(payload));
                writeCheckpoint(inflight, image, Durability::Full);
                if (!pool.promote(key, inflight))
                    fatal("crashsim: reference promote failed");
            }
        }
    }
    session.log = HostIo::instance().stopRecording();
    harvestCheckpoints(session);
    return session;
}

/** Dump recorded op logs as JSONL (the CI failure artifact). */
void
dumpOpLogs(const std::string &path,
           const std::vector<Session> &sessions)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const Session &session : sessions) {
        std::size_t index = 0;
        for (const IoRecord &op : session.log) {
            std::ostringstream line;
            {
                JsonWriter json(line, 0);
                json.beginObject();
                json.member("session", session.name);
                json.member("op", std::int64_t(index));
                json.member("kind", ioOpName(op.kind));
                json.member("path", op.path);
                json.member("path2", op.path2);
                json.member("bytes", std::int64_t(op.data.size()));
                json.member("truncate", op.truncate ? 1 : 0);
                json.endObject();
            }
            out << line.str() << "\n";
            ++index;
        }
    }
}

/**
 * Read a checkpoint with generation fallback, the way recovery does:
 * newest first, rotated predecessor second. @return the raw bytes of
 * the generation that verified, or "" when both are torn/absent —
 * never an image that failed its checksum.
 */
std::string
restoreWithFallback(const std::string &path)
{
    for (const std::string &candidate :
         {path, checkpointPreviousGeneration(path)}) {
        try {
            readCheckpoint(candidate);
            return slurp(candidate);
        } catch (const CheckpointError &) {
            // Detected corruption or absence: fall back.
        }
    }
    return "";
}

/** Map a recorded path into the replay scratch root. */
std::string
mapToScratch(const std::string &path, const std::string &recordRoot,
             const std::string &scratchRoot)
{
    return scratchRoot + path.substr(recordRoot.size());
}

/** Replay one (prefix, variant) and run every recovery invariant. */
void
verifyPrefix(Check &check, const Session &session,
             std::size_t prefix, CrashVariant variant,
             const std::string &recordRoot,
             const std::string &scratchRoot)
{
    std::ostringstream where;
    where << session.name << " prefix " << prefix << "/"
          << session.log.size() << " variant "
          << crashVariantName(variant);

    try {
        replayCrashPrefix(session.log, prefix, variant, recordRoot,
                          scratchRoot);

        // Journal recovery: parseable entries must be reference
        // entries, and every fdatasync-acknowledged entry must have
        // survived — in EVERY variant, including the harshest one.
        if (!session.journalPath.empty()) {
            std::string replayJournal = mapToScratch(
                session.journalPath, recordRoot, scratchRoot);
            std::vector<JournalEntry> loaded =
                RunJournal::load(replayJournal);
            std::size_t acked = ackedSyncs(session.log, prefix,
                                           session.journalPath);
            check.expect(loaded.size() >= acked,
                         where.str() + ": journal holds " +
                             std::to_string(loaded.size()) + " of " +
                             std::to_string(acked) +
                             " acknowledged entries");
            check.expect(loaded.size() <=
                             session.refEntries.size(),
                         where.str() + ": journal grew entries the "
                                       "session never wrote");
            for (std::size_t j = 0;
                 j < loaded.size() &&
                 j < session.refEntries.size();
                 ++j) {
                const JournalEntry &got = loaded[j];
                const JournalEntry &want = session.refEntries[j];
                check.expect(got.bench == want.bench &&
                                 got.variant == want.variant &&
                                 got.config == want.config &&
                                 got.runJson == want.runJson,
                             where.str() +
                                 ": journal entry " +
                                 std::to_string(j) +
                                 " does not match the reference");
            }
        }

        // Checkpoint recovery: whatever reads back through the
        // fallback chain must be an image the session really wrote.
        for (const std::string &ckpt : session.checkpointPaths) {
            std::string bytes = restoreWithFallback(
                mapToScratch(ckpt, recordRoot, scratchRoot));
            if (bytes.empty())
                continue;  // Lost progress: acceptable.
            check.expect(session.imagePayloads.count(bytes) != 0,
                         where.str() + ": restored '" + ckpt +
                             "' is not a recorded image");
        }

        // Pool recovery over the wreck must not throw, and anything
        // it serves must verify as a recorded image.
        if (!session.poolKeys.empty()) {
            serve::CheckpointPool pool(scratchRoot + "/pool",
                                       64 << 20, Durability::Full);
            pool.recover();
            for (std::uint64_t key : session.poolKeys) {
                std::string hit = pool.lookup(key);
                if (hit.empty())
                    continue;
                std::string bytes = restoreWithFallback(hit);
                check.expect(
                    bytes.empty() ||
                        session.imagePayloads.count(bytes) != 0,
                    where.str() + ": pool served a non-recorded "
                                  "image for key " +
                        serve::CheckpointPool::keyName(key));
            }
        }
    } catch (const std::exception &e) {
        check.expect(false, where.str() +
                                ": recovery crashed: " + e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;

    const double scale = args.getDouble("scale", 0.03);
    const double cadenceS = args.getDouble("cadence_s", 0.0003);
    const std::string oplogOut = args.getString("oplog_out", "");
    std::string base = args.getString("state", "");
    if (base.empty())
        base = (fs::temp_directory_path() /
                ("softwatt-crashsim-" + std::to_string(getpid())))
                   .string();

    const std::string recordRoot = base + "/rec";
    const std::string scratchRoot = base + "/replay";
    fs::remove_all(base);
    fs::create_directories(recordRoot);

    std::cout << "recording reference sessions under " << base
              << "\n";
    std::vector<Session> sessions;
    sessions.push_back(recordSweep(recordRoot, scale, cadenceS));
    sessions.push_back(recordPool(recordRoot));
    for (const Session &session : sessions) {
        std::cout << "  " << session.name << ": "
                  << session.log.size() << " host-I/O ops\n";
    }
    if (!oplogOut.empty())
        dumpOpLogs(oplogOut, sessions);

    // Replaying is silent work; recovery legitimately warns about
    // the torn lines and images the crash states contain.
    setLogLevel(LogLevel::Quiet);

    Check check;
    std::size_t replays = 0;
    for (const Session &session : sessions) {
        for (std::size_t prefix = 0; prefix <= session.log.size();
             ++prefix) {
            for (CrashVariant variant : crashVariants) {
                verifyPrefix(check, session, prefix, variant,
                             recordRoot, scratchRoot);
                ++replays;
            }
        }

        // The fully-persisted synced-only state is what a power cut
        // right after the last barrier leaves: it must reproduce the
        // reference byte for byte.
        replayCrashPrefix(session.log, session.log.size(),
                          CrashVariant::SyncedOnly, recordRoot,
                          scratchRoot);
        if (!session.documentPath.empty()) {
            check.expect(
                slurp(mapToScratch(session.documentPath, recordRoot,
                                   scratchRoot)) ==
                    session.documentBytes,
                session.name +
                    ": final synced document differs from the "
                    "reference");
        }
        if (!session.journalPath.empty()) {
            check.expect(
                RunJournal::load(
                    mapToScratch(session.journalPath, recordRoot,
                                 scratchRoot))
                        .size() == session.refEntries.size(),
                session.name +
                    ": final synced journal lost entries");
        }
    }

    setLogLevel(LogLevel::Normal);
    check.expect(replays >= 200,
                 "coverage: only " + std::to_string(replays) +
                     " crash prefixes replayed (need >= 200)");

    std::cout << "replayed " << replays
              << " crash prefixes across " << sessions.size()
              << " sessions: "
              << (check.failures == 0 ? "all invariants held"
                                      : std::to_string(
                                            check.failures) +
                                            " violation(s)")
              << "\n";
    if (check.failures == 0)
        fs::remove_all(base);
    else if (!oplogOut.empty())
        std::cerr << "op log written to " << oplogOut << "\n";
    return check.failures == 0 ? 0 : 1;
}
