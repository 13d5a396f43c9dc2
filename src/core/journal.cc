#include "journal.hh"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

#include "json_writer.hh"

namespace softwatt
{

namespace
{

constexpr const char *journalSchema = "softwatt-journal-v1";

} // namespace

std::string
specFingerprint(const RunSpec &spec)
{
    ChunkWriter w;
    w.str(benchmarkName(spec.bench));
    w.str(spec.variant);
    w.f64(spec.scale);
    w.u8(std::uint8_t(spec.config.cpuModel));
    w.f64(spec.config.deadlineSeconds);
    w.f64(spec.config.shutdownGraceSeconds);
    writeConfigFields(w, spec.config,
                      scaledBenchmarkSpec(spec.bench, spec.scale));

    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                  fnv1a64(w.bytes().data(), w.bytes().size()));
    return hex;
}

std::string
journalKey(const std::string &experiment,
           const std::string &fingerprint)
{
    return experiment + '\x1f' + fingerprint;
}

std::string
journalPathFor(const std::string &json_path)
{
    return json_path + ".journal.jsonl";
}

bool
RunJournal::open(const std::string &path, bool truncate,
                 Durability journal_durability)
{
    std::lock_guard<std::mutex> lock(mutex);
    durability = journal_durability;
    degradedFlag = false;
    IoStatus status = out.open(path, truncate, durability);
    if (!status)
        out.close();
    return out.isOpen();
}

void
RunJournal::append(const JournalEntry &entry)
{
    std::ostringstream line;
    {
        JsonWriter json(line, 0);
        json.beginObject();
        json.member("schema", journalSchema);
        json.member("experiment", entry.experiment);
        json.member("bench", entry.bench);
        json.member("variant", entry.variant);
        json.member("config", entry.config);
        json.member("outcome", entry.outcome);
        json.member("attempts", entry.attempts);
        json.member("run", entry.runJson);
        json.endObject();
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (degradedFlag)
        return;  // Already degraded to non-durable; drop silently.
    if (!out.isOpen())
        panic("RunJournal: append on a closed journal");
    // One write (plus an fdatasync barrier under Durability::Full)
    // per entry: a killed sweep tears at most the final line, which
    // load() detects and skips, and under full durability an entry
    // acknowledged here survives even a power cut.
    IoStatus status = out.write(line.str() + '\n');
    if (status)
        status = out.flush();
    if (status && durability == Durability::Full)
        status = out.sync();
    if (!status) {
        // Structured degradation: the sweep stays alive and keeps
        // producing results, it just stops being crash-resumable.
        degradedFlag = true;
        out.close();
        warn(msg() << "journal: append failed; continuing in "
                   << "non-durable mode (a crash from here on "
                   << "re-executes unjournaled runs): "
                   << status.message);
    }
}

std::vector<JournalEntry>
RunJournal::load(const std::string &path)
{
    std::vector<JournalEntry> entries;
    std::ifstream in(path);
    if (!in)
        return entries;

    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JournalEntry entry;
        std::string schema;
        bool ok = line.front() == '{' && line.back() == '}' &&
                  jsonExtractString(line, "schema", schema) &&
                  schema == journalSchema &&
                  jsonExtractString(line, "experiment",
                                    entry.experiment) &&
                  jsonExtractString(line, "bench", entry.bench) &&
                  jsonExtractString(line, "variant",
                                    entry.variant) &&
                  jsonExtractString(line, "config", entry.config) &&
                  jsonExtractString(line, "outcome",
                                    entry.outcome) &&
                  jsonExtractInt(line, "attempts",
                                 entry.attempts) &&
                  jsonExtractString(line, "run", entry.runJson);
        if (!ok) {
            warn(msg() << "journal '" << path << "' line " << lineno
                       << " is torn or unparseable; ignoring it "
                       << "(the run will be re-executed)");
            continue;
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

std::vector<JournalEntry>
RunJournal::loadLatest(const std::string &path)
{
    // Dedup by identity key, last occurrence winning: a journal that
    // accumulated entries across daemon generations (append mode
    // never truncates) may record the same job several times, and
    // only the newest one reflects the final retry/diagnose state.
    // Key order is first-seen so replay order stays deterministic.
    std::vector<JournalEntry> entries = load(path);
    std::vector<JournalEntry> latest;
    std::vector<std::string> keys;
    for (JournalEntry &entry : entries) {
        std::string key = journalKey(entry.experiment, entry.config);
        std::size_t slot = keys.size();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] == key) {
                slot = i;
                break;
            }
        }
        if (slot == keys.size()) {
            keys.push_back(std::move(key));
            latest.push_back(std::move(entry));
        } else {
            latest[slot] = std::move(entry);
        }
    }
    return latest;
}

JournalEntry
makeJournalEntry(const std::string &experiment, const RunSpec &spec,
                 const std::string &fingerprint,
                 const BenchmarkRun &run)
{
    JournalEntry entry;
    entry.experiment = experiment;
    entry.bench = benchmarkName(spec.bench);
    entry.variant = spec.variant;
    entry.config = fingerprint;
    entry.outcome = runOutcomeName(run.result.outcome);
    entry.attempts = run.attempts;
    entry.runJson = run.restored() ? run.restoredJson
                                   : renderRunJson(run);
    return entry;
}

} // namespace softwatt
