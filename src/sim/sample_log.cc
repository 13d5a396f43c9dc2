#include "sample_log.hh"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/checkpoint.hh"

#include "logging.hh"

namespace softwatt
{

namespace
{

/**
 * Shortest round-trip decimal form of a double (std::to_chars), so
 * the CSV is deterministic and readCsv restores the exact value.
 */
std::string
csvDouble(double value)
{
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

} // namespace

void
SampleLog::saveState(ChunkWriter &out) const
{
    out.u64(records.size());
    out.reserve(records.size() * minRecordBytes);
    for (const SampleRecord &rec : records) {
        out.u64(rec.startTick);
        out.u64(rec.endTick);
        out.f64(rec.freqMhz);
        out.f64(rec.vdd);
        rec.counters.saveState(out);
    }
}

void
SampleLog::loadState(ChunkReader &in)
{
    records.clear();
    std::uint64_t count = in.u64();
    // Checked before the reserve: a damaged count must fail as
    // checkpoint damage, not as an allocation failure.
    if (count > in.remaining() / minRecordBytes) {
        throw CheckpointError(msg() << "sample log claims " << count
                                    << " windows but only "
                                    << in.remaining()
                                    << " bytes remain");
    }
    records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        SampleRecord rec;
        rec.startTick = in.u64();
        rec.endTick = in.u64();
        rec.freqMhz = in.f64();
        rec.vdd = in.f64();
        rec.counters.loadState(in);
        records.push_back(std::move(rec));
    }
}

CounterBank
SampleLog::totals() const
{
    CounterBank bank;
    for (const auto &rec : records)
        bank.accumulate(rec.counters);
    return bank;
}

Cycles
SampleLog::totalCycles() const
{
    Cycles sum = 0;
    for (const auto &rec : records)
        sum += rec.length();
    return sum;
}

void
SampleLog::writeCsv(std::ostream &out) const
{
    out << "window,start,end,freq_mhz,vdd,mode";
    for (int c = 0; c < numCounters; ++c)
        out << ',' << counterName(static_cast<CounterId>(c));
    out << '\n';
    for (std::size_t w = 0; w < records.size(); ++w) {
        const auto &rec = records[w];
        for (ExecMode mode : allExecModes) {
            out << w << ',' << rec.startTick << ',' << rec.endTick << ','
                << csvDouble(rec.freqMhz) << ','
                << csvDouble(rec.vdd) << ','
                << execModeName(mode);
            for (int c = 0; c < numCounters; ++c) {
                out << ','
                    << rec.counters.get(mode, static_cast<CounterId>(c));
            }
            out << '\n';
        }
    }
}

bool
SampleLog::readCsv(std::istream &in, SampleLog &out)
{
    std::string line;
    if (!std::getline(in, line))
        return false; // missing header

    SampleRecord current;
    std::size_t current_window = ~std::size_t(0);
    bool have_window = false;
    int mode_index = 0;

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream row(line);
        std::string field;

        if (!std::getline(row, field, ','))
            return false;
        std::size_t window = std::stoull(field);

        if (!std::getline(row, field, ','))
            return false;
        Tick start = std::stoull(field);
        if (!std::getline(row, field, ','))
            return false;
        Tick end = std::stoull(field);

        if (!std::getline(row, field, ','))
            return false;
        double freq_mhz = std::stod(field);
        if (!std::getline(row, field, ','))
            return false;
        double vdd = std::stod(field);

        if (!std::getline(row, field, ','))
            return false; // mode name; row order is fixed

        if (!have_window || window != current_window) {
            if (have_window)
                out.append(current);
            current = SampleRecord{};
            current.startTick = start;
            current.endTick = end;
            current.freqMhz = freq_mhz;
            current.vdd = vdd;
            current_window = window;
            have_window = true;
            mode_index = 0;
        }
        if (mode_index >= numExecModes)
            return false;
        ExecMode mode = allExecModes[mode_index++];

        for (int c = 0; c < numCounters; ++c) {
            if (!std::getline(row, field, ','))
                return false;
            current.counters.addTo(mode, static_cast<CounterId>(c),
                                   std::stoull(field));
        }
    }
    if (have_window)
        out.append(current);
    return true;
}

} // namespace softwatt
