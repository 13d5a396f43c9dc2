#include "sample_log.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "logging.hh"

namespace softwatt
{

namespace
{

/** A window's fixed-width head: two ticks, the operating point and
 *  the bank mode. Its cells follow. */
constexpr std::size_t windowHeadBytes = 4 * 8 + 4;

constexpr int cellsPerWindow = numExecModes * numCounters;

/** Longest varint of a 64-bit value: ten groups of seven bits. */
constexpr std::size_t maxVarintBytes = 10;

/** The continuation bits of eight bytes read as one word: clear when
 *  each byte is a whole varint, as a zero cell is. */
constexpr std::uint64_t continuationBits = 0x8080808080808080ull;

std::uint64_t
getLe(const std::uint8_t *at, int n)
{
    std::uint64_t value = 0;
    for (int i = 0; i < n; ++i)
        value |= std::uint64_t(at[i]) << (8 * i);
    return value;
}

double
getF64(const std::uint8_t *at)
{
    std::uint64_t bits = getLe(at, 8);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** The varint at @p at, which the caller knows to be well formed;
 *  @p at moves past it. */
std::uint64_t
getVarint(const std::uint8_t *&at)
{
    std::uint64_t value = *at++;
    if (value < 0x80)
        return value;
    value &= 0x7f;
    for (int shift = 7;; shift += 7) {
        std::uint8_t byte = *at++;
        value |= std::uint64_t(byte & 0x7f) << shift;
        if (byte < 0x80)
            return value;
    }
}

/**
 * Decode the window at @p at into @p out and return the byte after
 * it. The bytes were written by SampleLog::append or passed
 * checkedWindowEnd, so nothing is checked here.
 */
const std::uint8_t *
decodeWindow(const std::uint8_t *at, SampleRecord &out)
{
    out.startTick = getLe(at, 8);
    out.endTick = getLe(at + 8, 8);
    out.freqMhz = getF64(at + 16);
    out.vdd = getF64(at + 24);
    out.counters.setMode(ExecMode(getLe(at + 32, 4)));
    at += windowHeadBytes;
    for (int m = 0; m < numExecModes; ++m) {
        for (int c = 0; c < numCounters; ++c)
            out.counters.set(ExecMode(m), CounterId(c), getVarint(at));
    }
    return at;
}

[[noreturn]] void
damagedWindow(std::uint64_t index, const char *what)
{
    throw CheckpointError(msg() << "chunk 'sample-log': window "
                                << index << " " << what);
}

/**
 * The byte after the window at @p at, checked as ChunkReader and
 * CounterBank::loadState check what they decode: nothing past
 * @p end, a bank mode below numExecModes, and minimal varints of at
 * most 64 bits. Throws CheckpointError naming window @p index.
 */
const std::uint8_t *
checkedWindowEnd(const std::uint8_t *at, const std::uint8_t *end,
                 std::uint64_t index)
{
    if (std::size_t(end - at) < windowHeadBytes)
        damagedWindow(index, "is truncated");
    checkpointExecMode(getLe(at + 32, 4),
                       "sample log counter bank mode");
    at += windowHeadBytes;
    for (int cell = 0; cell < cellsPerWindow;) {
        // Most cells are zero: pass eight one-byte varints at once.
        if (cellsPerWindow - cell >= 8 && end - at >= 8 &&
            (getLe(at, 8) & continuationBits) == 0) {
            cell += 8;
            at += 8;
            continue;
        }
        if (at == end)
            damagedWindow(index, "is truncated");
        ++cell;
        if (*at++ < 0x80)
            continue;
        // A longer varint: its last byte is the first below 0x80.
        for (std::size_t len = 2;; ++len) {
            if (at == end)
                damagedWindow(index, "is truncated");
            std::uint8_t byte = *at++;
            // The tenth byte holds bit 63 only: anything more
            // overflows.
            if (len == maxVarintBytes && byte > 1)
                damagedWindow(index, "has a varint over 64 bits");
            if (byte < 0x80) {
                if (byte == 0)
                    damagedWindow(index, "has an overlong varint");
                break;
            }
        }
    }
    return at;
}

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

/** The comma-separated fields of one CSV row, in order. */
class CsvFields
{
  public:
    explicit CsvFields(std::string_view row) : rest(row) {}

    /** The next field; false once the row has none left. */
    bool
    next(std::string_view &field)
    {
        if (exhausted)
            return false;
        std::size_t comma = rest.find(',');
        field = rest.substr(0, comma);
        if (comma == std::string_view::npos)
            exhausted = true;
        else
            rest.remove_prefix(comma + 1);
        return true;
    }

    /**
     * Parse the next field whole as @p value (std::from_chars reads
     * writeCsv's to_chars doubles exactly); false when it is missing,
     * malformed, negative for an unsigned @p value, or out of range.
     */
    template <typename T>
    bool
    next(T &value)
    {
        std::string_view field;
        if (!next(field))
            return false;
        const char *last = field.data() + field.size();
        auto [ptr, ec] = std::from_chars(field.data(), last, value);
        return ec == std::errc() && ptr == last;
    }

  private:
    std::string_view rest;
    bool exhausted = false;
};

} // namespace

SampleLog::WindowIterator::WindowIterator(const std::uint8_t *at,
                                          const std::uint8_t *end)
    : next(at), end(end)
{
    ++*this;
}

SampleLog::WindowIterator &
SampleLog::WindowIterator::operator++()
{
    if (next == end)
        done = true;
    else
        next = decodeWindow(next, record);
    return *this;
}

SampleLog::WindowIterator
SampleLog::Windows::begin() const
{
    const std::vector<std::uint8_t> &bytes = log.windows.bytes();
    return WindowIterator(bytes.data(), bytes.data() + bytes.size());
}

void
SampleLog::append(const SampleRecord &record)
{
    offsets.push_back(windows.bytes().size());
    windows.u64(record.startTick);
    windows.u64(record.endTick);
    windows.f64(record.freqMhz);
    windows.f64(record.vdd);
    record.counters.saveState(windows);
}

SampleRecord
SampleLog::at(std::size_t i) const
{
    SampleRecord record;
    decodeWindow(windows.bytes().data() + offsets.at(i), record);
    return record;
}

void
SampleLog::saveState(ChunkWriter &out) const
{
    out.u64(size());
}

void
SampleLog::loadState(ChunkReader &in, const std::vector<std::uint8_t> &log)
{
    std::uint64_t count = in.u64();
    // Every window is checked in place before the log changes, and
    // the log must hold exactly count of them; the bytes are then
    // kept as they are. The reservation is bounded by what the log
    // can hold, so a damaged count fails as checkpoint damage, not
    // as an allocation failure.
    const std::uint8_t *begin = log.data();
    const std::uint8_t *end = begin + log.size();
    std::vector<std::size_t> starts;
    starts.reserve(std::min<std::uint64_t>(count,
                                           log.size() / minRecordBytes));
    for (const std::uint8_t *at = begin; at != end;) {
        starts.push_back(std::size_t(at - begin));
        at = checkedWindowEnd(at, end, starts.size() - 1);
    }
    if (starts.size() != count) {
        throw CheckpointError(msg() << "sample log claims " << count
                                    << " windows but its log holds "
                                    << starts.size());
    }
    windows = ChunkWriter();
    windows.raw(begin, log.size());
    offsets = std::move(starts);
    windowsChecksum = RunningChecksum();
}

CounterBank
SampleLog::totals() const
{
    CounterBank bank;
    for (const SampleRecord &rec : all())
        bank.accumulate(rec.counters);
    return bank;
}

Cycles
SampleLog::totalCycles() const
{
    Cycles sum = 0;
    for (const SampleRecord &rec : all())
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
    std::size_t w = 0;
    for (const SampleRecord &rec : all()) {
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
        ++w;
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
        CsvFields row(line);
        std::size_t window;
        Tick start, end;
        double freq_mhz, vdd;
        std::string_view mode_name; // row order is fixed
        if (!row.next(window) || !row.next(start) || !row.next(end) ||
            !row.next(freq_mhz) || !row.next(vdd) ||
            !row.next(mode_name))
            return false;

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
            std::uint64_t value;
            if (!row.next(value))
                return false;
            current.counters.addTo(mode, static_cast<CounterId>(c),
                                   value);
        }
    }
    if (have_window)
        out.append(current);
    return true;
}

} // namespace softwatt
