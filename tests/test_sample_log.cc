/**
 * @file
 * Unit tests for the sampled simulation log: its stored encoding, the
 * checks on a restored one, and the CSV round trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/sample_log.hh"

using namespace softwatt;

namespace
{

SampleRecord
makeRecord(Tick start, Tick end, std::uint64_t il1_user)
{
    SampleRecord rec;
    rec.startTick = start;
    rec.endTick = end;
    rec.counters.addTo(ExecMode::User, CounterId::IL1Ref, il1_user);
    rec.counters.addTo(ExecMode::User, CounterId::Cycles,
                       end - start);
    return rec;
}

/** A window whose cells need one to ten varint bytes, with a NaN
 *  and a negative-zero operating point and a nonzero bank mode. */
SampleRecord
wideRecord(Tick start, Tick end)
{
    SampleRecord rec = makeRecord(start, end, 127);
    rec.freqMhz = std::numeric_limits<double>::quiet_NaN();
    rec.vdd = -0.0;
    rec.counters.setMode(ExecMode::KernelSync);
    rec.counters.addTo(ExecMode::User, CounterId::IL1Miss, 128);
    rec.counters.addTo(ExecMode::KernelInst, CounterId::DL1Ref,
                       std::uint64_t(1) << 63);
    rec.counters.addTo(ExecMode::Idle, CounterId::DiskGiveUp,
                       ~std::uint64_t(0));
    return rec;
}

/**
 * The sample log's checkpoint log as the format lays it out, written
 * field by field: per window both ticks, the operating point, the bank
 * mode and one varint per cell, modes outer.
 */
ChunkWriter
referenceLog(const std::vector<SampleRecord> &records)
{
    ChunkWriter out;
    for (const SampleRecord &rec : records) {
        out.u64(rec.startTick);
        out.u64(rec.endTick);
        out.f64(rec.freqMhz);
        out.f64(rec.vdd);
        out.u32(std::uint32_t(rec.counters.mode()));
        for (ExecMode mode : allExecModes) {
            for (int c = 0; c < numCounters; ++c)
                out.varint(rec.counters.get(mode, CounterId(c)));
        }
    }
    return out;
}

/** Restore @p count windows from the checkpoint log @p bytes, as a
 *  checkpoint restore applies the sample-log chunk. */
void
restore(std::uint64_t count, const std::vector<std::uint8_t> &bytes,
        SampleLog &log)
{
    ChunkWriter chunk;
    chunk.u64(count);
    ChunkReader reader(chunk.bytes(), "sample-log");
    log.loadState(reader, bytes);
    reader.finish();
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

void
expectSameRecord(const SampleRecord &got, const SampleRecord &want)
{
    EXPECT_EQ(got.startTick, want.startTick);
    EXPECT_EQ(got.endTick, want.endTick);
    EXPECT_EQ(bitsOf(got.freqMhz), bitsOf(want.freqMhz));
    EXPECT_EQ(bitsOf(got.vdd), bitsOf(want.vdd));
    EXPECT_EQ(got.counters.mode(), want.counters.mode());
    EXPECT_EQ(got.counters.raw(), want.counters.raw());
}

/** A log whose second, last window ends in a ten-byte varint. */
std::vector<SampleRecord>
twoWindows()
{
    return {wideRecord(0, 2000), wideRecord(2000, 4000)};
}

} // namespace

TEST(SampleLog, SaveStateWritesTheFormatLayout)
{
    std::vector<SampleRecord> records = twoWindows();
    records.push_back(makeRecord(4000, 4100, 0));
    SampleLog log;
    for (const SampleRecord &rec : records)
        log.append(rec);
    ChunkWriter saved;
    log.saveState(saved);
    ChunkWriter count;
    count.u64(records.size());
    EXPECT_EQ(saved.bytes(), count.bytes());
    EXPECT_EQ(log.encoded(), referenceLog(records).bytes());
    EXPECT_EQ(log.encodedChecksum(),
              checksum64(log.encoded().data(), log.encoded().size()));
}

TEST(SampleLog, DecodesEveryAppendedField)
{
    std::vector<SampleRecord> records = twoWindows();
    records.push_back(makeRecord(4000, 4100, 0));
    SampleLog log;
    for (const SampleRecord &rec : records)
        log.append(rec);
    ASSERT_EQ(log.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        expectSameRecord(log.at(i), records[i]);
    std::size_t i = 0;
    for (const SampleRecord &rec : log.all())
        expectSameRecord(rec, records.at(i++));
    EXPECT_EQ(i, records.size());
    expectSameRecord(log.all().back(), records.back());
    EXPECT_TRUE(std::isnan(log.at(0).freqMhz));
    EXPECT_TRUE(std::signbit(log.at(0).vdd));
}

TEST(SampleLog, LoadStateKeepsTheSavedWindows)
{
    std::vector<SampleRecord> records = twoWindows();
    SampleLog restored;
    restored.append(makeRecord(0, 10, 1));
    restored.encodedChecksum();
    restore(records.size(), referenceLog(records).bytes(), restored);
    ASSERT_EQ(restored.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        expectSameRecord(restored.at(i), records[i]);
    EXPECT_EQ(restored.encoded(), referenceLog(records).bytes());

    // Appending after a restore continues the same log, and its
    // running checksum starts over with the restored bytes.
    restored.append(makeRecord(4000, 4100, 3));
    EXPECT_EQ(restored.size(), 3u);
    EXPECT_EQ(restored.at(2).startTick, 4000u);
    EXPECT_EQ(restored.encodedChecksum(),
              checksum64(restored.encoded().data(),
                         restored.encoded().size()));
}

TEST(SampleLog, LoadStateRefusesWhatTheDecoderRefused)
{
    std::vector<SampleRecord> records = twoWindows();
    const std::vector<std::uint8_t> good =
        referenceLog(records).bytes();
    // Byte offsets in the log: the first window's head (ticks,
    // operating point, mode), then its cells. The first cell, user
    // cycles = 2000, takes two bytes; the second is zero.
    const std::size_t mode_at = 32;
    const std::size_t cell_at = mode_at + 4 + 2;
    ASSERT_EQ(good[cell_at], 0u);

    std::vector<std::uint8_t> overlong = good;  // 0 as two bytes
    overlong[cell_at] = 0x80;
    overlong.insert(overlong.begin() + cell_at + 1, 0x00);

    std::vector<std::uint8_t> wide = good;  // 65 significant bits
    wide[cell_at] = 0xff;
    const std::uint8_t tail[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                 0xff, 0xff, 0xff, 0x02};
    wide.insert(wide.begin() + cell_at + 1, std::begin(tail),
                std::end(tail));

    std::vector<std::uint8_t> bad_mode = good;
    bad_mode[mode_at] = std::uint8_t(numExecModes);

    std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);

    // Cut inside the second window's run of zero cells, which the
    // check passes eight at a time.
    const std::size_t window_bytes = good.size() / 2;
    std::vector<std::uint8_t> cut_in_zeros(
        good.begin(), good.begin() + window_bytes + 150);

    std::vector<std::uint8_t> trailing = good;
    trailing.push_back(0);

    const struct
    {
        const std::vector<std::uint8_t> &payload;
        const char *error;  ///< Part of the CheckpointError message.
    } cases[] = {
        {overlong, "overlong varint"},
        {wide, "over 64 bits"},
        {bad_mode, "execution mode 4 out of range"},
        {truncated, "window 1 is truncated"},
        {cut_in_zeros, "window 1 is truncated"},
        {trailing, "window 2 is truncated"},
    };
    for (const auto &c : cases) {
        SampleLog log;
        log.append(makeRecord(0, 10, 1));
        try {
            restore(records.size(), c.payload, log);
            ADD_FAILURE() << c.error << ": restored";
        } catch (const CheckpointError &err) {
            EXPECT_NE(std::string(err.what()).find(c.error),
                      std::string::npos)
                << err.what();
        }
    }
    // A refused window leaves the log as it was.
    SampleLog log;
    log.append(makeRecord(0, 10, 1));
    EXPECT_THROW(restore(records.size(), bad_mode, log),
                 CheckpointError);
    // So does a count the log cannot hold.
    EXPECT_THROW(restore(good.size(), good, log), CheckpointError);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.at(0).endTick, 10u);
}

TEST(SampleLog, AppendAndSize)
{
    SampleLog log;
    EXPECT_TRUE(log.empty());
    log.append(makeRecord(0, 100, 5));
    log.append(makeRecord(100, 250, 7));
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.at(1).length(), 150u);
}

TEST(SampleLog, TotalsSumWindows)
{
    SampleLog log;
    log.append(makeRecord(0, 100, 5));
    log.append(makeRecord(100, 250, 7));
    CounterBank totals = log.totals();
    EXPECT_EQ(totals.get(ExecMode::User, CounterId::IL1Ref), 12u);
    EXPECT_EQ(log.totalCycles(), 250u);
}

TEST(SampleLog, CsvRoundTrip)
{
    SampleLog log;
    SampleRecord rec = makeRecord(0, 1000, 42);
    rec.counters.addTo(ExecMode::KernelSync, CounterId::IntAluOp, 9);
    rec.counters.addTo(ExecMode::Idle, CounterId::MemRef, 3);
    log.append(rec);
    log.append(makeRecord(1000, 2000, 17));

    std::stringstream buffer;
    log.writeCsv(buffer);

    SampleLog loaded;
    ASSERT_TRUE(SampleLog::readCsv(buffer, loaded));
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.at(0).startTick, 0u);
    EXPECT_EQ(loaded.at(0).endTick, 1000u);
    EXPECT_EQ(loaded.at(0).counters.get(ExecMode::User,
                                        CounterId::IL1Ref),
              42u);
    EXPECT_EQ(loaded.at(0).counters.get(ExecMode::KernelSync,
                                        CounterId::IntAluOp),
              9u);
    EXPECT_EQ(loaded.at(0).counters.get(ExecMode::Idle,
                                        CounterId::MemRef),
              3u);
    EXPECT_EQ(loaded.at(1).counters.get(ExecMode::User,
                                        CounterId::IL1Ref),
              17u);
}

TEST(SampleLog, CsvHeaderListsAllCounters)
{
    SampleLog log;
    std::stringstream buffer;
    log.writeCsv(buffer);
    std::string header;
    std::getline(buffer, header);
    for (int c = 0; c < numCounters; ++c) {
        EXPECT_NE(header.find(counterName(CounterId(c))),
                  std::string::npos)
            << counterName(CounterId(c));
    }
}

TEST(SampleLog, ReadCsvRejectsMalformedInput)
{
    SampleLog log;
    log.append(makeRecord(0, 1000, 42));
    std::stringstream written;
    log.writeCsv(written);
    std::string header, row;
    std::getline(written, header);
    std::getline(written, row);

    // The row with its @p field-th field (0-based) replaced.
    auto with_field = [&](int field, const std::string &text) {
        std::size_t begin = 0;
        for (int i = 0; i < field; ++i)
            begin = row.find(',', begin) + 1;
        std::size_t end = row.find(',', begin);
        return header + '\n' + row.substr(0, begin) + text +
               row.substr(end) + '\n';
    };
    const int first_counter = 6;
    const int freq_mhz = 3;
    const struct
    {
        const char *what;
        std::string csv;
    } cases[] = {
        {"empty input", ""},
        {"count x", with_field(first_counter, "x")},
        {"count past 64 bits",
         with_field(first_counter, "99999999999999999999999")},
        {"negative count", with_field(first_counter, "-1")},
        {"freq_mhz abc", with_field(freq_mhz, "abc")},
    };
    for (const auto &c : cases) {
        std::stringstream in(c.csv);
        SampleLog out;
        EXPECT_FALSE(SampleLog::readCsv(in, out)) << c.what;
    }
    // The unmodified row still parses.
    std::stringstream in(with_field(first_counter, "0"));
    SampleLog out;
    EXPECT_TRUE(SampleLog::readCsv(in, out));
}
