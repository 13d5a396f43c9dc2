/**
 * @file
 * Error-path coverage for the checkpoint layer, driven through the
 * public API: a valid image is written with writeCheckpoint, the
 * bytes are damaged in targeted ways (truncated chunk, leftover
 * payload bytes, flipped checksum, bad magic, version skew), and
 * each corruption class must surface as the documented exception —
 * plus `softwatt-ckpt` must exit 1 on the same files, and 2 (the
 * "not even bytes to parse" verdict) on missing or zero-length
 * images such as the stubs a torn rename leaves behind.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "sim/checkpoint.hh"

using softwatt::CheckpointError;
using softwatt::CheckpointImage;
using softwatt::CheckpointMismatch;
using softwatt::ChunkReader;
using softwatt::ChunkWriter;

namespace fs = std::filesystem;

namespace
{

class CkptErrorsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() /
              ("softwatt-ckpt-errors-" +
               std::to_string(::getpid()));
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string
    path(const std::string &name) const
    {
        return (dir / name).string();
    }

    /** A small two-chunk image with known contents. */
    static CheckpointImage
    makeImage()
    {
        CheckpointImage image;
        image.configFingerprint = 0x1234abcd5678ef00ull;
        image.cpuModel = 1;
        ChunkWriter cpu;
        cpu.u64(42);
        cpu.f64(2.5);
        cpu.b(true);
        image.add("cpu", std::move(cpu));
        ChunkWriter disk;
        disk.u32(7);
        disk.str("idle");
        image.add("disk", std::move(disk));
        return image;
    }

    /** Write makeImage() to @p name and return the file's bytes. */
    std::vector<char>
    writeAndSlurp(const std::string &name)
    {
        softwatt::writeCheckpoint(path(name), makeImage());
        std::ifstream in(path(name), std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    }

    void
    writeBytes(const std::string &name,
               const std::vector<char> &bytes)
    {
        std::ofstream out(path(name), std::ios::binary);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }

    fs::path dir;
};

/** Run softwatt-ckpt (path from the build) on @p file; exit status. */
int
runCkptTool(const std::string &file)
{
    std::string cmd = std::string(SOFTWATT_CKPT_BIN) + " \"" + file +
                      "\" > /dev/null 2>&1";
    int status = std::system(cmd.c_str());
    if (status == -1)
        return -1;
    return WEXITSTATUS(status);
}

} // namespace

TEST_F(CkptErrorsTest, RoundTripBaseline)
{
    auto bytes = writeAndSlurp("good.ckpt");
    ASSERT_FALSE(bytes.empty());
    CheckpointImage image = softwatt::readCheckpoint(path("good.ckpt"));
    ASSERT_EQ(image.chunks.size(), 2u);
    ChunkReader cpu(image.chunks[0].payload, "cpu");
    EXPECT_EQ(cpu.u64(), 42u);
    EXPECT_EQ(cpu.f64(), 2.5);
    EXPECT_TRUE(cpu.b());
    cpu.finish();
    EXPECT_EQ(runCkptTool(path("good.ckpt")), 0);
}

TEST_F(CkptErrorsTest, TruncatedChunkPayload)
{
    auto bytes = writeAndSlurp("trunc.ckpt");
    // Drop the tail of the last chunk's payload.
    bytes.resize(bytes.size() - 3);
    writeBytes("trunc.ckpt", bytes);
    EXPECT_THROW(softwatt::readCheckpoint(path("trunc.ckpt")),
                 CheckpointError);
    EXPECT_EQ(runCkptTool(path("trunc.ckpt")), 1);
}

TEST_F(CkptErrorsTest, TruncatedHeader)
{
    auto bytes = writeAndSlurp("hdr.ckpt");
    bytes.resize(4);  // not even the magic survives
    writeBytes("hdr.ckpt", bytes);
    EXPECT_THROW(softwatt::readCheckpoint(path("hdr.ckpt")),
                 CheckpointError);
    EXPECT_EQ(runCkptTool(path("hdr.ckpt")), 1);
}

TEST_F(CkptErrorsTest, FlippedPayloadByteFailsChecksum)
{
    auto bytes = writeAndSlurp("flip.ckpt");
    // Flip the last payload byte; the chunk checksum must catch it.
    bytes.back() = char(bytes.back() ^ 0x40);
    writeBytes("flip.ckpt", bytes);
    EXPECT_THROW(softwatt::readCheckpoint(path("flip.ckpt")),
                 CheckpointError);
    EXPECT_EQ(runCkptTool(path("flip.ckpt")), 1);
}

TEST_F(CkptErrorsTest, BadMagic)
{
    auto bytes = writeAndSlurp("magic.ckpt");
    bytes[0] = 'X';
    writeBytes("magic.ckpt", bytes);
    EXPECT_THROW(softwatt::readCheckpoint(path("magic.ckpt")),
                 CheckpointError);
    EXPECT_EQ(runCkptTool(path("magic.ckpt")), 1);
}

TEST_F(CkptErrorsTest, VersionSkewIsMismatchNotCorruption)
{
    auto bytes = writeAndSlurp("ver.ckpt");
    // Version u16 sits right after the 6-byte magic.
    bytes[6] = char(0xEE);
    bytes[7] = char(0x7F);
    writeBytes("ver.ckpt", bytes);
    EXPECT_THROW(softwatt::readCheckpoint(path("ver.ckpt")),
                 CheckpointMismatch);
    EXPECT_EQ(runCkptTool(path("ver.ckpt")), 1);
}

TEST_F(CkptErrorsTest, MissingFile)
{
    EXPECT_THROW(softwatt::readCheckpoint(path("nope.ckpt")),
                 CheckpointError);
    // Distinct verdict: nothing to parse is exit 2, not exit 1.
    EXPECT_EQ(runCkptTool(path("nope.ckpt")), 2);
}

TEST_F(CkptErrorsTest, ZeroLengthStubIsDistinctFromCorruption)
{
    // The stub a torn rename leaves at the destination: present but
    // zero bytes. The tool must call it EMPTY (exit 2) rather than
    // lumping it in with corruption, and worst-wins aggregation
    // must surface the 2 even when a good file is also listed.
    writeBytes("stub.ckpt", {});
    EXPECT_THROW(softwatt::readCheckpoint(path("stub.ckpt")),
                 CheckpointError);
    EXPECT_EQ(runCkptTool(path("stub.ckpt")), 2);

    writeAndSlurp("good.ckpt");
    EXPECT_EQ(runCkptTool(path("good.ckpt") + "\" \"" +
                          path("stub.ckpt")),
              2);
}

TEST_F(CkptErrorsTest, ReaderOverrunThrows)
{
    ChunkWriter out;
    out.u32(5);
    ChunkReader in(out.bytes(), "tiny");
    EXPECT_EQ(in.u32(), 5u);
    // Reading past the payload end must throw, not yield garbage.
    EXPECT_THROW(in.u64(), CheckpointError);
}

TEST_F(CkptErrorsTest, LeftoverBytesFailFinish)
{
    ChunkWriter out;
    out.u32(5);
    out.u32(6);
    ChunkReader in(out.bytes(), "leftover");
    EXPECT_EQ(in.u32(), 5u);
    EXPECT_EQ(in.remaining(), 4u);
    // finish() with unconsumed bytes is a contract violation: the
    // loader missed a field the saver wrote.
    EXPECT_THROW(in.finish(), CheckpointError);
    EXPECT_EQ(in.u32(), 6u);
    in.finish();
}

TEST_F(CkptErrorsTest, StringRoundTripAndTruncation)
{
    ChunkWriter out;
    out.str("softwatt");
    {
        ChunkReader in(out.bytes(), "str");
        EXPECT_EQ(in.str(), "softwatt");
        in.finish();
    }
    // Length prefix promising more bytes than the payload holds.
    std::vector<std::uint8_t> cut(out.bytes().begin(),
                                  out.bytes().end() - 2);
    ChunkReader in(cut, "str");
    EXPECT_THROW(in.str(), CheckpointError);
}
