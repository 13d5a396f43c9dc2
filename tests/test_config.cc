/**
 * @file
 * Unit tests for the typed configuration store.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

using namespace softwatt;

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getInt("x", 7), 7);
    EXPECT_DOUBLE_EQ(c.getDouble("y", 2.5), 2.5);
    EXPECT_TRUE(c.getBool("z", true));
    EXPECT_EQ(c.getString("s", "abc"), "abc");
    EXPECT_FALSE(c.has("x"));
}

TEST(Config, SetAndGetTypes)
{
    Config c;
    c.set("i", std::int64_t(42));
    c.set("d", 3.25);
    c.set("b", true);
    c.set("s", std::string("hello"));
    EXPECT_EQ(c.getInt("i", 0), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 3.25);
    EXPECT_TRUE(c.getBool("b", false));
    EXPECT_EQ(c.getString("s", ""), "hello");
    EXPECT_TRUE(c.has("i"));
}

TEST(Config, IntParsesHex)
{
    Config c;
    c.set("addr", std::string("0x40"));
    EXPECT_EQ(c.getInt("addr", 0), 64);
}

TEST(Config, BoolAliases)
{
    Config c;
    c.set("a", std::string("1"));
    c.set("b", std::string("no"));
    c.set("d", std::string("yes"));
    EXPECT_TRUE(c.getBool("a", false));
    EXPECT_FALSE(c.getBool("b", true));
    EXPECT_TRUE(c.getBool("d", false));
}

TEST(Config, ParseAssignment)
{
    Config c;
    EXPECT_TRUE(c.parseAssignment("cache.size=64"));
    EXPECT_EQ(c.getInt("cache.size", 0), 64);
    EXPECT_FALSE(c.parseAssignment("no-equals-sign"));
    EXPECT_FALSE(c.parseAssignment("=value"));
    // Value containing '=' keeps the remainder.
    EXPECT_TRUE(c.parseAssignment("k=a=b"));
    EXPECT_EQ(c.getString("k", ""), "a=b");
}

TEST(Config, MergeOverwrites)
{
    Config base, over;
    base.set("a", std::int64_t(1));
    base.set("b", std::int64_t(2));
    over.set("b", std::int64_t(20));
    over.set("c", std::int64_t(30));
    base.merge(over);
    EXPECT_EQ(base.getInt("a", 0), 1);
    EXPECT_EQ(base.getInt("b", 0), 20);
    EXPECT_EQ(base.getInt("c", 0), 30);
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("zebra", std::int64_t(1));
    c.set("alpha", std::int64_t(2));
    auto keys = c.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "alpha");
    EXPECT_EQ(keys[1], "zebra");
}

TEST(Config, UnusedKeysReportsNeverReadKeys)
{
    Config c;
    c.set("cache.size", std::int64_t(64));
    c.set("cahe.sise", std::int64_t(32)); // typo: never read
    c.set("scale", 0.5);
    (void)c.getInt("cache.size", 0);
    (void)c.getDouble("scale", 1.0);
    auto unused = c.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "cahe.sise");
}

TEST(Config, ReadOfAbsentKeyCountsAsUsedOnceSet)
{
    // Consumers read with defaults before the key exists; a later
    // set must not flag it as unused.
    Config c;
    (void)c.getInt("later", 0);
    c.set("later", std::int64_t(1));
    EXPECT_TRUE(c.unusedKeys().empty());
}

// With a throwing error handler installed, fatal() becomes a
// catchable SimError instead of exit(1), so malformed-value paths
// are testable in-process (no fork, works under sanitizers).
class ConfigErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setErrorHandler(throwingErrorHandler); }
    void TearDown() override { setErrorHandler(nullptr); }
};

TEST_F(ConfigErrorTest, MalformedIntIsFatal)
{
    Config c;
    c.set("n", std::string("notanumber"));
    try {
        (void)c.getInt("n", 0);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Fatal);
        EXPECT_NE(std::string(e.what()).find("not an integer"),
                  std::string::npos);
    }
}

TEST_F(ConfigErrorTest, MalformedDoubleIsFatal)
{
    Config c;
    c.set("d", std::string("1.2.3"));
    EXPECT_THROW((void)c.getDouble("d", 0), SimError);
}

TEST_F(ConfigErrorTest, CoreShapesThePipelineCannotRunAreFatal)
{
    struct Case
    {
        const char *assignment;
        const char *key;
    };
    const Case rejected[] = {
        {"cpu.inst_window=0", "cpu.inst_window"},
        {"cpu.inst_window=-4", "cpu.inst_window"},
        {"cpu.inst_window=1025", "cpu.inst_window"},
        {"cpu.fetch_width=0", "cpu.fetch_width"},
        {"cpu.decode_width=-1", "cpu.decode_width"},
        {"cpu.issue_width=0", "cpu.issue_width"},
        {"cpu.commit_width=-1", "cpu.commit_width"},
        {"cpu.int_alus=0", "cpu.int_alus"},
        {"cpu.fp_alus=0", "cpu.fp_alus"},
    };
    for (const Case &c : rejected) {
        Config args;
        ASSERT_TRUE(args.parseAssignment(c.assignment));
        try {
            (void)SystemConfig::fromConfig(args);
            ADD_FAILURE() << c.assignment << " was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Fatal) << c.assignment;
            EXPECT_NE(std::string(e.what()).find(c.key),
                      std::string::npos)
                << c.assignment << ": " << e.what();
        }
    }
    for (const char *edge :
         {"cpu.inst_window=1", "cpu.inst_window=1024",
          "cpu.issue_width=1", "cpu.int_alus=1"}) {
        Config args;
        ASSERT_TRUE(args.parseAssignment(edge));
        EXPECT_NO_THROW((void)SystemConfig::fromConfig(args)) << edge;
    }
}

TEST(ConfigDeath, MalformedBoolIsFatal)
{
    Config c;
    c.set("b", std::string("maybe"));
    EXPECT_DEATH((void)c.getBool("b", false), "not a boolean");
}
