#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "support/error.h"
#include "support/kvfile.h"

namespace petabricks {
namespace {

/** Per-test scratch file path. */
std::string
scratchPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

KvFile
sampleKv()
{
    KvFile kv;
    kv.setInt("count", 1234);
    kv.set("name", "portable");
    kv.setDouble("seconds", 0.125);
    return kv;
}

TEST(KvFile, SetGetRoundTrip)
{
    KvFile kv;
    kv.set("alpha", "one");
    kv.setInt("beta", -17);
    kv.setDouble("gamma", 2.5);
    EXPECT_EQ(kv.get("alpha"), "one");
    EXPECT_EQ(kv.getInt("beta"), -17);
    EXPECT_DOUBLE_EQ(kv.getDouble("gamma"), 2.5);
    EXPECT_EQ(kv.size(), 3u);
}

TEST(KvFile, HasAndMissing)
{
    KvFile kv;
    kv.setInt("x", 1);
    EXPECT_TRUE(kv.has("x"));
    EXPECT_FALSE(kv.has("y"));
    EXPECT_THROW(kv.get("y"), FatalError);
    EXPECT_EQ(kv.getIntOr("y", 99), 99);
    EXPECT_EQ(kv.getIntOr("x", 99), 1);
}

TEST(KvFile, IntListRoundTrip)
{
    KvFile kv;
    kv.setIntList("cutoffs", {64, 512, 4096});
    std::vector<int64_t> expect{64, 512, 4096};
    EXPECT_EQ(kv.getIntList("cutoffs"), expect);
    kv.setIntList("empty", {});
    EXPECT_TRUE(kv.getIntList("empty").empty());
}

TEST(KvFile, TextRoundTripIsStable)
{
    KvFile kv;
    kv.setInt("z_last", 3);
    kv.setInt("a_first", 1);
    std::string text = kv.toString();
    // Keys render sorted so configs diff cleanly.
    EXPECT_LT(text.find("a_first"), text.find("z_last"));
    // The text form (HTTP bodies) never carries the file checksum.
    EXPECT_EQ(text.find("kv.checksum"), std::string::npos);
    KvFile back = KvFile::fromString(text);
    EXPECT_EQ(back, kv);
}

TEST(KvFile, ParserSkipsCommentsAndBlanks)
{
    KvFile kv = KvFile::fromString("# comment\n\n  key = value  \n");
    EXPECT_EQ(kv.get("key"), "value");
    EXPECT_EQ(kv.size(), 1u);
}

TEST(KvFile, ParserRejectsGarbage)
{
    EXPECT_THROW(KvFile::fromString("no equals sign"), FatalError);
    EXPECT_THROW(KvFile::fromString("= value"), FatalError);
}

TEST(KvFile, TypedGetRejectsWrongType)
{
    KvFile kv;
    kv.set("s", "hello");
    EXPECT_THROW(kv.getInt("s"), FatalError);
    EXPECT_THROW(kv.getDouble("s"), FatalError);
    kv.set("trailing", "12abc");
    EXPECT_THROW(kv.getInt("trailing"), FatalError);
}

TEST(KvFile, FileRoundTrip)
{
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() / "pb_kvfile_test.cfg";
    KvFile kv;
    kv.setInt("threads", 16);
    kv.set("machine", "Server");
    kv.save(path.string());
    KvFile back = KvFile::load(path.string());
    EXPECT_EQ(back, kv);
    // The checksum line is on disk but never surfaces as an entry.
    EXPECT_NE(slurp(path.string()).find("\nkv.checksum = "),
              std::string::npos);
    EXPECT_FALSE(back.has("kv.checksum"));
    EXPECT_EQ(back.keys(), kv.keys());

    kv.saveAtomic(path.string(), "cache.seg");
    EXPECT_EQ(KvFile::load(path.string()), kv);
    fs::remove(path);
}

TEST(KvFile, ChecksumKeyIsReserved)
{
    KvFile kv;
    EXPECT_THROW(kv.set("kv.checksum", "0000000000000000"), PanicError);
}

TEST(KvFile, OneByteEditFailsLoad)
{
    const std::string path = scratchPath("pb_kvfile_edited.kv");
    sampleKv().save(path);
    std::string text = slurp(path);
    size_t pos = text.find("1234");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '5'; // still a valid int: only the checksum can tell
    std::ofstream(path) << text;
    EXPECT_THROW(KvFile::load(path), FatalError);
    std::filesystem::remove(path);
}

TEST(KvFile, MissingChecksumLineFailsLoad)
{
    const std::string path = scratchPath("pb_kvfile_unsigned.kv");
    std::ofstream(path) << sampleKv().toString();
    EXPECT_THROW(KvFile::load(path), FatalError);
    std::filesystem::remove(path);
}

TEST(KvFile, TruncatedFileFailsLoad)
{
    const std::string path = scratchPath("pb_kvfile_truncated.kv");
    sampleKv().save(path);
    const std::string text = slurp(path);
    // Every cut, including one inside the checksum line itself.
    for (size_t keep = 0; keep + 1 < text.size(); ++keep) {
        std::ofstream(path, std::ios::trunc) << text.substr(0, keep);
        EXPECT_THROW(KvFile::load(path), FatalError) << "kept " << keep;
    }
    std::filesystem::remove(path);
}

TEST(KvFile, PaddedValueSavesAndLoads)
{
    const std::string path = scratchPath("pb_kvfile_padded.kv");
    KvFile kv;
    kv.set("padded", "  spaced out\t ");
    kv.save(path);
    KvFile back = KvFile::load(path);
    // The text format trims values; the checksum covers what is read.
    EXPECT_EQ(back.get("padded"), "spaced out");
    std::filesystem::remove(path);
}

TEST(KvFile, DoublesRoundTripBitExactlyInShortestForm)
{
    const double values[] = {
        0.1,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        DBL_MAX,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        74.343,
    };
    for (double value : values) {
        KvFile kv;
        kv.setDouble("x", value);
        KvFile back = KvFile::fromString(kv.toString());
        EXPECT_EQ(std::bit_cast<uint64_t>(back.getDouble("x")),
                  std::bit_cast<uint64_t>(value))
            << kv.get("x");
    }
    KvFile kv;
    kv.setDouble("x", 74.343);
    EXPECT_EQ(kv.get("x"), "74.343");
    kv.setDouble("x", 0.55);
    EXPECT_EQ(kv.get("x"), "0.55");
}

TEST(KvFile, LoadMissingFileIsFatal)
{
    EXPECT_THROW(KvFile::load("/nonexistent/path/cfg"), FatalError);
}

TEST(KvFile, OverwriteReplacesValue)
{
    KvFile kv;
    kv.setInt("k", 1);
    kv.setInt("k", 2);
    EXPECT_EQ(kv.getInt("k"), 2);
    EXPECT_EQ(kv.size(), 1u);
}

} // namespace
} // namespace petabricks
