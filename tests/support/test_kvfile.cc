#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "support/error.h"
#include "support/hash.h"
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

/** What save() wrote before it checksummed its entries directly: the
 * text, re-parsed, checksummed key by key. */
std::string
reparsedSignedText(const KvFile &kv)
{
    const std::string text = kv.toString();
    const KvFile back = KvFile::fromString(text);
    Fnv1a hash;
    for (const std::string &key : back.keys()) {
        hash.mix(key);
        hash.mix(back.get(key));
    }
    return text + "kv.checksum = " + hex16(hash.value()) + "\n";
}

TEST(KvFile, SaveBytesMatchTheReparsedChecksum)
{
    const std::string path = scratchPath("pb_kvfile_bytes.kv");
    KvFile kv = sampleKv();
    kv.set("padded", "  spaced out\t ");
    kv.set("tabbed", "\tvalue\t");
    kv.set("carriage", "\rvalue\r");
    kv.set("blank", " \t\r ");
    kv.set("empty", "");
    kv.setIntList("list.empty", {});
    kv.setIntList("list.full", {-3, 0, 9223372036854775807});
    kv.set("inner key", "a = b # not a comment");
    kv.set("hash#inside", "#");
    EXPECT_EQ(kv.signedText(), reparsedSignedText(kv));
    kv.save(path);
    EXPECT_EQ(slurp(path), reparsedSignedText(kv));
    kv.saveAtomic(path, "cache.seg");
    EXPECT_EQ(slurp(path), reparsedSignedText(kv));
    EXPECT_EQ(KvFile::load(path).get("carriage"), "value");
    std::filesystem::remove(path);

    KvFile none;
    none.save(path);
    EXPECT_EQ(slurp(path), reparsedSignedText(none));
    EXPECT_EQ(KvFile::load(path).size(), 0u);
    std::filesystem::remove(path);
}

TEST(KvFile, SetRejectsKeysThatDoNotReadBack)
{
    const std::string bad[] = {"",       " lead", "trail ", "\ttab",
                               "cr\r",   "#note", "a=b",    "a\nb"};
    for (const std::string &key : bad) {
        KvFile kv;
        EXPECT_THROW(kv.set(key, "v"), PanicError) << "'" << key << "'";
    }
    KvFile kv;
    kv.set("inner space", "v");
    kv.set("not#first", "v");
    EXPECT_EQ(KvFile::fromString(kv.toString()), kv);
}

TEST(KvFile, IntListRejectsJunkInAnyElement)
{
    KvFile kv;
    kv.set("junk", "64,256x");
    EXPECT_THROW(kv.getIntList("junk"), FatalError);
    kv.set("junk", "64x,256");
    EXPECT_THROW(kv.getIntList("junk"), FatalError);
    kv.set("gap", "1,,2");
    EXPECT_THROW(kv.getIntList("gap"), FatalError);
    kv.set("tail", "1,2,");
    EXPECT_THROW(kv.getIntList("tail"), FatalError);
    kv.set("range", "1,99999999999999999999");
    EXPECT_THROW(kv.getIntList("range"), FatalError);

    kv.set("spaced", " 64 ,\t+256, -3 ");
    EXPECT_EQ(kv.getIntList("spaced"), (std::vector<int64_t>{64, 256, -3}));
    kv.set("blank", " \t ");
    EXPECT_TRUE(kv.getIntList("blank").empty());
}

TEST(KvFile, GetIntAcceptsExactlyWhatStollReadsWhole)
{
    const std::string inputs[] = {
        "0",     "-0",   "42",    "+42",   "-42",  " 7",   "\t7",
        "\v\f7", "\r-7", "007",   "7 ",    "7x",   "x7",   "",
        " ",     "+",    "-",     "+-7",   "-+7",  "+ 7",  "0x10",
        "1e3",   "7.0",  "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "-9223372036854775809",
        "99999999999999999999x"};
    for (const std::string &input : inputs) {
        std::optional<int64_t> expected;
        try {
            size_t pos = 0;
            int64_t value = std::stoll(input, &pos);
            if (pos == input.size())
                expected = value;
        } catch (const std::exception &) {
        }
        KvFile kv;
        kv.set("k", input);
        if (expected) {
            EXPECT_EQ(kv.getInt("k"), *expected) << "'" << input << "'";
        } else {
            EXPECT_THROW(kv.getInt("k"), FatalError) << "'" << input << "'";
        }
    }
}

TEST(KvFile, SectionsSplitAndJoinByPrefix)
{
    KvFile member;
    member.setInt("seconds", 3);
    member.setIntList("sort.cutoffs", {64});
    KvFile kv;
    kv.setInt("population", 2);
    kv.setSection("population.0.", member);
    kv.setSection("population.1.", member);
    kv.setInt("population.10.seconds", 5);
    EXPECT_EQ(kv.section("population.1."), member);
    EXPECT_EQ(kv.section("population.0.").keys(),
              (std::vector<std::string>{"seconds", "sort.cutoffs"}));
    EXPECT_EQ(kv.section("population.10.").getInt("seconds"), 5);
    EXPECT_EQ(kv.section("population.2.").size(), 0u);
    EXPECT_EQ(kv.section("").size(), kv.size());
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
