#include "portfolio/portfolio.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <filesystem>
#include <limits>

#include "benchmarks/registry.h"
#include "support/crashpoint.h"
#include "support/error.h"
#include "support/fsck.h"
#include "support/hash.h"
#include "support/kvfile.h"
#include "support/logging.h"

namespace petabricks {
namespace portfolio {

namespace fs = std::filesystem;

namespace {

/** Filesystem-safe benchmark slug ("Black-Scholes" -> "black-scholes"). */
std::string
slugify(const std::string &name)
{
    std::string slug;
    for (char c : name) {
        unsigned char u = static_cast<unsigned char>(c);
        slug += std::isalnum(u)
                    ? static_cast<char>(std::tolower(u))
                    : '-';
    }
    return slug;
}

KvFile
recordToKv(const ChampionRecord &record)
{
    KvFile kv;
    kv.setInt("portfolio.version", 1);
    championToKv(kv, "champion.", record);
    kv.setSection("config.", record.config.toKv());
    return kv;
}

ChampionRecord
recordFromFile(const std::string &path)
{
    KvFile kv = KvFile::load(path);
    if (kv.getIntOr("portfolio.version", -1) != 1)
        PB_FATAL("'" << path << "' is not a portfolio champion file");

    ChampionRecord record;
    record.benchmark = kv.get("champion.benchmark");
    record.machineName = kv.get("champion.machine");
    record.machineFingerprint = parseHex16(
        kv.get("champion.machineFingerprint"), "machine fingerprint");
    record.inputSize = kv.getInt("champion.inputSize");
    record.seconds = std::bit_cast<double>(
        parseHex16(kv.get("champion.secondsBits"), "seconds bits"));
    record.configFingerprint = parseHex16(
        kv.get("champion.configFingerprint"), "config fingerprint");

    // The benchmark's seed config is the deserialization schema, as
    // everywhere else (checkpoints, choice files). Unknown benchmark
    // names throw here and quarantine the file.
    record.config =
        apps::findBenchmark(record.benchmark)->seedConfig();
    record.config.loadValues(kv.section("config."));
    if (record.config.valueFingerprint() != record.configFingerprint)
        PB_FATAL("'" << path << "' config does not match its stored "
                     << "fingerprint");
    return record;
}

} // namespace

void
championToKv(KvFile &kv, const std::string &prefix,
             const ChampionRecord &record)
{
    kv.set(prefix + "benchmark", record.benchmark);
    kv.set(prefix + "machine", record.machineName);
    kv.set(prefix + "machineFingerprint", hex16(record.machineFingerprint));
    kv.setInt(prefix + "inputSize", record.inputSize);
    // The decimal is advisory (humans diffing the file); the bit
    // pattern is the value that round-trips exactly.
    kv.setDouble(prefix + "seconds", record.seconds);
    kv.set(prefix + "secondsBits",
           hex16(std::bit_cast<uint64_t>(record.seconds)));
    kv.set(prefix + "configFingerprint", hex16(record.configFingerprint));
}

ChampionPortfolio::ChampionPortfolio(std::string dir, bool fsck)
    : dir_(std::move(dir)), fsck_(fsck)
{
    if (dir_.empty())
        return; // memory-only
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        PB_FATAL("cannot create portfolio directory '"
                 << dir_ << "': " << ec.message());
    loadExisting();
}

void
ChampionPortfolio::loadExisting()
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (entry.path().extension() == ".kv" &&
            name.rfind("champ-", 0) == 0)
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end()); // deterministic load order
    for (const std::string &path : paths) {
        try {
            ChampionRecord record = recordFromFile(path);
            Key key{record.benchmark, record.machineFingerprint,
                    record.inputSize};
            records_[key] = std::move(record);
            ++stats_.loaded;
        } catch (const std::exception &e) {
            if (fsck_) {
                fsck::quarantine(path);
                ++stats_.quarantined;
                PB_WARN("portfolio: quarantined champion '"
                        << path << "' (" << e.what() << ")");
            } else {
                PB_WARN("portfolio: skipping invalid champion '"
                        << path << "' (" << e.what() << ")");
            }
        }
    }
}

std::string
ChampionPortfolio::championPath(const ChampionRecord &record) const
{
    return dir_ + "/champ-" + slugify(record.benchmark) + "-" +
           hex16(record.machineFingerprint) + "-" +
           std::to_string(record.inputSize) + ".kv";
}

void
ChampionPortfolio::put(ChampionRecord record)
{
    record.configFingerprint = record.config.valueFingerprint();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dir_.empty()) {
        const std::string path = championPath(record);
        try {
            recordToKv(record).saveAtomic(path, "portfolio.champ");
        } catch (const IoError &e) {
            // Keep the in-memory champion serving dispatches; the
            // previous on-disk champion (if any) is still intact, so a
            // restart falls back to it — strictly older, never torn.
            ++stats_.writeFailures;
            PB_WARN("portfolio: champion write failed, keeping "
                    "in-memory record ("
                    << e.what() << ")");
        }
    }
    Key key{record.benchmark, record.machineFingerprint,
            record.inputSize};
    records_[key] = std::move(record);
    ++stats_.stored;
}

std::optional<ChampionRecord>
ChampionPortfolio::exact(const std::string &benchmark,
                         uint64_t machineFingerprint, int64_t n) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(Key{benchmark, machineFingerprint, n});
    if (it == records_.end())
        return std::nullopt;
    return it->second;
}

std::vector<ChampionRecord>
ChampionPortfolio::championsFor(const std::string &benchmark,
                                uint64_t machineFingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ChampionRecord> out;
    auto it = records_.lower_bound(
        Key{benchmark, machineFingerprint,
            std::numeric_limits<int64_t>::min()});
    for (; it != records_.end(); ++it) {
        const auto &[key, record] = *it;
        if (std::get<0>(key) != benchmark ||
            std::get<1>(key) != machineFingerprint)
            break;
        out.push_back(record);
    }
    return out;
}

std::vector<ChampionRecord>
ChampionPortfolio::allFor(const std::string &benchmark) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ChampionRecord> out;
    for (const auto &[key, record] : records_)
        if (std::get<0>(key) == benchmark)
            out.push_back(record);
    return out;
}

std::vector<ChampionRecord>
ChampionPortfolio::all() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ChampionRecord> out;
    out.reserve(records_.size());
    for (const auto &[key, record] : records_)
        out.push_back(record);
    return out;
}

size_t
ChampionPortfolio::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

PortfolioStats
ChampionPortfolio::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace portfolio
} // namespace petabricks
