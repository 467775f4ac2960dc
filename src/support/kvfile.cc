#include "support/kvfile.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/crashpoint.h"
#include "support/error.h"
#include "support/hash.h"

namespace petabricks {

namespace {

/** The integrity line save()/saveAtomic() append and load() strips. */
const std::string kChecksumKey = "kv.checksum";

std::string
trim(const std::string &s)
{
    size_t begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

/** FNV-1a over every entry in sorted key order. */
uint64_t
checksum(const KvFile &kv)
{
    Fnv1a hash;
    for (const std::string &key : kv.keys()) {
        hash.mix(key);
        hash.mix(kv.get(key));
    }
    return hash.value();
}

/** What save()/saveAtomic() write: the text plus its checksum line,
 * computed over the entries as load() parses them back (trimmed), so
 * every file that can be written also verifies. */
std::string
signedText(const KvFile &kv)
{
    const std::string text = kv.toString();
    return text + kChecksumKey + " = " +
           hex16(checksum(KvFile::fromString(text))) + "\n";
}

} // namespace

void
KvFile::set(const std::string &key, const std::string &value)
{
    PB_ASSERT(key.find('=') == std::string::npos &&
                  key.find('\n') == std::string::npos,
              "invalid key '" << key << "'");
    PB_ASSERT(value.find('\n') == std::string::npos,
              "value for '" << key << "' contains newline");
    PB_ASSERT(key != kChecksumKey,
              "'" << kChecksumKey << "' is reserved for the file checksum");
    entries_[key] = value;
}

void
KvFile::setInt(const std::string &key, int64_t value)
{
    set(key, std::to_string(value));
}

void
KvFile::setDouble(const std::string &key, double value)
{
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    set(key, std::string(buf, end));
}

void
KvFile::setIntList(const std::string &key,
                   const std::vector<int64_t> &values)
{
    std::ostringstream oss;
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            oss << ",";
        oss << values[i];
    }
    set(key, oss.str());
}

bool
KvFile::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

const std::string &
KvFile::get(const std::string &key) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        PB_FATAL("missing config key '" << key << "'");
    return it->second;
}

int64_t
KvFile::getInt(const std::string &key) const
{
    const std::string &raw = get(key);
    try {
        size_t pos = 0;
        int64_t value = std::stoll(raw, &pos);
        if (pos != raw.size())
            PB_FATAL("trailing junk in int key '" << key << "': " << raw);
        return value;
    } catch (const std::invalid_argument &) {
        PB_FATAL("key '" << key << "' is not an integer: " << raw);
    } catch (const std::out_of_range &) {
        PB_FATAL("key '" << key << "' out of int64 range: " << raw);
    }
}

double
KvFile::getDouble(const std::string &key) const
{
    const std::string &raw = get(key);
    // from_chars, unlike stod, accepts denormals, so every value
    // setDouble() writes reads back bit-exactly.
    double value = 0.0;
    const char *last = raw.data() + raw.size();
    auto [end, ec] = std::from_chars(raw.data(), last, value);
    if (ec == std::errc::result_out_of_range)
        PB_FATAL("key '" << key << "' out of double range: " << raw);
    if (ec != std::errc())
        PB_FATAL("key '" << key << "' is not a double: " << raw);
    if (end != last)
        PB_FATAL("trailing junk in double key '" << key << "': " << raw);
    return value;
}

std::vector<int64_t>
KvFile::getIntList(const std::string &key) const
{
    const std::string &raw = get(key);
    std::vector<int64_t> values;
    if (trim(raw).empty())
        return values;
    std::istringstream iss(raw);
    std::string item;
    while (std::getline(iss, item, ',')) {
        try {
            values.push_back(std::stoll(trim(item)));
        } catch (const std::exception &) {
            PB_FATAL("bad int list element in '" << key << "': " << item);
        }
    }
    return values;
}

int64_t
KvFile::getIntOr(const std::string &key, int64_t fallback) const
{
    return has(key) ? getInt(key) : fallback;
}

std::vector<std::string>
KvFile::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &kv : entries_)
        out.push_back(kv.first);
    return out;
}

std::string
KvFile::toString() const
{
    std::ostringstream oss;
    for (const auto &kv : entries_)
        oss << kv.first << " = " << kv.second << "\n";
    return oss.str();
}

KvFile
KvFile::fromString(const std::string &text)
{
    KvFile kv;
    std::istringstream iss(text);
    std::string line;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            PB_FATAL("config line " << lineno << " has no '=': " << line);
        std::string key = trim(stripped.substr(0, eq));
        std::string value = trim(stripped.substr(eq + 1));
        if (key.empty())
            PB_FATAL("config line " << lineno << " has empty key");
        kv.entries_[key] = value;
    }
    return kv;
}

void
KvFile::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        PB_FATAL("cannot open '" << path << "' for writing");
    out << signedText(*this);
    if (!out)
        PB_FATAL("write to '" << path << "' failed");
}

void
KvFile::saveAtomic(const std::string &path,
                   const std::string &crashPrefix) const
{
    const std::string temp = path + ".tmp";
    const std::string payload = signedText(*this);

    crashpoint::fire(crashPrefix + ".pre_write");

    int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        PB_IO_FAIL("cannot open '" << temp
                                   << "' for writing: " << strerror(errno));

    crashpoint::WriteFault fault =
        crashpoint::fireWrite(crashPrefix + ".write");
    size_t toWrite = payload.size();
    if (fault.action != crashpoint::Action::None) {
        // Injected short write: keepBytes if given, else half — enough
        // to leave a recognisably torn file, never a complete one.
        size_t keep = fault.explicitBytes ? fault.keepBytes
                                          : payload.size() / 2;
        toWrite = std::min(keep, payload.size());
    }

    size_t written = 0;
    while (written < toWrite) {
        ssize_t n =
            ::write(fd, payload.data() + written, toWrite - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            PB_IO_FAIL("write to '" << temp
                                    << "' failed: " << strerror(err));
        }
        written += static_cast<size_t>(n);
    }

    if (fault.action == crashpoint::Action::Enospc) {
        ::close(fd);
        PB_IO_FAIL("write to '" << temp << "' failed: "
                                << strerror(ENOSPC) << " (injected)");
    }
    if (fault.action == crashpoint::Action::Eio) {
        ::close(fd);
        PB_IO_FAIL("write to '" << temp << "' failed: " << strerror(EIO)
                                << " (injected)");
    }

    // Fsync before rename: otherwise a crash shortly after could leave
    // the *renamed* file empty on some filesystems, defeating the
    // old-or-new guarantee the spool fsck relies on.
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        PB_IO_FAIL("fsync of '" << temp
                                << "' failed: " << strerror(err));
    }
    if (::close(fd) != 0)
        PB_IO_FAIL("close of '" << temp
                                << "' failed: " << strerror(errno));

    crashpoint::fire(crashPrefix + ".pre_rename");

    if (std::rename(temp.c_str(), path.c_str()) != 0)
        PB_IO_FAIL("rename '" << temp << "' -> '" << path
                              << "' failed: " << strerror(errno));

    crashpoint::fire(crashPrefix + ".post_rename");
}

KvFile
KvFile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        PB_FATAL("cannot open '" << path << "' for reading");
    std::ostringstream oss;
    oss << in.rdbuf();
    KvFile kv = fromString(oss.str());
    auto it = kv.entries_.find(kChecksumKey);
    if (it == kv.entries_.end())
        PB_FATAL("'" << path << "' has no " << kChecksumKey
                     << " line (torn, or written before files carried one)");
    const uint64_t stored = parseHex16(it->second, "file checksum");
    kv.entries_.erase(it);
    if (stored != checksum(kv))
        PB_FATAL("'" << path << "' fails its checksum (torn or edited?)");
    return kv;
}

} // namespace petabricks
