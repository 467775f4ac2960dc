#include "support/kvfile.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "support/crashpoint.h"
#include "support/error.h"
#include "support/hash.h"

namespace petabricks {

namespace {

/** The integrity line save()/saveAtomic() append and load() strips. */
const std::string kChecksumKey = "kv.checksum";

/** What the parser trims around lines, keys and values. */
bool
isPadding(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && isPadding(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && isPadding(s.back()))
        s.remove_suffix(1);
    return s;
}

/** True if a `key = value` line parses back to @p key. */
bool
readsBack(const std::string &key)
{
    return !key.empty() && key.front() != '#' && !isPadding(key.front()) &&
           !isPadding(key.back()) &&
           key.find_first_of("=\n") == std::string::npos;
}

/**
 * FNV-1a over every entry but the checksum line, in key order, with
 * values as the parser reads them back (trimmed). Over a loaded file
 * the values are already trimmed; over entries about to be saved this
 * is the checksum of the file once read back, since set() admits only
 * keys that read back as themselves.
 */
uint64_t
checksum(const std::map<std::string, std::string> &entries)
{
    Fnv1a hash;
    for (const auto &[key, value] : entries) {
        if (key == kChecksumKey)
            continue;
        hash.mix(key);
        hash.mix(trim(value));
    }
    return hash.value();
}

/**
 * @p text as std::stoll reads it (leading whitespace, an optional
 * sign, decimal digits), which must consume all of it; FatalError
 * naming @p key otherwise.
 */
int64_t
parseInt(std::string_view text, const std::string &key)
{
    const char *first = text.data();
    const char *const last = first + text.size();
    while (first != last &&
           std::string_view(" \t\n\v\f\r").find(*first) !=
               std::string_view::npos)
        ++first;
    if (first != last && *first == '+' && last - first > 1 &&
        first[1] != '-')
        ++first;
    int64_t value = 0;
    auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range)
        PB_FATAL("key '" << key << "' out of int64 range: " << text);
    if (ec != std::errc())
        PB_FATAL("key '" << key << "' is not an integer: " << text);
    if (end != last)
        PB_FATAL("trailing junk in int key '" << key << "': " << text);
    return value;
}

/** Write all of @p data to @p fd; 0, or the errno of the failure. */
int
writeFully(int fd, std::string_view data)
{
    while (!data.empty()) {
        ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        data.remove_prefix(static_cast<size_t>(n));
    }
    return 0;
}

} // namespace

void
KvFile::set(const std::string &key, std::string value)
{
    PB_ASSERT(readsBack(key), "invalid key '" << key << "'");
    PB_ASSERT(value.find('\n') == std::string::npos,
              "value for '" << key << "' contains newline");
    PB_ASSERT(key != kChecksumKey,
              "'" << kChecksumKey << "' is reserved for the file checksum");
    entries_.insert_or_assign(key, std::move(value));
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
    std::string text;
    char buf[24];
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            text += ',';
        text.append(buf, std::to_chars(buf, buf + sizeof(buf), values[i]).ptr);
    }
    set(key, std::move(text));
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
    return parseInt(get(key), key);
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
    std::vector<int64_t> values;
    std::string_view rest = trim(get(key));
    while (!rest.empty()) {
        const size_t comma = rest.find(',');
        values.push_back(parseInt(trim(rest.substr(0, comma)), key));
        if (comma == std::string_view::npos)
            break;
        rest.remove_prefix(comma + 1);
        if (rest.empty())
            PB_FATAL("int list '" << key << "' ends with a comma");
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

KvFile
KvFile::section(std::string_view prefix) const
{
    KvFile out;
    for (auto it = entries_.lower_bound(std::string(prefix));
         it != entries_.end() && it->first.starts_with(prefix); ++it)
        out.entries_.emplace_hint(out.entries_.end(),
                                  it->first.substr(prefix.size()),
                                  it->second);
    return out;
}

void
KvFile::setSection(const std::string &prefix, const KvFile &values)
{
    for (const auto &[key, value] : values.entries_)
        set(prefix + key, value);
}

std::string
KvFile::toString() const
{
    std::string text;
    for (const auto &[key, value] : entries_) {
        text += key;
        text += " = ";
        text += value;
        text += '\n';
    }
    return text;
}

std::string
KvFile::signedText() const
{
    std::string text = toString();
    text += kChecksumKey;
    text += " = ";
    text += hex16(checksum(entries_));
    text += '\n';
    return text;
}

KvFile
KvFile::fromString(std::string_view text)
{
    KvFile kv;
    int lineno = 0;
    while (!text.empty()) {
        const size_t eol = std::min(text.find('\n'), text.size());
        const std::string_view line = text.substr(0, eol);
        text.remove_prefix(std::min(eol + 1, text.size()));
        ++lineno;
        std::string_view stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        size_t eq = stripped.find('=');
        if (eq == std::string_view::npos)
            PB_FATAL("config line " << lineno << " has no '=': " << line);
        std::string_view key = trim(stripped.substr(0, eq));
        std::string_view value = trim(stripped.substr(eq + 1));
        if (key.empty())
            PB_FATAL("config line " << lineno << " has empty key");
        // Files are written in key order: almost every key goes last.
        if (kv.entries_.empty() || kv.entries_.rbegin()->first < key)
            kv.entries_.emplace_hint(kv.entries_.end(), key, value);
        else
            kv.entries_.insert_or_assign(std::string(key),
                                         std::string(value));
    }
    return kv;
}

void
KvFile::save(const std::string &path) const
{
    const std::string payload = signedText();
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    if (fd < 0)
        PB_FATAL("cannot open '" << path << "' for writing");
    int err = writeFully(fd, payload);
    if (::close(fd) != 0 && err == 0)
        err = errno;
    if (err != 0)
        PB_FATAL("write to '" << path << "' failed: " << strerror(err));
}

void
KvFile::saveAtomic(const std::string &path,
                   const std::string &crashPrefix) const
{
    const std::string temp = path + ".tmp";
    const std::string payload = signedText();

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

    if (int err = writeFully(fd, std::string_view(payload).substr(0, toWrite));
        err != 0) {
        ::close(fd);
        PB_IO_FAIL("write to '" << temp << "' failed: " << strerror(err));
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
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        PB_FATAL("cannot open '" << path << "' for reading");
    // One read() for a file that holds still; grow if it did not.
    struct stat st;
    std::string text(
        ::fstat(fd, &st) == 0 ? static_cast<size_t>(st.st_size) + 1 : 4096,
        '\0');
    size_t used = 0;
    for (;;) {
        if (used == text.size())
            text.resize(2 * text.size());
        ssize_t n = ::read(fd, text.data() + used, text.size() - used);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            int err = errno;
            ::close(fd);
            PB_FATAL("read of '" << path << "' failed: " << strerror(err));
        }
        if (n == 0)
            break;
        used += static_cast<size_t>(n);
    }
    ::close(fd);
    text.resize(used);

    KvFile kv = fromString(text);
    auto it = kv.entries_.find(kChecksumKey);
    if (it == kv.entries_.end())
        PB_FATAL("'" << path << "' has no " << kChecksumKey
                     << " line (torn, or written before files carried one)");
    const uint64_t stored = parseHex16(it->second, "file checksum");
    kv.entries_.erase(it);
    if (stored != checksum(kv.entries_))
        PB_FATAL("'" << path << "' fails its checksum (torn or edited?)");
    return kv;
}

} // namespace petabricks
