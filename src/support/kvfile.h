/**
 * @file
 * Flat key/value text files.
 *
 * The PetaBricks autotuner communicates with binaries via a *choice
 * configuration file* (Section 3, Figure 3). We keep the same plain-text
 * model: one `key = value` per line, '#' comments, stable ordering so
 * files diff cleanly across tuner generations.
 *
 * save()/saveAtomic() end every file with `kv.checksum = <16 hex>`,
 * FNV-1a over every other entry as the parser reads it back, in key
 * order. load() requires, verifies and strips that line, so a torn,
 * edited or pre-checksum file is a FatalError, which every store's
 * boot fsck quarantines. It is the only checksum persisted artifacts
 * carry. toString()/fromString() (HTTP bodies) are checksum-free.
 */

#ifndef PETABRICKS_SUPPORT_KVFILE_H
#define PETABRICKS_SUPPORT_KVFILE_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace petabricks {

/** Ordered string->string map with typed accessors and file round-trip. */
class KvFile
{
  public:
    /**
     * Set (or overwrite) a key. The key must read back as itself: not
     * empty, no `=` or newline, no leading or trailing space, tab or
     * CR, and no leading `#`. `kv.checksum` is reserved.
     */
    void set(const std::string &key, std::string value);
    void setInt(const std::string &key, int64_t value);
    /** Shortest decimal that getDouble() reads back bit-exactly
     * (inf/nan included). */
    void setDouble(const std::string &key, double value);
    void setIntList(const std::string &key,
                    const std::vector<int64_t> &values);

    /** True if @p key is present. */
    bool has(const std::string &key) const;

    /** Value of @p key; fatal error if absent. */
    const std::string &get(const std::string &key) const;
    int64_t getInt(const std::string &key) const;
    double getDouble(const std::string &key) const;
    /** Comma-separated integers; every element (spaces around it
     * allowed) must read as getInt() reads a value. */
    std::vector<int64_t> getIntList(const std::string &key) const;

    /** Value of @p key, or @p fallback if absent. */
    int64_t getIntOr(const std::string &key, int64_t fallback) const;

    /** All keys in sorted order. */
    std::vector<std::string> keys() const;

    size_t size() const { return entries_.size(); }

    /** The entries whose key starts with @p prefix, keyed by the rest
     * of the key. */
    KvFile section(std::string_view prefix) const;

    /** Set @p prefix + key for every entry of @p values: the inverse
     * of section(). */
    void setSection(const std::string &prefix, const KvFile &values);

    /** Render to the text format (no checksum line). */
    std::string toString() const;

    /** What save()/saveAtomic() write: toString() plus the
     * `kv.checksum` line. */
    std::string signedText() const;

    /** Parse the text format; fatal error on bad syntax. */
    static KvFile fromString(std::string_view text);

    /** Write to @p path with its checksum line; fatal error on I/O
     * failure. */
    void save(const std::string &path) const;

    /**
     * Crash-safe write: render to `path + ".tmp"`, fsync, rename over
     * @p path. Readers either see the old complete file or the new
     * complete file, never a partial one. @p crashPrefix names the
     * crash-point family traversed during the sequence (see
     * support/crashpoint.h); pass the prefix registered for this
     * store, e.g. "spool.ckpt". Throws IoError (not FatalError) on
     * write/rename failure — injected or real — with the temp file
     * left behind and the destination untouched.
     */
    void saveAtomic(const std::string &path,
                    const std::string &crashPrefix) const;

    /** Read from @p path; fatal error on I/O failure, bad syntax, or
     * a missing or mismatched checksum line. */
    static KvFile load(const std::string &path);

    bool operator==(const KvFile &other) const = default;

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_KVFILE_H
