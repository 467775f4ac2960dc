/**
 * @file
 * Incremental FNV-1a hashing.
 *
 * The repo already relies on FNV-1a in two hot places —
 * Config::valueFingerprint() and the fault injector's per-key
 * schedule — and the shared evaluation cache adds two more (machine
 * fingerprints and cache scope keys). This header centralizes the
 * idiom as a tiny incremental hasher so every new fingerprint mixes
 * fields the same way: word-at-a-time with separator words, strings
 * with a terminator byte so adjacent fields cannot alias.
 *
 * The hash is stable across processes and platforms (it depends only
 * on the mixed byte sequence), which is what lets fingerprints key
 * on-disk cache segments, checkpoint schema checks and KvFile's file
 * checksum.
 */

#ifndef PETABRICKS_SUPPORT_HASH_H
#define PETABRICKS_SUPPORT_HASH_H

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "support/error.h"

namespace petabricks {

/** See file comment. */
class Fnv1a
{
  public:
    /** Mix one 64-bit word, byte by byte (little-endian order). */
    Fnv1a &
    mix(uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= kPrime;
        }
        return *this;
    }

    /** Mix a double by its exact bit pattern (no rounding, so equal
     * doubles hash equal and nothing else does). */
    Fnv1a &
    mix(double value)
    {
        return mix(std::bit_cast<uint64_t>(value));
    }

    /** Mix a string's bytes plus a 0xff terminator, so ("ab","c") and
     * ("a","bc") cannot collide. */
    Fnv1a &
    mix(std::string_view text)
    {
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= kPrime;
        }
        hash_ ^= 0xff;
        hash_ *= kPrime;
        return *this;
    }

    Fnv1a &
    mix(bool value)
    {
        return mix(static_cast<uint64_t>(value ? 1 : 0));
    }

    uint64_t value() const { return hash_; }

  private:
    static constexpr uint64_t kOffset = 1469598103934665603ull;
    static constexpr uint64_t kPrime = 1099511628211ull;

    uint64_t hash_ = kOffset;
};

/** 16-digit lower-case hex, the text form of every fingerprint,
 * checksum and exact double bit pattern. */
inline std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

/** Inverse of hex16(); FatalError naming @p what on malformed text. */
inline uint64_t
parseHex16(const std::string &text, const char *what)
{
    uint64_t value = 0;
    char trailing = 0;
    if (std::sscanf(text.c_str(), "%" SCNx64 " %c", &value, &trailing) != 1)
        PB_FATAL("malformed " << what << " '" << text << "'");
    return value;
}

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_HASH_H
