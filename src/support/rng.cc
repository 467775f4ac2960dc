#include "support/rng.h"

#include <algorithm>
#include <charconv>

namespace petabricks {

void
Mt19937_64::twist()
{
    constexpr size_t n = kStateWords;
    constexpr size_t m = 156;
    constexpr uint64_t upper = ~uint64_t(0) << 31;
    constexpr uint64_t lower = ~upper;
    constexpr uint64_t matrix = 0xb5026f5aa96619e9ull;
    auto mixed = [&](size_t k, size_t next, size_t far) {
        const uint64_t y = (words_[k] & upper) | (words_[next] & lower);
        return words_[far] ^ (y >> 1) ^ ((y & 1) ? matrix : 0);
    };
    for (size_t k = 0; k < n - m; ++k)
        words_[k] = mixed(k, k + 1, k + m);
    for (size_t k = n - m; k < n - 1; ++k)
        words_[k] = mixed(k, k + 1, k + m - n);
    words_[n - 1] = mixed(n - 1, 0, m - 1);
    next_ = 0;
}

std::string
Mt19937_64::state() const
{
    // 20 digits per word at most, plus a separator each.
    char buf[(kStateWords + 1) * 21];
    char *out = buf;
    char *const last = buf + sizeof(buf);
    for (uint64_t word : words_) {
        out = std::to_chars(out, last, word).ptr;
        *out++ = ' ';
    }
    out = std::to_chars(out, last, next_).ptr;
    return std::string(buf, out);
}

bool
Mt19937_64::setState(std::string_view text)
{
    uint64_t words[kStateWords];
    size_t next = 0;
    const char *cursor = text.data();
    const char *const last = cursor + text.size();
    auto number = [&](auto &value, bool final) {
        auto [end, ec] = std::from_chars(cursor, last, value);
        if (ec != std::errc())
            return false;
        if (final ? end != last : end == last || *end != ' ')
            return false;
        cursor = end + 1;
        return true;
    };
    for (uint64_t &word : words)
        if (!number(word, false))
            return false;
    if (!number(next, true) || next > kStateWords)
        return false;
    std::copy(std::begin(words), std::end(words), words_);
    next_ = next;
    return true;
}

} // namespace petabricks
