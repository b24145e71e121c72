/**
 * @file
 * Token readers for the whitespace-separated text formats: policy
 * checkpoints, serve states and the learned-model blocks inside them.
 * `is >> n` into an unsigned type wraps "-1" to 2^64 - 1 without
 * failing the stream; readCount() fails it.
 */

#ifndef COHMELEON_SIM_TEXT_TOKENS_HH
#define COHMELEON_SIM_TEXT_TOKENS_HH

#include <charconv>
#include <concepts>
#include <istream>
#include <string>

#include "sim/logging.hh"

namespace cohmeleon
{

/** Read one unsigned decimal token into @p out. Digits only: a sign,
 *  a fraction or an out-of-range value sets failbit and leaves @p out
 *  unchanged. Returns @p is, so `readCount(is, n)` tests like
 *  `is >> n`. */
template <std::unsigned_integral T>
std::istream &
readCount(std::istream &is, T &out)
{
    std::string token;
    if (!(is >> token))
        return is;
    T value{};
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        is.setstate(std::ios::failbit);
    else
        out = value;
    return is;
}

/** Labelled token reads that die with a one-line diagnostic naming
 *  the @p format ("checkpoint", "serve state") and the field. */
class TokenReader
{
  public:
    TokenReader(std::istream &is, const char *format)
        : is_(is), format_(format)
    {
    }

    /** The next token as a @p T; unsigned types go through
     *  readCount(). @throws FatalError when missing or malformed */
    template <typename T>
    T
    expect(const char *what)
    {
        T value{};
        if constexpr (std::unsigned_integral<T>)
            readCount(is_, value);
        else
            is_ >> value;
        fatalIf(!is_, format_, " truncated or unparseable at ", what);
        return value;
    }

    /** The next token must be @p keyword. @throws FatalError */
    void
    expectKeyword(const char *keyword)
    {
        const std::string got = expect<std::string>(keyword);
        fatalIf(got != keyword, "malformed ", format_, ": expected '",
                keyword, "', got '", got, "'");
    }

  private:
    std::istream &is_;
    const char *format_;
};

} // namespace cohmeleon

#endif // COHMELEON_SIM_TEXT_TOKENS_HH
