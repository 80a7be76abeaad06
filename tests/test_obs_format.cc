/**
 * @file
 * The exporters' double formatter (obs/format.h) against the
 * snprintf/strtod precision loop it replaced, which is kept here
 * verbatim as the reference: every trace and metrics byte depends on
 * the two agreeing exactly. Seeded random bit patterns cover every
 * exponent; the trace-shaped magnitudes (microsecond timestamps,
 * latencies, millisecond steps) cover what the exporters actually
 * see; the boundary table covers signed zero, subnormals, the range
 * ends, the edge of the integer fast path, every power of ten with
 * both neighbours, and every power of two.
 */
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/format.h"

namespace powerdial::obs {
namespace {

/** The pre-to_chars formatter, verbatim: the byte-identity oracle. */
std::string
referenceFormatDouble(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[40];
    // Integers below 2^53 print as plain digits ("10", not the
    // equally round-trippable but unreadable "1e+01").
    if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
        std::snprintf(buffer, sizeof buffer, "%.0f", value);
        return buffer;
    }
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
        if (std::strtod(buffer, nullptr) == value)
            break;
    }
    return buffer;
}

/** Compare formatDouble with the reference on every value; report
 *  the count of mismatches and the first few, as hex floats. */
void
expectMatchesReference(const std::vector<double> &values)
{
    std::size_t mismatches = 0;
    for (double value : values) {
        const std::string expected = referenceFormatDouble(value);
        const std::string actual = formatDouble(value);
        if (actual == expected)
            continue;
        if (++mismatches <= 10)
            ADD_FAILURE() << std::hexfloat << value << ": expected \""
                          << expected << "\", got \"" << actual << "\"";
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

double
fromBits(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

/** Uniform in [0, 1) with 53 random bits. */
double
unit(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::vector<double>
randomBitPatterns(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<double> values(n);
    for (double &value : values)
        value = fromBits(rng());
    return values;
}

// 4 x 262144 = 1,048,576 random bit patterns, split so ctest -j can
// spread them.
TEST(FormatDouble, MatchesReferenceOnRandomBitsA)
{
    expectMatchesReference(randomBitPatterns(0xf0a7'0001, 1u << 18));
}

TEST(FormatDouble, MatchesReferenceOnRandomBitsB)
{
    expectMatchesReference(randomBitPatterns(0xf0a7'0002, 1u << 18));
}

TEST(FormatDouble, MatchesReferenceOnRandomBitsC)
{
    expectMatchesReference(randomBitPatterns(0xf0a7'0003, 1u << 18));
}

TEST(FormatDouble, MatchesReferenceOnRandomBitsD)
{
    expectMatchesReference(randomBitPatterns(0xf0a7'0004, 1u << 18));
}

TEST(FormatDouble, MatchesReferenceOnTraceMagnitudes)
{
    std::mt19937_64 rng(0xf0a7'0005);
    std::vector<double> values;
    for (std::size_t i = 0; i < 100000; ++i) {
        const double u = unit(rng);
        values.push_back(u * 1e6);    // Chrome "ts", microseconds.
        values.push_back(u * 0.06e6); // Latencies and durations.
        values.push_back(u);
        values.push_back(-u * 1e6);
    }
    for (std::size_t k = 0; k < 200000; ++k)
        values.push_back(static_cast<double>(k) / 1000.0);
    expectMatchesReference(values);
}

TEST(FormatDouble, MatchesReferenceOnBoundaries)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> table = {
        0.0,
        std::numeric_limits<double>::denorm_min(),
        std::nextafter(DBL_MIN, 0.0), // Largest subnormal.
        DBL_MIN,
        DBL_MAX,
        // The edge of the integer fast path.
        9.0e15,
        std::nextafter(9.0e15, 0.0),
        std::nextafter(9.0e15, inf),
        9.0e15 - 1.0,
        9.0e15 + 1.0,
        9.0e15 + 0.5,
        // 2^53 and its neighbours.
        0x1.0p53,
        0x1.0p53 - 1.0,
        0x1.0p53 + 2.0,
        std::nextafter(0x1.0p53, 0.0),
        std::nextafter(0x1.0p53, inf),
        0.5,
        0.1,
        1.0 / 3.0,
    };
    for (int e = -323; e <= 308; ++e) {
        char text[16];
        std::snprintf(text, sizeof text, "1e%d", e);
        const double power = std::strtod(text, nullptr);
        table.push_back(power);
        table.push_back(std::nextafter(power, 0.0));
        table.push_back(std::nextafter(power, inf));
    }
    // Powers of two: the round-trip interval is narrower below than
    // above, so the nearest L-digit decimal can miss it and the search
    // must go past the shortest digit count (2^-1017, for one).
    for (int k = -1074; k <= 1023; ++k)
        table.push_back(std::ldexp(1.0, k));
    std::vector<double> values;
    for (double value : table) {
        values.push_back(value);
        values.push_back(-value);
    }
    expectMatchesReference(values);
    EXPECT_EQ(formatDouble(-0.0), "-0");
    EXPECT_EQ(formatDouble(10.0), "10");
    EXPECT_EQ(formatDouble(0.1), "0.1");
    EXPECT_EQ(formatDouble(std::ldexp(1.0, -1017)),
              "7.1202363472230444e-307");
}

TEST(FormatDouble, NonFiniteRendersAsZero)
{
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::quiet_NaN()),
              "0");
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()),
              "0");
    EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity()),
              "0");
}

TEST(FormatDouble, AppendDoubleAppendsExactlyTheFormattedString)
{
    const double values[] = {0.0,     -0.0,    1.5,     1e-300,
                             123456.0, 0.06e6, 1.0 / 7.0, DBL_MAX,
                             std::numeric_limits<double>::quiet_NaN()};
    for (double value : values) {
        std::string buffer = "{\"t\":";
        appendDouble(buffer, value);
        EXPECT_EQ(buffer, "{\"t\":" + formatDouble(value));
    }
}

} // namespace
} // namespace powerdial::obs
