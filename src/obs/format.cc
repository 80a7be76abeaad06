#include "obs/format.h"

#include <charconv>
#include <cmath>

namespace powerdial::obs {

void
appendDouble(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += '0';
        return;
    }
    char buffer[40];
    char *const last = buffer + sizeof buffer;
    // Integers below 2^53 print as plain digits ("10", not the
    // equally round-trippable but unreadable "1e+01").
    if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
        const auto end =
            std::to_chars(buffer, last, value, std::chars_format::fixed, 0)
                .ptr;
        out.append(buffer, end);
        return;
    }
    // The shortest scientific rendering ("d.ddde±xx") carries the
    // fewest significant digits any round-tripping decimal has.
    const char *const shortest_end =
        std::to_chars(buffer, last, value, std::chars_format::scientific)
            .ptr;
    int precision = 0;
    for (const char *p = buffer; p != shortest_end && *p != 'e'; ++p)
        if (*p >= '0' && *p <= '9')
            ++precision;
    char *end = buffer;
    for (; precision <= 17; ++precision) {
        end = std::to_chars(buffer, last, value,
                            std::chars_format::general, precision)
                  .ptr;
        double parsed = 0.0;
        std::from_chars(buffer, end, parsed);
        if (parsed == value)
            break;
    }
    out.append(buffer, end);
}

std::string
formatDouble(double value)
{
    std::string out;
    appendDouble(out, value);
    return out;
}

} // namespace powerdial::obs
