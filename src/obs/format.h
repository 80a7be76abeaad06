/**
 * @file
 * Deterministic number formatting shared by the trace and metrics
 * exporters.
 *
 * Both exporters promise byte-identical output for identical inputs,
 * so every double must render the same way everywhere: the "%.*g"
 * rendering (C locale) at the smallest precision that parses back to
 * the exact bit pattern, with integers below 9e15 as plain "%.0f"
 * digits. The implementation is std::to_chars/std::from_chars
 * (obs/format.cc): the shortest scientific rendering gives the digit
 * count L, no precision below L can round-trip, so the search runs
 * to_chars(general, p) — defined as printf("%.*g", p) — from p = L
 * upward and almost always stops at L. Locale-independent by
 * construction; the validator in the tests rejects anything else, and
 * tests/test_obs_format.cc pins the output against the snprintf/strtod
 * precision loop it replaced.
 */
#ifndef POWERDIAL_OBS_FORMAT_H
#define POWERDIAL_OBS_FORMAT_H

#include <string>

namespace powerdial::obs {

/**
 * Append the shortest round-tripping "%.*g" rendering of @p value to
 * @p out. Non-finite values render as 0 (JSON has no literal for
 * them; no virtual-clock quantity in this repo is legitimately
 * non-finite by the time it is exported).
 */
void appendDouble(std::string &out, double value);

/** appendDouble into a fresh string. */
std::string formatDouble(double value);

} // namespace powerdial::obs

#endif // POWERDIAL_OBS_FORMAT_H
