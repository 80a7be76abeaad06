/**
 * @file
 * CSV export of controlled-run traces and power samples.
 *
 * The paper's figures are time series (Figure 7) and sampled power
 * (Figures 6, 8). writeBeatsCsv renders a beat series recorded by a
 * core::BeatTraceRecorder; writePowerCsv renders sampled power.
 */
#ifndef POWERDIAL_CORE_TRACE_EXPORT_H
#define POWERDIAL_CORE_TRACE_EXPORT_H

#include <ostream>

#include "core/run_observer.h"
#include "sim/energy_meter.h"

namespace powerdial::core {

/**
 * Write a beat series as CSV with header:
 * `beat,time_s,window_rate,normalized_perf,commanded_speedup,
 *  knob_gain,combination,pstate`.
 *
 * @param decimate Keep every n-th beat (1 = all). Must be >= 1.
 */
void writeBeatsCsv(std::ostream &os,
                   const std::vector<BeatTrace> &beats,
                   std::size_t decimate = 1);

/**
 * Write power samples as CSV with header `time_s,watts`.
 */
void writePowerCsv(std::ostream &os,
                   const std::vector<sim::PowerSample> &samples);

} // namespace powerdial::core

#endif // POWERDIAL_CORE_TRACE_EXPORT_H
