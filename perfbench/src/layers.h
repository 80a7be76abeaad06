/**
 * @file
 * Per-layer timing from outside the library, for the layer run.
 *
 * Every measurement here sits at a public seam the library already
 * exposes: an App decorator around core::App::processUnit, decorators
 * around fleet::PlacementPolicy and fleet::AdmissionPolicy, a counting
 * session gate (SessionOptions::withGate), and the
 * ServerOptions::arbitration_probe hook. Nothing inside the library is
 * instrumented.
 *
 * Beat-path counters (processUnit, gate) are kept per worker thread
 * and merged after a serve, so no shared atomic or lock sits on the
 * per-beat path. Placement and admission run in the engines' serial
 * sections and use one plain accumulator.
 */
#ifndef POWERDIAL_PERFBENCH_LAYERS_H
#define POWERDIAL_PERFBENCH_LAYERS_H

#include <cstdint>
#include <memory>

#include "core/app.h"
#include "core/session.h"
#include "fleet/admission.h"
#include "fleet/scheduler.h"

namespace perfbench {

/** Beat-path counters of one worker thread. */
struct WorkerCounters
{
    std::uint64_t unit_calls = 0;
    std::uint64_t unit_ns = 0;
    std::uint64_t gate_calls = 0;
};

/** Sum of every worker's counters. Call only while no serve runs. */
WorkerCounters mergeWorkerCounters();

/** Zero every worker's counters. Call only while no serve runs. */
void resetWorkerCounters();

/** Counters of the serial sections (placement and admission). */
struct SerialCounters
{
    std::uint64_t placement_calls = 0;
    std::uint64_t placement_ns = 0;
    std::uint64_t admission_calls = 0;
    /** Admission time minus the placement calls made inside it. */
    std::uint64_t admission_self_ns = 0;
    std::uint64_t admitted = 0;
};

/**
 * Wraps @p inner so each processUnit call is timed into the calling
 * worker's counters; clone() wraps the inner clone, so every tenant
 * of a serve is timed.
 */
std::unique_ptr<powerdial::core::App>
makeTimedApp(std::unique_ptr<powerdial::core::App> inner);

/** Times pick and pickAmong of every policy @p inner mints. */
powerdial::fleet::PlacementFactory
timedPlacement(powerdial::fleet::PlacementFactory inner,
               SerialCounters &counters);

/**
 * Times decide of every policy @p inner mints (null means the
 * default queue-depth admission) and counts admits.
 */
powerdial::fleet::AdmissionFactory
timedAdmission(powerdial::fleet::AdmissionFactory inner,
               SerialCounters &counters);

/** A session gate that counts beats into the worker's counters. */
powerdial::core::BeatGate countingGate();

} // namespace perfbench

#endif // POWERDIAL_PERFBENCH_LAYERS_H
