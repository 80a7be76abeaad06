/**
 * @file
 * The benchmark's three frozen fleet workloads. Every scenario
 * parameter lives here, so edits to the repository's benches or
 * goldens cannot move the benchmark; only the seed argument varies the
 * generated traffic.
 *
 * All three are open loop in virtual time: the offered jobs of every
 * epoch are generated up front from the seed, so there is no host-side
 * generator that can run late, and latency is the simulated
 * JobRecord::latency_s.
 */
#ifndef POWERDIAL_PERFBENCH_WORKLOADS_H
#define POWERDIAL_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/app.h"
#include "core/calibration.h"
#include "core/identify.h"
#include "fleet/server.h"
#include "workload/traffic_mix.h"

namespace perfbench {

enum class WorkloadId
{
    FleetScale,
    SloFlash,
    AppVidenc,
};

/** Parse a workload name; false when it names none of the three. */
bool parseWorkload(const std::string &name, WorkloadId &out);

const char *workloadName(WorkloadId id);

/** Generator seeds, all derived from the one seed argument. */
struct Seeds
{
    std::uint64_t load_trace = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t traffic_mix = 0;
};

/** Derive the generator seeds of traffic instance @p instance. */
Seeds deriveSeeds(std::uint64_t seed, std::size_t instance);

/**
 * One generated traffic instance. Exactly one of the two schedules is
 * non-empty: per-epoch job counts for the metadata-free serve path, or
 * per-epoch offered jobs (tenant, class, deadline) for the SLO path.
 */
struct Traffic
{
    Seeds seeds;
    std::vector<std::size_t> arrivals;
    std::vector<std::vector<powerdial::workload::OfferedJob>> offers;
    std::size_t offered = 0;
};

/** Wall-clock seconds of each set-up step (host time). */
struct SetupTimes
{
    double identify_s = 0.0;
    double calibrate_s = 0.0;
    double generate_s = 0.0;
    /** Calibration runs: knob combinations x training inputs. */
    std::size_t calibration_runs = 0;
};

/**
 * A workload ready to serve: the tenant application, its identified
 * knobs and calibrated model, the frozen server options (threads,
 * wrappers and trace sink are left to the caller), and the traffic.
 */
struct Scenario
{
    WorkloadId id = WorkloadId::FleetScale;
    /** The application tenants clone. */
    std::unique_ptr<powerdial::core::App> app;
    powerdial::core::IdentificationResult ident;
    powerdial::core::CalibrationResult calibration;
    powerdial::fleet::ServerOptions options;
    std::vector<Traffic> traffic;
    /** obs::TraceSink categories recorded in the timed region; 0 for
     *  workloads that serve untraced. */
    unsigned trace_categories = 0;
    /** Latency limit for jobs whose traffic carries no deadline. */
    double latency_limit_s = 0.0;
    /** Heartbeats every job must emit (the tenant's unit count). */
    std::size_t beats_per_job = 0;
    SetupTimes times;
};

/**
 * Build, identify, calibrate and generate one workload from @p seed.
 * Deterministic: the same seed yields the same scenario.
 */
Scenario setUp(WorkloadId id, std::uint64_t seed);

} // namespace perfbench

#endif // POWERDIAL_PERFBENCH_WORKLOADS_H
