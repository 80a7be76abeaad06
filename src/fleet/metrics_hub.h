/**
 * @file
 * Job records and latency percentiles for fleet reports.
 *
 * Each tenant owns the JobRecord of its job: its identity is seeded
 * at admission, its lease counters are written by the tenant's beat
 * gate, and the rest is filled from the core::ControlledRun the
 * session returns when the run completes. The engine files the record
 * into FleetReport::jobs by job id when it releases the tenant —
 * always in its serial section, so the report is bit-identical at any
 * thread count.
 */
#ifndef POWERDIAL_FLEET_METRICS_HUB_H
#define POWERDIAL_FLEET_METRICS_HUB_H

#include <cstddef>
#include <vector>

namespace powerdial::fleet {

/** Everything one tenant job reported by the time it completed. */
struct JobRecord
{
    std::size_t job = 0;     //!< Fleet-wide arrival order id.
    std::size_t tenant = 0;  //!< Tenant (input stream) the job served.
    std::size_t epoch = 0;   //!< Epoch the job arrived in.
    std::size_t machine = 0; //!< Hosting machine index.
    std::size_t job_class = 0; //!< Priority class (0 = highest).
    double deadline_s = 0.0; //!< Relative deadline (0 = none).
    /** Completion latency the admission policy predicted when it
     *  admitted the job (0 = no prediction was made). */
    double predicted_s = 0.0;
    double latency_s = 0.0;  //!< Virtual seconds to completion.
    double mean_rate = 0.0;  //!< Mean sliding-window heart rate.
    double qos_loss = 0.0;   //!< Work-weighted calibrated QoS loss.
    double energy_j = 0.0;   //!< Energy of the job's machine share.
    std::size_t beats = 0;   //!< Heartbeats the job emitted.
    // Latency breakdown (see core::ControlledRun): where latency_s
    // went — service_s + queue_share_s + class_deficit_s + pause_s
    // ~= latency_s up to FP rounding.
    double service_s = 0.0;       //!< Nominal-speed, full-share work.
    double queue_share_s = 0.0;   //!< Waiting on co-tenants.
    double class_deficit_s = 0.0; //!< Running below nominal speed.
    double pause_s = 0.0;         //!< Explicit idling (gates, slack).
    /**
     * Arbitration-lease generation the job last observed (0 = it
     * never saw a lease) and how many distinct lease terms its beat
     * gate applied over its lifetime — a cross-epoch tenant that felt
     * three arbitration decisions reports lease_updates == 3.
     */
    std::size_t lease_generation = 0;
    std::size_t lease_updates = 0;
};

/**
 * Nearest-rank percentile of @p sorted (ascending) values; p in
 * [0, 100]. Returns 0 for an empty vector.
 */
double percentileOf(const std::vector<double> &sorted, double p);

/** The standard latency summary every report row carries. */
struct LatencyPercentiles
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Sort @p values in place and take the p50/p95/p99 nearest-rank
 * percentiles — the one aggregation the per-machine, per-tenant, and
 * per-class report paths all share, kept here so their tails can
 * never drift apart numerically.
 */
LatencyPercentiles latencyPercentiles(std::vector<double> &values);

} // namespace powerdial::fleet

#endif // POWERDIAL_FLEET_METRICS_HUB_H
