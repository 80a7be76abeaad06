/**
 * @file
 * What one serve produced, as the benchmark checks and scores it:
 * correctness checks on the FleetReport, a digest of its per-job
 * records, and the simulated (virtual-time) end-to-end metrics.
 */
#ifndef POWERDIAL_PERFBENCH_REPORT_H
#define POWERDIAL_PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/server.h"
#include "workloads.h"

namespace perfbench {

/**
 * Arbitration-probe state: counts rounds and checks that every round's
 * per-machine budgets sum to the cluster cap.
 */
struct ArbitrationCheck
{
    double cap_watts = 0.0;
    std::size_t rounds = 0;
    std::size_t bad_rounds = 0;

    powerdial::fleet::ArbitrationProbe probe();
};

/**
 * Check one serve of @p traffic: job conservation (offered = served +
 * shed, served = job records, per-machine sheds sum to the total),
 * every job emitted @p beats_per_job heartbeats, and every arbitration
 * round conserved the cap. Returns one line per failed check.
 */
std::vector<std::string>
checkServe(const powerdial::fleet::FleetReport &report,
           const Traffic &traffic, std::size_t beats_per_job,
           const ArbitrationCheck &arbitration);

/** FNV-1a digest of every field of every per-job record. */
std::uint64_t digestJobs(const powerdial::fleet::FleetReport &report,
                         std::uint64_t seed = 0xcbf29ce484222325ULL);

/** Σ JobRecord::beats of one serve. */
std::uint64_t totalBeats(const powerdial::fleet::FleetReport &report);

/** Virtual-time service metrics, pooled over a pass's serves. */
struct SimMetrics
{
    std::size_t offered = 0;
    std::size_t completed = 0;
    std::size_t class0_completed = 0;
    double admit_frac = 0.0;
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double class0_p99_latency_s = 0.0;
    double slo_attain_frac = 0.0;
    double qos_loss_pct = 0.0;
    double energy_per_job_j = 0.0;
};

/**
 * Pools the serves of one pass over a scenario's traffic instances. A
 * job without a deadline is held to the workload's latency limit for
 * SLO attainment; shed jobs count as misses.
 */
class SimAccumulator
{
  public:
    explicit SimAccumulator(double latency_limit_s)
        : latency_limit_s_(latency_limit_s)
    {
    }

    void add(const powerdial::fleet::FleetReport &report,
             std::size_t offered);

    SimMetrics finish();

  private:
    double latency_limit_s_;
    std::size_t offered_ = 0;
    std::size_t attained_ = 0;
    double qos_sum_ = 0.0;
    double energy_sum_ = 0.0;
    std::vector<double> latency_;
    std::vector<double> class0_latency_;
};

} // namespace perfbench

#endif // POWERDIAL_PERFBENCH_REPORT_H
