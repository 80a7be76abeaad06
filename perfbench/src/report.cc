#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace pd = powerdial;

namespace {

std::uint64_t
fnv(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnvSize(std::uint64_t hash, std::size_t value)
{
    const std::uint64_t wide = value;
    return fnv(hash, &wide, sizeof wide);
}

std::uint64_t
fnvDouble(std::uint64_t hash, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return fnv(hash, &bits, sizeof bits);
}

/** Nearest-rank percentile of an ascending sample (0 when empty). */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) -
                  1];
}

} // namespace

pd::fleet::ArbitrationProbe
ArbitrationCheck::probe()
{
    return [this](const pd::fleet::ArbitrationSample &sample) {
        const auto &budgets = sample.decision.budget_watts;
        const double sum =
            std::accumulate(budgets.begin(), budgets.end(), 0.0);
        ++rounds;
        if (!(std::fabs(sum - cap_watts) <= 1e-9 * cap_watts))
            ++bad_rounds;
    };
}

std::vector<std::string>
checkServe(const pd::fleet::FleetReport &report, const Traffic &traffic,
           std::size_t beats_per_job, const ArbitrationCheck &arbitration)
{
    std::vector<std::string> failures;
    if (report.total_jobs + report.total_shed != traffic.offered)
        failures.push_back("offered != total_jobs + total_shed");
    if (report.total_jobs != report.jobs.size())
        failures.push_back("total_jobs != jobs.size()");
    const std::size_t shed_sum =
        std::accumulate(report.shed_by_machine.begin(),
                        report.shed_by_machine.end(), std::size_t{0});
    if (shed_sum != report.total_shed)
        failures.push_back("sum(shed_by_machine) != total_shed");
    for (const auto &job : report.jobs)
        if (job.beats != beats_per_job) {
            failures.push_back("a job emitted the wrong number of beats");
            break;
        }
    if (arbitration.rounds == 0)
        failures.push_back("no arbitration round ran");
    if (arbitration.bad_rounds != 0)
        failures.push_back("an arbitration round's budgets missed the cap");
    return failures;
}

std::uint64_t
digestJobs(const pd::fleet::FleetReport &report, std::uint64_t hash)
{
    for (const pd::fleet::JobRecord &j : report.jobs) {
        for (const std::size_t v :
             {j.job, j.tenant, j.epoch, j.machine, j.job_class, j.beats,
              j.lease_generation, j.lease_updates})
            hash = fnvSize(hash, v);
        for (const double v :
             {j.deadline_s, j.predicted_s, j.latency_s, j.mean_rate,
              j.qos_loss, j.energy_j, j.service_s, j.queue_share_s,
              j.class_deficit_s, j.pause_s})
            hash = fnvDouble(hash, v);
    }
    return hash;
}

std::uint64_t
totalBeats(const pd::fleet::FleetReport &report)
{
    std::uint64_t beats = 0;
    for (const auto &job : report.jobs)
        beats += job.beats;
    return beats;
}

void
SimAccumulator::add(const pd::fleet::FleetReport &report, std::size_t offered)
{
    offered_ += offered;
    for (const pd::fleet::JobRecord &job : report.jobs) {
        latency_.push_back(job.latency_s);
        if (job.job_class == 0)
            class0_latency_.push_back(job.latency_s);
        const double limit =
            job.deadline_s > 0.0 ? job.deadline_s : latency_limit_s_;
        if (job.latency_s <= limit)
            ++attained_;
        qos_sum_ += job.qos_loss;
        energy_sum_ += job.energy_j;
    }
}

SimMetrics
SimAccumulator::finish()
{
    std::sort(latency_.begin(), latency_.end());
    std::sort(class0_latency_.begin(), class0_latency_.end());
    SimMetrics m;
    m.offered = offered_;
    m.completed = latency_.size();
    m.class0_completed = class0_latency_.size();
    const double offered =
        static_cast<double>(std::max<std::size_t>(m.offered, 1));
    const double completed =
        static_cast<double>(std::max<std::size_t>(m.completed, 1));
    m.admit_frac = static_cast<double>(m.completed) / offered;
    m.p50_latency_s = percentile(latency_, 0.50);
    m.p95_latency_s = percentile(latency_, 0.95);
    m.p99_latency_s = percentile(latency_, 0.99);
    m.class0_p99_latency_s = percentile(class0_latency_, 0.99);
    m.slo_attain_frac = static_cast<double>(attained_) / offered;
    m.qos_loss_pct = 100.0 * qos_sum_ / completed;
    m.energy_per_job_j = energy_sum_ / completed;
    return m;
}

} // namespace perfbench
