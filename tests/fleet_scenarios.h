/**
 * @file
 * Shared scenario machinery for the fleet engine tests.
 *
 * The engine harness (test_fleet_event_engine.cc) and the fleet
 * subsystem tests (test_fleet.cc) must agree on four things: how a
 * test pipeline is built, what "identical FleetReports" means (every
 * field, not a summary), how a report is digested for the golden
 * tables (the same fields, hashed), and how a seeded scenario maps to
 * server options + an arrival trace. Keeping all four here means a
 * failure in one suite is reproducible from its seed in the other.
 */
#ifndef POWERDIAL_TESTS_FLEET_SCENARIOS_H
#define POWERDIAL_TESTS_FLEET_SCENARIOS_H

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "core/calibration.h"
#include "core/identify.h"
#include "fleet/server.h"
#include "toy_app.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"
#include "workload/rng.h"

namespace powerdial::fleet::tests {

struct Pipeline
{
    powerdial::tests::ToyApp app;
    core::KnobTable table;
    core::ResponseModel model;
};

inline Pipeline
makePipeline(const powerdial::tests::ToyApp::Config &config = {})
{
    Pipeline p{powerdial::tests::ToyApp(config), {}, {}};
    auto ident = core::identifyKnobs(p.app);
    EXPECT_TRUE(ident.analysis.accepted);
    p.table = std::move(ident.table);
    p.model = core::calibrate(p.app, p.app.trainingInputs()).model;
    return p;
}

/**
 * Assert two FleetReports are identical field for field — exact
 * (bit-level) equality on every double, no tolerances. Wrap calls in
 * SCOPED_TRACE with the scenario seed so a differential failure
 * prints its reproducer.
 */
inline void
expectReportsIdentical(const FleetReport &a, const FleetReport &b)
{
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        SCOPED_TRACE(::testing::Message() << "epoch row " << e);
        EXPECT_EQ(a.epochs[e].epoch, b.epochs[e].epoch);
        EXPECT_EQ(a.epochs[e].arrivals, b.epochs[e].arrivals);
        EXPECT_EQ(a.epochs[e].shed, b.epochs[e].shed);
        EXPECT_EQ(a.epochs[e].completed, b.epochs[e].completed);
        EXPECT_EQ(a.epochs[e].active, b.epochs[e].active);
        EXPECT_EQ(a.epochs[e].lease_generation,
                  b.epochs[e].lease_generation);
        EXPECT_EQ(a.epochs[e].watts, b.epochs[e].watts);
        EXPECT_EQ(a.epochs[e].fleet_rate, b.epochs[e].fleet_rate);
        EXPECT_EQ(a.epochs[e].mean_qos_loss,
                  b.epochs[e].mean_qos_loss);
        EXPECT_EQ(a.epochs[e].max_pause_ratio,
                  b.epochs[e].max_pause_ratio);
    }
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "job " << i);
        EXPECT_EQ(a.jobs[i].job, b.jobs[i].job);
        EXPECT_EQ(a.jobs[i].tenant, b.jobs[i].tenant);
        EXPECT_EQ(a.jobs[i].epoch, b.jobs[i].epoch);
        EXPECT_EQ(a.jobs[i].machine, b.jobs[i].machine);
        EXPECT_EQ(a.jobs[i].job_class, b.jobs[i].job_class);
        EXPECT_EQ(a.jobs[i].deadline_s, b.jobs[i].deadline_s);
        EXPECT_EQ(a.jobs[i].predicted_s, b.jobs[i].predicted_s);
        EXPECT_EQ(a.jobs[i].latency_s, b.jobs[i].latency_s);
        EXPECT_EQ(a.jobs[i].mean_rate, b.jobs[i].mean_rate);
        EXPECT_EQ(a.jobs[i].qos_loss, b.jobs[i].qos_loss);
        EXPECT_EQ(a.jobs[i].energy_j, b.jobs[i].energy_j);
        EXPECT_EQ(a.jobs[i].beats, b.jobs[i].beats);
        EXPECT_EQ(a.jobs[i].lease_generation,
                  b.jobs[i].lease_generation);
        EXPECT_EQ(a.jobs[i].lease_updates, b.jobs[i].lease_updates);
        EXPECT_EQ(a.jobs[i].service_s, b.jobs[i].service_s);
        EXPECT_EQ(a.jobs[i].queue_share_s, b.jobs[i].queue_share_s);
        EXPECT_EQ(a.jobs[i].class_deficit_s,
                  b.jobs[i].class_deficit_s);
        EXPECT_EQ(a.jobs[i].pause_s, b.jobs[i].pause_s);
    }
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "tenant " << i);
        EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
        EXPECT_EQ(a.tenants[i].jobs, b.tenants[i].jobs);
        EXPECT_EQ(a.tenants[i].mean_qos_loss,
                  b.tenants[i].mean_qos_loss);
        EXPECT_EQ(a.tenants[i].mean_latency_s,
                  b.tenants[i].mean_latency_s);
        EXPECT_EQ(a.tenants[i].p50_latency_s,
                  b.tenants[i].p50_latency_s);
        EXPECT_EQ(a.tenants[i].p95_latency_s,
                  b.tenants[i].p95_latency_s);
        EXPECT_EQ(a.tenants[i].p99_latency_s,
                  b.tenants[i].p99_latency_s);
    }
    ASSERT_EQ(a.machines.size(), b.machines.size());
    for (std::size_t i = 0; i < a.machines.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "machine row " << i);
        EXPECT_EQ(a.machines[i].machine, b.machines[i].machine);
        EXPECT_EQ(a.machines[i].machine_class,
                  b.machines[i].machine_class);
        EXPECT_EQ(a.machines[i].jobs, b.machines[i].jobs);
        EXPECT_EQ(a.machines[i].shed, b.machines[i].shed);
        EXPECT_EQ(a.machines[i].p50_latency_s,
                  b.machines[i].p50_latency_s);
        EXPECT_EQ(a.machines[i].p95_latency_s,
                  b.machines[i].p95_latency_s);
        EXPECT_EQ(a.machines[i].p99_latency_s,
                  b.machines[i].p99_latency_s);
    }
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t i = 0; i < a.classes.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "class row " << i);
        EXPECT_EQ(a.classes[i].job_class, b.classes[i].job_class);
        EXPECT_EQ(a.classes[i].jobs, b.classes[i].jobs);
        EXPECT_EQ(a.classes[i].shed, b.classes[i].shed);
        EXPECT_EQ(a.classes[i].p50_latency_s,
                  b.classes[i].p50_latency_s);
        EXPECT_EQ(a.classes[i].p95_latency_s,
                  b.classes[i].p95_latency_s);
        EXPECT_EQ(a.classes[i].p99_latency_s,
                  b.classes[i].p99_latency_s);
    }
    EXPECT_EQ(a.total_jobs, b.total_jobs);
    EXPECT_EQ(a.total_shed, b.total_shed);
    EXPECT_EQ(a.drained_jobs, b.drained_jobs);
    EXPECT_EQ(a.shed_by_machine, b.shed_by_machine);
    EXPECT_EQ(a.shed_by_class, b.shed_by_class);
    EXPECT_EQ(a.mean_watts, b.mean_watts);
    EXPECT_EQ(a.mean_fleet_rate, b.mean_fleet_rate);
    EXPECT_EQ(a.mean_qos_loss, b.mean_qos_loss);
    EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
    EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
}

/**
 * FNV-1a (64-bit) accumulator. Integers and doubles are fed as their
 * eight bytes, least significant first (doubles by bit pattern), so a
 * digest is the same on every host.
 */
class Fnv1a
{
  public:
    Fnv1a &
    add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            state_ ^= (value >> (8 * byte)) & 0xffU;
            state_ *= 1099511628211ULL;
        }
        return *this;
    }

    Fnv1a &
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        return add(bits);
    }

    Fnv1a &
    add(const std::vector<std::size_t> &values)
    {
        add(std::uint64_t{values.size()});
        for (const std::size_t value : values)
            add(std::uint64_t{value});
        return *this;
    }

    Fnv1a &
    add(std::string_view bytes)
    {
        for (const char c : bytes) {
            state_ ^= static_cast<unsigned char>(c);
            state_ *= 1099511628211ULL;
        }
        return *this;
    }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 14695981039346656037ULL;
};

/** FNV-1a digest of a byte string (e.g. an exported trace). */
inline std::uint64_t
bytesDigest(std::string_view bytes)
{
    return Fnv1a().add(bytes).value();
}

/**
 * FNV-1a digest over every field expectReportsIdentical compares
 * (row counts included), doubles by bit pattern: two reports share a
 * digest exactly when they compare identical, barring collisions.
 * The golden digest tables in the fleet suites pin EngineMode::Epoch
 * output against captures of earlier commits this way.
 */
inline std::uint64_t
reportDigest(const FleetReport &r)
{
    Fnv1a h;
    h.add(std::uint64_t{r.epochs.size()});
    for (const EpochStats &e : r.epochs)
        h.add(std::uint64_t{e.epoch})
            .add(std::uint64_t{e.arrivals})
            .add(std::uint64_t{e.shed})
            .add(std::uint64_t{e.completed})
            .add(std::uint64_t{e.active})
            .add(std::uint64_t{e.lease_generation})
            .add(e.watts)
            .add(e.fleet_rate)
            .add(e.mean_qos_loss)
            .add(e.max_pause_ratio);
    h.add(std::uint64_t{r.jobs.size()});
    for (const JobRecord &j : r.jobs)
        h.add(std::uint64_t{j.job})
            .add(std::uint64_t{j.tenant})
            .add(std::uint64_t{j.epoch})
            .add(std::uint64_t{j.machine})
            .add(std::uint64_t{j.job_class})
            .add(j.deadline_s)
            .add(j.predicted_s)
            .add(j.latency_s)
            .add(j.mean_rate)
            .add(j.qos_loss)
            .add(j.energy_j)
            .add(std::uint64_t{j.beats})
            .add(std::uint64_t{j.lease_generation})
            .add(std::uint64_t{j.lease_updates})
            .add(j.service_s)
            .add(j.queue_share_s)
            .add(j.class_deficit_s)
            .add(j.pause_s);
    h.add(std::uint64_t{r.tenants.size()});
    for (const TenantStats &t : r.tenants)
        h.add(std::uint64_t{t.tenant})
            .add(std::uint64_t{t.jobs})
            .add(t.mean_qos_loss)
            .add(t.mean_latency_s)
            .add(t.p50_latency_s)
            .add(t.p95_latency_s)
            .add(t.p99_latency_s);
    h.add(std::uint64_t{r.machines.size()});
    for (const MachineStats &m : r.machines)
        h.add(std::uint64_t{m.machine})
            .add(std::uint64_t{m.machine_class})
            .add(std::uint64_t{m.jobs})
            .add(std::uint64_t{m.shed})
            .add(m.p50_latency_s)
            .add(m.p95_latency_s)
            .add(m.p99_latency_s);
    h.add(std::uint64_t{r.classes.size()});
    for (const ClassStats &c : r.classes)
        h.add(std::uint64_t{c.job_class})
            .add(std::uint64_t{c.jobs})
            .add(std::uint64_t{c.shed})
            .add(c.p50_latency_s)
            .add(c.p95_latency_s)
            .add(c.p99_latency_s);
    h.add(std::uint64_t{r.total_jobs})
        .add(std::uint64_t{r.total_shed})
        .add(std::uint64_t{r.drained_jobs})
        .add(r.shed_by_machine)
        .add(r.shed_by_class)
        .add(r.mean_watts)
        .add(r.mean_fleet_rate)
        .add(r.mean_qos_loss)
        .add(r.p50_latency_s)
        .add(r.p95_latency_s)
        .add(r.p99_latency_s);
    return h.value();
}

/**
 * Expect @p actual to equal the captured digest table @p golden
 * entry for entry. On any mismatch the failure message prints the
 * whole actual table as a C++ initializer, ready to paste back into
 * the suite when an output change is intentional.
 */
inline void
expectDigestsMatch(const std::vector<std::uint64_t> &actual,
                   const std::vector<std::uint64_t> &golden)
{
    if (actual == golden)
        return;
    ::testing::Message table;
    table << "captured digests:\n";
    char hex[32];
    for (const std::uint64_t digest : actual) {
        std::snprintf(hex, sizeof hex, "0x%016llxULL,",
                      static_cast<unsigned long long>(digest));
        table << "    " << hex << "\n";
    }
    ADD_FAILURE() << table;
    EXPECT_EQ(actual.size(), golden.size());
    for (std::size_t i = 0; i < actual.size() && i < golden.size(); ++i)
        EXPECT_EQ(actual[i], golden[i]) << "digest " << i;
}

/** One seeded differential scenario: options + an arrival trace. */
struct FleetScenario
{
    ServerOptions options; //!< engine = Epoch; callers flip the mode.
    std::vector<std::size_t> arrivals;
};

/**
 * Deterministically derive a scenario from @p seed, varying machine
 * count, tenant mix, Poisson arrival rate, queue depth, epoch
 * fraction, placement, and all three arbiter policies.
 *
 * @param baseline_s        The pipeline's calibrated baseline job
 *                          duration (epoch lengths scale off it).
 * @param production_inputs The app's production input indices (the
 *                          tenant mix draws a rotation of them).
 */
inline FleetScenario
makeFleetScenario(std::uint64_t seed, double baseline_s,
                  const std::vector<std::size_t> &production_inputs)
{
    workload::Rng rng(seed);
    FleetScenario scenario;
    ServerOptions &o = scenario.options;

    o.machines = 1 + static_cast<std::size_t>(rng.below(4));
    o.threads = 1;

    // Epoch fraction: jobs span several epochs for small fractions.
    const double epoch_fracs[] = {0.3, 0.5, 1.0, 1.6};
    o.epoch_seconds = baseline_s * epoch_fracs[rng.below(4)];

    const ArbiterPolicy policies[] = {
        ArbiterPolicy::Uniform, ArbiterPolicy::UtilizationProportional,
        ArbiterPolicy::QosFeedback};
    o.arbiter.policy = policies[rng.below(3)];
    // Cap: uncapped, or tight enough to force DVFS caps (and
    // sometimes duty-cycle pauses) but never below idle power, where
    // no pause ratio could meet the budget.
    const sim::Machine probe_machine(o.machine);
    const double idle = probe_machine.powerModel().idleWatts();
    const double peak = probe_machine.powerModel().peakWatts();
    if (rng.below(2) == 0)
        o.arbiter.cluster_cap_watts =
            static_cast<double>(o.machines) *
            rng.uniform(idle + 15.0, 1.1 * peak);

    o.placement = rng.below(2) == 0 ? makeLeastLoadedPlacement()
                                    : makePowerAwarePlacement();
    if (rng.below(2) == 0)
        o.queue_depth = 2 + static_cast<std::size_t>(rng.below(10));

    // Tenant mix: a rotation of the production inputs, sometimes a
    // strict subset.
    const std::size_t count = 1 +
        static_cast<std::size_t>(
            rng.below(production_inputs.size()));
    const std::size_t offset = static_cast<std::size_t>(
        rng.below(production_inputs.size()));
    for (std::size_t i = 0; i < count; ++i)
        o.tenants.push_back(
            production_inputs[(offset + i) %
                              production_inputs.size()]);

    // Arrivals: Poisson over a spiky utilisation trace.
    workload::LoadTraceParams trace;
    trace.steps = 8 + static_cast<std::size_t>(rng.below(10));
    trace.seed = seed + 1;
    trace.spike_probability = 0.15;
    workload::PoissonArrivalParams arrival_params;
    arrival_params.peak_rate = 1.0 + rng.uniform(0.0, 5.0);
    arrival_params.seed = seed + 2;
    scenario.arrivals = workload::makePoissonArrivals(
        workload::makeLoadTrace(trace), arrival_params);
    return scenario;
}

} // namespace powerdial::fleet::tests

#endif // POWERDIAL_TESTS_FLEET_SCENARIOS_H
