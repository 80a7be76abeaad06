/**
 * @file
 * Golden and invariant harness for the discrete-event fleet engine.
 *
 * The engine's correctness story has two legs, both pinned here:
 *
 *   1. *Golden*: on the epoch schedule (EngineMode::Epoch) the engine
 *      must reproduce, bit for bit, the FleetReports of the retired
 *      synchronous epoch loop — every epoch row, every job record,
 *      every aggregate — across a randomized sweep of seeded
 *      scenarios (machines, tenant mixes, Poisson rates, queue
 *      depths, epoch fractions, all three arbiter policies). The loop
 *      is gone, so its reports survive as captured digests
 *      (tests::reportDigest); a mismatch prints the actual table.
 *
 *   2. *Invariants*: on the free-running schedule (EngineMode::Event,
 *      whose reports legitimately differ) every serve must still
 *      conserve jobs (admitted = completed + drained), keep
 *      per-machine power budgets summing to the cluster cap after
 *      every arbitration event, fire arbitrations at monotone
 *      non-decreasing times with strictly increasing lease
 *      generations, and stay bit-identical across thread counts.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "fleet/server.h"
#include "fleet_scenarios.h"

namespace powerdial::fleet {
namespace {

using tests::FleetScenario;
using tests::expectDigestsMatch;
using tests::expectReportsIdentical;
using tests::makeFleetScenario;
using tests::makePipeline;
using tests::reportDigest;

/** Serve one scenario under the given engine mode. */
FleetReport
serveScenario(const tests::Pipeline &p, const FleetScenario &scenario,
              EngineMode engine, std::size_t threads = 1)
{
    ServerOptions options = scenario.options;
    options.engine = engine;
    options.threads = threads;
    Server server(p.app, p.table, p.model, options);
    return server.serve(scenario.arrivals);
}

std::size_t
completedAcrossEpochs(const FleetReport &report)
{
    std::size_t completed = 0;
    for (const EpochStats &row : report.epochs)
        completed += row.completed;
    return completed;
}

// ---------------------------------------------------------------------
// Golden: the epoch schedule reproduces the retired epoch loop.
//
// The digests below are tests::reportDigest of the legacy synchronous
// epoch loop's reports, captured at commit 2dbeb86 — the last commit
// where EngineMode::Epoch ran that loop in Server::serve. To
// re-capture: check out 2dbeb86, copy this file and
// fleet_scenarios.h over its tests/, build, and run
//   ./build/tests/test_fleet_event_engine --gtest_filter='EventEngineDifferential.*'
// Each failing table prints the actual digests as an initializer.
// ---------------------------------------------------------------------

/** makeFleetScenario(seed=42), EngineMode::Epoch. */
const std::vector<std::uint64_t> kSpikeScenarioDigest = {
    0x3b5459434f820b11ULL,
};

/** makeFleetScenario(seed=1..50), EngineMode::Epoch, in seed order. */
const std::vector<std::uint64_t> kSweepDigests = {
    0x04c6fa76bac25733ULL, 0x5bef2f66959db2d8ULL,
    0xd8d722176bfb2ae3ULL, 0x902466e80b893fa0ULL,
    0x7a7b5b0f47418474ULL, 0x81464966f3cc6acaULL,
    0x48d6843445a88d1eULL, 0xfabcdfaab82f2fe4ULL,
    0xe539e1a38b0aee09ULL, 0xe17573068d114616ULL,
    0xe6d2ed816546e1b1ULL, 0x4643ece76483c0abULL,
    0xaac4e3a6d498c42fULL, 0xa11a4a0b198b200bULL,
    0xcd296e492aa2d0dfULL, 0x2dc0dd790771bdf0ULL,
    0xcbfb19cd20bc13daULL, 0xa6413ab60e15cd14ULL,
    0xdf56f2e60a9c13c3ULL, 0x9188cf088bcff15cULL,
    0xc9e7e7beb054b35aULL, 0x9d556ed2f09d6eadULL,
    0x5f0c27b43f05c36fULL, 0xff8889a9eee85800ULL,
    0x82679734a481ee7eULL, 0x9ca2426b20b88fb8ULL,
    0x621e6e4b030d5c43ULL, 0x023a7a1260ecaf2eULL,
    0xb5a4d8e765f325ceULL, 0x4e1d060ac1585816ULL,
    0xd29c8715005fb23dULL, 0x607beaebbdf96af0ULL,
    0x791adaea55f02901ULL, 0x13361e6b1d6c5f2eULL,
    0xb053f2b7167d4366ULL, 0x80a171cb1eb70a90ULL,
    0xee8a847b8d46c76aULL, 0x9ec1f017a21dd877ULL,
    0x566dc767ef4ff48eULL, 0x563fde6239597f38ULL,
    0x1fd97c3957c2a661ULL, 0x3b5459434f820b11ULL,
    0x69566038860514c8ULL, 0x0d0b8080d1122c98ULL,
    0x159f375a69f7c712ULL, 0x95eb86ade7070655ULL,
    0x77c6a74fbb91ccc0ULL, 0x0e047233265dcc3bULL,
    0x920a0788b5134df3ULL, 0xb52b06f7e030f7e8ULL,
};

/** The shed-pressure scenario below, EngineMode::Epoch. */
const std::vector<std::uint64_t> kShedScenarioDigest = {
    0xf30c57576c66b69bULL,
};

TEST(EventEngineDifferential, CompatMatchesEpochOnSpikeScenario)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        42, p.model.baselineSeconds(), p.app.productionInputs());
    expectDigestsMatch(
        {reportDigest(serveScenario(p, scenario, EngineMode::Epoch))},
        kSpikeScenarioDigest);
}

TEST(EventEngineDifferential, RandomizedSweepFiftySeeds)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    std::vector<std::uint64_t> digests;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        digests.push_back(reportDigest(
            serveScenario(p, scenario, EngineMode::Epoch)));
    }
    // Entry i is makeFleetScenario(seed=i+1): a mismatch names the
    // reproducing seed.
    expectDigestsMatch(digests, kSweepDigests);
}

TEST(EventEngineDifferential, CompatShedAccountingMatchesEpochEngine)
{
    // Shed accounting under pressure. A 1-machine fleet with a tight
    // queue bound and a hot trace must shed, and the sheds must match
    // the epoch loop's in total, per machine, per epoch row, and in
    // lease-generation context (the digest covers all of them).
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        7, p.model.baselineSeconds(), p.app.productionInputs());
    scenario.options.machines = 1;
    scenario.options.queue_depth = 3;
    scenario.options.epoch_seconds = p.model.baselineSeconds() * 0.5;
    scenario.arrivals = {6, 6, 0, 6, 1, 0, 0};

    const FleetReport epoch =
        serveScenario(p, scenario, EngineMode::Epoch);
    ASSERT_GT(epoch.total_shed, 0u);
    expectDigestsMatch({reportDigest(epoch)}, kShedScenarioDigest);

    // Attribution is complete: per-machine sheds sum to the total.
    const std::size_t attributed =
        std::accumulate(epoch.shed_by_machine.begin(),
                        epoch.shed_by_machine.end(), std::size_t{0});
    EXPECT_EQ(attributed, epoch.total_shed);
}

TEST(EventEngineDifferential, CompatIsBitIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        11, p.model.baselineSeconds(), p.app.productionInputs());
    expectReportsIdentical(
        serveScenario(p, scenario, EngineMode::Epoch, 1),
        serveScenario(p, scenario, EngineMode::Epoch, 4));
}

// ---------------------------------------------------------------------
// Event-mode invariants (reports differ from the epoch schedule's, but
// these properties must hold on every serve).
// ---------------------------------------------------------------------

TEST(EventEngineInvariants, ConservesJobsAcrossSeeds)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    for (std::uint64_t seed = 100; seed < 120; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        const FleetReport report =
            serveScenario(p, scenario, EngineMode::Event);

        // Admitted = completed inside the horizon + in flight at the
        // horizon; every admitted job has exactly one record; offered
        // = admitted + shed.
        EXPECT_EQ(report.total_jobs,
                  completedAcrossEpochs(report) + report.drained_jobs);
        EXPECT_EQ(report.jobs.size(), report.total_jobs);
        std::size_t offered = 0;
        for (const std::size_t n : scenario.arrivals)
            offered += n;
        EXPECT_EQ(offered, report.total_jobs + report.total_shed);
        const std::size_t attributed = std::accumulate(
            report.shed_by_machine.begin(),
            report.shed_by_machine.end(), std::size_t{0});
        EXPECT_EQ(attributed, report.total_shed);
    }
}

TEST(EventEngineInvariants, BudgetsSumToCapAfterEveryArbitration)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    std::size_t capped_scenarios = 0;
    for (std::uint64_t seed = 200; seed < 215; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        const double cap = scenario.options.arbiter.cluster_cap_watts;
        if (cap <= 0.0)
            continue;
        ++capped_scenarios;
        std::size_t rounds = 0;
        scenario.options.arbitration_probe =
            [&](const ArbitrationSample &sample) {
                ++rounds;
                double total = 0.0;
                for (const double watts :
                     sample.decision.budget_watts)
                    total += watts;
                EXPECT_NEAR(total, cap, 1e-9)
                    << "arbitration at t=" << sample.time_s
                    << " generation " << sample.generation;
            };
        ServerOptions options = scenario.options;
        options.engine = EngineMode::Event;
        Server server(p.app, p.table, p.model, options);
        const FleetReport report = server.serve(scenario.arrivals);
        if (report.total_jobs > 0) {
            EXPECT_GT(rounds, 0u);
        }
    }
    // The sweep range must actually exercise capped arbitration.
    EXPECT_GT(capped_scenarios, 3u);
}

TEST(EventEngineInvariants, ArbitrationEventsAreMonotone)
{
    // Event timestamps never run backwards and every arbitration
    // installs a fresh, strictly increasing lease generation — on
    // both schedules.
    auto p = makePipeline();
    const auto inputs = p.app.productionInputs();
    for (const EngineMode engine :
         {EngineMode::Epoch, EngineMode::Event}) {
        SCOPED_TRACE(engine == EngineMode::Epoch ? "epoch" : "event");
        FleetScenario scenario = makeFleetScenario(
            21, p.model.baselineSeconds(), inputs);
        double last_time = -1.0;
        std::size_t last_generation = 0;
        std::size_t rounds = 0;
        scenario.options.arbitration_probe =
            [&](const ArbitrationSample &sample) {
                ++rounds;
                EXPECT_GE(sample.time_s, last_time);
                EXPECT_GT(sample.generation, last_generation);
                last_time = sample.time_s;
                last_generation = sample.generation;
            };
        ServerOptions options = scenario.options;
        options.engine = engine;
        Server server(p.app, p.table, p.model, options);
        server.serve(scenario.arrivals);
        EXPECT_GT(rounds, 0u);
    }
}

TEST(EventEngineInvariants, EventModeIsBitIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const auto inputs = p.app.productionInputs();
    for (const std::uint64_t seed : {5ULL, 23ULL, 31ULL}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        const FleetScenario scenario = makeFleetScenario(
            seed, p.model.baselineSeconds(), inputs);
        expectReportsIdentical(
            serveScenario(p, scenario, EngineMode::Event, 1),
            serveScenario(p, scenario, EngineMode::Event, 4));
    }
}

// ---------------------------------------------------------------------
// Event-mode behaviour: sampling, quanta, validation.
// ---------------------------------------------------------------------

TEST(EventEngine, SampleStrideCoarsensTheReport)
{
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        3, p.model.baselineSeconds(), p.app.productionInputs());
    ServerOptions options = scenario.options;
    options.engine = EngineMode::Event;
    options.event.sample_stride = 4;
    Server server(p.app, p.table, p.model, options);
    const FleetReport report = server.serve(scenario.arrivals);

    const std::size_t n = scenario.arrivals.size();
    EXPECT_EQ(report.epochs.size(), (n + 3) / 4);
    for (std::size_t w = 0; w < report.epochs.size(); ++w)
        EXPECT_EQ(report.epochs[w].epoch, w * 4);
    // Coarser rows lose no jobs.
    EXPECT_EQ(report.total_jobs,
              completedAcrossEpochs(report) + report.drained_jobs);
    EXPECT_EQ(report.jobs.size(), report.total_jobs);
}

TEST(EventEngine, SubEpochQuantumStillConservesJobs)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        13, p.model.baselineSeconds(), p.app.productionInputs());
    ServerOptions options = scenario.options;
    options.engine = EngineMode::Event;
    options.event.quantum_seconds = options.epoch_seconds / 3.0;
    Server server(p.app, p.table, p.model, options);
    const FleetReport report = server.serve(scenario.arrivals);
    EXPECT_EQ(report.total_jobs,
              completedAcrossEpochs(report) + report.drained_jobs);
    EXPECT_EQ(report.jobs.size(), report.total_jobs);
}

TEST(EventEngine, QuantumBoundsCompletionDiscoveryLatency)
{
    // One machine, one job, epochs twice the job duration: the job
    // finishes mid-epoch. Its completion-triggered arbitration fires
    // at the first quantum tick past the finish — so a finer quantum
    // must discover it strictly earlier than the default one-epoch
    // quantum, which cannot notice it before the epoch ends.
    auto p = makePipeline();
    const double epoch_s = p.model.baselineSeconds() * 2.0;
    const auto discoveryTime = [&](double quantum) {
        ServerOptions options;
        options.machines = 1;
        options.epoch_seconds = epoch_s;
        options.engine = EngineMode::Event;
        options.event.quantum_seconds = quantum;
        std::vector<double> times;
        options.arbitration_probe =
            [&times](const ArbitrationSample &sample) {
                times.push_back(sample.time_s);
            };
        Server server(p.app, p.table, p.model, options);
        const FleetReport report = server.serve(std::vector<std::size_t>{1, 0, 0});
        EXPECT_EQ(report.total_jobs, 1u);
        EXPECT_EQ(report.drained_jobs, 0u);
        // Admission round + completion round, nothing else: quantum
        // ticks without a completion re-price nothing, and the chain
        // stops once the fleet idles.
        EXPECT_EQ(times.size(), 2u);
        return times.back();
    };
    const double coarse = discoveryTime(0.0); // Default: one epoch.
    const double fine = discoveryTime(epoch_s / 8.0);
    EXPECT_DOUBLE_EQ(coarse, epoch_s);
    EXPECT_LT(fine, coarse);
    EXPECT_GT(fine, 0.0);
}

TEST(EventEngine, ValidatesEngineOptions)
{
    auto p = makePipeline();
    ServerOptions options;
    options.event.sample_stride = 0;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);

    options = ServerOptions{};
    options.event.quantum_seconds = -1.0;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);

    // The epoch schedule fixes the quantum to one epoch and the sample
    // stride to one row per epoch: valid event tuning is accepted but
    // ignored, the report identical to the defaults'.
    const FleetScenario scenario = makeFleetScenario(
        17, p.model.baselineSeconds(), p.app.productionInputs());
    FleetScenario tuned = scenario;
    tuned.options.event.quantum_seconds = 0.5;
    tuned.options.event.sample_stride = 2;
    expectReportsIdentical(
        serveScenario(p, scenario, EngineMode::Epoch),
        serveScenario(p, tuned, EngineMode::Epoch));
}

TEST(EventEngine, IdleEpochsScheduleNoArbitration)
{
    // The scale win in one assertion: a trace that goes quiet stops
    // producing arbitration rounds once the last tenant drains, while
    // the epoch schedule re-prices every epoch regardless.
    auto p = makePipeline();
    ServerOptions options;
    options.machines = 2;
    options.epoch_seconds = p.model.baselineSeconds() * 2.0;
    options.arbiter.cluster_cap_watts = 400.0;
    std::vector<std::size_t> arrivals(40, 0);
    arrivals[0] = 3; // One early burst, then silence.

    std::size_t event_rounds = 0;
    options.arbitration_probe = [&](const ArbitrationSample &) {
        ++event_rounds;
    };
    options.engine = EngineMode::Event;
    Server event_server(p.app, p.table, p.model, options);
    const FleetReport report = event_server.serve(arrivals);
    EXPECT_EQ(report.total_jobs, 3u);

    std::size_t epoch_rounds = 0;
    options.arbitration_probe = [&](const ArbitrationSample &) {
        ++epoch_rounds;
    };
    options.engine = EngineMode::Epoch;
    Server epoch_server(p.app, p.table, p.model, options);
    epoch_server.serve(arrivals);

    EXPECT_EQ(epoch_rounds, arrivals.size());
    EXPECT_LT(event_rounds, epoch_rounds / 2);
    EXPECT_GT(event_rounds, 0u);
}

// ---------------------------------------------------------------------
// Tenant lifecycle: clones, tables and sessions are built on the
// fan-out workers and released there when the run completes.
// ---------------------------------------------------------------------

/** Live and total clone counts, shared by every CountedToyApp. */
struct CloneCounts
{
    std::atomic<long> live{0};
    std::atomic<long> created{0};
};

/** A ToyApp whose copies (clones) count themselves in and out of a
 *  shared tally. clone() runs on fan-out workers, hence the atomics. */
class CountedToyApp final : public powerdial::tests::ToyApp
{
  public:
    explicit CountedToyApp(std::shared_ptr<CloneCounts> counts)
        : counts_(std::move(counts))
    {
    }

    CountedToyApp(const CountedToyApp &other)
        : ToyApp(other), counts_(other.counts_), counted_(true)
    {
        ++counts_->live;
        ++counts_->created;
    }

    ~CountedToyApp() override
    {
        if (counted_)
            --counts_->live;
    }

    std::unique_ptr<core::App>
    clone() const override
    {
        return std::make_unique<CountedToyApp>(*this);
    }

  private:
    std::shared_ptr<CloneCounts> counts_;
    bool counted_ = false;
};

TEST(TenantLifecycle, WorkerBuiltRunsAreAllReleasedAndThreadInvariant)
{
    auto p = makePipeline();
    auto counts = std::make_shared<CloneCounts>();
    const CountedToyApp app(counts);
    const double baseline_s = p.model.baselineSeconds();
    for (std::uint64_t seed : {3u, 19u, 42u}) {
        FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, p.app.productionInputs());
        for (const EngineMode engine :
             {EngineMode::Epoch, EngineMode::Event}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed
                         << (engine == EngineMode::Epoch ? " epoch"
                                                         : " event"));
            ServerOptions options = scenario.options;
            options.engine = engine;
            FleetReport reports[2];
            const std::size_t threads[2] = {1, 4};
            for (int i = 0; i < 2; ++i) {
                options.threads = threads[i];
                const long created_before = counts->created.load();
                Server server(app, p.table, p.model, options);
                reports[i] = server.serve(scenario.arrivals);
                // One clone per admitted job, none still alive.
                EXPECT_EQ(counts->live.load(), 0);
                EXPECT_EQ(counts->created.load() - created_before,
                          static_cast<long>(reports[i].total_jobs));
            }
            ASSERT_GT(reports[0].total_jobs, 0u);
            expectReportsIdentical(reports[0], reports[1]);
        }
    }
}

} // namespace
} // namespace powerdial::fleet
