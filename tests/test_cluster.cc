/** @file Unit tests for sim::Cluster. */
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/cluster.h"

namespace powerdial::sim {
namespace {

Machine::Config
config8()
{
    return Machine::Config{};
}

TEST(Cluster, PaperBaselineProvisioning)
{
    // Paper section 5.5: four 8-core machines -> peak 32 instances.
    Cluster cluster(4, config8());
    EXPECT_EQ(cluster.size(), 4u);
    EXPECT_EQ(cluster.totalCores(), 32u);
    EXPECT_EQ(cluster.peakInstances(), 32u);
}

TEST(Cluster, BalanceSpreadsEvenly)
{
    Cluster cluster(4, config8());
    const auto p = cluster.balance(32);
    for (const auto count : p)
        EXPECT_EQ(count, 8u);
}

TEST(Cluster, BalanceDistributesRemainder)
{
    Cluster cluster(4, config8());
    const auto p = cluster.balance(10);
    EXPECT_EQ(p[0], 3u);
    EXPECT_EQ(p[1], 3u);
    EXPECT_EQ(p[2], 2u);
    EXPECT_EQ(p[3], 2u);
    std::size_t total = 0;
    for (const auto c : p)
        total += c;
    EXPECT_EQ(total, 10u);
}

TEST(Cluster, LoadOfUndersubscribed)
{
    Cluster cluster(1, config8());
    const auto load = cluster.loadOf(4);
    EXPECT_DOUBLE_EQ(load.utilization, 0.5);
    EXPECT_DOUBLE_EQ(load.per_instance_share, 1.0);
    EXPECT_DOUBLE_EQ(load.required_speedup, 1.0);
}

TEST(Cluster, LoadOfOversubscribed)
{
    // 32 instances on one 8-core machine: the consolidated system at
    // peak load needs a 4x knob speedup (paper: 3/4 machine reduction).
    Cluster cluster(1, config8());
    const auto load = cluster.loadOf(32);
    EXPECT_DOUBLE_EQ(load.utilization, 1.0);
    EXPECT_DOUBLE_EQ(load.per_instance_share, 0.25);
    EXPECT_DOUBLE_EQ(load.required_speedup, 4.0);
}

TEST(Cluster, LoadOfEmpty)
{
    Cluster cluster(1, config8());
    const auto load = cluster.loadOf(0);
    EXPECT_DOUBLE_EQ(load.utilization, 0.0);
    EXPECT_DOUBLE_EQ(load.required_speedup, 1.0);
}

TEST(Cluster, IdleMachinesDrawIdlePower)
{
    Cluster cluster(4, config8());
    const double watts = cluster.steadyStateWatts(0u);
    const double idle =
        cluster.machine(0).powerModel().idleWatts();
    EXPECT_NEAR(watts, 4.0 * idle, 1e-9);
}

TEST(Cluster, FullLoadDrawsPeakPower)
{
    Cluster cluster(4, config8());
    const double watts = cluster.steadyStateWatts(32u);
    const double peak =
        cluster.machine(0).powerModel().peakWatts();
    EXPECT_NEAR(watts, 4.0 * peak, 1e-9);
}

TEST(Cluster, PowerMonotoneInLoad)
{
    Cluster cluster(4, config8());
    double prev = -1.0;
    for (std::size_t load = 0; load <= 32; ++load) {
        const double watts = cluster.steadyStateWatts(load);
        EXPECT_GE(watts, prev - 1e-12);
        prev = watts;
    }
}

TEST(Cluster, ConsolidatedClusterUsesLessPowerAtEqualLoad)
{
    // The headline of Figure 8: fewer machines, same offered load,
    // less total power.
    Cluster original(4, config8());
    Cluster consolidated(1, config8());
    for (std::size_t load : {4u, 8u, 16u, 32u}) {
        EXPECT_LT(consolidated.steadyStateWatts(std::min<std::size_t>(
                      load, consolidated.peakInstances() * 4)),
                  original.steadyStateWatts(load));
    }
}

TEST(Cluster, MaxRequiredSpeedup)
{
    Cluster cluster(1, config8());
    EXPECT_DOUBLE_EQ(cluster.maxRequiredSpeedup(cluster.balance(32)),
                     4.0);
    EXPECT_DOUBLE_EQ(cluster.maxRequiredSpeedup(cluster.balance(8)),
                     1.0);
}

TEST(Cluster, LowerPStateReducesLoadedPower)
{
    Cluster cluster(2, config8());
    const auto placement = cluster.balance(16);
    EXPECT_LT(cluster.steadyStateWatts(placement, 6),
              cluster.steadyStateWatts(placement, 0));
}

TEST(Cluster, Validation)
{
    EXPECT_THROW(Cluster(0, config8()), std::invalid_argument);
    Cluster cluster(2, config8());
    EXPECT_THROW(cluster.steadyStateWatts({1u, 2u, 3u}),
                 std::invalid_argument);
}

TEST(Cluster, BalanceEqualsSequentialLeastLoadedPlacement)
{
    // cluster.h claims least-loaded placement is "equivalent to an
    // even split". Pin that: placing instances one at a time on the
    // currently least-loaded machine (lowest index on ties) must land
    // on exactly balance()'s distribution — including non-divisible
    // counts — for every load up to 2x peak.
    for (const std::size_t machines : {1u, 3u, 4u, 5u}) {
        Cluster cluster(machines, config8());
        for (std::size_t n = 0; n <= 2 * cluster.peakInstances();
             ++n) {
            std::vector<std::size_t> sequential(machines, 0);
            for (std::size_t k = 0; k < n; ++k) {
                std::size_t least = 0;
                for (std::size_t i = 1; i < machines; ++i)
                    if (sequential[i] < sequential[least])
                        least = i;
                ++sequential[least];
            }
            EXPECT_EQ(cluster.balance(n), sequential)
                << machines << " machines, " << n << " instances";
        }
    }
}

TEST(Cluster, DynamicPlacementTracksOccupancy)
{
    Cluster cluster(3, config8());
    EXPECT_EQ(cluster.totalActive(), 0u);
    cluster.place(1);
    cluster.place(1);
    cluster.place(2);
    EXPECT_EQ(cluster.activeOn(0), 0u);
    EXPECT_EQ(cluster.activeOn(1), 2u);
    EXPECT_EQ(cluster.activeOn(2), 1u);
    EXPECT_EQ(cluster.totalActive(), 3u);
    cluster.release(1);
    EXPECT_EQ(cluster.activeOn(1), 1u);
    cluster.clearPlacement();
    EXPECT_EQ(cluster.totalActive(), 0u);
    EXPECT_THROW(cluster.release(0), std::logic_error);
    EXPECT_THROW(cluster.place(9), std::out_of_range);
}

TEST(Cluster, DynamicWattsMatchesAnalyticAtUniformState)
{
    // With every machine at the same P-state, the dynamic view must
    // agree with the analytic steady-state model for the same
    // placement.
    Cluster cluster(4, config8());
    const auto placement = cluster.balance(10);
    for (std::size_t i = 0; i < cluster.size(); ++i)
        for (std::size_t k = 0; k < placement[i]; ++k)
            cluster.place(i);
    EXPECT_NEAR(cluster.dynamicWatts(),
                cluster.steadyStateWatts(placement), 1e-9);
}

TEST(Cluster, DynamicWattsSeesPerMachineCaps)
{
    // Unlike steadyStateWatts (one common P-state), the dynamic view
    // accounts each machine at its own, possibly capped, frequency.
    Cluster cluster(2, config8());
    cluster.place(0);
    cluster.place(1);
    const double uncapped = cluster.dynamicWatts();
    cluster.machine(1).setPStateCap(
        cluster.machine(1).scale().lowestState());
    EXPECT_LT(cluster.dynamicWatts(), uncapped);
}

/** The lowest-index argmin of activeOn(), by a front-to-back scan. */
std::size_t
bruteLeastLoaded(const Cluster &cluster)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < cluster.size(); ++i)
        if (cluster.activeOn(i) < cluster.activeOn(best))
            best = i;
    return best;
}

std::size_t
bruteTotalActive(const Cluster &cluster)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i)
        total += cluster.activeOn(i);
    return total;
}

/**
 * Drive @p cluster through a seeded random place/release/
 * clearPlacement sequence, checking the occupancy index against the
 * brute-force scan after every step.
 */
void
checkIndexUnderRandomOps(Cluster cluster, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const std::size_t n = cluster.size();
    ASSERT_EQ(cluster.leastLoaded(), 0u);
    const std::size_t steps = 4 * n + 400;
    for (std::size_t step = 0; step < steps; ++step) {
        const std::uint64_t op = rng() % 100;
        if (op < 2) {
            cluster.clearPlacement();
        } else if (op < 60) {
            // Mostly least-loaded placement (the fleet's pattern, which
            // keeps many ties), sometimes an arbitrary machine.
            cluster.place(op < 40 ? cluster.leastLoaded() : rng() % n);
        } else {
            const std::size_t i = rng() % n;
            if (cluster.activeOn(i) > 0)
                cluster.release(i);
        }
        ASSERT_EQ(cluster.leastLoaded(), bruteLeastLoaded(cluster))
            << "size " << n << " seed " << seed << " step " << step;
        ASSERT_EQ(cluster.totalActive(), bruteTotalActive(cluster));
    }
    // A copy carries a consistent index of its own.
    Cluster copy = cluster;
    EXPECT_EQ(copy.leastLoaded(), bruteLeastLoaded(copy));
    copy.place(copy.leastLoaded());
    EXPECT_EQ(copy.leastLoaded(), bruteLeastLoaded(copy));
    EXPECT_EQ(cluster.leastLoaded(), bruteLeastLoaded(cluster));
}

TEST(Cluster, LeastLoadedIndexMatchesScanHomogeneous)
{
    for (const std::size_t n : {1u, 2u, 3u, 7u, 1000u})
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            checkIndexUnderRandomOps(Cluster(n, config8()), seed * 97 + n);
}

TEST(Cluster, LeastLoadedIndexMatchesScanFromCatalog)
{
    const MachineCatalog catalog = MachineCatalog::bigLittle();
    for (const std::size_t n : {1u, 2u, 3u, 7u, 1000u})
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            checkIndexUnderRandomOps(
                Cluster(catalog, {n / 2, n - n / 2}), seed * 131 + n);
}

TEST(Cluster, LeastLoadedBreaksTiesByLowestIndex)
{
    Cluster cluster(5, config8());
    EXPECT_EQ(cluster.leastLoaded(), 0u);
    cluster.place(0);
    cluster.place(2);
    EXPECT_EQ(cluster.leastLoaded(), 1u);
    cluster.place(1);
    EXPECT_EQ(cluster.leastLoaded(), 3u);
    cluster.release(2);
    EXPECT_EQ(cluster.leastLoaded(), 2u);
    cluster.clearPlacement();
    EXPECT_EQ(cluster.leastLoaded(), 0u);
    EXPECT_EQ(cluster.totalActive(), 0u);
}

} // namespace
} // namespace powerdial::sim
