/** @file Unit tests for sim::Machine. */
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "sim/machine.h"
#include "sim/machine_catalog.h"

namespace powerdial::sim {
namespace {

TEST(Machine, ExecuteAdvancesTimeByCyclesOverFrequency)
{
    Machine m;
    const double dt = m.execute(2.4e9); // One second at 2.4 GHz.
    EXPECT_NEAR(dt, 1.0, 1e-12);
    EXPECT_NEAR(m.now(), 1.0, 1e-12);
}

TEST(Machine, LowerPStateSlowsExecution)
{
    Machine m;
    m.setPState(m.scale().lowestState());
    const double dt = m.execute(1.6e9);
    EXPECT_NEAR(dt, 1.0, 1e-12);
}

TEST(Machine, FrequencyDropStretchesWorkByRatio)
{
    // The DVFS premise: same work, 2.4/1.6 = 1.5x longer.
    Machine a, b;
    const double cycles = 1e9;
    const double t_fast = a.execute(cycles);
    b.setPState(b.scale().lowestState());
    const double t_slow = b.execute(cycles);
    EXPECT_NEAR(t_slow / t_fast, 2.4 / 1.6, 1e-9);
}

TEST(Machine, ShareScalesThroughput)
{
    Machine m;
    m.setShare(0.25);
    const double dt = m.execute(2.4e9);
    EXPECT_NEAR(dt, 4.0, 1e-9);
}

TEST(Machine, ShareValidation)
{
    Machine m;
    EXPECT_THROW(m.setShare(0.0), std::invalid_argument);
    EXPECT_THROW(m.setShare(1.5), std::invalid_argument);
    m.setShare(1.0); // OK.
}

TEST(Machine, NegativeWorkThrows)
{
    Machine m;
    EXPECT_THROW(m.execute(-1.0), std::invalid_argument);
}

TEST(Machine, ZeroWorkIsFree)
{
    Machine m;
    EXPECT_DOUBLE_EQ(m.execute(0.0), 0.0);
    EXPECT_DOUBLE_EQ(m.now(), 0.0);
    EXPECT_DOUBLE_EQ(m.energyJoules(), 0.0);
}

TEST(Machine, IdleDrawsIdlePower)
{
    Machine m;
    m.idleFor(10.0);
    EXPECT_NEAR(m.energyJoules(),
                10.0 * m.powerModel().idleWatts(), 1e-9);
}

TEST(Machine, IdleUntilIsAbsolute)
{
    Machine m;
    m.idleUntil(2.0);
    m.idleUntil(1.0); // No-op, in the past.
    EXPECT_DOUBLE_EQ(m.now(), 2.0);
}

TEST(Machine, EnergyIntegratesPowerOverTime)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(2.4e9); // 1 s at peak power.
    EXPECT_NEAR(m.energyJoules(), m.powerModel().peakWatts(), 1e-6);
}

TEST(Machine, DefaultUtilizationIsOneCore)
{
    Machine m; // 8 cores.
    m.execute(2.4e9);
    const double expected =
        m.powerModel().watts(2.4e9, 1.0 / 8.0);
    EXPECT_NEAR(m.energyJoules(), expected, 1e-6);
}

TEST(Machine, MeanWattsOverWindow)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(2.4e9); // [0, 1): peak.
    m.idleFor(1.0);   // [1, 2): idle.
    const double peak = m.powerModel().peakWatts();
    const double idle = m.powerModel().idleWatts();
    EXPECT_NEAR(m.meanWatts(0.0, 1.0), peak, 1e-9);
    EXPECT_NEAR(m.meanWatts(1.0, 2.0), idle, 1e-9);
    EXPECT_NEAR(m.meanWatts(0.0, 2.0), 0.5 * (peak + idle), 1e-9);
    EXPECT_NEAR(m.meanWatts(), 0.5 * (peak + idle), 1e-9);
}

TEST(Machine, MeanWattsEmptyWindowIsZero)
{
    Machine m;
    EXPECT_DOUBLE_EQ(m.meanWatts(1.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(m.meanWatts(2.0, 1.0), 0.0);
}

TEST(Machine, PowerTraceCoalescesEqualPowerSegments)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(1e9);
    m.execute(1e9); // Same power: should extend the same segment.
    EXPECT_EQ(m.powerTrace().size(), 1u);
}

TEST(Machine, PowerTraceSplitsOnPowerChange)
{
    Machine m;
    m.setUtilization(1.0);
    m.execute(1e9);
    m.idleFor(0.5);
    EXPECT_EQ(m.powerTrace().size(), 2u);
    EXPECT_GT(m.powerTrace()[0].watts, m.powerTrace()[1].watts);
}

TEST(Machine, LogFreeMachineIntegratesTheSameEnergy)
{
    // A machine without the power-segment log must integrate energy
    // bit for bit like a logging one, whatever the actuation mix.
    const MachineCatalog catalog = MachineCatalog::bigLittle();
    for (std::size_t c = 0; c < catalog.size(); ++c) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const Machine::Config &config = catalog.at(c).config;
            Machine logged(config);
            Machine bare(config, Machine::PowerLog::Drop);
            std::mt19937_64 rng(seed);
            const std::size_t states = logged.scale().states();
            for (int step = 0; step < 500; ++step) {
                const double x =
                    static_cast<double>(rng() % 1000) / 1000.0;
                switch (rng() % 6) {
                case 0:
                    logged.execute(x * 3e9);
                    bare.execute(x * 3e9);
                    break;
                case 1:
                    logged.idleFor(x * 0.7);
                    bare.idleFor(x * 0.7);
                    break;
                case 2: {
                    const std::size_t state = rng() % states;
                    logged.setPState(state);
                    bare.setPState(state);
                    break;
                }
                case 3: {
                    const std::size_t cap = rng() % states;
                    logged.setPStateCap(cap);
                    bare.setPStateCap(cap);
                    break;
                }
                case 4:
                    logged.setShare(0.05 + 0.95 * x);
                    bare.setShare(0.05 + 0.95 * x);
                    break;
                default: {
                    const double u = rng() % 5 == 0 ? -1.0 : x;
                    logged.setUtilization(u);
                    bare.setUtilization(u);
                    break;
                }
                }
                ASSERT_EQ(bare.energyJoules(), logged.energyJoules())
                    << "class " << c << " seed " << seed << " step "
                    << step;
                ASSERT_EQ(bare.now(), logged.now());
                ASSERT_EQ(bare.pstate(), logged.pstate());
            }
            EXPECT_GT(logged.powerTrace().size(), 1u);
        }
    }
}

TEST(Machine, LogFreeMachineRefusesLogQueries)
{
    Machine m(Machine::Config{}, Machine::PowerLog::Drop);
    m.execute(1e9);
    EXPECT_GT(m.energyJoules(), 0.0);
    EXPECT_THROW(m.powerTrace(), std::logic_error);
    EXPECT_THROW(m.meanWatts(), std::logic_error);
    EXPECT_THROW(m.meanWatts(0.0, 0.1), std::logic_error);
}

TEST(Machine, BadPStateThrows)
{
    Machine m;
    EXPECT_THROW(m.setPState(99), std::out_of_range);
}

TEST(Machine, ZeroCoresRejected)
{
    Machine::Config config;
    config.cores = 0;
    EXPECT_THROW(Machine{config}, std::invalid_argument);
}

TEST(Machine, NegativeIdleThrows)
{
    Machine m;
    EXPECT_THROW(m.idleFor(-1.0), std::invalid_argument);
}

TEST(Machine, PStateCapClampsRequests)
{
    Machine m;
    m.setPStateCap(3);
    // Installing the cap slows the machine immediately...
    EXPECT_EQ(m.pstate(), 3u);
    // ...and later requests for faster states clamp against it.
    m.setPState(0);
    EXPECT_EQ(m.pstate(), 3u);
    m.setPState(5); // Slower than the cap stays allowed.
    EXPECT_EQ(m.pstate(), 5u);
}

TEST(Machine, PStateCapIsRemovable)
{
    Machine m;
    m.setPStateCap(3);
    m.setPStateCap(0);
    EXPECT_EQ(m.pstateCap(), 0u);
    // Removing the cap does not speed the machine up by itself.
    EXPECT_EQ(m.pstate(), 3u);
    m.setPState(0);
    EXPECT_EQ(m.pstate(), 0u);
}

TEST(Machine, PStateCapSettableMidRun)
{
    // The fleet arbiter re-caps machines between control epochs while
    // work is in flight; the new cap governs subsequent work only.
    Machine m;
    const double t_fast = m.execute(2.4e9);
    m.setPStateCap(m.scale().lowestState());
    const double t_slow = m.execute(1.6e9);
    EXPECT_NEAR(t_fast, 1.0, 1e-12);
    EXPECT_NEAR(t_slow, 1.0, 1e-12);
}

TEST(Machine, BadPStateCapThrows)
{
    Machine m;
    EXPECT_THROW(m.setPStateCap(99), std::out_of_range);
}

} // namespace
} // namespace powerdial::sim
