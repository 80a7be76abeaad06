#include "workloads.h"

#include <chrono>
#include <numeric>
#include <stdexcept>

#include "apps/videnc/videnc_app.h"
#include "microsim.h"
#include "obs/trace_event.h"
#include "sim/machine_catalog.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"

namespace perfbench {

namespace pd = powerdial;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** SplitMix64 finaliser: decorrelates the derived generator seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Calibration workers; the calibrated model is identical at any count. */
constexpr std::size_t kCalibrationThreads = 4;

/** Traffic instances served per run, per workload. */
std::size_t
instanceCount(WorkloadId id)
{
    switch (id) {
    case WorkloadId::FleetScale:
        return 2;
    case WorkloadId::SloFlash:
        return 6;
    case WorkloadId::AppVidenc:
        return 2;
    }
    return 1;
}

/**
 * The spike schedule of fleet-scale and app-videnc is part of the
 * workload, not of the seed: it is the ROADMAP baseline's trace
 * (LoadTraceParams' historical seed). With ~5 spikes in 100 epochs,
 * letting the seed redraw the schedule moved QoS loss, energy per job
 * and median latency by 30-70% from seed to seed; the seed draws the
 * Poisson arrivals instead.
 */
constexpr std::uint64_t kSpikeScheduleSeed = 0x10ad0001;

/** The spiky load trace shared by fleet-scale and app-videnc. */
pd::workload::LoadTraceParams
spikyTrace(std::size_t steps, std::uint64_t seed)
{
    pd::workload::LoadTraceParams trace;
    trace.steps = steps;
    trace.base_utilization = 0.25;
    trace.spike_probability = 0.05;
    trace.spike_length = 6;
    trace.spike_utilization = 1.0;
    trace.jitter = 0.05;
    trace.diurnal_amplitude = 0.0;
    trace.seed = seed;
    return trace;
}

Traffic
poissonTraffic(const Seeds &seeds, std::size_t steps, double peak_rate)
{
    pd::workload::PoissonArrivalParams arrival;
    arrival.peak_rate = peak_rate;
    arrival.seed = seeds.arrivals;
    Traffic traffic;
    traffic.seeds = seeds;
    traffic.seeds.load_trace = kSpikeScheduleSeed;
    traffic.arrivals = pd::workload::makePoissonArrivals(
        pd::workload::makeLoadTrace(spikyTrace(steps, kSpikeScheduleSeed)),
        arrival);
    traffic.offered = std::accumulate(traffic.arrivals.begin(),
                                      traffic.arrivals.end(),
                                      std::size_t{0});
    return traffic;
}

/** Identify and calibrate on @p sweep, binding knobs to @p app. */
void
calibrate(Scenario &s, pd::core::App &app, pd::core::App &sweep)
{
    auto start = Clock::now();
    s.ident = pd::core::identifyKnobs(app);
    s.times.identify_s = since(start);
    if (!s.ident.analysis.accepted)
        throw std::runtime_error("knob identification rejected " +
                                 app.name());
    pd::core::CalibrationOptions options;
    options.threads = kCalibrationThreads;
    const auto inputs = sweep.trainingInputs();
    start = Clock::now();
    s.calibration = pd::core::calibrate(sweep, inputs, options);
    s.times.calibrate_s = since(start);
    s.times.calibration_runs =
        sweep.knobSpace().combinations() * inputs.size();
}

/**
 * fleet-scale: 1000 homogeneous machines, microsim tenants, Poisson
 * arrivals over the spiky trace (peak 3000 jobs per epoch, one epoch =
 * one job's baseline duration), QoS-feedback arbitration at 60% of
 * aggregate peak power, least-loaded placement, unbounded queues.
 *
 * The peak sits below the ROADMAP baseline's 4000: there, spike load
 * (~2 epochs x 4000 jobs) equals the fleet's 8000 cores, and whether
 * a seed's Poisson draws tipped machines past their cores flipped p99
 * between 2.0x and 2.7x the baseline duration.
 */
void
setUpFleetScale(Scenario &s, std::uint64_t seed)
{
    s.app = std::make_unique<Microsim>();
    calibrate(s, *s.app, *s.app);
    const auto &model = s.calibration.model;

    auto &o = s.options;
    o.machines = 1000;
    o.machine = pd::sim::Machine::Config{};
    o.epoch_seconds =
        static_cast<double>(Microsim::kUnits) / model.baselineRate();
    const pd::sim::Machine probe(o.machine);
    o.arbiter.cluster_cap_watts = static_cast<double>(o.machines) *
        0.6 * probe.powerModel().peakWatts();
    o.arbiter.policy = pd::fleet::ArbiterPolicy::QosFeedback;
    o.arbiter.feedback_gain = 0.5;
    o.queue_depth = 0;
    o.engine = pd::fleet::EngineMode::Event;

    s.beats_per_job = Microsim::kUnits;
    s.latency_limit_s = 4.0 * o.epoch_seconds;

    const auto start = Clock::now();
    for (std::size_t i = 0; i < instanceCount(s.id); ++i)
        s.traffic.push_back(
            poissonTraffic(deriveSeeds(seed, i), 100, 3000.0));
    s.times.generate_s = since(start);
}

/**
 * slo-flash: 128 big + 128 little single-core machines, three-class
 * Zipf tenants with deadlines at 4/3/2x the baseline job duration, and
 * a flash crowd over the middle sixth of a flat half-load schedule.
 * Predictive admission with a queue depth of 12, affinity-aware
 * placement, QoS-feedback arbitration at 70% of peak power, and a
 * trace sink recording lifecycle, admission and arbitration records.
 */
void
setUpSloFlash(Scenario &s, std::uint64_t seed)
{
    s.app = std::make_unique<Microsim>();
    calibrate(s, *s.app, *s.app);
    const auto &model = s.calibration.model;
    const double baseline_s =
        static_cast<double>(Microsim::kUnits) / model.baselineRate();

    pd::sim::MachineClass big;
    big.name = "big";
    big.config = pd::sim::Machine::Config{};
    big.config.cores = 1;
    pd::sim::MachineClass little;
    little.name = "little";
    little.config.scale = pd::sim::FrequencyScale(
        {1.6e9, 1.4e9, 1.2e9, 1.0e9, 0.8e9});
    little.config.power.idle_watts = 40.0;
    little.config.power.peak_watts = 95.0;
    little.config.power.v_min = 0.80;
    little.config.power.v_max = 1.00;
    little.config.power.f_min_hz = 0.8e9;
    little.config.power.f_max_hz = 1.6e9;
    little.config.cores = 1;
    little.config.speed_factor = 0.6;
    const double peak_watts = 128.0 * big.config.power.peak_watts +
        128.0 * little.config.power.peak_watts;

    auto &o = s.options;
    o.catalog = pd::sim::MachineCatalog({big, little});
    o.class_mix = {128, 128};
    o.epoch_seconds = 0.5 * baseline_s;
    o.arbiter.cluster_cap_watts = 0.7 * peak_watts;
    o.arbiter.policy = pd::fleet::ArbiterPolicy::QosFeedback;
    o.arbiter.feedback_gain = 0.5;
    o.placement = pd::fleet::makeAffinityAwarePlacement();
    o.queue_depth = 12;
    o.admission = pd::fleet::makePredictiveAdmission();
    o.engine = pd::fleet::EngineMode::Event;

    s.trace_categories = pd::obs::kCatLifecycle |
        pd::obs::kCatAdmission | pd::obs::kCatArbitration;
    s.beats_per_job = Microsim::kUnits;
    s.latency_limit_s = 4.0 * baseline_s;

    // Popularity (Zipf rank) order: the top class is also the most
    // popular; deadlines tighten down the priority ladder.
    const std::vector<pd::workload::TenantProfile> profiles{
        {2, 0, baseline_s * 4.0},
        {3, 1, baseline_s * 3.0},
        {2, 2, baseline_s * 2.0},
        {3, 2, baseline_s * 2.0},
    };
    const std::size_t steps = 96;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < instanceCount(s.id); ++i) {
        Traffic traffic;
        traffic.seeds = deriveSeeds(seed, i);
        pd::workload::TrafficMixParams flash;
        flash.steps = steps;
        flash.trace.steps = steps;
        flash.trace.base_utilization = 0.5;
        flash.trace.jitter = 0.03;
        flash.trace.spike_probability = 0.0;
        flash.trace.diurnal_amplitude = 0.0;
        flash.trace.seed = traffic.seeds.load_trace;
        flash.flash_crowds = {{steps / 3, steps / 6 + 1, 0.9}};
        flash.peak_rate = 120.0;
        flash.zipf_skew = 1.0;
        flash.seed = traffic.seeds.traffic_mix;
        auto composed = pd::workload::makeTrafficMix(flash, profiles);
        traffic.offers = std::move(composed.offers);
        traffic.offered = composed.total_offered;
        s.traffic.push_back(std::move(traffic));
    }
    s.times.generate_s = since(start);
}

pd::apps::videnc::VidencConfig
videncConfig(int frames)
{
    pd::apps::videnc::VidencConfig config;
    config.inputs = 8;
    config.video.width = 32;
    config.video.height = 16;
    config.video.frames = frames;
    return config;
}

/**
 * app-videnc: 16 homogeneous machines serve 60-frame video-encoder jobs
 * (three 20-beat control quanta each) on 32x16-pixel clips, with the
 * knob model calibrated on the 10-frame instance of the same clips.
 * Poisson arrivals over the spiky trace (peak 16 jobs per epoch); one
 * epoch is 30% of a job's baseline duration, so every job crosses
 * several lease rewrites; the cap is 60% of peak power.
 *
 * Small clips keep ~1800 jobs per pass affordable, enough for p99. At
 * a 45% cap the idle floor (41% of peak) left so little headroom that
 * the duty-cycled fleet built a backlog (median latency 9x baseline)
 * and every simulated metric swung by 40-50% between seeds.
 */
void
setUpAppVidenc(Scenario &s, std::uint64_t seed)
{
    const int frames = 60;
    s.app = std::make_unique<pd::apps::videnc::VidencApp>(
        videncConfig(frames));
    pd::apps::videnc::VidencApp sweep(videncConfig(10));
    calibrate(s, *s.app, sweep);
    const auto &model = s.calibration.model;

    auto &o = s.options;
    o.machines = 16;
    o.machine = pd::sim::Machine::Config{};
    o.epoch_seconds =
        static_cast<double>(frames) / model.baselineRate() * 0.3;
    const pd::sim::Machine probe(o.machine);
    o.arbiter.cluster_cap_watts = static_cast<double>(o.machines) *
        0.6 * probe.powerModel().peakWatts();
    o.arbiter.policy = pd::fleet::ArbiterPolicy::QosFeedback;
    o.arbiter.feedback_gain = 0.5;
    o.queue_depth = 0;
    o.engine = pd::fleet::EngineMode::Event;

    s.beats_per_job = static_cast<std::size_t>(frames);
    s.latency_limit_s =
        4.0 * static_cast<double>(frames) / model.baselineRate();

    const auto start = Clock::now();
    for (std::size_t i = 0; i < instanceCount(s.id); ++i)
        s.traffic.push_back(
            poissonTraffic(deriveSeeds(seed, i), 100, 16.0));
    s.times.generate_s = since(start);
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadId &out)
{
    for (const WorkloadId id : {WorkloadId::FleetScale,
                                WorkloadId::SloFlash,
                                WorkloadId::AppVidenc})
        if (name == workloadName(id)) {
            out = id;
            return true;
        }
    return false;
}

const char *
workloadName(WorkloadId id)
{
    switch (id) {
    case WorkloadId::FleetScale:
        return "fleet-scale";
    case WorkloadId::SloFlash:
        return "slo-flash";
    case WorkloadId::AppVidenc:
        return "app-videnc";
    }
    return "?";
}

Seeds
deriveSeeds(std::uint64_t seed, std::size_t instance)
{
    Seeds seeds;
    const std::uint64_t root = mix(seed ^ mix(instance + 1));
    seeds.load_trace = mix(root + 1);
    seeds.arrivals = mix(root + 2);
    seeds.traffic_mix = mix(root + 3);
    return seeds;
}

Scenario
setUp(WorkloadId id, std::uint64_t seed)
{
    Scenario s;
    s.id = id;
    switch (id) {
    case WorkloadId::FleetScale:
        setUpFleetScale(s, seed);
        break;
    case WorkloadId::SloFlash:
        setUpSloFlash(s, seed);
        break;
    case WorkloadId::AppVidenc:
        setUpAppVidenc(s, seed);
        break;
    }
    return s;
}

} // namespace perfbench
