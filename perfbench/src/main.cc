/**
 * @file
 * The PowerDial benchmark program.
 *
 *   powerdial_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 is the end-to-end run: set up several times (the median
 * is setup_s), then serve the workload's traffic through
 * fleet::Server::serve with 4 tenant workers and no timing wrappers,
 * pass after pass, until S seconds have elapsed. Host metrics are
 * medians over passes; simulated metrics come from the virtual-time
 * FleetReport and repeat exactly for a fixed seed.
 *
 * --trace 1 is the layer run: the same traffic served by one tenant
 * worker, once unwrapped and once with the timing decorators of
 * layers.h, so the layers' self-times add up to the serve wall-clock.
 * A 4-worker unwrapped serve supplies the reference digest.
 *
 * Every serve is checked (report.h); the last stdout line is one JSON
 * object with the keys correct, attempted, failed and metrics.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "obs/trace_json.h"
#include "obs/trace_sink.h"
#include "report.h"
#include "workloads.h"

namespace pd = powerdial;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Tenant workers of the end-to-end run. */
constexpr std::size_t kEndToEndWorkers = 4;

struct Args
{
    WorkloadId workload = WorkloadId::FleetScale;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fleet-scale|slo-flash|app-videnc "
                 "--seed N --seconds S --trace 0|1\n",
                 argv0);
    std::exit(2);
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (*text == '\0')
        return false;
    for (const char *p = text; *p != '\0'; ++p)
        if (*p < '0' || *p > '9')
            return false;
    out = std::strtoull(text, nullptr, 10);
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *value = argv[i + 1];
        std::uint64_t number = 0;
        if (std::strcmp(flag, "--workload") == 0) {
            if (!parseWorkload(value, args.workload))
                usage(argv[0]);
            have[0] = true;
        } else if (std::strcmp(flag, "--seed") == 0) {
            if (!parseUnsigned(value, args.seed))
                usage(argv[0]);
            have[1] = true;
        } else if (std::strcmp(flag, "--seconds") == 0) {
            if (!parseUnsigned(value, number) || number == 0 ||
                number > 600)
                usage(argv[0]);
            args.seconds = static_cast<double>(number);
            have[2] = true;
        } else if (std::strcmp(flag, "--trace") == 0) {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage(argv[0]);
            args.trace = value[0] == '1';
            have[3] = true;
        } else {
            usage(argv[0]);
        }
    }
    if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3]))
        usage(argv[0]);
    return args;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** One serve, with the trace drained and exported when recorded. */
struct ServeResult
{
    pd::fleet::FleetReport report;
    double serve_s = 0.0;
    double drain_s = 0.0;
    double export_s = 0.0;
    std::size_t records = 0;
    std::size_t bytes = 0;
    std::size_t arbitration_rounds = 0;
    std::vector<std::string> failures;

    /** The timed region: serve, then drain and export. */
    double wall() const { return serve_s + drain_s + export_s; }
};

/**
 * An in-memory export target that keeps its capacity across serves, so
 * passes after the first export without growing a fresh buffer.
 */
class ExportBuffer final : public std::streambuf
{
  public:
    void clear() { text_.clear(); }
    std::size_t size() const { return text_.size(); }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            text_.push_back(traits_type::to_char_type(c));
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *data, std::streamsize count) override
    {
        text_.append(data, static_cast<std::size_t>(count));
        return count;
    }

  private:
    std::string text_;
};

/**
 * One constructed fleet::Server over a scenario, with the correctness
 * probe and (optionally) a trace sink attached. Holds addresses the
 * server's options point at, so it neither copies nor moves.
 */
class Runner
{
  public:
    Runner(const Scenario &scenario, const pd::core::App &app,
           pd::fleet::ServerOptions options, bool traced)
        : scenario_(&scenario)
    {
        check_.cap_watts = options.arbiter.cluster_cap_watts;
        options.arbitration_probe = check_.probe();
        if (traced && scenario.trace_categories != 0) {
            pd::obs::TraceConfig config;
            config.categories = scenario.trace_categories;
            sink_.emplace(config);
            options.trace = &*sink_;
        } else {
            options.trace = nullptr;
        }
        server_ = std::make_unique<pd::fleet::Server>(
            app, scenario.ident.table, scenario.calibration.model,
            std::move(options));
    }

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    ServeResult
    serve(const Traffic &traffic)
    {
        check_.rounds = 0;
        check_.bad_rounds = 0;
        ServeResult out;
        auto start = Clock::now();
        out.report = traffic.offers.empty()
            ? server_->serve(traffic.arrivals)
            : server_->serve(traffic.offers);
        out.serve_s = since(start);
        if (sink_) {
            start = Clock::now();
            const std::vector<pd::obs::TraceRecord> records = sink_->drain();
            out.drain_s = since(start);
            start = Clock::now();
            json_.clear();
            std::ostream json(&json_);
            pd::obs::writeChromeTrace(json, records);
            json.flush();
            out.export_s = since(start);
            out.records = records.size();
            out.bytes = json_.size();
            if (out.records == 0 || out.bytes == 0)
                out.failures.push_back("the trace sink recorded nothing");
        }
        out.arbitration_rounds = check_.rounds;
        auto failures = checkServe(out.report, traffic,
                                   scenario_->beats_per_job, check_);
        out.failures.insert(out.failures.end(), failures.begin(),
                            failures.end());
        return out;
    }

  private:
    const Scenario *scenario_;
    ArbitrationCheck check_;
    std::optional<pd::obs::TraceSink> sink_;
    ExportBuffer json_;
    std::unique_ptr<pd::fleet::Server> server_;
};

/** One pass over every traffic instance of a scenario. */
struct Pass
{
    std::uint64_t digest = 0;
    double serve_s = 0.0; //!< Σ serve wall.
    double drain_s = 0.0;
    double export_s = 0.0;
    std::size_t records = 0;
    std::size_t bytes = 0;
    std::size_t completed = 0;
    std::uint64_t beats = 0;
    std::size_t arbitration_rounds = 0;
    std::size_t offered = 0;
    std::size_t failed_offered = 0; //!< Offered jobs of failed serves.
    std::vector<std::string> failures;
};

/** Serve every traffic instance once, pooling into @p sim when set. */
Pass
runPass(Runner &runner, const Scenario &scenario,
        SimAccumulator *sim = nullptr)
{
    Pass pass;
    pass.digest = 0xcbf29ce484222325ULL;
    for (const Traffic &traffic : scenario.traffic) {
        ServeResult serve = runner.serve(traffic);
        pass.digest = digestJobs(serve.report, pass.digest);
        pass.serve_s += serve.serve_s;
        pass.drain_s += serve.drain_s;
        pass.export_s += serve.export_s;
        pass.records += serve.records;
        pass.bytes += serve.bytes;
        pass.completed += serve.report.jobs.size();
        pass.beats += totalBeats(serve.report);
        pass.arbitration_rounds += serve.arbitration_rounds;
        pass.offered += traffic.offered;
        if (!serve.failures.empty())
            pass.failed_offered += traffic.offered;
        for (const auto &failure : serve.failures)
            pass.failures.push_back(failure);
        if (sim != nullptr)
            sim->add(serve.report, traffic.offered);
    }
    return pass;
}

pd::fleet::ServerOptions
withWorkers(const Scenario &scenario, std::size_t workers)
{
    pd::fleet::ServerOptions options = scenario.options;
    options.threads = workers;
    return options;
}

/** Set-up repetitions of the end-to-end run (setup_s is their median). */
std::size_t
setupRepeats(WorkloadId id)
{
    return id == WorkloadId::AppVidenc ? 5 : 51;
}

/** Accumulates the run's outcome and prints the result line. */
struct Result
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, const char *>>>
        metrics;

    void
    add(const char *name, double value, const char *unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    void
    account(const Pass &pass)
    {
        attempted += pass.offered;
        failed += pass.failed_offered;
        for (const auto &failure : pass.failures)
            std::printf("CHECK FAILED: %s\n", failure.c_str());
    }

    void
    account(const ServeResult &serve, std::size_t offered)
    {
        attempted += offered;
        if (!serve.failures.empty())
            failed += offered;
        for (const auto &failure : serve.failures)
            std::printf("CHECK FAILED: %s\n", failure.c_str());
    }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"metrics\": {",
                    failed == 0 ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics[i].first.c_str(),
                        metrics[i].second.first, metrics[i].second.second);
        std::printf("}}\n");
    }
};

void
printScenario(const Scenario &scenario)
{
    std::printf("workload %s: %zu traffic instance(s), epoch %.6g s, "
                "latency limit %.6g s\n",
                workloadName(scenario.id), scenario.traffic.size(),
                scenario.options.epoch_seconds, scenario.latency_limit_s);
    for (const Traffic &t : scenario.traffic)
        std::printf("  seeds load_trace=%" PRIu64 " arrivals=%" PRIu64
                    " traffic_mix=%" PRIu64 "  offered %zu jobs\n",
                    t.seeds.load_trace, t.seeds.arrivals,
                    t.seeds.traffic_mix, t.offered);
}

void
printSim(const SimMetrics &m)
{
    std::printf("sim: offered %zu completed %zu (class 0: %zu) admit %.6f "
                "p50 %.6g p95 %.6g p99 %.6g c0_p99 %.6g slo %.6f "
                "qos_loss %.6g%% energy/job %.6g J\n",
                m.offered, m.completed, m.class0_completed, m.admit_frac,
                m.p50_latency_s, m.p95_latency_s, m.p99_latency_s,
                m.class0_p99_latency_s, m.slo_attain_frac, m.qos_loss_pct,
                m.energy_per_job_j);
}

void
addSimMetrics(Result &result, const SimMetrics &m)
{
    result.add("admit_frac", m.admit_frac, "1");
    result.add("sim_p50_latency_s", m.p50_latency_s, "s");
    result.add("sim_p95_latency_s", m.p95_latency_s, "s");
    result.add("sim_p99_latency_s", m.p99_latency_s, "s");
    result.add("sim_class0_p99_latency_s", m.class0_p99_latency_s, "s");
    result.add("sim_slo_attain_frac", m.slo_attain_frac, "1");
    result.add("sim_qos_loss_pct", m.qos_loss_pct, "%");
    result.add("sim_energy_per_job_j", m.energy_per_job_j, "J");
}

int
endToEnd(const Args &args)
{
    // Set-up: app build, knob identification, calibration, traffic
    // generation and Server construction, repeated; the last is kept.
    std::vector<double> setup_times;
    std::unique_ptr<Scenario> scenario;
    std::unique_ptr<Runner> runner;
    for (std::size_t i = 0; i < setupRepeats(args.workload); ++i) {
        runner.reset();
        scenario.reset();
        const auto start = Clock::now();
        scenario = std::make_unique<Scenario>(setUp(args.workload, args.seed));
        runner = std::make_unique<Runner>(
            *scenario, *scenario->app,
            withWorkers(*scenario, kEndToEndWorkers), true);
        setup_times.push_back(since(start));
    }
    printScenario(*scenario);

    // The first pass over the traffic instances scores the simulation
    // and records each instance's digest; then the instances are served
    // round-robin until the time is up. Every serve is one host-time
    // sample and must reproduce its instance's digest.
    Result result;
    std::vector<double> jobs_per_s;
    std::vector<double> beats_per_s;
    SimAccumulator pooled(scenario->latency_limit_s);
    std::vector<std::uint64_t> digests;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const std::size_t instances = scenario->traffic.size();
    const auto start = Clock::now();
    for (std::size_t n = 0; n < instances || since(start) < args.seconds;
         ++n) {
        const std::size_t i = n % instances;
        const Traffic &traffic = scenario->traffic[i];
        ServeResult serve = runner->serve(traffic);
        const std::uint64_t serve_digest = digestJobs(serve.report);
        if (n < instances) {
            pooled.add(serve.report, traffic.offered);
            digests.push_back(serve_digest);
            digest = digestJobs(serve.report, digest);
        } else if (serve_digest != digests[i]) {
            serve.failures.push_back("the report digest changed between "
                                     "serves of one instance");
        }
        result.account(serve, traffic.offered);
        jobs_per_s.push_back(
            ratio(static_cast<double>(serve.report.jobs.size()), serve.wall()));
        beats_per_s.push_back(ratio(
            static_cast<double>(totalBeats(serve.report)), serve.wall()));
        std::printf("serve %zu (instance %zu): %zu jobs in %.4f s (serve "
                    "%.4f s, drain %.4f s, export %.4f s)\n",
                    n + 1, i, serve.report.jobs.size(), serve.wall(),
                    serve.serve_s, serve.drain_s, serve.export_s);
    }
    const SimMetrics sim = pooled.finish();

    std::printf("digest %016" PRIx64 "\n", digest);
    printSim(sim);
    result.add("setup_s", median(setup_times), "s");
    result.add("jobs_per_s", median(jobs_per_s), "1/s");
    result.add("beats_per_s", median(beats_per_s), "1/s");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    addSimMetrics(result, sim);
    result.print();
    return 0;
}

int
layerRun(const Args &args)
{
    const Scenario scenario = setUp(args.workload, args.seed);
    printScenario(scenario);
    const bool has_sink = scenario.trace_categories != 0;
    Result result;

    // Reference: the end-to-end configuration, unwrapped.
    Runner reference(scenario, *scenario.app,
                     withWorkers(scenario, kEndToEndWorkers), true);
    const Pass ref = runPass(reference, scenario);
    result.account(ref);

    // One worker, unwrapped: with the sink, and (for the obs layer)
    // without it.
    Runner plain(scenario, *scenario.app, withWorkers(scenario, 1), true);
    std::optional<Runner> plain_off;
    if (has_sink)
        plain_off.emplace(scenario, *scenario.app, withWorkers(scenario, 1),
                          false);

    // One worker, wrapped at every seam.
    SerialCounters serial;
    const auto timed_app = makeTimedApp(scenario.app->clone());
    pd::fleet::ServerOptions wrapped_options = withWorkers(scenario, 1);
    wrapped_options.placement =
        timedPlacement(wrapped_options.placement, serial);
    wrapped_options.admission =
        timedAdmission(wrapped_options.admission, serial);
    wrapped_options.session.withGate(countingGate());
    Runner wrapped(scenario, *timed_app, wrapped_options, true);

    // Alternate the three at least once and until the time is up; the
    // wrapped counters accumulate over every wrapped pass and are
    // averaged.
    std::vector<double> plain_serve;
    std::vector<double> plain_off_serve;
    std::vector<double> drain_s;
    std::vector<double> export_s;
    double wrapped_serve = 0.0;
    std::size_t wrapped_passes = 0;
    std::size_t rounds = 0;
    std::size_t records = 0;
    std::size_t bytes = 0;
    resetWorkerCounters();
    const auto start = Clock::now();
    do {
        Pass p = runPass(plain, scenario);
        if (p.digest != ref.digest) {
            p.failures.push_back("1-worker digest differs from 4-worker");
            p.failed_offered = p.offered;
        }
        result.account(p);
        plain_serve.push_back(p.serve_s);
        drain_s.push_back(p.drain_s);
        export_s.push_back(p.export_s);
        records = p.records;
        bytes = p.bytes;

        if (plain_off) {
            Pass off = runPass(*plain_off, scenario);
            if (off.digest != ref.digest) {
                off.failures.push_back("sink-off digest differs");
                off.failed_offered = off.offered;
            }
            result.account(off);
            plain_off_serve.push_back(off.serve_s);
        }

        Pass w = runPass(wrapped, scenario);
        if (w.digest != ref.digest) {
            w.failures.push_back("wrapped digest differs from 4-worker");
            w.failed_offered = w.offered;
        }
        wrapped_serve += w.serve_s;
        rounds = w.arbitration_rounds;
        ++wrapped_passes;
        const WorkerCounters beat_path = mergeWorkerCounters();
        if (beat_path.gate_calls != w.beats * wrapped_passes) {
            w.failures.push_back("session gate beats != sum of job beats");
            w.failed_offered = w.offered;
        }
        result.account(w);
    } while (since(start) < args.seconds);

    const WorkerCounters beat_path = mergeWorkerCounters();
    const double passes = static_cast<double>(wrapped_passes);
    const double wall = wrapped_serve / passes;
    const double unit_s =
        1e-9 * static_cast<double>(beat_path.unit_ns) / passes;
    const double placement_s =
        1e-9 * static_cast<double>(serial.placement_ns) / passes;
    const double admission_s =
        1e-9 * static_cast<double>(serial.admission_self_ns) / passes;
    const double unit_calls =
        static_cast<double>(beat_path.unit_calls) / passes;
    const double placement_calls =
        static_cast<double>(serial.placement_calls) / passes;
    const double admission_calls =
        static_cast<double>(serial.admission_calls) / passes;
    const double beats = static_cast<double>(beat_path.gate_calls) / passes;
    const double jobs = static_cast<double>(ref.completed);
    const double residual = wall - unit_s - placement_s - admission_s;
    const double plain_wall = median(plain_serve);

    std::printf("digest %016" PRIx64 " (4 workers, 1 worker, wrapped)\n",
                ref.digest);
    std::printf("layer run: %zu wrapped pass(es), serve %.4f s (unwrapped "
                "%.4f s): unit %.4f s, placement %.4f s, admission %.4f s, "
                "residual %.4f s\n",
                wrapped_passes, wall, plain_wall, unit_s, placement_s,
                admission_s, residual);

    double offered = 0.0;
    for (const Traffic &t : scenario.traffic)
        offered += static_cast<double>(t.offered);
    const SetupTimes &t = scenario.times;
    result.add("workload.offered_jobs", offered, "count");
    result.add("workload.generate_s", t.generate_s, "s");
    result.add("core.calibration.identify_s", t.identify_s, "s");
    result.add("core.calibration.calibrate_s", t.calibrate_s, "s");
    result.add("core.calibration.runs",
               static_cast<double>(t.calibration_runs), "count");
    result.add("core.calibration.ms_per_run",
               ratio(1e3 * t.calibrate_s,
                     static_cast<double>(t.calibration_runs)),
               "ms");
    result.add("apps.unit.calls", unit_calls, "count");
    result.add("apps.unit.ns_per_call", ratio(1e9 * unit_s, unit_calls), "ns");
    result.add("apps.unit.share", ratio(unit_s, wall), "1");
    result.add("core.session.beats", beats, "count");
    result.add("core.session.beats_per_job", ratio(beats, jobs), "count");
    result.add("fleet.placement.calls", placement_calls, "count");
    result.add("fleet.placement.ns_per_call",
               ratio(1e9 * placement_s, placement_calls), "ns");
    result.add("fleet.placement.share", ratio(placement_s, wall), "1");
    result.add("fleet.admission.calls", admission_calls, "count");
    result.add("fleet.admission.ns_per_call",
               ratio(1e9 * admission_s, admission_calls), "ns");
    result.add("fleet.admission.admit_frac",
               ratio(static_cast<double>(serial.admitted), passes *
                                                               admission_calls),
               "1");
    result.add("fleet.arbiter.rounds", static_cast<double>(rounds), "count");
    result.add("fleet.arbiter.rounds_per_job",
               ratio(static_cast<double>(rounds), jobs), "count");
    result.add("fleet.engine.residual_s", residual, "s");
    result.add("fleet.engine.residual_ns_per_beat",
               ratio(1e9 * residual, beats), "ns");
    result.add("fleet.engine.residual_share", ratio(residual, wall), "1");
    result.add("obs.records", static_cast<double>(records), "count");
    result.add("obs.bytes", static_cast<double>(bytes), "B");
    result.add("obs.emit_overhead",
               has_sink ? ratio(plain_wall - median(plain_off_serve),
                                median(plain_off_serve))
                        : 0.0,
               "1");
    result.add("obs.drain_s", median(drain_s), "s");
    result.add("obs.export_s", median(export_s), "s");
    result.add("obs.export_ns_per_record",
               ratio(1e9 * median(export_s), static_cast<double>(records)),
               "ns");
    result.add("bench.layer_run_overhead",
               ratio(wall - plain_wall, plain_wall), "1");
    result.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                workloadName(args.workload), args.seed, args.seconds,
                args.trace ? 1 : 0);
    try {
        return args.trace ? layerRun(args) : endToEnd(args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
