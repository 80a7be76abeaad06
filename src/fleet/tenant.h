/**
 * @file
 * Tenant bookkeeping for the fleet engine (event_engine.cc).
 *
 * Both schedules construct, advance and release tenants — and
 * summarise finished runs — through these paths: the serial admission
 * record (Tenant, which owns its job's JobRecord), the worker-side run
 * it launches and releases (TenantRun, runSlice), the flat gate that
 * wires a tenant's lease into its session, and the report
 * finalisation that turns the filed job records into fleet
 * aggregates.
 */
#ifndef POWERDIAL_FLEET_TENANT_H
#define POWERDIAL_FLEET_TENANT_H

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/fanout.h"
#include "fleet/observability.h"
#include "fleet/server.h"

namespace powerdial::fleet::detail {

/**
 * Provision the serve's cluster: from the catalog and class mix when
 * a catalog is configured, else the legacy homogeneous fleet of
 * `machines` copies of `machine`.
 */
inline sim::Cluster
makeCluster(const ServerOptions &options)
{
    if (!options.catalog.empty())
        return sim::Cluster(options.catalog, options.class_mix);
    return sim::Cluster(options.machines, options.machine);
}

/**
 * What one tenant runs on: its private clone, rebound knob table,
 * simulated machine, trace probe and gated session. Built on the
 * fan-out worker that runs the tenant's first slice and released on
 * the worker whose slice completes the run, so neither the build nor
 * the teardown sits on the coordinating thread. The machine is the
 * *class* configuration of the host the job was placed on, so a job
 * landing on a little node simulates little-node frequency, power and
 * speed tables; it keeps no power-segment log, since only its energy
 * integral is ever read.
 */
struct TenantRun
{
    TenantRun(const core::App &source, const core::KnobTable &table,
              const sim::Machine::Config &host)
        : app(source.clone()),
          table(core::rebindKnobTable(table, *app)),
          machine(host, sim::Machine::PowerLog::Drop)
    {
    }

    std::unique_ptr<core::App> app;
    core::KnobTable table;
    sim::Machine machine;
    /** Structured trace stream of this job (present when the serve
     *  has a TraceSink attached). */
    std::optional<obs::TraceProbe> trace;
    std::optional<core::Session> session; //!< Last: it points into
                                          //!< app, table and machine.
};

/**
 * One admitted job, persistent across epochs: its job record (which
 * carries its identity) and lease are set up serially at admission
 * and live until the coordinator releases the job and files the
 * record; its TenantRun lives only while the run is in flight. The
 * lease is rewritten by the arbiter at every arbitration round.
 * Tenants are heap-allocated and never move, so the session's
 * pointers into the run (and the gate's pointer back into the tenant)
 * stay valid for the whole run.
 */
struct Tenant
{
    /** Identity (job, tenant input, epoch, machine, class, deadline,
     *  prediction) from admission; lease counters from the gate; the
     *  rest from the completed run. Complete once done is set. */
    JobRecord record;
    double arrival_time_s = 0.0; //!< Fleet virtual time at admission
                                 //!< (event schedule; the epoch
                                 //!< schedule derives slice deadlines
                                 //!< from record.epoch).
    /** Class configuration of the host (the cluster's catalog entry,
     *  which outlives the serve). */
    const sim::Machine::Config *host = nullptr;

    ArbitrationLease lease;
    double slice_deadline_s = 0.0;  //!< Tenant-local slice end.
    std::size_t beats_reported = 0; //!< Beats already attributed to
                                    //!< earlier epochs' rates.

    std::optional<TenantRun> run; //!< Worker-side; see TenantRun.
    bool done = false;

    /** Beats the job has emitted so far. */
    std::size_t
    beats() const
    {
        if (done)
            return record.beats;
        return run.has_value() ? run->session->unitsProcessed() : 0;
    }
};

/**
 * Admit one tenant serially and in job order: host, and the job
 * record seeded from the job's identity and offered metadata. An
 * offer with the kRoundRobinTenant sentinel resolves its input by the
 * legacy round-robin-on-job-id rule. Everything the run itself needs
 * is left to runSlice().
 */
inline std::unique_ptr<Tenant>
makeTenant(const ServerOptions &options, const sim::Cluster &cluster,
           std::size_t job, std::size_t machine_index,
           std::size_t arrival_epoch, double arrival_time_s,
           const workload::OfferedJob &offer, double predicted_s)
{
    auto t = std::make_unique<Tenant>();
    JobRecord &record = t->record;
    record.job = job;
    record.tenant = offer.tenant == kRoundRobinTenant
        ? options.tenants[job % options.tenants.size()]
        : offer.tenant;
    record.epoch = arrival_epoch;
    record.machine = machine_index;
    record.job_class = offer.job_class;
    record.deadline_s = offer.deadline_s;
    record.predicted_s = predicted_s;
    t->arrival_time_s = arrival_time_s;
    t->host = &cluster.configOf(machine_index);
    return t;
}

/** What every tenant of one serve is built from. */
struct TenantSource
{
    const core::App &app;
    const core::KnobTable &table;
    const core::ResponseModel &model;
    const ServerOptions &options;
};

/**
 * Build @p t's run on the calling worker: clone, rebound table,
 * machine, trace probe, and the session gated by one flat gate that
 * runs, in order, the caller's gate, the lease re-read (changed terms
 * applied within one beat of an arbiter rewrite, the applied
 * generation counted into the job record), and the lease-driven
 * duty-cycle pause.
 */
inline void
launchTenant(Tenant &t, const TenantSource &source)
{
    TenantRun &run = t.run.emplace(source.app, source.table, *t.host);
    const ServerOptions &options = source.options;
    if (options.trace != nullptr)
        run.trace.emplace(*options.trace,
                          obs::TraceProbe::Identity{
                              t.record.job, t.record.tenant,
                              t.record.machine, t.record.job_class,
                              t.arrival_time_s});

    core::SessionOptions session_options = options.session;
    Tenant *tenant = &t;
    core::BeatGate caller = std::move(session_options.gate);
    session_options.gate = [tenant, caller = std::move(caller)](
                               core::BeatGateContext &ctx) {
        if (caller)
            caller(ctx);
        const ArbitrationLease &lease = tenant->lease;
        JobRecord &record = tenant->record;
        if (record.lease_generation != lease.generation) {
            ctx.machine.setPStateCap(lease.pstate_cap);
            ctx.machine.setShare(lease.share);
            ctx.machine.setUtilization(lease.utilization);
            record.lease_generation = lease.generation;
            ++record.lease_updates;
        }
        if (lease.pause_ratio > 0.0)
            ctx.pause_per_busy += lease.pause_ratio;
    };
    run.session.emplace(*run.app, run.table, source.model,
                        std::move(session_options));
}

/**
 * Advance @p t to its slice deadline on @p worker — the body of the
 * engine's only parallel section. The first slice launches the run;
 * the slice that completes it fills in the job's record from the
 * completed run and releases the run on the worker actually running
 * it.
 */
inline void
runSlice(Tenant &t, const TenantSource &source, std::size_t worker)
{
    if (t.done)
        return; // Awaiting release.
    const bool first = !t.run.has_value();
    if (first)
        launchTenant(t, source);
    TenantRun &run = *t.run;
    if (run.trace)
        run.trace->beginSlice(worker);
    if (first) {
        if (run.trace)
            run.session->observe(*run.trace);
        run.session->start(t.record.tenant, run.machine);
    }
    const auto result = run.session->advanceUntil(t.slice_deadline_s);
    if (!result.has_value())
        return;
    JobRecord &record = t.record;
    record.latency_s = result->seconds;
    record.mean_rate = result->mean_rate;
    record.qos_loss = result->mean_qos_loss_estimate;
    record.energy_j = run.machine.energyJoules();
    record.beats = result->beat_count;
    record.service_s = result->service_s;
    record.queue_share_s = result->queue_share_s;
    record.class_deficit_s = result->class_deficit_s;
    record.pause_s = result->pause_s;
    t.done = true;
    t.run.reset();
}

/**
 * Serial admission of one batch of offered jobs: every offer goes through Scheduler::tryAdmit in arrival
 * order, and each decision is attributed through the tracer —
 * per-candidate placement costs (computed against the pre-placement
 * occupancy the policy actually ranked), then the admit (with the
 * prospective fleet job id) or shed record. Offers the composer never
 * numbered get a serial id from @p next_offer; numbered offers keep
 * theirs (@p next_offer still advances, staying a pure arrival
 * counter either way).
 *
 * @return The admissions, paired with their offers, in arrival order.
 */
inline std::vector<std::pair<Admission, const workload::OfferedJob *>>
admitOffers(Scheduler &scheduler,
            const std::vector<workload::OfferedJob> &offered,
            std::size_t next_job, std::size_t &next_offer,
            FleetTracer &tracer)
{
    std::vector<std::pair<Admission, const workload::OfferedJob *>>
        placements;
    placements.reserve(offered.size());
    for (const workload::OfferedJob &job : offered) {
        const std::size_t offer =
            job.offer != workload::kUnnumberedOffer ? job.offer
                                                    : next_offer;
        ++next_offer;
        if (tracer.wantsPlacement())
            tracer.placement(offer, scheduler.policy().candidateCosts(
                                        scheduler.cluster()));
        const auto admission = scheduler.tryAdmit(job);
        if (admission.has_value()) {
            placements.emplace_back(*admission, &job);
            tracer.admit(offer, job, scheduler.lastVerdict(),
                         next_job + placements.size() - 1);
        } else {
            tracer.shed(offer, job, scheduler.lastVerdict());
        }
    }
    return placements;
}

/**
 * Install one arbitration round's terms in a tenant's lease — the one
 * lease-rewrite path both schedules share — and attribute the rewrite
 * through the tracer.
 */
inline void
writeLease(const sim::Cluster &cluster, Tenant &tenant,
           std::size_t generation, std::size_t epoch,
           const ArbitrationDecision &decision, FleetTracer &tracer)
{
    const std::size_t machine = tenant.record.machine;
    const auto load = cluster.loadOf(machine, cluster.activeOn(machine));
    tenant.lease.generation = generation;
    tenant.lease.epoch = epoch;
    tenant.lease.share = load.per_instance_share;
    tenant.lease.utilization = load.utilization;
    tenant.lease.pstate_cap = decision.pstate_cap[machine];
    tenant.lease.pause_ratio = decision.pause_ratio[machine];
    tracer.lease(tenant.record.job, tenant.record.tenant, machine,
                 tenant.lease);
}

/**
 * Fold the filed job records (report.jobs, indexed by job id) and the
 * accumulated epoch rows into the report's aggregates: epoch means,
 * overall QoS mean, latency percentiles, and the per-tenant /
 * per-class / per-machine tables (sorted by id; machine rows cover
 * the whole cluster). All four
 * percentile paths go through the one latencyPercentiles helper. Both
 * schedules call this with report.epochs / total counters already set.
 */
inline void
finalizeReport(FleetReport &report, const sim::Cluster &cluster)
{
    double watts_sum = 0.0, rate_sum = 0.0;
    for (const EpochStats &stats : report.epochs) {
        watts_sum += stats.watts;
        rate_sum += stats.fleet_rate;
    }
    if (!report.epochs.empty()) {
        const double n = static_cast<double>(report.epochs.size());
        report.mean_watts = watts_sum / n;
        report.mean_fleet_rate = rate_sum / n;
    }

    std::vector<double> latencies;
    latencies.reserve(report.jobs.size());
    double qos_sum = 0.0;
    std::map<std::size_t, TenantStats> tenants;
    std::map<std::size_t, std::vector<double>> tenant_latencies;
    std::vector<std::vector<double>> machine_latencies(cluster.size());
    for (const JobRecord &job : report.jobs) {
        latencies.push_back(job.latency_s);
        qos_sum += job.qos_loss;
        TenantStats &tenant = tenants[job.tenant];
        tenant.tenant = job.tenant;
        ++tenant.jobs;
        tenant.mean_qos_loss += job.qos_loss;
        tenant.mean_latency_s += job.latency_s;
        tenant_latencies[job.tenant].push_back(job.latency_s);
        if (job.machine < machine_latencies.size())
            machine_latencies[job.machine].push_back(job.latency_s);
    }
    if (!report.jobs.empty())
        report.mean_qos_loss =
            qos_sum / static_cast<double>(report.jobs.size());
    const LatencyPercentiles overall = latencyPercentiles(latencies);
    report.p50_latency_s = overall.p50;
    report.p95_latency_s = overall.p95;
    report.p99_latency_s = overall.p99;
    for (auto &[id, tenant] : tenants) {
        const double job_count = static_cast<double>(tenant.jobs);
        tenant.mean_qos_loss /= job_count;
        tenant.mean_latency_s /= job_count;
        const LatencyPercentiles tail =
            latencyPercentiles(tenant_latencies[id]);
        tenant.p50_latency_s = tail.p50;
        tenant.p95_latency_s = tail.p95;
        tenant.p99_latency_s = tail.p99;
        report.tenants.push_back(tenant);
    }

    // Per-priority-class scoreboard: latency percentiles over the
    // served jobs of each class, plus that class's shed count — every
    // class seen in either gets a row, so a class that was shed into
    // oblivion still shows up (jobs 0, shed > 0).
    std::map<std::size_t, std::vector<double>> class_latencies;
    for (const JobRecord &job : report.jobs)
        class_latencies[job.job_class].push_back(job.latency_s);
    for (std::size_t c = 0; c < report.shed_by_class.size(); ++c)
        if (report.shed_by_class[c] > 0)
            class_latencies.try_emplace(c);
    for (auto &[c, values] : class_latencies) {
        ClassStats row;
        row.job_class = c;
        row.jobs = values.size();
        row.shed = c < report.shed_by_class.size()
            ? report.shed_by_class[c]
            : 0;
        const LatencyPercentiles tail = latencyPercentiles(values);
        row.p50_latency_s = tail.p50;
        row.p95_latency_s = tail.p95;
        row.p99_latency_s = tail.p99;
        report.classes.push_back(row);
    }

    // Per-machine scoreboard: one row per cluster machine (idle
    // machines included, with zero counts), tagged with the catalog
    // class heterogeneous-fleet reports group by.
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        MachineStats row;
        row.machine = i;
        row.machine_class = cluster.classOf(i);
        row.jobs = machine_latencies[i].size();
        row.shed = i < report.shed_by_machine.size()
            ? report.shed_by_machine[i]
            : 0;
        const LatencyPercentiles tail =
            latencyPercentiles(machine_latencies[i]);
        row.p50_latency_s = tail.p50;
        row.p95_latency_s = tail.p95;
        row.p99_latency_s = tail.p99;
        report.machines.push_back(row);
    }
}

} // namespace powerdial::fleet::detail

#endif // POWERDIAL_FLEET_TENANT_H
