/**
 * @file
 * Deterministic fan-in of structured trace events.
 *
 * The TraceSink keeps one record vector per fan-out worker, each
 * written by exactly one worker (no locks), plus one extra shard for
 * the serial fleet plane (admission, placement, arbitration, leases —
 * all emitted from the engines' serial sections). drain() concatenates the shards and sorts by
 * (time_s, stream, seq) — a total order that never mentions the
 * worker, so the drained sequence (and therefore every exporter's
 * byte stream) is identical at any thread count.
 *
 * Cost discipline: every emission site asks wants(category, severity)
 * first — one mask-and-compare — so a category that is off costs one
 * branch per event and builds no record (bench_overhead pins the
 * ceiling). A non-zero ring_capacity turns each shard into a bounded
 * flight recorder that keeps only the newest records; ring mode is
 * for always-on crash forensics, NOT for byte-identical export
 * (which records survive depends on how many each worker saw).
 */
#ifndef POWERDIAL_OBS_TRACE_SINK_H
#define POWERDIAL_OBS_TRACE_SINK_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/run_observer.h"
#include "obs/trace_event.h"

namespace powerdial::obs {

/** Sink configuration: what is recorded, and into how much memory. */
struct TraceConfig
{
    unsigned categories = kCatAll;           //!< Category bitmask.
    Severity min_severity = Severity::Debug; //!< Records below: dropped.
    /** Per-shard flight-recorder bound; 0 = unbounded recording. */
    std::size_t ring_capacity = 0;
};

/**
 * Parse a comma-separated category list ("control,beat,lifecycle,
 * admission,placement,arbitration", plus the aliases "fleet" =
 * admission|placement|arbitration, "all", and "none"). Returns
 * std::nullopt on an unknown name.
 */
std::optional<unsigned> parseCategories(const std::string &text);

/** Lock-free, thread-count-deterministic trace event collector. */
class TraceSink
{
  public:
    explicit TraceSink(TraceConfig config = {});

    const TraceConfig &config() const { return config_; }

    /** The one-branch recording test every emission site runs. */
    bool
    wants(unsigned category, Severity severity) const
    {
        return (config_.categories & category) != 0 &&
            severity >= config_.min_severity;
    }

    /**
     * (Re)size to @p workers parallel shards plus the serial fleet
     * shard, clearing all state — the fleet engine calls this at the
     * top of a serve, so one sink attached to several serves in
     * sequence holds the last serve's trace.
     */
    void beginServe(std::size_t workers);

    /** Record @p record into worker @p worker's shard. */
    void emit(std::size_t worker, const TraceRecord &record);

    /**
     * Record a serial-plane (fleet) event: stream and seq are
     * assigned by the sink (stream 0, one monotone sequence). Only
     * the engines' serial sections may call this.
     */
    void emitFleet(TraceRecord record);

    /** Records currently held (across all shards). */
    std::size_t recorded() const;

    /** Records overwritten by ring-mode bounds since beginServe. */
    std::size_t dropped() const { return dropped_; }

    /**
     * Merge and clear all shards, returning the records sorted by
     * (time_s, stream, seq). Call from the coordinating thread only,
     * with no tenant slice in flight.
     */
    std::vector<TraceRecord> drain();

  private:
    struct Shard
    {
        std::vector<TraceRecord> records;
        std::size_t next = 0; //!< Ring overwrite cursor.
    };

    void push(Shard &shard, const TraceRecord &record);

    TraceConfig config_;
    std::vector<Shard> shards_; //!< Last shard = serial fleet plane.
    std::size_t fleet_seq_ = 0;
    std::size_t dropped_ = 0;
};

/**
 * The per-job observer adapter: one TraceProbe per tenant session
 * turns RunObserver callbacks into Control/Beat/Lifecycle records on
 * the job's own stream (job + 1), offset from machine-local to fleet
 * virtual time by the job's admission time. The engines call
 * beginSlice(worker) before every epoch slice so records land in the
 * shard of the worker actually running the slice.
 */
class TraceProbe final : public core::RunObserver
{
  public:
    /** The job identity every record of this stream carries. */
    struct Identity
    {
        std::size_t job = 0;
        std::size_t tenant = kNoIndex;
        std::size_t machine = kNoIndex;
        std::size_t job_class = kNoIndex;
        /** Fleet virtual time at admission: added to machine-local
         *  event times, which start at 0 on a fresh tenant machine. */
        double offset_s = 0.0;
    };

    TraceProbe(TraceSink &sink, const Identity &identity)
        : sink_(&sink), identity_(identity)
    {
    }

    /** Route subsequent records to @p worker's shard. */
    void beginSlice(std::size_t worker) { worker_ = worker; }

    void onRunStart(const core::RunStartEvent &event) override;
    void onQuantum(const core::QuantumEvent &event) override;
    void onBeat(const core::BeatEvent &event) override;
    void onRunEnd(const core::ControlledRun &run) override;

  private:
    TraceRecord base(TraceKind kind, Severity severity,
                     double local_time_s);

    TraceSink *sink_;
    Identity identity_;
    std::size_t worker_ = 0;
    std::size_t seq_ = 0;
    double target_rate_ = 0.0;
    double start_time_s_ = 0.0;
};

} // namespace powerdial::obs

#endif // POWERDIAL_OBS_TRACE_SINK_H
