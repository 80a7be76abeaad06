#include "obs/trace_sink.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace powerdial::obs {

std::optional<unsigned>
parseCategories(const std::string &text)
{
    unsigned mask = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string name = text.substr(start, end - start);
        if (name == "lifecycle")
            mask |= kCatLifecycle;
        else if (name == "control")
            mask |= kCatControl;
        else if (name == "beat")
            mask |= kCatBeat;
        else if (name == "admission")
            mask |= kCatAdmission;
        else if (name == "placement")
            mask |= kCatPlacement;
        else if (name == "arbitration")
            mask |= kCatArbitration;
        else if (name == "fleet")
            mask |= kCatAdmission | kCatPlacement | kCatArbitration;
        else if (name == "all")
            mask |= kCatAll;
        else if (name != "none")
            return std::nullopt;
        start = end + 1;
    }
    return mask;
}

TraceSink::TraceSink(TraceConfig config) : config_(config)
{
    beginServe(1);
}

void
TraceSink::beginServe(std::size_t workers)
{
    shards_.assign((workers == 0 ? 1 : workers) + 1, Shard{});
    fleet_seq_ = 0;
    dropped_ = 0;
}

void
TraceSink::push(Shard &shard, const TraceRecord &record)
{
    const std::size_t cap = config_.ring_capacity;
    if (cap != 0 && shard.records.size() >= cap) {
        shard.records[shard.next] = record;
        shard.next = (shard.next + 1) % cap;
        ++dropped_;
        return;
    }
    shard.records.push_back(record);
}

void
TraceSink::emit(std::size_t worker, const TraceRecord &record)
{
    if (worker + 1 >= shards_.size())
        throw std::out_of_range("TraceSink: bad worker index");
    push(shards_[worker], record);
}

void
TraceSink::emitFleet(TraceRecord record)
{
    record.stream = 0;
    record.seq = fleet_seq_++;
    push(shards_.back(), record);
}

std::size_t
TraceSink::recorded() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.records.size();
    return total;
}

std::vector<TraceRecord>
TraceSink::drain()
{
    // Sort compact keys, not ~300-byte records, then gather each
    // record once. (time_s, stream, seq) is unique per record, so the
    // order is the same total order as sorting the records themselves.
    struct Key
    {
        double time_s;
        std::size_t stream;
        std::size_t seq;
        const TraceRecord *record;
    };
    std::vector<Key> keys;
    keys.reserve(recorded());
    for (const Shard &shard : shards_)
        for (const TraceRecord &r : shard.records)
            keys.push_back({r.time_s, r.stream, r.seq, &r});
    std::sort(keys.begin(), keys.end(), [](const Key &a, const Key &b) {
        return std::tie(a.time_s, a.stream, a.seq) <
            std::tie(b.time_s, b.stream, b.seq);
    });
    std::vector<TraceRecord> merged;
    merged.reserve(keys.size());
    for (const Key &key : keys)
        merged.push_back(*key.record);
    for (Shard &shard : shards_) {
        shard.records.clear();
        shard.next = 0;
    }
    return merged;
}

TraceRecord
TraceProbe::base(TraceKind kind, Severity severity, double local_time_s)
{
    TraceRecord record;
    record.time_s = identity_.offset_s + local_time_s;
    record.kind = kind;
    record.severity = severity;
    record.stream = identity_.job + 1;
    record.seq = seq_++;
    record.job = identity_.job;
    record.tenant = identity_.tenant;
    record.machine = identity_.machine;
    record.job_class = identity_.job_class;
    return record;
}

void
TraceProbe::onRunStart(const core::RunStartEvent &event)
{
    target_rate_ = event.target_rate;
    start_time_s_ = event.start_time_s;
    if (!sink_->wants(kCatLifecycle, Severity::Info))
        return;
    TraceRecord record =
        base(TraceKind::JobStart, Severity::Info, event.start_time_s);
    record.beats = event.units;
    sink_->emit(worker_, record);
}

void
TraceProbe::onQuantum(const core::QuantumEvent &event)
{
    if (!sink_->wants(kCatControl, Severity::Info))
        return;
    TraceRecord record =
        base(TraceKind::Control, Severity::Info, event.time_s);
    record.beat = event.beat;
    record.window_rate = event.window_rate;
    record.error = target_rate_ - event.window_rate;
    record.commanded = event.commanded_speedup;
    if (!event.plan.slices.empty()) {
        record.combination = event.plan.slices.front().combination;
        record.knob_gain = event.plan.slices.front().speedup;
    }
    sink_->emit(worker_, record);
}

void
TraceProbe::onBeat(const core::BeatEvent &event)
{
    if (!sink_->wants(kCatBeat, Severity::Debug))
        return;
    TraceRecord record =
        base(TraceKind::Beat, Severity::Debug, event.trace.time_s);
    record.beat = event.beat;
    record.window_rate = event.trace.window_rate;
    record.error = target_rate_ - event.trace.window_rate;
    record.commanded = event.trace.commanded_speedup;
    record.knob_gain = event.trace.knob_gain;
    record.combination = event.trace.combination;
    record.pstate = event.trace.pstate;
    sink_->emit(worker_, record);
}

void
TraceProbe::onRunEnd(const core::ControlledRun &run)
{
    if (!sink_->wants(kCatLifecycle, Severity::Info))
        return;
    TraceRecord record = base(TraceKind::JobEnd, Severity::Info,
                              start_time_s_ + run.seconds);
    record.latency_s = run.seconds;
    record.qos_loss = run.mean_qos_loss_estimate;
    record.service_s = run.service_s;
    record.queue_share_s = run.queue_share_s;
    record.class_deficit_s = run.class_deficit_s;
    record.pause_s = run.pause_s;
    record.beats = run.beat_count;
    sink_->emit(worker_, record);
}

} // namespace powerdial::obs
