#include "obs/trace_json.h"

#include <charconv>
#include <string>

#include "obs/format.h"

namespace powerdial::obs {
namespace {

constexpr const char *
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Debug:
        return "debug";
    case Severity::Info:
        return "info";
    case Severity::Warn:
        return "warn";
    }
    return "?";
}

/** Append the decimal digits of @p value to @p out. */
void
appendCount(std::string &out, std::size_t value)
{
    char buffer[24];
    out.append(buffer,
               std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

/** Tiny deterministic JSON object writer: appends straight into a
 *  caller-owned buffer, fields in call order, numbers through
 *  appendDouble, no whitespace. done() closes the object. */
class Obj
{
  public:
    explicit Obj(std::string &out) : out_(out) { out_ += '{'; }

    Obj &
    num(const char *key, double value)
    {
        appendDouble(this->key(key), value);
        return *this;
    }

    Obj &
    count(const char *key, std::size_t value)
    {
        appendCount(this->key(key), value);
        return *this;
    }

    /** A size_t identity field; kNoIndex means absent. */
    Obj &
    index(const char *key, std::size_t value)
    {
        if (value != kNoIndex)
            count(key, value);
        return *this;
    }

    /** A static, escape-free string (kind names, shed causes). */
    Obj &
    str(const char *key, const char *value)
    {
        this->key(key) += '"';
        out_ += value;
        out_ += '"';
        return *this;
    }

    /** An escape-free "<prefix> <n>" label ("job 3", "tenant 0"). */
    Obj &
    label(const char *key, const char *prefix, std::size_t n)
    {
        this->key(key) += '"';
        out_ += prefix;
        out_ += ' ';
        appendCount(out_, n);
        out_ += '"';
        return *this;
    }

    /** Open a nested object under @p key; done() it before this. */
    Obj
    object(const char *key)
    {
        this->key(key);
        return Obj(out_);
    }

    void done() { out_ += '}'; }

  private:
    std::string &
    key(const char *key)
    {
        out_ += first_ ? "\"" : ",\"";
        first_ = false;
        out_ += key;
        out_ += "\":";
        return out_;
    }

    std::string &out_;
    bool first_ = true;
};

/** The kind-specific payload fields, shared by both exporters. */
void
appendPayload(Obj &obj, const TraceRecord &r)
{
    switch (r.kind) {
    case TraceKind::JobStart:
        obj.count("beats", r.beats);
        break;
    case TraceKind::JobEnd:
        obj.num("latency_s", r.latency_s)
            .num("qos_loss", r.qos_loss)
            .num("service_s", r.service_s)
            .num("queue_share_s", r.queue_share_s)
            .num("class_deficit_s", r.class_deficit_s)
            .num("pause_s", r.pause_s)
            .count("beats", r.beats);
        break;
    case TraceKind::Control:
        obj.index("beat", r.beat)
            .num("window_rate", r.window_rate)
            .num("error", r.error)
            .num("commanded", r.commanded)
            .num("knob_gain", r.knob_gain)
            .index("combination", r.combination);
        break;
    case TraceKind::Beat:
        obj.index("beat", r.beat)
            .num("window_rate", r.window_rate)
            .num("error", r.error)
            .num("commanded", r.commanded)
            .num("knob_gain", r.knob_gain)
            .index("combination", r.combination)
            .index("pstate", r.pstate);
        break;
    case TraceKind::Admit:
        obj.num("predicted_s", r.predicted_s)
            .num("deadline_s", r.deadline_s)
            .num("margin", r.margin)
            .num("class_factor", r.class_factor);
        break;
    case TraceKind::Shed:
        obj.str("cause", r.cause != nullptr ? r.cause : "?")
            .num("predicted_s", r.predicted_s)
            .num("deadline_s", r.deadline_s)
            .num("margin", r.margin)
            .num("class_factor", r.class_factor);
        break;
    case TraceKind::Placement:
        obj.num("cost", r.cost);
        break;
    case TraceKind::Arbitration:
        obj.count("generation", r.generation)
            .num("budget_watts", r.budget_watts)
            .count("pstate_cap", r.pstate_cap)
            .num("pause_ratio", r.pause_ratio);
        break;
    case TraceKind::Lease:
        obj.count("generation", r.generation)
            .num("share", r.share)
            .count("pstate_cap", r.pstate_cap)
            .num("pause_ratio", r.pause_ratio);
        break;
    }
}

/** Whether a record renders on the fleet process (pid 1) rather than
 *  the tenants process (pid 2). */
bool
onFleetTrack(const TraceRecord &r)
{
    return (categoryOf(r.kind) &
            (kCatAdmission | kCatPlacement | kCatArbitration)) != 0;
}

void
appendChromeEvent(std::string &out, const TraceRecord &r)
{
    Obj obj(out);
    if (r.kind == TraceKind::JobStart || r.kind == TraceKind::JobEnd) {
        // One nestable async span per job: overlapping jobs of one
        // tenant render as overlapping slices on the tenant track.
        obj.label("name", "job", r.job)
            .str("ph", r.kind == TraceKind::JobStart ? "b" : "e")
            .str("cat", "job")
            .count("id", r.job)
            .count("pid", 2)
            .count("tid", r.tenant == kNoIndex ? 0 : r.tenant + 1)
            .num("ts", r.time_s * 1e6);
    } else {
        const bool fleet = onFleetTrack(r);
        obj.str("name", kindName(r.kind))
            .str("ph", "i")
            .str("s", "t")
            .count("pid", fleet ? 1 : 2)
            .count("tid",
                   fleet ? (r.machine == kNoIndex ? 0 : r.machine + 1)
                         : (r.tenant == kNoIndex ? 0 : r.tenant + 1))
            .num("ts", r.time_s * 1e6);
    }
    Obj args = obj.object("args");
    args.index("job", r.job)
        .index("offer", r.offer)
        .index("class", r.job_class);
    if (onFleetTrack(r))
        args.index("tenant", r.tenant).index("machine", r.machine);
    appendPayload(args, r);
    args.done();
    obj.done();
}

/** Metadata naming process @p pid "<prefix>" (track == kNoIndex) or
 *  its thread tid = track + 1 "<prefix> <track>". */
void
appendChromeMeta(std::string &out, std::size_t pid, std::size_t track,
                 const char *prefix)
{
    const bool process = track == kNoIndex;
    Obj obj(out);
    obj.str("name", process ? "process_name" : "thread_name")
        .str("ph", "M")
        .count("pid", pid);
    if (!process)
        obj.count("tid", track + 1);
    Obj args = obj.object("args");
    if (process)
        args.str("name", prefix);
    else
        args.label("name", prefix, track);
    args.done();
    obj.done();
}

/** Mark @p id (unless kNoIndex) in a flat seen-vector. */
void
markSeen(std::vector<bool> &seen, std::size_t id)
{
    if (id == kNoIndex)
        return;
    if (id >= seen.size())
        seen.resize(id + 1);
    seen[id] = true;
}

/** Writers append records into one reused buffer and hand it to the
 *  stream in chunks of about this size, so memory stays flat however
 *  long the trace is. */
constexpr std::size_t kChunkBytes = 64 * 1024;

/** Write @p buffer to @p os and clear it, once it holds at least
 *  @p min_bytes. */
void
flush(std::ostream &os, std::string &buffer, std::size_t min_bytes = 0)
{
    if (buffer.size() < min_bytes)
        return;
    os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceRecord> &records)
{
    // Deterministic track naming: the machine and tenant ids that
    // actually appear, in increasing order.
    std::vector<bool> machines;
    std::vector<bool> tenants;
    for (const TraceRecord &r : records) {
        markSeen(machines, r.machine);
        markSeen(tenants, r.tenant);
    }

    std::string buffer;
    buffer.reserve(2 * kChunkBytes);
    buffer += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    appendChromeMeta(buffer, 1, kNoIndex, "fleet");
    buffer += ",\n";
    appendChromeMeta(buffer, 2, kNoIndex, "tenants");
    const auto nameTracks = [&buffer](const std::vector<bool> &seen,
                                      std::size_t pid,
                                      const char *prefix) {
        for (std::size_t id = 0; id < seen.size(); ++id) {
            if (seen[id]) {
                buffer += ",\n";
                appendChromeMeta(buffer, pid, id, prefix);
            }
        }
    };
    nameTracks(machines, 1, "machine");
    nameTracks(tenants, 2, "tenant");
    for (const TraceRecord &record : records) {
        buffer += ",\n";
        appendChromeEvent(buffer, record);
        flush(os, buffer, kChunkBytes);
    }
    buffer += "\n]}\n";
    flush(os, buffer);
}

void
writeJsonl(std::ostream &os, const std::vector<TraceRecord> &records)
{
    std::string buffer;
    buffer.reserve(2 * kChunkBytes);
    for (const TraceRecord &r : records) {
        Obj obj(buffer);
        obj.num("t", r.time_s)
            .str("kind", kindName(r.kind))
            .str("sev", severityName(r.severity))
            .count("stream", r.stream)
            .count("seq", r.seq)
            .index("job", r.job)
            .index("offer", r.offer)
            .index("tenant", r.tenant)
            .index("machine", r.machine)
            .index("class", r.job_class);
        appendPayload(obj, r);
        obj.done();
        buffer += '\n';
        flush(os, buffer, kChunkBytes);
    }
    flush(os, buffer);
}

} // namespace powerdial::obs
