#include "serve/protocol.hh"

#include <chrono>
#include <cmath>
#include <limits>
#include <map>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

InterconnectKind
interconnectFromName(const std::string& name)
{
    static const std::map<std::string, InterconnectKind> kinds = {
        {"pcie3", InterconnectKind::Pcie3},
        {"pcie4", InterconnectKind::Pcie4},
        {"pcie5", InterconnectKind::Pcie5},
        {"pcie6", InterconnectKind::Pcie6},
        {"nvlink2", InterconnectKind::NvLink2},
        {"nvlink3", InterconnectKind::NvLink3},
        {"infinite", InterconnectKind::Infinite},
        {"ib-hdr", InterconnectKind::IbHdr},
        {"ib-ndr", InterconnectKind::IbNdr},
        {"pcie-fabric", InterconnectKind::PcieFabric},
    };
    auto it = kinds.find(name);
    if (it == kinds.end())
        gps_fatal("unknown interconnect '", name, "'");
    return it->second;
}

ParadigmKind
paradigmFromName(const std::string& name)
{
    for (const ParadigmKind kind : allParadigms()) {
        if (name == to_string(kind))
            return kind;
    }
    if (name == "Infinite")
        return ParadigmKind::InfiniteBw;
    gps_fatal("unknown paradigm '", name, "'");
}

namespace
{

/**
 * Read the optional integer member @p key of @p obj into @p out; absent
 * keeps @p out. Present, it must be a finite, integral JSON number in
 * [0, max]: a bare cast of anything else is undefined or silently
 * wrong. On failure sets @p error naming the key.
 */
template <typename T>
bool
readUnsigned(const JsonValue& obj, const char* key, T& out,
             std::string& error, T max = std::numeric_limits<T>::max())
{
    const JsonValue* v = obj.find(key);
    if (v == nullptr)
        return true;
    // 2^64 is the first double past every std::uint64_t, so the range
    // is settled before the cast.
    const double d = v->isNumber() ? v->asNumber() : -1.0;
    if (!(d >= 0.0 && d < 0x1p64 && d == std::floor(d)) ||
        static_cast<std::uint64_t>(d) > max) {
        error = std::string("\"") + key + "\" must be an integer in [0, " +
                std::to_string(max) + "]";
        return false;
    }
    out = static_cast<T>(d);
    return true;
}

/** Parse one job spec object into a ServeJob (id/index set later). */
bool
parseJobSpec(const JsonValue& spec, ServeJob& job, std::string& error)
{
    if (!spec.isObject()) {
        error = "job spec must be an object";
        return false;
    }
    // A known key of the wrong JSON type is an error, never a silent
    // fallback to its default. Integer keys are readUnsigned()'s.
    struct Typed
    {
        const char* key;
        bool (JsonValue::*is)() const;
        const char* type;
    };
    static const Typed typed[] = {
        {"app", &JsonValue::isString, "a string"},
        {"paradigm", &JsonValue::isString, "a string"},
        {"interconnect", &JsonValue::isString, "a string"},
        {"scale", &JsonValue::isNumber, "a number"},
        {"auto_unsubscribe", &JsonValue::isBool, "a boolean"},
        {"check", &JsonValue::isBool, "a boolean"},
        {"timeline", &JsonValue::isBool, "a boolean"},
        {"no_cache", &JsonValue::isBool, "a boolean"},
    };
    for (const Typed& t : typed) {
        const JsonValue* v = spec.find(t.key);
        if (v != nullptr && !(v->*t.is)()) {
            error = std::string("job spec \"") + t.key + "\" must be " +
                    t.type;
            return false;
        }
    }
    job.workload = spec.string("app");
    if (job.workload.empty()) {
        error = "job spec is missing \"app\"";
        return false;
    }
    // Absent keys keep RunConfig's defaults.
    RunConfig& config = job.config;
    std::uint64_t page_kb = config.system.pageBytes / KiB;
    if (!readUnsigned(spec, "gpus", config.system.numGpus, error) ||
        !readUnsigned(spec, "page_kb", page_kb, error,
                      std::numeric_limits<std::uint64_t>::max() / KiB) ||
        !readUnsigned(spec, "wq_entries", config.system.gps.wqEntries,
                      error) ||
        !readUnsigned(spec, "steady_iterations", config.steadyIterations,
                      error) ||
        !readUnsigned(spec, "deadline_ms", job.deadlineMs, error,
                      maxDeadlineMs))
        return false;
    config.system.pageBytes = page_kb * KiB;
    try {
        config.paradigm = paradigmFromName(spec.string("paradigm", "GPS"));
        config.system.interconnect =
            interconnectFromName(spec.string("interconnect", "pcie3"));
    } catch (const FatalError& e) {
        error = e.what();
        return false;
    }
    config.scale = spec.number("scale", 1.0);
    if (const JsonValue* v = spec.find("auto_unsubscribe"))
        config.system.gps.autoUnsubscribe = v->asBool();
    if (const JsonValue* v = spec.find("check"))
        config.check.enabled = v->asBool();
    if (const JsonValue* v = spec.find("timeline"))
        config.obs.timeline = v->asBool();
    if (const JsonValue* v = spec.find("no_cache"))
        job.noCache = v->asBool();
    if (config.system.numGpus < 1) {
        error = "job spec has non-positive \"gpus\"";
        return false;
    }
    if (!validScale(config.scale)) {
        error = "job spec \"scale\" must be in (0, 2^32]";
        return false;
    }
    return true;
}

} // namespace

bool
parseServeRequest(const std::string& line, ServeRequest& out,
                  std::string& error)
{
    out = ServeRequest{};
    std::string parse_error;
    const std::unique_ptr<JsonValue> doc = parseJson(line, parse_error);
    if (doc == nullptr) {
        error = "malformed JSON: " + parse_error;
        return false;
    }
    if (!doc->isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    if (!readUnsigned(*doc, "id", out.id, error))
        return false;
    out.method = doc->string("method");
    if (out.method.empty()) {
        error = "request is missing \"method\"";
        return false;
    }

    const JsonValue* params = doc->find("params");
    if (out.method == "run") {
        if (params == nullptr) {
            error = "\"run\" needs params";
            return false;
        }
        ServeJob job;
        if (!parseJobSpec(*params, job, error))
            return false;
        job.id = out.id;
        job.index = 0;
        out.jobs.push_back(std::move(job));
    } else if (out.method == "batch") {
        const JsonValue* jobs =
            params != nullptr ? params->find("jobs") : nullptr;
        if (jobs == nullptr || !jobs->isArray() ||
            jobs->items().empty()) {
            error = "\"batch\" needs a non-empty params.jobs array";
            return false;
        }
        for (std::size_t i = 0; i < jobs->items().size(); ++i) {
            ServeJob job;
            if (!parseJobSpec(jobs->items()[i], job, error)) {
                error += " (job " + std::to_string(i) + ")";
                return false;
            }
            job.id = out.id;
            job.index = i;
            out.jobs.push_back(std::move(job));
        }
    } else if (out.method == "cancel") {
        const JsonValue* target =
            params != nullptr ? params->find("id") : nullptr;
        if (target == nullptr) {
            error = "\"cancel\" needs a numeric params.id";
            return false;
        }
        if (!readUnsigned(*params, "id", out.cancelId, error))
            return false;
    } else if (out.method != "stats" && out.method != "metrics" &&
               out.method != "ping" && out.method != "shutdown") {
        error = "unknown method '" + out.method + "'";
        return false;
    }
    return true;
}

std::string
responseToJson(const ServeResponse& response)
{
    JsonWriter w;
    w.beginObject();
    w.field("id", response.id);
    w.field("index", response.index);
    w.field("status", to_string(response.status));
    if (!response.errorType.empty() || !response.errorMessage.empty()) {
        w.key("error").beginObject();
        w.field("type", response.errorType);
        w.field("message", response.errorMessage);
        w.endObject();
    }
    if (response.retryAfterMs != 0)
        w.field("retry_after_ms", response.retryAfterMs);
    w.field("store_hit", response.storeHit);
    w.field("wait_ms", response.waitMs);
    w.field("run_ms", response.runMs);
    if (response.status == JobStatus::Ok) {
        // Spliced verbatim: a store hit is byte-identical to the fresh
        // run that published it, all the way through the envelope.
        w.key("result").rawValue(response.payload);
    }
    w.endObject();
    return w.str();
}

std::string
protocolErrorJson(std::uint64_t id, const std::string& type,
                  const std::string& message)
{
    JsonWriter w;
    w.beginObject();
    w.field("id", id);
    w.field("status", "error");
    w.key("error").beginObject();
    w.field("type", type);
    w.field("message", message);
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
statsToJson(std::uint64_t id, const ServiceStats& stats)
{
    JsonWriter w;
    w.beginObject();
    w.field("id", id);
    w.field("status", "ok");
    w.key("stats").beginObject();
    w.field("submitted", stats.submitted);
    w.field("completed", stats.completed);
    w.field("failed", stats.failed);
    w.field("cancelled", stats.cancelled);
    w.field("deadline_expired", stats.expired);
    w.field("rejected", stats.rejected);
    w.field("store_hits", stats.storeHits);
    w.field("timeline_dropped", stats.timelineDropped);
    w.field("queued", static_cast<std::uint64_t>(stats.queued));
    w.field("running", static_cast<std::uint64_t>(stats.running));
    w.field("draining", stats.draining);
    w.key("store").beginObject();
    w.field("lookups", stats.store.lookups);
    w.field("hits", stats.store.hits);
    w.field("publishes", stats.store.publishes);
    w.field("quarantined", stats.store.quarantined);
    w.field("temps_swept", stats.store.tempsSwept);
    w.endObject();
    w.key("verbs").beginObject();
    for (const auto& [verb, hist] : stats.verbLatency) {
        w.key(verb).beginObject();
        w.field("count", hist.count());
        w.field("mean_us", hist.mean());
        w.field("p50_us", hist.percentile(0.5));
        w.field("p99_us", hist.percentile(0.99));
        w.field("max_us", hist.max());
        w.endObject();
    }
    w.endObject();
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
serveMetricsJson(std::uint64_t id, const SweepService& service)
{
    MetricRegistry reg;
    service.registerMetrics(reg);
    JsonWriter w;
    w.beginObject();
    w.field("id", id);
    w.field("status", "ok");
    w.key("metrics").beginArray();
    for (const MetricValue& m : reg.snapshot()) {
        w.beginObject();
        w.field("name", m.name);
        w.field("kind", to_string(m.kind));
        w.field("unit", m.unit);
        w.field("value", m.value);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

LineProtocol::Action
LineProtocol::handleLine(const std::string& clientId,
                         const std::string& line, Write write)
{
    const auto started = std::chrono::steady_clock::now();
    std::string verb;
    const Action action = dispatch(clientId, line, write, verb);
    if (!verb.empty()) {
        const auto micros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started)
                .count();
        service_.recordVerbLatency(
            verb, static_cast<std::uint64_t>(micros));
    }
    return action;
}

LineProtocol::Action
LineProtocol::dispatch(const std::string& clientId,
                       const std::string& line, Write& write,
                       std::string& verb)
{
    // Tolerate blank lines and CR line endings from naive clients.
    std::string trimmed = line;
    while (!trimmed.empty() &&
           (trimmed.back() == '\r' || trimmed.back() == ' '))
        trimmed.pop_back();
    if (trimmed.empty())
        return Action::None;

    ServeRequest request;
    std::string error;
    if (!parseServeRequest(trimmed, request, error)) {
        write(protocolErrorJson(request.id, "BadRequest", error));
        return Action::None;
    }
    verb = request.method;

    if (request.method == "ping") {
        JsonWriter w;
        w.beginObject();
        w.field("id", request.id);
        w.field("status", "ok");
        w.endObject();
        write(w.str());
        return Action::None;
    }
    if (request.method == "stats") {
        write(statsToJson(request.id, service_.stats()));
        return Action::None;
    }
    if (request.method == "metrics") {
        write(serveMetricsJson(request.id, service_));
        return Action::None;
    }
    if (request.method == "cancel") {
        const std::size_t reached =
            service_.cancel(clientId, request.cancelId);
        JsonWriter w;
        w.beginObject();
        w.field("id", request.id);
        w.field("status", "ok");
        w.field("cancelled", static_cast<std::uint64_t>(reached));
        w.endObject();
        write(w.str());
        return Action::None;
    }
    if (request.method == "shutdown") {
        JsonWriter w;
        w.beginObject();
        w.field("id", request.id);
        w.field("status", "ok");
        w.field("shutting_down", true);
        w.endObject();
        write(w.str());
        return Action::Shutdown;
    }

    // run / batch: one response per job through the shared writer.
    for (ServeJob& job : request.jobs) {
        job.clientId = clientId;
        service_.submit(std::move(job),
                        [write](const ServeResponse& response) {
                            write(responseToJson(response));
                        });
    }
    return Action::None;
}

} // namespace gps
