#include "fault/fault_plan.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>

#include "common/gpu_mask.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace gps
{

namespace
{

/** Split @p text on @p sep into non-empty-preserving tokens. */
std::vector<std::string>
split(const std::string& text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

bool
allDigits(const std::string& text)
{
    if (text.empty())
        return false;
    return std::all_of(text.begin(), text.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
    });
}

/** "2ms" / "500us" / "1.5s" / bare ticks. Fatal on anything else. */
Tick
parseTime(const std::string& text, const std::string& spec)
{
    std::size_t i = 0;
    while (i < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i])) != 0 ||
            text[i] == '.'))
        ++i;
    if (i == 0)
        gps_fatal("fault spec '", spec, "': bad time '", text,
                  "' (expected e.g. 2ms, 500us, 3s or raw ticks)");
    double value = 0.0;
    try {
        value = std::stod(text.substr(0, i));
    } catch (const std::exception&) {
        gps_fatal("fault spec '", spec, "': bad time '", text, "'");
    }
    const std::string unit = text.substr(i);
    if (unit.empty())
        return static_cast<Tick>(value);
    if (unit == "ns")
        return nsToTicks(value);
    if (unit == "us")
        return usToTicks(value);
    if (unit == "ms")
        return secondsToTicks(value * 1e-3);
    if (unit == "s")
        return secondsToTicks(value);
    gps_fatal("fault spec '", spec, "': unknown time unit '", unit,
              "' (expected ns, us, ms or s)");
    return 0;
}

/** "gpu3" / "3" / "*" (wildcard, when @p allow_wildcard). */
GpuId
parseGpu(std::string token, const std::string& spec, bool allow_wildcard)
{
    if (token == "*") {
        if (!allow_wildcard)
            gps_fatal("fault spec '", spec,
                      "': wildcard '*' not allowed here");
        return invalidGpu;
    }
    if (token.rfind("gpu", 0) == 0)
        token = token.substr(3);
    if (!allDigits(token))
        gps_fatal("fault spec '", spec, "': bad GPU id '", token, "'");
    const unsigned long id = std::stoul(token);
    if (id >= maxGpus)
        gps_fatal("fault spec '", spec, "': GPU id ", id,
                  " out of range (max ", maxGpus - 1, ")");
    return static_cast<GpuId>(id);
}

double
parseFactor(const std::string& token, const std::string& spec)
{
    double value = 0.0;
    std::size_t consumed = 0;
    try {
        value = std::stod(token, &consumed);
    } catch (const std::exception&) {
        consumed = 0;
    }
    if (consumed != token.size() || value <= 0.0 || value > 1.0)
        gps_fatal("fault spec '", spec, "': degrade factor '", token,
                  "' must be a number in (0, 1]");
    return value;
}

} // namespace

const char*
to_string(FaultKind kind)
{
    switch (kind) {
    case FaultKind::LinkDown: return "link:down";
    case FaultKind::LinkDegrade: return "link:degrade";
    case FaultKind::LinkRestore: return "link:restore";
    case FaultKind::PageRetire: return "page:retire";
    case FaultKind::WqSaturate: return "wq:saturate";
    case FaultKind::WqRestore: return "wq:restore";
    }
    return "?";
}

std::string
FaultEvent::describe() const
{
    std::string text = std::string(to_string(kind)) + "@" +
                       std::to_string(time) + ":";
    const auto gpu_name = [](GpuId id) {
        return id == invalidGpu ? std::string("*")
                                : "gpu" + std::to_string(id);
    };
    switch (kind) {
    case FaultKind::LinkDown:
    case FaultKind::LinkRestore:
        text += gpu_name(a) + "-" + gpu_name(b);
        break;
    case FaultKind::LinkDegrade: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", factor);
        text += gpu_name(a) + "-" + gpu_name(b) + ":" + buf;
        break;
    }
    case FaultKind::PageRetire:
        text += gpu_name(a) + ":" + std::to_string(count);
        break;
    case FaultKind::WqSaturate:
    case FaultKind::WqRestore:
        text += gpu_name(a);
        break;
    }
    return text;
}

FaultEvent
FaultPlan::parseSpec(const std::string& spec)
{
    const std::size_t at = spec.find('@');
    if (at == std::string::npos)
        gps_fatal("fault spec '", spec,
                  "': missing '@' (grammar: kind@time:target...)");

    const std::string head = spec.substr(0, at);
    const std::vector<std::string> tail = split(spec.substr(at + 1), ':');
    if (tail.empty() || tail[0].empty())
        gps_fatal("fault spec '", spec, "': missing time");

    FaultEvent ev;
    ev.time = parseTime(tail[0], spec);

    const auto expect_args = [&](std::size_t lo, std::size_t hi) {
        const std::size_t args = tail.size() - 1;
        if (args < lo || args > hi)
            gps_fatal("fault spec '", spec, "': expected ", lo,
                      lo == hi ? "" : "-" + std::to_string(hi),
                      " target field(s), got ", args);
    };

    if (head == "link:down" || head == "link:restore" ||
        head == "link:degrade") {
        ev.kind = head == "link:down"      ? FaultKind::LinkDown
                  : head == "link:restore" ? FaultKind::LinkRestore
                                           : FaultKind::LinkDegrade;
        const bool degrade = ev.kind == FaultKind::LinkDegrade;
        expect_args(degrade ? 2 : 1, degrade ? 2 : 1);
        const std::vector<std::string> ends = split(tail[1], '-');
        if (ends.size() != 2)
            gps_fatal("fault spec '", spec, "': link target '", tail[1],
                      "' must be '<gpuA>-<gpuB>'");
        ev.a = parseGpu(ends[0], spec, /*allow_wildcard=*/false);
        ev.b = parseGpu(ends[1], spec, /*allow_wildcard=*/true);
        if (ev.a == ev.b)
            gps_fatal("fault spec '", spec,
                      "': link endpoints must differ");
        if (degrade)
            ev.factor = parseFactor(tail[2], spec);
    } else if (head == "page:retire") {
        ev.kind = FaultKind::PageRetire;
        expect_args(1, 2);
        ev.a = parseGpu(tail[1], spec, /*allow_wildcard=*/false);
        if (tail.size() == 3) {
            if (!allDigits(tail[2]))
                gps_fatal("fault spec '", spec, "': bad page count '",
                          tail[2], "'");
            ev.count = std::stoull(tail[2]);
            if (ev.count == 0)
                gps_fatal("fault spec '", spec,
                          "': page count must be positive");
        }
    } else if (head == "wq:saturate" || head == "wq:restore") {
        ev.kind = head == "wq:saturate" ? FaultKind::WqSaturate
                                        : FaultKind::WqRestore;
        expect_args(1, 1);
        ev.a = parseGpu(tail[1], spec, /*allow_wildcard=*/true);
    } else {
        gps_fatal("fault spec '", spec, "': unknown fault kind '", head,
                  "' (expected link:down, link:degrade, link:restore, ",
                  "page:retire, wq:saturate or wq:restore)");
    }
    return ev;
}

void
FaultPlan::addSpec(const std::string& spec)
{
    events.push_back(parseSpec(spec));
}

void
FaultPlan::sort()
{
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent& lhs, const FaultEvent& rhs) {
                         return lhs.time < rhs.time;
                     });
}

// ---------------------------------------------------------------------
// Minimal JSON reader for plan files. The schema is tiny (an object with
// "seed", "pcie_fallback" and an "events" array of spec strings), so a
// purpose-built recursive-descent reader avoids any external dependency.
// ---------------------------------------------------------------------

namespace
{

struct JsonReader {
    const std::string& text;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const std::string& what) const
    {
        gps_fatal("fault plan JSON: ", what, " at offset ", pos);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])) != 0)
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', found '" +
                 text[pos] + "'");
        ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos >= text.size())
                    fail("unterminated escape");
                const char esc = text[pos++];
                switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                default: fail("unsupported escape sequence");
                }
            } else {
                out += c;
            }
        }
    }

    double
    parseNumber()
    {
        skipWs();
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '-' || text[pos] == '+'))
            ++pos;
        if (pos == start)
            fail("expected a number");
        try {
            return std::stod(text.substr(start, pos - start));
        } catch (const std::exception&) {
            fail("bad number '" + text.substr(start, pos - start) + "'");
        }
    }

    bool
    parseBool()
    {
        skipWs();
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            return false;
        }
        fail("expected true or false");
    }

    /** Skip any value (for unknown keys). */
    void
    skipValue()
    {
        const char c = peek();
        if (c == '"') {
            parseString();
        } else if (c == '{') {
            ++pos;
            if (consume('}'))
                return;
            while (true) {
                parseString();
                expect(':');
                skipValue();
                if (!consume(','))
                    break;
            }
            expect('}');
        } else if (c == '[') {
            ++pos;
            if (consume(']'))
                return;
            while (true) {
                skipValue();
                if (!consume(','))
                    break;
            }
            expect(']');
        } else if (text.compare(pos, 4, "null") == 0) {
            pos += 4;
        } else if (c == 't' || c == 'f') {
            parseBool();
        } else {
            parseNumber();
        }
    }
};

} // namespace

FaultPlan
FaultPlan::fromJsonText(const std::string& text)
{
    FaultPlan plan;
    JsonReader reader{text};
    reader.expect('{');
    if (!reader.consume('}')) {
        while (true) {
            const std::string key = reader.parseString();
            reader.expect(':');
            if (key == "seed") {
                const double seed = reader.parseNumber();
                if (seed < 0)
                    reader.fail("seed must be non-negative");
                plan.seed = static_cast<std::uint64_t>(seed);
            } else if (key == "pcie_fallback") {
                plan.pcieFallback = reader.parseBool();
            } else if (key == "events") {
                reader.expect('[');
                if (!reader.consume(']')) {
                    while (true) {
                        plan.addSpec(reader.parseString());
                        if (!reader.consume(','))
                            break;
                    }
                    reader.expect(']');
                }
            } else {
                reader.skipValue();
            }
            if (!reader.consume(','))
                break;
        }
        reader.expect('}');
    }
    reader.skipWs();
    if (reader.pos != text.size())
        reader.fail("trailing content after plan object");
    plan.sort();
    return plan;
}

FaultPlan
FaultPlan::fromJsonFile(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        gps_fatal("cannot open fault plan file '", path, "'");
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    std::fclose(file);
    return fromJsonText(text);
}

} // namespace gps
