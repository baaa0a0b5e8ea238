#include "harness.hh"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "sim/stats.hh"

namespace pb
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

SeedStream::SeedStream(std::uint64_t seed, std::uint64_t salt)
    : state(seed * 0x9e3779b97f4a7c15ull ^ salt)
{}

std::uint64_t
SeedStream::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
SeedStream::range(std::uint64_t lo, std::uint64_t hi)
{
    return lo + next() % (hi - lo + 1);
}

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; i++) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::size_t
SpanLog::open(const std::string &name)
{
    Span span;
    span.name = name;
    span.start = secondsSince(epoch);
    span.parent = stack.empty() ? -1 : static_cast<long>(stack.back());
    spans.push_back(span);
    stack.push_back(spans.size() - 1);
    return spans.size() - 1;
}

void
SpanLog::close(std::size_t id)
{
    spans[id].end = secondsSince(epoch);
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

void
SpanLog::add(const std::string &name, Clock::time_point start,
             Clock::time_point end)
{
    Span span;
    span.name = name;
    span.start = std::chrono::duration<double>(start - epoch).count();
    span.end = std::chrono::duration<double>(end - epoch).count();
    span.parent = stack.empty() ? -1 : static_cast<long>(stack.back());
    spans.push_back(span);
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans) {
        if (s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

void
SpanLog::writeJson(std::ostream &os) const
{
    std::vector<double> children(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    os << "[\n";
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        char line[320];
        std::snprintf(line, sizeof line,
                      "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                      "\"end\": %.9f, \"parent\": %ld, \"self\": %.9f}",
                      i, s.name.c_str(), s.start, s.end, s.parent,
                      s.end - s.start - children[i]);
        os << "  " << line << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

Span::Span(SpanLog &span_log, const std::string &name) : log(span_log)
{
    if (log.enabled())
        id = log.open(name);
}

Span::~Span()
{
    if (log.enabled())
        log.close(id);
}

void
Rep::check(bool ok, const std::string &what)
{
    attempted++;
    if (!ok) {
        failed++;
        failures.push_back(what);
    }
}

void
Rep::layerStats(const tfm::StatSet &set,
                const std::vector<std::string> &names)
{
    for (const std::string &name : names)
        layers[name] = static_cast<double>(set.get(name));
}

namespace
{

void
writeMap(std::ostream &os, const char *key,
         const std::map<std::string, double> &values)
{
    os << "\"" << key << "\": {";
    bool first = true;
    for (const auto &[name, value] : values) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", value);
        os << (first ? "" : ", ") << "\"" << name << "\": " << num;
        first = false;
    }
    os << "}";
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out;
}

} // anonymous namespace

void
Rep::emit(std::ostream &os, int index, bool traced) const
{
    std::ostringstream line;
    line << "REP {\"index\": " << index
         << ", \"traced\": " << (traced ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"inputs\": \"" << std::hex << inputDigest << std::dec
         << "\", ";
    writeMap(line, "host", host);
    line << ", ";
    writeMap(line, "sim", sim);
    line << ", ";
    writeMap(line, "layers", layers);
    line << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); i++)
        line << (i ? ", " : "") << "\"" << jsonEscape(failures[i]) << "\"";
    line << "]}\n";
    os << line.str();
    os.flush();
}

void
addDataPlaneLayers(Rep &rep, const tfm::StatSet &set)
{
    const auto get = [&set](const char *name) {
        return static_cast<double>(set.get(name));
    };
    const double fast = get("guard.fast_reads") + get("guard.fast_writes");
    const double cache =
        get("guard.cache_hit_reads") + get("guard.cache_hit_writes");
    const double slow_local =
        get("guard.slow_local_reads") + get("guard.slow_local_writes");
    const double slow_remote =
        get("guard.slow_remote_reads") + get("guard.slow_remote_writes");
    const double total = fast + cache + slow_local + slow_remote;
    rep.layers["guard.total"] = total;
    rep.layers["guard.fast"] = fast;
    rep.layers["guard.cache_hits"] = cache;
    rep.layers["guard.slow_local"] = slow_local;
    rep.layers["guard.slow_remote"] = slow_remote;
    rep.layers["guard.revalidations"] = get("guard.revalidations");
    rep.layers["guard.fast_ratio"] = total > 0 ? (fast + cache) / total : 0;

    rep.layerStats(set, {"runtime.demand_fetches", "runtime.evictions",
                         "runtime.dirty_writebacks",
                         "runtime.writeback_flushes",
                         "runtime.writeback_buffer_hits",
                         "runtime.prefetch_issued", "runtime.prefetch_hits",
                         "paged.major_faults", "paged.minor_faults",
                         "paged.reclaims", "paged.readaheads",
                         "net.fetch_messages", "net.fetch_payloads",
                         "net.writeback_messages", "net.bytes_fetched",
                         "net.bytes_written_back"});
    const double issued = get("runtime.prefetch_issued");
    rep.layers["runtime.prefetch_accuracy"] =
        issued > 0 ? get("runtime.prefetch_hits") / issued : 0;
    const double messages =
        get("net.fetch_messages") + get("net.writeback_messages");
    const double payloads =
        get("net.fetch_payloads") + get("net.writeback_payloads");
    rep.layers["net.payloads_per_message"] =
        messages > 0 ? payloads / messages : 0;
}

} // namespace pb
