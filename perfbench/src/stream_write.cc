/**
 * @file
 * stream-write: STREAM copy then triad over 8-byte elements, local
 * memory at 1/4 of the working set, 4 KB objects, prefetching and
 * cost-model chunking, first on the TrackFM backend and then on the
 * Fastswap backend with the same inputs.
 *
 * The seed picks the element count (within 1% of kBaseElements) and the
 * triad scale. StreamWorkload fixes the array contents to its
 * documented pattern a[i] = i % 1000 - 500, which the checks below
 * recompute on the host.
 */

#include <memory>
#include <string>

#include "serving.hh"
#include "sim/cost_params.hh"
#include "sim/stats.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace pb
{

namespace
{

constexpr std::uint64_t kSaltStream = 0x57e4;
constexpr std::uint64_t kBaseElements = 1ull << 19;
constexpr std::uint32_t kElemBytes = 8;

std::int64_t
valueAt(std::uint64_t i)
{
    return static_cast<std::int64_t>(i % 1000) - 500;
}

std::unique_ptr<MemBackend>
streamBackend(SystemKind kind, std::uint64_t elements)
{
    const std::uint64_t working_set = 3 * elements * kElemBytes;
    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 2 * working_set + (8ull << 20);
    cfg.localMemBytes = working_set / 4;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    return makeBackend(cfg, CostParams{});
}

/** Subtract @p before from @p after, name by name. */
StatSet
statDelta(const StatSet &after, const StatSet &before)
{
    StatSet out;
    for (const auto &[name, value] : after.all())
        out.add(name, value - before.get(name));
    return out;
}

struct Side
{
    std::unique_ptr<MemBackend> backend;
    std::unique_ptr<StreamWorkload> stream;
    std::uint64_t cycles = 0;
    std::uint64_t bytes = 0;
    StatSet stats;
};

} // anonymous namespace

Rep
runStreamWrite(const Options &opt, SpanLog &spans)
{
    Rep rep;
    SeedStream rng(opt.seed, kSaltStream);
    const std::uint64_t n = kBaseElements + rng.range(0, kBaseElements / 100);
    const auto scale = static_cast<std::int64_t>(rng.range(2, 9));
    const std::uint64_t inputs[2] = {n, static_cast<std::uint64_t>(scale)};
    rep.inputDigest = fnv1a(inputs, sizeof inputs);

    double setup_s = 0.0;
    double host_s = 0.0;
    double build_s = 0.0;
    Side sides[2];
    const SystemKind kinds[2] = {SystemKind::TrackFm, SystemKind::Fastswap};
    {
        Stopwatch watch(setup_s);
        Span span(spans, "workloads.build");
        Stopwatch build(build_s);
        for (int s = 0; s < 2; s++) {
            sides[s].backend = streamBackend(kinds[s], n);
            sides[s].stream = std::make_unique<StreamWorkload>(
                *sides[s].backend, n, 3, kElemBytes);
        }
    }

    const std::int64_t bias = opt.corruptExpected ? 1 : 0;
    for (int s = 0; s < 2; s++) {
        Side &side = sides[s];
        const std::string who = systemName(kinds[s]);
        const StatSet before = side.backend->stats();
        StreamResult copy;
        StreamResult triad;
        {
            Stopwatch watch(host_s);
            {
                Span span(spans, "workloads.kernel.copy");
                copy = side.stream->runCopy();
            }
            {
                Span span(spans, "workloads.kernel.triad");
                triad = side.stream->runTriad(1, scale);
            }
        }
        side.cycles = copy.delta.cycles + triad.delta.cycles;
        side.bytes = copy.delta.bytesTransferred +
                     triad.delta.bytesTransferred;
        if (spans.enabled())
            side.stats = statDelta(side.backend->stats(), before);

        // Host recomputation: copy's checksum is the last element
        // copied, triad's the last a[i] + scale * b[i] with b == a.
        const std::int64_t last = valueAt(n - 1);
        rep.check(copy.checksum == last + bias,
                  who + " copy checksum " + std::to_string(copy.checksum));
        rep.check(triad.checksum == last * (1 + scale) + bias,
                  who + " triad checksum " +
                      std::to_string(triad.checksum));
        rep.check(side.stream->verifyCopy(), who + " copy mismatch");
        std::int64_t sum = 0;
        for (std::uint64_t i = 0; i < n; i++)
            sum += valueAt(i);
        rep.check(side.stream->expectedSum() == sum + bias,
                  who + " expectedSum disagrees with the host sum");
        const StreamResult reread = side.stream->runSum();
        rep.check(reread.checksum == sum + bias,
                  who + " source array changed under copy/triad");
    }

    rep.sim["sim_cycles"] = static_cast<double>(sides[0].cycles);
    rep.sim["bytes_moved"] = static_cast<double>(sides[0].bytes);
    rep.sim["speedup_vs_fastswap"] = static_cast<double>(sides[1].cycles) /
                                     static_cast<double>(sides[0].cycles);
    if (spans.enabled()) {
        addDataPlaneLayers(rep, sides[0].stats);
        rep.layerStats(sides[1].stats,
                       {"fastswap.major_faults", "fastswap.pageouts",
                        "fastswap.reclaims", "fastswap.readaheads"});
        rep.layers["workloads.build_s"] = build_s;
        rep.layers["workloads.kernel_s.copy"] =
            spans.total("workloads.kernel.copy");
        rep.layers["workloads.kernel_s.triad"] =
            spans.total("workloads.kernel.triad");
    }
    for (Side &side : sides) {
        side.stream.reset();
        side.backend.reset();
    }

    // The sojourn metrics come from a small serving run of memcached
    // gets on 4 KB objects (each get copies a value sequentially out of
    // a large object); its host time stays out of this workload's
    // setup_s and host_s.
    double probe_setup_s = 0.0;
    double probe_host_s = 0.0;
    measureServing(streamWriteProbeSpec(), opt, rep, spans, probe_setup_s,
                   probe_host_s);

    rep.host["setup_s"] = setup_s;
    rep.host["host_s"] = host_s;
    rep.host["compile_s"] = compileKernelModule(opt, rep);
    return rep;
}

} // namespace pb
