/**
 * @file
 * serve-zipf: open-loop three-tenant serving (memcached get / hashmap
 * probe / analytics point query, shares 2/1/1) on TrackFM with 64 B
 * objects, plus the serving measurement the other workloads reuse.
 *
 * A repetition has three parts:
 *  - calibration: unloaded mean service per tenant (meanServiceCycles);
 *  - a closed-loop data-plane replay: the same tenant stores built
 *    directly through makeBackend and the src/workloads constructors,
 *    once on TrackFM and once on Fastswap, answering one seed-derived
 *    Zipf key stream. The Scheduler does not expose its tenants'
 *    backends, so sim_cycles, bytes_moved, speedup_vs_fastswap and the
 *    hit checks come from this replay;
 *  - the open-loop Scheduler runs at the frozen lo and hi rates and
 *    the max_rate_in_slo grid search.
 */

#include <cstdio>
#include <map>
#include <memory>

#include "serving.hh"
#include "sim/cost_params.hh"
#include "sim/stats.hh"
#include "sim/zipf.hh"
#include "workloads/backend_config.hh"
#include "workloads/dataframe.hh"
#include "workloads/hashmap.hh"
#include "workloads/memcached.hh"

using namespace tfm;

namespace pb
{

namespace
{

/// Salts separating the generated inputs of one seed.
constexpr std::uint64_t kSaltServe = 0x5e7e;
constexpr std::uint64_t kSaltReplay = 0x7e91a;

/**
 * The rate grid: capacity x (0.50, 0.55, ..., 2.45) req/Mcycle. The
 * search bisects (hi, top] with hi known to pass and the point past the
 * top assumed to fail: exactly five more rate points, whatever the
 * seed, so the host work of a repetition does not depend on where the
 * limit is crossed.
 */
constexpr int gridLo = 0;              ///< lo = 50% of the frozen capacity
constexpr int gridHi = 8;              ///< hi = 90% of the frozen capacity
constexpr int gridPoints = gridHi + 32; ///< grid points gridLo .. top

/// Closed-loop replay requests per repetition, split by share.
constexpr std::uint64_t kReplayRequests = 24000;

/**
 * Frozen constants, from `perfbench --calibrate --seed 1` on the commit
 * that introduced the benchmark: capacity = workers / weighted mean
 * service. lo and hi are 50% and 90% of it; the p99 limit is 20x the
 * weighted mean service (the bench_serving SLO convention).
 */
constexpr double kZipfCapacity = 46.7556;
constexpr double kZipfLimit = 855512;
constexpr double kHashCapacity = 82.9055;
constexpr double kHashLimit = 482477;
constexpr double kKvCapacity = 56.4109;
constexpr double kKvLimit = 709082;

TenantConfig
tenant(TenantWorkloadKind kind, std::uint64_t keys, double share,
       std::uint64_t far_mib, std::uint64_t local_kib,
       std::uint32_t object_bytes)
{
    TenantConfig t;
    t.workload = kind;
    t.system = SystemKind::TrackFm;
    t.numKeys = keys;
    t.share = share;
    t.farHeapBytes = far_mib << 20;
    t.localMemBytes = local_kib << 10;
    t.objectSizeBytes = object_bytes;
    return t;
}

/** Weighted unloaded mean service of @p spec's mix, in cycles. */
double
weightedMeanService(const ServingSpec &spec, std::uint64_t seed)
{
    const CostParams costs;
    double share_sum = 0.0;
    for (const TenantConfig &t : spec.tenants)
        share_sum += t.share;
    double mean = 0.0;
    for (const TenantConfig &t : spec.tenants)
        mean += meanServiceCycles(t, costs, seed) * t.share / share_sum;
    return mean;
}

struct Point
{
    bool meets = false;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t queueDelayP99 = 0;
    std::uint64_t serviceP99 = 0;
    std::uint64_t maxDepth = 0;
    std::uint64_t beyondP999 = 0; ///< samples above the p99.9 rank
};

Point
runPoint(const ServingSpec &spec, double rate, const Options &opt,
         Rep &rep, SpanLog &spans, double &setup_s, double &host_s)
{
    const CostParams costs;
    ServeConfig sc;
    sc.tenants = spec.tenants;
    sc.arrivals.kind = ArrivalKind::Poisson;
    sc.arrivals.ratePerCycle = rate / 1e6;
    sc.workers = spec.workers;
    sc.totalRequests = spec.requests;
    sc.sloCycles = static_cast<std::uint64_t>(spec.p99LimitCycles);
    sc.seed = SeedStream(opt.seed, kSaltServe).next();

    Span point(spans, "serve.point");
    std::unique_ptr<Scheduler> sched;
    {
        Span span(spans, "serve.setup");
        Stopwatch watch(setup_s);
        sched = std::make_unique<Scheduler>(sc, costs);
    }
    ServeReport report;
    {
        Span span(spans, "serve.run");
        Stopwatch watch(host_s);
        report = sched->run();
    }
    sched.reset();

    // Every request completed, and per tenant nothing was left queued.
    const std::uint64_t expected =
        spec.requests + (opt.corruptExpected ? 1 : 0);
    char what[160];
    std::snprintf(what, sizeof what, "%s @ %.4f req/Mcycle: %llu of %llu "
                  "requests completed",
                  spec.label, rate,
                  static_cast<unsigned long long>(
                      report.aggregate.completions),
                  static_cast<unsigned long long>(expected));
    rep.check(report.aggregate.completions == expected, what);
    std::uint64_t tenant_sum = 0;
    for (const TenantReport &t : report.tenants) {
        rep.check(t.arrivals == t.completions,
                  std::string(spec.label) + ": tenant " + t.name +
                      " left requests unserved");
        tenant_sum += t.completions;
    }
    rep.check(tenant_sum == spec.requests,
              std::string(spec.label) + ": tenant completions do not sum "
                                        "to the request count");

    Point p;
    const TenantReport &agg = report.aggregate;
    p.p50 = agg.sojourn.percentile(50);
    p.p99 = agg.sojourn.percentile(99);
    p.p999 = agg.sojourn.percentile(99.9);
    p.queueDelayP99 = agg.queueDelay.percentile(99);
    p.serviceP99 = agg.serviceTime.percentile(99);
    p.maxDepth = agg.maxQueueDepth;
    const std::uint64_t count = agg.sojourn.count();
    p.beyondP999 = count - (count * 999 + 999) / 1000;
    // A growing backlog shows as a drain after the last arrival that
    // outlasts the limit itself.
    const std::uint64_t drain = report.endCycle > report.lastArrivalCycle
                                    ? report.endCycle -
                                          report.lastArrivalCycle
                                    : 0;
    p.meets = static_cast<double>(p.p99) <= spec.p99LimitCycles &&
              static_cast<double>(drain) <= spec.p99LimitCycles;
    return p;
}

/** Closed-loop replay tenants: one store on one backend. */
struct ReplayTenant
{
    std::unique_ptr<MemBackend> backend;
    std::unique_ptr<MemcachedWorkload> memcached;
    std::unique_ptr<HashmapWorkload> hashmap;
    std::unique_ptr<DataframeWorkload> dataframe;
};

ReplayTenant
buildReplayTenant(const TenantConfig &t, SystemKind kind,
                  std::uint64_t store_seed)
{
    ReplayTenant out;
    BackendConfig bc;
    bc.kind = kind;
    bc.farHeapBytes = t.farHeapBytes;
    bc.localMemBytes = t.localMemBytes;
    bc.objectSizeBytes = t.objectSizeBytes;
    out.backend = makeBackend(bc, CostParams{});
    switch (t.workload) {
      case TenantWorkloadKind::Memcached: {
        MemcachedParams p;
        p.numKeys = t.numKeys;
        p.numGets = 1;
        p.zipfSkew = t.zipfSkew;
        p.seed = store_seed;
        out.memcached =
            std::make_unique<MemcachedWorkload>(*out.backend, p);
        break;
      }
      case TenantWorkloadKind::Hashmap: {
        HashmapParams p;
        p.numKeys = t.numKeys;
        p.numOps = 1;
        p.zipfSkew = t.zipfSkew;
        p.seed = store_seed;
        out.hashmap = std::make_unique<HashmapWorkload>(*out.backend, p);
        break;
      }
      case TenantWorkloadKind::Analytics: {
        DataframeParams p;
        p.numRows = t.numKeys;
        p.seed = store_seed;
        out.dataframe =
            std::make_unique<DataframeWorkload>(*out.backend, p);
        break;
      }
    }
    out.backend->dropCaches();
    return out;
}

/**
 * Answer one request; returns a fingerprint of the response (value
 * bytes, probe hit, query result) so the two backends can be compared,
 * and sets @p hit for gets and probes.
 */
std::uint64_t
answer(ReplayTenant &t, std::uint64_t key, bool &hit)
{
    hit = true;
    if (t.memcached) {
        std::uint8_t value[512];
        const int len = t.memcached->get(key, value, sizeof value);
        hit = len >= 0;
        return hit ? fnv1a(value, static_cast<std::size_t>(len)) : 0;
    }
    if (t.hashmap) {
        hit = t.hashmap->lookup(static_cast<std::uint32_t>(key));
        return hit ? 1 : 0;
    }
    const std::int64_t v = t.dataframe->pointQuery(key);
    return static_cast<std::uint64_t>(v);
}

/** Host ns per ZipfGenerator::next over @p keys, timed directly. */
double
zipfNextNs(std::uint64_t keys, double skew, std::uint64_t seed)
{
    ZipfGenerator zipf(keys, skew, seed);
    constexpr int draws = 1 << 20;
    std::uint64_t sink = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < draws; i++)
        sink += zipf.next();
    const double ns = secondsSince(start) * 1e9 / draws;
    return sink == 0xffffffffffffffffull ? 0.0 : ns;
}

double
gridRate(const ServingSpec &spec, int index)
{
    return spec.capacityPerMcycle * (0.50 + 0.05 * index);
}

} // anonymous namespace

void
measureServing(const ServingSpec &spec, const Options &opt, Rep &rep,
               SpanLog &spans, double &setup_s, double &host_s)
{
    {
        Span span(spans, "serve.calibrate");
        Stopwatch watch(setup_s);
        const double mean = weightedMeanService(spec, opt.seed);
        rep.layers["serve.capacity_per_mcycle"] =
            1e6 * spec.workers / mean;
    }
    rep.layers["serve.calibrate_s"] = spans.total("serve.calibrate");

    std::map<int, Point> points;
    const auto at = [&](int k) -> const Point & {
        auto it = points.find(k);
        if (it == points.end())
            it = points
                     .emplace(k, runPoint(spec, gridRate(spec, k), opt, rep,
                                          spans, setup_s, host_s))
                     .first;
        return it->second;
    };
    const Point lo = at(gridLo);
    const Point hi = at(gridHi);

    // Highest passing grid point, bisecting between a known pass and a
    // known (or assumed) failure.
    int pass = -1;
    int fail = gridPoints;
    if (hi.meets)
        pass = gridHi;
    else if (lo.meets)
        pass = gridLo, fail = gridHi;
    else
        fail = gridLo;
    while (fail - pass > 1) {
        const int mid = (pass + fail) / 2;
        if (at(mid).meets)
            pass = mid;
        else
            fail = mid;
    }

    rep.sim["p50_sojourn_cycles.lo"] = static_cast<double>(lo.p50);
    rep.sim["p99_sojourn_cycles.lo"] = static_cast<double>(lo.p99);
    rep.sim["p50_sojourn_cycles.hi"] = static_cast<double>(hi.p50);
    rep.sim["p99_sojourn_cycles.hi"] = static_cast<double>(hi.p99);
    rep.sim["p999_sojourn_cycles.hi"] = static_cast<double>(hi.p999);
    rep.sim["max_rate_in_slo"] = pass >= 0 ? gridRate(spec, pass) : 0.0;

    rep.layers["serve.run_s"] = spans.total("serve.run");
    rep.layers["serve.queue_delay_p99_cycles"] =
        static_cast<double>(hi.queueDelayP99);
    rep.layers["serve.service_p99_cycles"] =
        static_cast<double>(hi.serviceP99);
    rep.layers["serve.max_queue_depth"] = static_cast<double>(hi.maxDepth);
    rep.layers["serve.samples_beyond_p999"] =
        static_cast<double>(hi.beyondP999);
}

ServingSpec
serveZipfSpec()
{
    ServingSpec spec;
    spec.label = "serve-zipf";
    spec.tenants = {
        tenant(TenantWorkloadKind::Memcached, 40000, 2.0, 32, 512, 64),
        tenant(TenantWorkloadKind::Hashmap, 64000, 1.0, 8, 256, 64),
        tenant(TenantWorkloadKind::Analytics, 96000, 1.0, 8, 256, 64),
    };
    spec.workers = 2;
    spec.requests = 400000;
    spec.capacityPerMcycle = kZipfCapacity;
    spec.p99LimitCycles = kZipfLimit;
    return spec;
}

ServingSpec
irHybridProbeSpec()
{
    ServingSpec spec;
    spec.label = "ir-hybrid probe";
    spec.tenants = {
        tenant(TenantWorkloadKind::Hashmap, 32000, 1.0, 8, 128, 64)};
    spec.workers = 2;
    spec.requests = 400000;
    spec.capacityPerMcycle = kHashCapacity;
    spec.p99LimitCycles = kHashLimit;
    return spec;
}

ServingSpec
streamWriteProbeSpec()
{
    ServingSpec spec;
    spec.label = "stream-write probe";
    spec.tenants = {
        tenant(TenantWorkloadKind::Memcached, 40000, 1.0, 32, 1024, 4096)};
    spec.workers = 2;
    spec.requests = 160000;
    spec.capacityPerMcycle = kKvCapacity;
    spec.p99LimitCycles = kKvLimit;
    return spec;
}

void
printCalibration(const ServingSpec &spec, std::uint64_t seed)
{
    const double mean = weightedMeanService(spec, seed);
    const double capacity = 1e6 * spec.workers / mean;
    std::printf("%s: weighted meanServiceCycles %.1f cycles; capacity "
                "%.4f req/Mcycle with %u workers\n",
                spec.label, mean, capacity, spec.workers);
    std::printf("  lo (50%%) %.4f  hi (90%%) %.4f req/Mcycle; p99 limit "
                "(20x mean service) %.0f cycles\n",
                0.5 * capacity, 0.9 * capacity, 20.0 * mean);
    std::printf("  grid on the frozen constants (capacity %.4f, limit "
                "%.0f):\n",
                spec.capacityPerMcycle, spec.p99LimitCycles);
    Options opt;
    opt.seed = seed;
    SpanLog spans(false);
    for (int k = 0; k < gridPoints; k++) {
        Rep rep;
        double setup_s = 0.0;
        double host_s = 0.0;
        const Point p = runPoint(spec, gridRate(spec, k), opt, rep, spans,
                                 setup_s, host_s);
        std::printf("    %8.4f req/Mcycle  p50 %8llu  p99 %8llu  p99.9 "
                    "%8llu  %s  (setup %.3fs run %.3fs)\n",
                    gridRate(spec, k),
                    static_cast<unsigned long long>(p.p50),
                    static_cast<unsigned long long>(p.p99),
                    static_cast<unsigned long long>(p.p999),
                    p.meets ? "meets" : "misses", setup_s, host_s);
    }
}

Rep
runServeZipf(const Options &opt, SpanLog &spans)
{
    Rep rep;
    const ServingSpec spec = serveZipfSpec();
    double setup_s = 0.0;
    double host_s = 0.0;
    double build_s = 0.0;

    // Inputs: one store seed and one Zipf key stream per tenant.
    SeedStream seeds(opt.seed, kSaltReplay);
    double share_sum = 0.0;
    for (const TenantConfig &t : spec.tenants)
        share_sum += t.share;
    std::vector<std::uint64_t> store_seeds;
    std::vector<std::vector<std::uint64_t>> keys;
    std::vector<ReplayTenant> tfm_side;
    std::vector<ReplayTenant> fsw_side;
    {
        Stopwatch watch(setup_s);
        std::uint64_t digest = 0;
        for (const TenantConfig &t : spec.tenants) {
            store_seeds.push_back(seeds.next());
            ZipfGenerator zipf(t.numKeys, t.zipfSkew, seeds.next());
            const auto count = static_cast<std::uint64_t>(
                kReplayRequests * t.share / share_sum);
            std::vector<std::uint64_t> stream(count);
            for (std::uint64_t &k : stream)
                k = zipf.next();
            digest = fnv1a(stream.data(), stream.size() * 8,
                           digest ^ store_seeds.back());
            keys.push_back(std::move(stream));
        }
        rep.inputDigest = digest;

        Span span(spans, "workloads.build");
        Stopwatch build(build_s);
        for (std::size_t i = 0; i < spec.tenants.size(); i++) {
            tfm_side.push_back(buildReplayTenant(
                spec.tenants[i], SystemKind::TrackFm, store_seeds[i]));
            fsw_side.push_back(buildReplayTenant(
                spec.tenants[i], SystemKind::Fastswap, store_seeds[i]));
        }
    }

    // Closed-loop replay on both backends; responses must agree.
    std::uint64_t tfm_cycles = 0;
    std::uint64_t fsw_cycles = 0;
    std::uint64_t tfm_bytes = 0;
    std::uint64_t misses = 0;
    std::uint64_t mismatches = 0;
    {
        Span span(spans, "serve.replay");
        Stopwatch watch(host_s);
        for (std::size_t i = 0; i < spec.tenants.size(); i++) {
            ReplayTenant &a = tfm_side[i];
            ReplayTenant &b = fsw_side[i];
            const BackendSnapshot a0 = snapshot(*a.backend);
            const BackendSnapshot b0 = snapshot(*b.backend);
            for (const std::uint64_t key : keys[i]) {
                bool hit_a = false;
                bool hit_b = false;
                const std::uint64_t ra = answer(a, key, hit_a);
                const std::uint64_t rb = answer(b, key, hit_b);
                misses += !hit_a + !hit_b;
                mismatches += ra != rb;
            }
            const BackendSnapshot da = deltaSince(a0, snapshot(*a.backend));
            const BackendSnapshot db = deltaSince(b0, snapshot(*b.backend));
            tfm_cycles += da.cycles;
            fsw_cycles += db.cycles;
            tfm_bytes += da.bytesTransferred;
        }
    }
    const std::uint64_t miss_expect = opt.corruptExpected ? 1 : 0;
    rep.check(misses == miss_expect,
              "serve-zipf replay: " + std::to_string(misses) +
                  " gets/probes missed a present key");
    rep.check(mismatches == miss_expect,
              "serve-zipf replay: " + std::to_string(mismatches) +
                  " responses differ between TrackFM and Fastswap");

    if (spans.enabled()) {
        StatSet tfm_stats;
        StatSet fsw_stats;
        for (std::size_t i = 0; i < spec.tenants.size(); i++) {
            tfm_stats.merge(tfm_side[i].backend->stats());
            fsw_stats.merge(fsw_side[i].backend->stats());
        }
        addDataPlaneLayers(rep, tfm_stats);
        rep.layerStats(fsw_stats,
                       {"fastswap.major_faults", "fastswap.pageouts",
                        "fastswap.reclaims", "fastswap.readaheads"});
    }
    tfm_side.clear();
    fsw_side.clear();

    measureServing(spec, opt, rep, spans, setup_s, host_s);

    rep.sim["sim_cycles"] = static_cast<double>(tfm_cycles);
    rep.sim["bytes_moved"] = static_cast<double>(tfm_bytes);
    rep.sim["speedup_vs_fastswap"] =
        static_cast<double>(fsw_cycles) / static_cast<double>(tfm_cycles);
    rep.host["setup_s"] = setup_s;
    rep.host["host_s"] = host_s;
    rep.host["compile_s"] = compileKernelModule(opt, rep);
    rep.layers["workloads.build_s"] = build_s;
    if (spans.enabled()) {
        const TenantConfig &kv = spec.tenants.front();
        rep.layers["sim.zipf_next_ns"] =
            zipfNextNs(kv.numKeys, kv.zipfSkew, opt.seed);
    }
    return rep;
}

} // namespace pb
