/**
 * @file
 * ir-hybrid: the compiler-and-interpreter front end on one generated
 * IR module.
 *
 * The module holds, in one function so the pipeline's superlinear
 * passes see its full size:
 *  - a store-heavy init loop over a 64 KB array;
 *  - kNests two-level loop nests in the style of the bench_sec46
 *    generator (load, eight arithmetic ops, store), then a reduction;
 *  - a store-heavy init of a 1 MB array and two 16-byte-stride scans;
 *  - a 2 MB pool of 128-byte nodes threaded by a fixed leap, and a
 *    pointer chase over it from a seed-chosen start (the pool exceeds
 *    the paged-frame budget).
 * Every constant derives from the seed, and the generator mirrors the
 * program in plain host arithmetic to obtain the expected return value.
 * The module is compiled with ArbiterMode::Auto and run on the bytecode
 * engine with local memory below the working set.
 */

#include <memory>
#include <sstream>
#include <vector>

#include "core/system.hh"
#include "serving.hh"
#include "sim/stats.hh"

using namespace tfm;

namespace pb
{

namespace
{

constexpr std::uint64_t kSaltModule = 0x12b1d;
constexpr int kNests = 160;         ///< loop nests in the measured module
constexpr int kKernelNests = 12;    ///< nests in the compile_s kernel
constexpr int kKernelCompiles = 24; ///< kernel compiles per repetition
constexpr std::uint64_t kRows = 8;
constexpr std::uint64_t kCols = 1024;
constexpr std::uint64_t kArray = kRows * kCols; ///< 64 KB of i64
constexpr std::uint64_t kScan = 65536;  ///< 16-byte-stride entries (1 MB)
constexpr std::uint64_t kNodes = 16384; ///< 128-byte nodes (2 MB)
constexpr std::uint64_t kHops = 24000;
/// Node i links to node (i + kLeap) mod kNodes: consecutive hops land
/// ~337 KB apart, and the odd leap makes one cycle through every node.
constexpr std::uint64_t kLeap = 2693;

struct Module
{
    std::string text;
    std::int64_t expected = 0;
};

/** Generate the module for @p seed and its expected return value. */
Module
generate(std::uint64_t seed, int nests)
{
    SeedStream rng(seed, kSaltModule);
    std::ostringstream os;
    std::vector<std::uint64_t> a(kArray);

    const std::uint64_t m0 = rng.range(1, 49) * 2 + 1;
    const std::uint64_t b0 = rng.range(0, 1023);
    const std::uint64_t m1 = rng.range(1, 49) * 2 + 1;
    const std::uint64_t b1 = rng.range(0, 1023);
    // %g's pointer is stored to a stack slot, so the access-pattern
    // analysis sees it escape and the arbiter keeps it on the guard
    // plane; %a stays eligible for the paged plane.
    os << "func @main() -> i64 {\n"
       << "entry:\n"
       << "  %a = call ptr @malloc(" << kArray * 8 << ")\n"
       << "  %g = call ptr @malloc(" << kArray * 8 << ")\n"
       << "  %d = call ptr @malloc(" << kScan * 16 << ")\n"
       << "  %pool = call ptr @malloc(" << kNodes * 128 << ")\n"
       << "  %slot = alloca 8\n"
       << "  store %g, %slot\n"
       << "  br ia\n"
       << "ia:\n"
       << "  %ia.i = phi i64 [ 0, entry ], [ %ia.i2, ia ]\n"
       << "  %ia.m = mul %ia.i, " << m0 << "\n"
       << "  %ia.s = add %ia.m, " << b0 << "\n"
       << "  %ia.v = and %ia.s, 1023\n"
       << "  %ia.p = gep %a, %ia.i, 8\n"
       << "  store %ia.v, %ia.p\n"
       << "  %ia.n = mul %ia.i, " << m1 << "\n"
       << "  %ia.t = add %ia.n, " << b1 << "\n"
       << "  %ia.w = and %ia.t, 1023\n"
       << "  %ia.q = gep %g, %ia.i, 8\n"
       << "  store %ia.w, %ia.q\n"
       << "  %ia.i2 = add %ia.i, 1\n"
       << "  %ia.c = icmp.slt %ia.i2, " << kArray << "\n"
       << "  condbr %ia.c, ia, n0.ph\n";
    std::vector<std::uint64_t> g(kArray);
    for (std::uint64_t i = 0; i < kArray; i++) {
        a[i] = (i * m0 + b0) & 1023;
        g[i] = (i * m1 + b1) & 1023;
    }

    for (int l = 0; l < nests; l++) {
        const std::uint64_t k1 = rng.range(1, 9);
        const std::uint64_t k2 = rng.range(2, 7);
        const std::uint64_t k3 = rng.range(0, 31);
        const std::string n = "n" + std::to_string(l);
        // Even nests on the paged-eligible %a, odd ones on guarded %g.
        const char *array = l % 2 ? "%g" : "%a";
        std::vector<std::uint64_t> &mem = l % 2 ? g : a;
        const std::string next =
            l + 1 < nests ? "n" + std::to_string(l + 1) + ".ph" : "ra.ph";
        os << n << ".ph:\n  br " << n << ".o\n"
           << n << ".o:\n"
           << "  %" << n << ".r = phi i64 [ 0, " << n << ".ph ], [ %" << n
           << ".r2, " << n << ".l ]\n"
           << "  %" << n << ".b = mul %" << n << ".r, " << kCols << "\n"
           << "  br " << n << ".i\n"
           << n << ".i:\n"
           << "  %" << n << ".c = phi i64 [ 0, " << n << ".o ], [ %" << n
           << ".c2, " << n << ".i ]\n"
           << "  %" << n << ".x = add %" << n << ".b, %" << n << ".c\n"
           << "  %" << n << ".p = gep " << array << ", %" << n << ".x, 8\n"
           << "  %" << n << ".v = load i64, %" << n << ".p\n"
           << "  %" << n << ".w = add %" << n << ".v, " << k1 << "\n"
           << "  %" << n << ".t0 = mul %" << n << ".w, " << k2 << "\n"
           << "  %" << n << ".t1 = add %" << n << ".t0, " << k3 << "\n"
           << "  %" << n << ".t2 = xor %" << n << ".t1, %" << n << ".x\n"
           << "  %" << n << ".t3 = shl %" << n << ".t2, 1\n"
           << "  %" << n << ".t4 = lshr %" << n << ".t3, 2\n"
           << "  %" << n << ".t5 = sub %" << n << ".t4, %" << n << ".w\n"
           << "  %" << n << ".t6 = and %" << n << ".t5, 255\n"
           << "  %" << n << ".t7 = or %" << n << ".t6, 1\n"
           << "  %" << n << ".w2 = add %" << n << ".w, %" << n << ".t7\n"
           << "  store %" << n << ".w2, %" << n << ".p\n"
           << "  %" << n << ".c2 = add %" << n << ".c, 1\n"
           << "  %" << n << ".cc = icmp.slt %" << n << ".c2, " << kCols
           << "\n"
           << "  condbr %" << n << ".cc, " << n << ".i, " << n << ".l\n"
           << n << ".l:\n"
           << "  %" << n << ".r2 = add %" << n << ".r, 1\n"
           << "  %" << n << ".rc = icmp.slt %" << n << ".r2, " << kRows
           << "\n"
           << "  condbr %" << n << ".rc, " << n << ".o, " << next << "\n";
        for (std::uint64_t x = 0; x < kArray; x++) {
            const std::uint64_t w = mem[x] + k1;
            const std::uint64_t t4 = ((((w * k2) + k3) ^ x) << 1) >> 2;
            mem[x] = w + (((t4 - w) & 255) | 1);
        }
    }
    std::uint64_t asum = 0;
    for (std::uint64_t i = 0; i < kArray; i++)
        asum += a[i] + g[i];

    const std::uint64_t x0 = rng.range(0, 4095);
    std::uint64_t dsum = 0;
    for (std::uint64_t j = 0; j < kScan; j++)
        dsum += j ^ x0;
    // The chase starts at a seed-chosen 4 KB object boundary so every
    // seed walks the same object sequence, rotated: the data differ
    // between seeds, the locality does not.
    const std::uint64_t start = rng.range(0, kNodes / 32 - 1) * 32;
    const std::uint64_t q = rng.range(1, 4095) * 2 + 1;
    std::uint64_t chase = 0;
    for (std::uint64_t h = 0, node = start; h < kHops; h++) {
        chase += (node * q) & 65535;
        node = (node + kLeap) % kNodes;
    }

    os << "ra.ph:\n  br ra\n"
       << "ra:\n"
       << "  %ra.i = phi i64 [ 0, ra.ph ], [ %ra.i2, ra ]\n"
       << "  %ra.s = phi i64 [ 0, ra.ph ], [ %ra.s2, ra ]\n"
       << "  %ra.p = gep %a, %ra.i, 8\n"
       << "  %ra.v = load i64, %ra.p\n"
       << "  %ra.q = gep %g, %ra.i, 8\n"
       << "  %ra.u = load i64, %ra.q\n"
       << "  %ra.t = add %ra.v, %ra.u\n"
       << "  %ra.s2 = add %ra.s, %ra.t\n"
       << "  %ra.i2 = add %ra.i, 1\n"
       << "  %ra.c = icmp.slt %ra.i2, " << kArray << "\n"
       << "  condbr %ra.c, ra, id.ph\n"
       // store-heavy init of the strided array: d[2j] = j ^ x0
       << "id.ph:\n  br id\n"
       << "id:\n"
       << "  %id.j = phi i64 [ 0, id.ph ], [ %id.j2, id ]\n"
       << "  %id.e = mul %id.j, 2\n"
       << "  %id.p = gep %d, %id.e, 8\n"
       << "  %id.v = xor %id.j, " << x0 << "\n"
       << "  store %id.v, %id.p\n"
       << "  %id.j2 = add %id.j, 1\n"
       << "  %id.c = icmp.slt %id.j2, " << kScan << "\n"
       << "  condbr %id.c, id, s1.ph\n";
    // two 16-byte-stride scans, the second continuing the first's sum
    const char *scan_pred[2] = {"0", "%s1.u2"};
    for (int s = 1; s <= 2; s++) {
        const std::string n = "s" + std::to_string(s);
        const std::string next = s == 1 ? "s2.ph" : "pb.ph";
        os << n << ".ph:\n  br " << n << "\n"
           << n << ":\n"
           << "  %" << n << ".k = phi i64 [ 0, " << n << ".ph ], [ %" << n
           << ".k2, " << n << " ]\n"
           << "  %" << n << ".u = phi i64 [ " << scan_pred[s - 1] << ", "
           << n << ".ph ], [ %" << n << ".u2, " << n << " ]\n"
           << "  %" << n << ".e = mul %" << n << ".k, 2\n"
           << "  %" << n << ".p = gep %d, %" << n << ".e, 8\n"
           << "  %" << n << ".v = load i64, %" << n << ".p\n"
           << "  %" << n << ".u2 = add %" << n << ".u, %" << n << ".v\n"
           << "  %" << n << ".k2 = add %" << n << ".k, 1\n"
           << "  %" << n << ".c = icmp.slt %" << n << ".k2, " << kScan
           << "\n"
           << "  condbr %" << n << ".c, " << n << ", " << next << "\n";
    }
    // pool build: node i -> node (i + kLeap) mod N, id = (i * q) & 0xffff
    os << "pb.ph:\n  br pb\n"
       << "pb:\n"
       << "  %pb.i = phi i64 [ 0, pb.ph ], [ %pb.i2, pb ]\n"
       << "  %pb.t = add %pb.i, " << kLeap << "\n"
       << "  %pb.n = srem %pb.t, " << kNodes << "\n"
       << "  %pb.nx = gep %pool, %pb.n, 128\n"
       << "  %pb.nxi = ptrtoint %pb.nx to i64\n"
       << "  %pb.slot = gep %pool, %pb.i, 128\n"
       << "  store %pb.nxi, %pb.slot\n"
       << "  %pb.m = mul %pb.i, " << q << "\n"
       << "  %pb.id = and %pb.m, 65535\n"
       << "  %pb.ip = gep %pb.slot, 1, 8\n"
       << "  store %pb.id, %pb.ip\n"
       << "  %pb.i2 = add %pb.i, 1\n"
       << "  %pb.c = icmp.slt %pb.i2, " << kNodes << "\n"
       << "  condbr %pb.c, pb, ch.ph\n"
       << "ch.ph:\n"
       << "  %ch.p0 = gep %pool, " << start << ", 128\n"
       << "  br ch\n"
       << "ch:\n"
       << "  %ch.h = phi i64 [ 0, ch.ph ], [ %ch.h2, ch ]\n"
       << "  %ch.ptr = phi ptr [ %ch.p0, ch.ph ], [ %ch.next, ch ]\n"
       << "  %ch.a = phi i64 [ 0, ch.ph ], [ %ch.a2, ch ]\n"
       << "  %ch.ip = gep %ch.ptr, 1, 8\n"
       << "  %ch.id = load i64, %ch.ip\n"
       << "  %ch.a2 = add %ch.a, %ch.id\n"
       << "  %ch.addr = load i64, %ch.ptr\n"
       << "  %ch.next = inttoptr %ch.addr to ptr\n"
       << "  %ch.h2 = add %ch.h, 1\n"
       << "  %ch.c = icmp.slt %ch.h2, " << kHops << "\n"
       << "  condbr %ch.c, ch, done\n"
       << "done:\n"
       << "  %r1 = add %ra.s2, %s2.u2\n"
       << "  %r2 = add %r1, %ch.a2\n"
       << "  %r3 = add %r2, %ch.h2\n"
       << "  ret %r3\n"
       << "}\n";

    Module out;
    out.text = os.str();
    out.expected =
        static_cast<std::int64_t>(asum + 2 * dsum + chase + kHops);
    return out;
}

SystemConfig
hybridConfig(ArbiterMode mode)
{
    SystemConfig cfg;
    cfg.runtime.farHeapBytes = 16ull << 20;
    // Working set 3.2 MB: two 64 KB arrays, the 1 MB strided array and
    // the 2 MB pool.
    cfg.runtime.localMemBytes = 1ull << 20;
    cfg.runtime.objectSizeBytes = 4096;
    // 320 four-KB frames: holds the 1 MB strided array, not the pool.
    cfg.runtime.pagedLocalMemBytes = 320ull * 4096;
    cfg.passes.arbiterMode = mode;
    return cfg;
}

/** Passes report under passes.<name>_s with '-' spelled '_'. */
std::string
passMetric(const std::string &pass)
{
    std::string name = "passes." + pass + "_s";
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

} // anonymous namespace

double
compileKernelModule(const Options &opt, Rep &rep)
{
    const Module kernel = generate(opt.seed ^ 0x6b65726eull, kKernelNests);
    double seconds = 0.0;
    bool ok = true;
    for (int i = 0; i < kKernelCompiles; i++) {
        System system(hybridConfig(ArbiterMode::Auto));
        CompileResult compiled;
        {
            Stopwatch watch(seconds);
            compiled = system.compile(kernel.text);
        }
        ok = ok && compiled.ok() &&
             system.guardSiteReport().totalInserted() > 0;
    }
    rep.check(ok, "compile_s kernel module failed to compile");
    return seconds;
}

Rep
runIrHybrid(const Options &opt, SpanLog &spans)
{
    Rep rep;
    const std::int64_t bias = opt.corruptExpected ? 1 : 0;
    double setup_s = 0.0;

    // Per-pass host time in the traced run: the gap between observer
    // callbacks, recorded as child spans of the compile. The first gap
    // includes parsing, later ones the verifier run that follows the
    // previous pass.
    Clock::time_point mark;
    SystemConfig cfg = hybridConfig(ArbiterMode::Auto);
    if (spans.enabled()) {
        cfg.passObserver = [&](const std::string &pass, const ir::Module &) {
            const Clock::time_point now = Clock::now();
            spans.add("pass." + pass, mark, now);
            mark = now;
        };
    }
    Module module;
    std::unique_ptr<System> system;
    {
        Stopwatch watch(setup_s);
        module = generate(opt.seed, kNests);
        system = std::make_unique<System>(cfg);
    }
    rep.inputDigest = fnv1a(module.text.data(), module.text.size());

    if (spans.enabled()) {
        Span span(spans, "ir.parse");
        const CompileResult parsed = system->parseOnly(module.text);
        rep.layers["ir.insts_in"] =
            parsed.ok() ? static_cast<double>(
                              parsed.program->ir().instructionCount())
                        : 0.0;
    }
    rep.layers["ir.parse_s"] = spans.total("ir.parse");

    double compile_s = 0.0;
    CompileResult compiled;
    {
        Span span(spans, "compile");
        Stopwatch watch(compile_s);
        mark = Clock::now();
        compiled = system->compile(module.text);
    }
    rep.check(compiled.ok(), "ir-hybrid compile: " + compiled.error);
    if (!compiled.ok())
        return rep;

    double host_s = 0.0;
    RunResult run;
    {
        Span span(spans, "run");
        Stopwatch watch(host_s);
        run = system->run(*compiled.program);
    }
    rep.check(!run.trapped, "ir-hybrid trapped: " + run.trapMessage);
    rep.check(run.returnValue == module.expected + bias,
              "ir-hybrid returned " + std::to_string(run.returnValue) +
                  ", closed form " + std::to_string(module.expected + bias));

    const StatSet stats = system->stats();
    rep.sim["sim_cycles"] = static_cast<double>(system->cycles());
    rep.sim["bytes_moved"] = static_cast<double>(
        stats.get("net.bytes_fetched") + stats.get("net.bytes_written_back"));

    // Untimed checks and references, made in the first repetition only
    // (every repetition of a process has the same inputs): the
    // guard-safety checker in a separate compile, and the whole module
    // on the paged plane (the 4 KB paging model Fastswap also uses) for
    // speedup_vs_fastswap.
    static std::uint64_t paged_cycles = 0;
    if (paged_cycles == 0) {
        Span span(spans, "verify");
        SystemConfig checked = hybridConfig(ArbiterMode::Auto);
        checked.checkSafety = true;
        System checker(checked);
        const CompileResult again = checker.compile(module.text);
        rep.check(again.ok() && checker.safetyReport().clean(),
                  "ir-hybrid: guard-safety checker flagged the compile");

        System paged(hybridConfig(ArbiterMode::ForceAllPaged));
        const CompileResult all_paged = paged.compile(module.text);
        rep.check(all_paged.ok(), "ir-hybrid paged compile failed");
        if (all_paged.ok()) {
            const RunResult ref = paged.run(*all_paged.program);
            rep.check(!ref.trapped &&
                          ref.returnValue == module.expected + bias,
                      "ir-hybrid on the paged plane returned " +
                          std::to_string(ref.returnValue));
            paged_cycles = paged.cycles();
        }
    }
    rep.sim["speedup_vs_fastswap"] = static_cast<double>(paged_cycles) /
                                     static_cast<double>(system->cycles());

    if (spans.enabled()) {
        for (const auto &entry : compiled.program->pipelineReport().entries)
            rep.layers[passMetric(entry.pass)] =
                spans.total("pass." + entry.pass);
        rep.layers["ir.insts_out"] =
            static_cast<double>(compiled.program->ir().instructionCount());
        const GuardSiteReport &sites = system->guardSiteReport();
        rep.layers["passes.guards_inserted"] =
            static_cast<double>(sites.totalInserted());
        rep.layers["passes.guards_eliminated"] =
            static_cast<double>(sites.totalEliminated());
        rep.layers["passes.guards_coalesced"] =
            static_cast<double>(sites.totalCoalesced());
        rep.layers["passes.guards_hoisted"] =
            static_cast<double>(sites.totalHoisted());
        rep.layers["analysis.paged_sites"] =
            static_cast<double>(system->arbiterReport().pagedSites);
        rep.layers["analysis.guard_sites"] =
            static_cast<double>(system->arbiterReport().guardSites);
        rep.layers["interp.steps"] =
            static_cast<double>(run.instructionsExecuted);
        rep.layers["interp.run_s"] = run.wallSeconds;
        rep.layers["interp.inst_per_s"] =
            run.wallSeconds > 0
                ? static_cast<double>(run.instructionsExecuted) /
                      run.wallSeconds
                : 0.0;
        rep.layers["interp.guard_fast_hits"] =
            static_cast<double>(run.guardFastHits);
        addDataPlaneLayers(rep, stats);
    }
    system.reset();

    // The sojourn metrics come from a small hashmap-probe serving run
    // (pointer-chase flavoured, like the module's chase); its host time
    // stays out of this workload's setup_s and host_s.
    double probe_setup_s = 0.0;
    double probe_host_s = 0.0;
    measureServing(irHybridProbeSpec(), opt, rep, spans, probe_setup_s,
                   probe_host_s);

    rep.host["setup_s"] = setup_s;
    rep.host["compile_s"] = compile_s;
    rep.host["host_s"] = host_s;
    return rep;
}

} // namespace pb
