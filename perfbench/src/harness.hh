/**
 * @file
 * Shared harness for the repository benchmark: options, per-repetition
 * result records, host timers, the span log of the traced run, and the
 * seed expansion every generated input derives from.
 *
 * The benchmark drives the simulator only through its public entry
 * points (System, makeBackend, the src/workloads constructors and
 * kernels, Scheduler, ZipfGenerator and the StatSet exports).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace tfm
{
class StatSet;
}

namespace pb
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Command-line options of the benchmark binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Print the calibration the frozen serving constants come from.
    bool calibrate = false;
    /// Self-test hook: perturb every expected value by one so each
    /// output check must fail.
    bool corruptExpected = false;
    /// Traced run: where to write the span log at exit.
    std::string spansOut;
};

/**
 * Deterministic input stream: splitmix64 over the run seed and a
 * per-input salt, so each generated input is a pure function of the
 * seed and independent of the simulator's own generators.
 */
class SeedStream
{
  public:
    SeedStream(std::uint64_t seed, std::uint64_t salt);
    std::uint64_t next();
    /** Uniform integer in [lo, hi]. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  private:
    std::uint64_t state;
};

/** 64-bit FNV-1a, for input fingerprints. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/**
 * Spans recorded at public-call boundaries in the traced run. A span
 * has a name, start, end and parent; self time is the span minus its
 * children. Spans stay in memory until the process writes them out.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }
    std::size_t open(const std::string &name);
    void close(std::size_t id);
    /** Record a finished span under the innermost open one. */
    void add(const std::string &name, Clock::time_point start,
             Clock::time_point end);

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;

    /** One JSON object per span, with its self time (span minus its
     *  children). */
    void writeJson(std::ostream &os) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        long parent = -1;
    };
    bool on;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
    std::vector<std::size_t> stack;
};

/** RAII span; a no-op when the log is disabled. */
class Span
{
  public:
    Span(SpanLog &log, const std::string &name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &log;
    std::size_t id = 0;
};

/** Host stopwatch accumulating into one named bucket. */
class Stopwatch
{
  public:
    explicit Stopwatch(double &bucket)
        : into(bucket), start(Clock::now())
    {}
    ~Stopwatch() { into += secondsSince(start); }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    double &into;
    Clock::time_point start;
};

/** One repetition of a workload. */
struct Rep
{
    /// Host-clock end-to-end metrics (noisy).
    std::map<std::string, double> host;
    /// Simulated end-to-end metrics: repeat exactly for a seed.
    std::map<std::string, double> sim;
    /// Per-layer metrics (traced run only).
    std::map<std::string, double> layers;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /// Fingerprint of the generated inputs.
    std::uint64_t inputDigest = 0;

    /** Count one output check; a failing one is recorded with @p what. */
    void check(bool ok, const std::string &what);
    /** Copy the listed StatSet counters into layers (0 when absent). */
    void layerStats(const tfm::StatSet &set,
                    const std::vector<std::string> &names);
    void emit(std::ostream &os, int index, bool traced) const;
};

/** Derived per-layer ratios and the guard/runtime/net counters. */
void addDataPlaneLayers(Rep &rep, const tfm::StatSet &set);

/** @name Workload entry points: one repetition each.
 * @{ */
Rep runIrHybrid(const Options &opt, SpanLog &spans);
Rep runServeZipf(const Options &opt, SpanLog &spans);
Rep runStreamWrite(const Options &opt, SpanLog &spans);
/** @} */

/**
 * Host seconds of a fixed number of System::compile calls on a small
 * module from the ir-hybrid generator: the compile_s of the workloads
 * whose native data planes have no compiler. Failures count in @p rep.
 */
double compileKernelModule(const Options &opt, Rep &rep);

} // namespace pb

#endif // PERFBENCH_HARNESS_HH
