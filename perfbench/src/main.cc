/**
 * @file
 * perfbench: the repository benchmark's measurement binary.
 *
 *   perfbench --workload ir-hybrid|serve-zipf|stream-write --seed N
 *             --seconds S [--trace 0|1] [--spans-out FILE]
 *             [--corrupt-expected]
 *   perfbench --calibrate [--seed N]
 *
 * Repeats the workload, each repetition from a cold start, until S
 * seconds have passed (at least kMinReps times), and prints one
 * "REP {json}" line per repetition followed by "DONE {json}" with the
 * process's peak resident memory. With --trace 1 repetitions alternate
 * untraced and traced, so the traced ones carry the per-layer metrics
 * and the pair gives the tracing overhead. perfbench/run.py builds this
 * binary and turns its lines into the benchmark's result.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "harness.hh"
#include "serving.hh"

namespace
{

constexpr int kMinReps = 5;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload ir-hybrid|serve-zipf|"
                 "stream-write --seed N --seconds S [--trace 0|1] "
                 "[--spans-out FILE] [--corrupt-expected]\n"
                 "       perfbench --calibrate [--seed N]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    pb::Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            opt.workload = argv[++i];
        else if (arg == "--seed" && has_value)
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            opt.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && has_value)
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        else if (arg == "--spans-out" && has_value)
            opt.spansOut = argv[++i];
        else if (arg == "--corrupt-expected")
            opt.corruptExpected = true;
        else if (arg == "--calibrate")
            opt.calibrate = true;
        else
            return usage();
    }

    if (opt.calibrate) {
        pb::printCalibration(pb::serveZipfSpec(), opt.seed);
        pb::printCalibration(pb::irHybridProbeSpec(), opt.seed);
        pb::printCalibration(pb::streamWriteProbeSpec(), opt.seed);
        return 0;
    }

    pb::Rep (*workload)(const pb::Options &, pb::SpanLog &) = nullptr;
    if (opt.workload == "ir-hybrid")
        workload = pb::runIrHybrid;
    else if (opt.workload == "serve-zipf")
        workload = pb::runServeZipf;
    else if (opt.workload == "stream-write")
        workload = pb::runStreamWrite;
    else
        return usage();

    pb::SpanLog last_traced(false);
    const pb::Clock::time_point start = pb::Clock::now();
    for (int rep = 0;
         rep < kMinReps || pb::secondsSince(start) < opt.seconds; rep++) {
        const bool traced = opt.trace && rep % 2 == 1;
        pb::SpanLog spans(traced);
        const pb::Rep result = workload(opt, spans);
        result.emit(std::cout, rep, traced);
        if (traced)
            last_traced = spans;
    }

    if (!opt.spansOut.empty()) {
        std::ofstream out(opt.spansOut);
        last_traced.writeJson(out);
    }
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    std::printf("DONE {\"peak_rss_mb\": %.6f, \"seconds\": %.6f}\n",
                static_cast<double>(usage_now.ru_maxrss) / 1024.0,
                pb::secondsSince(start));
    return 0;
}
