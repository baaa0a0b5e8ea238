/**
 * @file
 * Open-loop serving measurement shared by the workloads: two frozen
 * absolute rates (lo, hi) and a search for the highest rate on a fixed
 * absolute grid that meets a frozen p99 sojourn limit.
 *
 * Every constant here was derived once from the calibrated capacity of
 * the parent commit (perfbench --calibrate; README.md "Frozen serving
 * constants") and is deliberately not recomputed at run time: a faster
 * data plane must show as lower sojourn and a higher max_rate_in_slo,
 * not as a proportionally higher offered load.
 */

#ifndef PERFBENCH_SERVING_HH
#define PERFBENCH_SERVING_HH

#include <cstdint>
#include <vector>

#include "harness.hh"
#include "serve/scheduler.hh"

namespace pb
{

/** One serving set-up: tenant mix plus its frozen constants. */
struct ServingSpec
{
    const char *label = "";
    std::vector<tfm::TenantConfig> tenants;
    std::uint32_t workers = 2;
    /// Arrivals simulated per rate point.
    std::uint64_t requests = 20000;
    /// Frozen capacity (req/Mcycle) the rate grid is laid out on.
    double capacityPerMcycle = 1.0;
    /// Frozen p99 sojourn limit in cycles.
    double p99LimitCycles = 1.0;
};

/**
 * Serve the lo and hi rates and search the grid. Scheduler and
 * calibration set-up time accrues to @p setup_s, Scheduler::run time to
 * @p host_s. Fills the sojourn and max_rate_in_slo metrics and the
 * serve.* layers of @p rep.
 */
void measureServing(const ServingSpec &spec, const Options &opt, Rep &rep,
                    SpanLog &spans, double &setup_s, double &host_s);

/** Print the calibration behind @p spec's frozen constants. */
void printCalibration(const ServingSpec &spec, std::uint64_t seed);

/** @name The three workloads' serving set-ups.
 * @{ */
ServingSpec serveZipfSpec();
ServingSpec irHybridProbeSpec();
ServingSpec streamWriteProbeSpec();
/** @} */

} // namespace pb

#endif // PERFBENCH_SERVING_HH
