/**
 * @file
 * The traced run: per-layer metrics of one workload, timed from
 * outside the simulator. Each job is simulated once more with its L1D
 * and LLC access streams recorded through Cache::setAccessHook, and
 * each layer is then timed by replaying what it saw into a standalone
 * instance built from the layer's public interface (see PROTOCOL.md).
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "digest.hpp"
#include "sim/experiment.hpp"
#include "workload/trace_cache.hpp"

namespace perfbench
{

/** Name, unit and direction of one reported metric. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    std::string better;  ///< "higher" or "lower".
};

/** Every per-layer metric, in report order. */
const std::vector<MetricSpec> &layerMetricSpecs();

/** A measured metric value (spec order is kept by the caller). */
struct MetricValue
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Per-layer metrics read off one untraced sweep: job-time spread and
 * pool idleness, trace-cache counters, and the baseline MPKI error
 * against paper Table II.
 */
std::vector<MetricValue>
sweepLayerMetrics(const std::vector<bingo::SweepJob> &jobs,
                  const std::vector<bingo::JobOutcome> &outcomes,
                  double wall_seconds, unsigned threads,
                  const bingo::TraceCacheStats &cache_stats);

/** Outcome of the traced run of one workload. */
struct TracedRun
{
    std::vector<MetricValue> metrics;  ///< layerMetricSpecs() order.
    double wall_seconds = 0.0;         ///< Traced pass, replays included.
    std::size_t attempted = 0;
    std::size_t failed = 0;            ///< Failed or wrong results.
    std::vector<std::string> problems;
};

/**
 * Simulate `jobs` with recording hooks on `threads` threads, checking
 * every result against `reference`, then replay the recorded streams
 * into each layer and derive the per-layer metrics that need replays.
 */
TracedRun runTraced(const std::vector<bingo::SweepJob> &jobs,
                    std::uint64_t seed, unsigned threads,
                    const Reference &reference);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
