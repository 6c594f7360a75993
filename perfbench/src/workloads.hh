/**
 * @file
 * perfbench workloads: fleet_render, fleet_des and server_install.
 *
 * Each workload drives the library only through its public entry
 * points (Session::create, SessionManager::submit/run,
 * FrameStore::prerenderFarBe/farBeLookup/renderFarBe,
 * image::encode/decode/ssim and the offline setup functions), checks
 * what they return, and reports end-to-end metrics (untraced) or
 * per-layer metrics (traced, from the Ledger's spans).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/systems/common.hh"
#include "ledger.hh"
#include "stats.hh"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    std::vector<Metric> metrics;
    /** Printed alongside the metrics, never compared between runs. */
    std::vector<Metric> info;
    std::uint64_t attempted = 0;
    /** Operations lost or wrong: frames of faulted/evicted sessions,
     *  grid points not rendered, and every failed output check. */
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< one line per failed check
    int reps = 0;
    Fingerprint fingerprint; ///< of the first measured repetition
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Measure @p opts.workload for about @p opts.seconds. */
Outcome runWorkload(const RunOptions &opts, Ledger &ledger);

/**
 * One short repetition of the workload, for the cross-thread-count
 * determinism check: its fingerprint must not depend on
 * COTERIE_THREADS.
 */
Fingerprint shortFingerprint(const RunOptions &opts);

/** Digest of every FrameLogEntry of every player, in order. */
inline void
digestFrameLogs(
    const std::vector<std::vector<coterie::core::FrameLogEntry>> &logs,
    Digest &d)
{
    d.add(static_cast<std::uint64_t>(logs.size()));
    for (const auto &log : logs) {
        d.add(static_cast<std::uint64_t>(log.size()));
        for (const coterie::core::FrameLogEntry &e : log) {
            d.add(e.displayMs);
            d.add(e.latencyMs);
            d.add(e.renderMs);
            d.add(e.bytesFetched);
            d.add(e.degraded);
        }
    }
}

} // namespace perfbench
