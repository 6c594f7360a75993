/**
 * @file
 * perfbench: runs one workload and prints its metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file.json>]
 *   perfbench --workload <name> --seed <n> --short-only
 *
 * The last line of standard output is one JSON object: the metrics,
 * the output-check tallies, the fingerprint of a short repetition (for
 * the cross-thread-count check perfbench/run.py makes) and the
 * provenance of the result. Exit status 2 means the arguments were
 * bad, 3 that this build, machine or thread pool cannot produce a
 * trustworthy number.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json.hh"
#include "support/parallel.hh"
#include "workloads.hh"

using coterie::obs::Json;
using namespace perfbench;

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

const char *
onOff(int enabled)
{
    return enabled ? "ON" : "OFF";
}

Json
provenance(const RunOptions &opts, int reps)
{
    const char *threadsEnv = std::getenv("COTERIE_THREADS");
    Json p = Json::object();
    p.set("workload", Json(opts.workload));
    p.set("seed", Json(opts.seed));
    p.set("reps", Json(reps));
    p.set("hardware_concurrency",
          Json(static_cast<int>(std::thread::hardware_concurrency())));
    p.set("threads",
          Json(coterie::support::ThreadPool::instance().concurrency()));
    p.set("COTERIE_THREADS", Json(threadsEnv ? threadsEnv : ""));
    p.set("build_type", Json(PERFBENCH_BUILD_TYPE));
    p.set("optimized", Json(kOptimized));
    p.set("COTERIE_SIMD", Json(onOff(COTERIE_SIMD_ENABLED)));
    p.set("COTERIE_TELEMETRY", Json(onOff(COTERIE_TELEMETRY_ENABLED)));
    p.set("COTERIE_FLIGHT", Json(onOff(COTERIE_FLIGHT_ENABLED)));
    return p;
}

bool
parseArgs(int argc, char **argv, RunOptions &opts, bool &shortOnly,
          std::string &traceOut)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--short-only") {
            shortOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty() || value[0] == '-')
                return false;
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opts.seconds > 0.0 && opts.seconds <= 600.0))
                return false;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opts.trace = value == "1";
        } else if (arg == "--trace-out") {
            traceOut = value;
        } else {
            return false;
        }
    }
    for (const std::string &name : workloadNames())
        if (name == opts.workload)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    bool shortOnly = false;
    std::string traceOut;
    if (!parseArgs(argc, argv, opts, shortOnly, traceOut)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <fleet_render|fleet_des|"
                     "server_install> --seed <n> (--seconds <s> --trace "
                     "<0|1> [--trace-out <file>] | --short-only)\n");
        return 2;
    }

    if (shortOnly) {
        const Fingerprint fp = shortFingerprint(opts);
        Json line = Json::object();
        line.set("short_fingerprint", Json(fp.str()));
        line.set("provenance", provenance(opts, 1));
        std::printf("%s\n", line.dump().c_str());
        return 0;
    }

    // A number from an unoptimised build, a single core or a one-wide
    // pool (COTERIE_THREADS=1) says nothing about the program; refuse to
    // record one.
    const int threads = coterie::support::ThreadPool::instance().concurrency();
    if (!kOptimized || std::thread::hardware_concurrency() < 2 ||
        threads < 2) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure (optimized=%d, "
                     "hardware_concurrency=%u, threads=%d): needs an "
                     "optimised build and a pool of at least 2 threads\n",
                     kOptimized ? 1 : 0, std::thread::hardware_concurrency(),
                     threads);
        return 3;
    }

    Ledger ledger(opts.workload, opts.trace);
    const Outcome out = runWorkload(opts, ledger);
    const Fingerprint shortFp = shortFingerprint(opts);

    std::printf("perfbench %s seed=%llu trace=%d reps=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
                out.reps);
    for (const std::string &f : out.failures)
        std::printf("  CHECK FAILED: %s\n", f.c_str());
    std::printf("  fingerprint: %s\n", out.fingerprint.str().c_str());
    Json metrics = Json::object();
    for (const Metric &m : out.metrics) {
        std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        Json v = Json::object();
        v.set("value", Json(m.value));
        v.set("unit", Json(m.unit));
        metrics.set(m.name, std::move(v));
    }

    for (const Metric &m : out.info)
        std::printf("  (info) %-27s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    if (opts.trace && !traceOut.empty()) {
        std::ofstream file(traceOut);
        file << ledger.chromeTrace().dump() << "\n";
        if (!file) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         traceOut.c_str());
            return 1;
        }
        std::printf("  trace: %s\n", traceOut.c_str());
    }

    Json line = Json::object();
    line.set("correct", Json(out.failures.empty()));
    line.set("attempted", Json(out.attempted));
    line.set("failed", Json(out.failed));
    line.set("metrics", std::move(metrics));
    line.set("short_fingerprint", Json(shortFp.str()));
    line.set("provenance", provenance(opts, out.reps));
    std::printf("%s\n", line.dump().c_str());
    return 0;
}
