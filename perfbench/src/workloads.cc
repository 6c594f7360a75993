#include "workloads.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>

#include "core/dist_thresh.hh"
#include "core/fleet.hh"
#include "core/similarity.hh"
#include "image/codec.hh"
#include "image/ssim.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "render/renderer.hh"
#include "support/rng.hh"
#include "world/gen/generators.hh"

namespace perfbench {
namespace {

using namespace coterie;
using Clock = std::chrono::steady_clock;
using LookupList = std::vector<core::FrameStore::FarBeLookup>;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU time of the whole process (every thread), in seconds. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * The cost of one set-up. setup_s is the CPU time: set-up runs about
 * 1,900 short pool jobs on Viking, so its wall time mostly measures how
 * fast the host wakes idle vCPUs. On a shared 4-vCPU VM, one Viking
 * set-up took 1.4 to 2.3 s of wall time in one process, with 0.9 to
 * 2.3 s of the host's steal time, while its CPU time stayed within
 * 2.7 to 2.9 s. CPU time still counts every piece of work that moves
 * into set-up; the wall time is reported alongside it.
 */
struct SetupTime
{
    double wallS = 0.0;
    double cpuS = 0.0;
};

template <typename Fn>
SetupTime
timeSetup(Fn &&setup)
{
    const auto t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    setup();
    return {secondsSince(t0), processCpuSeconds() - cpu0};
}

constexpr double kFrameBudgetMs = 1000.0 / 60.0;

/** Sample sizes of the output-check replay in an untraced run. */
constexpr int kCheckSamples = 8;

/** Repetitions each measured phase makes at least, for its medians. */
constexpr int kMinReps = 3;

/**
 * The game content is fixed, so the set-up work (world, partition,
 * thresholds) is the same on every seed: one world per game (seed 42,
 * the world every fleet bench in the repository plays). With the CTS
 * world drawn from the seed instead, world-to-world differences in
 * set-up cost widened server_install's setup_s spread past its bound.
 *
 * Fleet inputs: the popular routes are fixed too (trace seeds 1000 +
 * route, as in bench_fleet). The workload seed draws when each session
 * arrives, uniformly over the first kArrivalSpreadMs of sim time.
 * Routes are not drawn from the seed: with fleet_render's 16 routes,
 * route-to-route differences in render and fetch load moved
 * frames_per_s by about 20% from seed to seed, far more than the
 * changes the benchmark must resolve.
 */
constexpr std::uint64_t kWorldSeed = 42;
constexpr std::uint64_t kRouteSeedBase = 1000;
constexpr double kArrivalSpreadMs = 1000.0;

struct FleetShape
{
    int sessions;
    int players;
    double repSimS;   ///< simulated seconds per measured repetition
    double shortSimS; ///< simulated seconds of the cross-thread check
    bool render;      ///< renderOnFetch through the shared pano cache
    int width;
    int height;
    int replaySamples; ///< render replays in a traced run
};

// fleet_render: render and the shared PanoramaRenderCache do almost
// all the work (with renders off the run takes about 5% of the time).
constexpr FleetShape kFleetRender{32, 4, 2.0, 0.5, true, 64, 32, 200};
// fleet_des: no renders; the lane engine, core/client and net/channel
// do all the work. A render optimisation should predict no change.
constexpr FleetShape kFleetDes{128, 4, 6.0, 1.0, false, 0, 0, 0};

struct InstallShape
{
    std::int64_t stride;      ///< grid stride of a measured repetition
    std::int64_t shortStride; ///< grid stride of the cross-thread check
    int width;
    int height;
    int replaySamples;
};

// server_install: terrain-dominated renders, every cache access an
// insert, plus codec and SSIM; no fleet and no network.
constexpr InstallShape kInstall{512, 2048, 128, 64, 100};

/** Digest of what the offline setup decided: leaves and thresholds. */
std::uint64_t
setupDigest(const std::vector<core::LeafRegion> &leaves,
            const std::vector<double> &thresholds)
{
    Digest d;
    d.add(static_cast<std::uint64_t>(leaves.size()));
    for (const core::LeafRegion &leaf : leaves) {
        d.add(static_cast<std::uint64_t>(leaf.id));
        d.add(leaf.rect.lo.x);
        d.add(leaf.rect.lo.y);
        d.add(leaf.rect.hi.x);
        d.add(leaf.rect.hi.y);
        d.add(static_cast<std::uint64_t>(leaf.depth));
        d.add(leaf.cutoffRadius);
        d.add(leaf.triangleDensity);
        d.add(leaf.reachable);
    }
    d.add(static_cast<std::uint64_t>(thresholds.size()));
    for (const double t : thresholds)
        d.add(t);
    return d.value();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

double
timerSumMs(const char *name)
{
    return obs::MetricsRegistry::global().timer(name).snapshot().stats.sum();
}

/**
 * A SessionManager that, on a rendering fleet, also keeps every fetched
 * grid key, per session, so the render replay can sample the lookups
 * the workload made. A fleet without renders records nothing, so its
 * timed run is the program's work alone. A session's fetches arrive on
 * its own lane, and lanes own their sessions between barriers, so the
 * per-session vectors need no lock.
 */
class RecordingManager final : public core::SessionManager
{
  public:
    RecordingManager(core::FleetCapacity capacity, int sessions,
                     bool recordKeys)
        : core::SessionManager(capacity),
          keys_(static_cast<std::size_t>(sessions)), recordKeys_(recordKeys)
    {
    }

    void
    onFrameFetched(std::uint32_t session, std::uint64_t gridKey,
                   int playerId, std::uint64_t bytes) override
    {
        if (recordKeys_)
            keys_[session - 1].push_back(gridKey);
        core::SessionManager::onFrameFetched(session, gridKey, playerId,
                                             bytes);
    }

    const std::vector<std::vector<std::uint64_t>> &keys() const
    {
        return keys_;
    }

  private:
    std::vector<std::vector<std::uint64_t>> keys_;
    bool recordKeys_;
};

/** Sim-time QoE and client/net counters over every player of a run. */
struct Qoe
{
    std::vector<double> latenciesMs;
    std::uint64_t frames = 0;
    std::uint64_t overBudget = 0;
    std::uint64_t degraded = 0;
    std::uint64_t players = 0;
    double fpsSum = 0.0;
    double beMbpsSum = 0.0;
    double hitRatioSum = 0.0;
    double fetchedKbSum = 0.0;  ///< frameKb weighted by fetches
    double netDelaySum = 0.0;   ///< netDelayMs weighted by fetches
    std::uint64_t fetched = 0;
    std::uint64_t gridTransitions = 0;
    std::uint64_t stalls = 0;
    std::uint64_t framesDegraded = 0;

    void
    add(const core::SystemResult &r, Digest &logDigest)
    {
        for (const core::PlayerMetrics &p : r.players) {
            ++players;
            fpsSum += p.fps;
            beMbpsSum += p.beMbps;
            hitRatioSum += p.cacheHitRatio;
            fetchedKbSum += p.frameKb * static_cast<double>(p.framesFetched);
            netDelaySum +=
                p.netDelayMs * static_cast<double>(p.framesFetched);
            fetched += p.framesFetched;
            gridTransitions += p.gridTransitions;
            stalls += p.stalls;
            framesDegraded += p.framesDegraded;
        }
        digestFrameLogs(r.frameLogs, logDigest);
        for (const auto &log : r.frameLogs)
            for (const core::FrameLogEntry &e : log) {
                ++frames;
                latenciesMs.push_back(e.latencyMs);
                if (e.latencyMs > kFrameBudgetMs)
                    ++overBudget;
                if (e.degraded)
                    ++degraded;
            }
    }

    double
    perPlayer(double sum) const
    {
        return players ? sum / static_cast<double>(players) : 0.0;
    }

    double
    perFetch(double sum) const
    {
        return fetched ? sum / static_cast<double>(fetched) : 0.0;
    }
};

/** Outcome bookkeeping shared by every phase of a run. */
struct Checks
{
    Outcome &out;

    void
    require(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++out.failed;
        out.failures.push_back(what);
    }
};

// ---------------------------------------------------------------------
// Fleets

struct FleetRep
{
    SetupTime setup;
    double runS = 0.0;
    double horizonS = 0.0;
    Fingerprint fp;
    Qoe qoe;
    core::PanoCacheStats pano;
    std::uint64_t renderRequests = 0;
    std::uint64_t attempted = 0;
    std::uint64_t lostFrames = 0;
    std::vector<std::string> failures;
    // Kept alive for the output-check replay. The bases must outlive
    // the manager, so it is declared (and destroyed) after them.
    std::unique_ptr<core::Session> base;
    std::unique_ptr<RecordingManager> mgr;
};

/** Drop a repetition's live objects, the manager before its bases. */
void
release(FleetRep &rep)
{
    rep.mgr.reset();
    rep.base.reset();
}

/**
 * The fleet's set-up, which setup_s times: the SessionManager and the
 * base Session that shares its panorama cache. The work does not
 * depend on the workload seed.
 */
void
createFleet(const FleetShape &shape, double simS, bool render, FleetRep &rep,
            Ledger &ledger)
{
    rep.setup = timeSetup([&] {
        Ledger::Span span(ledger, "core.session_create");
        core::FleetCapacity cap;
        cap.maxSessions = shape.sessions;
        cap.maxClients = shape.sessions * shape.players;
        rep.mgr = std::make_unique<RecordingManager>(cap, shape.sessions,
                                                     render);
        core::SessionParams sp;
        sp.players = shape.players;
        sp.durationS = simS;
        sp.seed = kWorldSeed;
        sp.calibrateSimilarity = false;
        sp.frameStore.sharedPanoCache = rep.mgr->panoCache();
        rep.base = core::Session::create(world::gen::GameId::Viking, sp);
    });
}

/** One more set-up sample, taken between repetitions and discarded. */
SetupTime
fleetSetupSample(const FleetShape &shape)
{
    Ledger off("", false);
    FleetRep rep;
    createFleet(shape, shape.repSimS, shape.render, rep, off);
    release(rep);
    return rep.setup;
}

FleetRep
runFleet(const FleetShape &shape, std::uint64_t seed, double simS,
         bool render, Ledger &ledger)
{
    FleetRep rep;
    createFleet(shape, simS, render, rep, ledger);
    {
        Ledger::Span span(ledger, "fleet.submit");
        // Popular routes: each route is played by two sessions, so half
        // the fleet revisits content another session also renders.
        const int routes = (shape.sessions + 1) / 2;
        Rng arrivals(hashCombine(seed, 0xa771));
        for (int i = 0; i < shape.sessions; ++i) {
            core::FleetSessionSpec spec;
            spec.base = rep.base.get();
            spec.traceSeed = kRouteSeedBase + static_cast<std::uint64_t>(
                                                  i % routes);
            spec.startMs = arrivals.uniform(0.0, kArrivalSpreadMs);
            spec.recordFrameLog = true;
            spec.renderOnFetch = render;
            spec.renderWidth = shape.width;
            spec.renderHeight = shape.height;
            const core::AdmissionDecision d = rep.mgr->submit(spec);
            if (d.verdict != core::AdmissionVerdict::Admitted)
                rep.failures.push_back(std::string("session not admitted: ") +
                                       d.reason);
        }
    }
    core::FleetResult fleet;
    {
        Ledger::Span span(ledger, "fleet.run");
        const auto t1 = Clock::now();
        fleet = rep.mgr->run();
        rep.runS = secondsSince(t1);
    }

    Digest logs;
    const auto slots = static_cast<std::uint64_t>(
        std::llround(simS * 1000.0 / kFrameBudgetMs)) *
                       static_cast<std::uint64_t>(shape.players);
    for (const core::FleetSessionReport &s : fleet.sessions) {
        rep.renderRequests += s.fleetRenders;
        if (s.phase != core::SessionPhase::Completed) {
            rep.lostFrames += slots;
            rep.attempted += slots;
            rep.failures.push_back("session " + s.label + " ended " +
                                   core::sessionPhaseName(s.phase));
            continue;
        }
        const std::uint64_t before = rep.qoe.frames;
        rep.qoe.add(s.result, logs);
        rep.attempted += rep.qoe.frames - before;
    }
    rep.horizonS = fleet.horizonMs / 1000.0;
    rep.pano = fleet.panoCache;
    rep.fp.events = rep.mgr->queue().executedEvents();
    rep.fp.deliveries = rep.qoe.fetched;
    rep.fp.panoMisses = fleet.panoCache.misses;
    rep.fp.frameLog = logs.value();
    rep.fp.setup = setupDigest(rep.base->partition().leaves,
                               rep.base->distThresholds());

    if (fleet.faults != 0 || fleet.evictions != 0)
        rep.failures.push_back("faults or evictions in an ungoverned fleet");
    if (rep.qoe.frames == 0 || rep.qoe.fetched == 0)
        rep.failures.push_back("fleet displayed or fetched no frames");
    if (render) {
        const core::PanoCacheStats &p = fleet.panoCache;
        if (p.hits + p.misses + p.inflightJoins != rep.renderRequests)
            rep.failures.push_back(
                "pano cache outcomes do not add up to render requests");
        if (shape.sessions > 1 && p.hits == 0)
            rep.failures.push_back("no cross-session render sharing");
    } else if (fleet.panoCache.misses != 0 || rep.renderRequests != 0) {
        rep.failures.push_back("renders in a fleet without renderOnFetch");
    }
    return rep;
}

/** Deterministic sample of the fetched grid keys, as render lookups. */
LookupList
sampleFleetLookups(const FleetRep &rep, const FleetShape &shape,
                   std::uint64_t seed, int count)
{
    std::vector<std::uint64_t> all;
    for (const auto &keys : rep.mgr->keys())
        all.insert(all.end(), keys.begin(), keys.end());
    LookupList lookups;
    if (all.empty())
        return lookups;
    const world::GridMap &grid = rep.base->grid();
    const auto cols = static_cast<std::uint64_t>(grid.cols());
    Rng rng(hashCombine(seed, 0x7e91a));
    for (int i = 0; i < count; ++i) {
        const std::uint64_t key = all[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(all.size()) - 1))];
        const world::GridPoint g{static_cast<std::int64_t>(key % cols),
                                 static_cast<std::int64_t>(key / cols)};
        lookups.push_back(rep.base->frames().farBeLookup(
            grid.position(g), /*distThresh=*/0.0, shape.width,
            shape.height));
    }
    return lookups;
}

// ---------------------------------------------------------------------
// server_install

struct InstallRep
{
    SetupTime setup;
    double prerenderS = 0.0;
    core::PrerenderResult prerender;
    std::uint64_t expected = 0;
    Fingerprint fp;
    core::PanoCacheStats pano;
    std::vector<std::string> failures;
    std::unique_ptr<core::Session> session;
};

/** The install's set-up, which setup_s times: a calibrated CTS session. */
std::unique_ptr<core::Session>
createInstallSession(Ledger &ledger)
{
    Ledger::Span span(ledger, "core.session_create");
    core::SessionParams sp;
    sp.seed = kWorldSeed;
    sp.calibrateSimilarity = true;
    return core::Session::create(world::gen::GameId::CTS, sp);
}

/** One more set-up sample, taken between repetitions and discarded. */
SetupTime
installSetupSample()
{
    Ledger off("", false);
    return timeSetup([&] { createInstallSession(off); });
}

/**
 * One install pass. Its inputs are fixed content (the CTS world and
 * the stride grid); the workload seed only draws which of its lookups
 * the replay checks and times.
 */
InstallRep
runInstall(std::int64_t stride, Ledger &ledger)
{
    InstallRep rep;
    rep.setup = timeSetup([&] { rep.session = createInstallSession(ledger); });
    const core::FrameStore &frames = rep.session->frames();
    {
        Ledger::Span span(ledger, "server.prerender");
        const auto t1 = Clock::now();
        rep.prerender = frames.prerenderFarBe(stride, kInstall.width,
                                              kInstall.height);
        rep.prerenderS = secondsSince(t1);
    }

    const world::GridMap &grid = rep.session->grid();
    rep.expected = static_cast<std::uint64_t>(
        ((grid.rows() + stride - 1) / stride) *
        ((grid.cols() + stride - 1) / stride));
    rep.pano = frames.panoCacheStats();
    rep.fp.deliveries = rep.prerender.frames;
    rep.fp.panoMisses = rep.pano.misses;
    rep.fp.encodedBytes = rep.prerender.encodedBytes;
    rep.fp.setup = setupDigest(rep.session->partition().leaves,
                               rep.session->distThresholds());

    if (rep.pano.misses != rep.prerender.frames || rep.pano.hits != 0)
        rep.failures.push_back(
            "install pass did not insert every panorama exactly once");
    if (rep.prerender.encodedBytes == 0)
        rep.failures.push_back("install pass encoded nothing");
    return rep;
}

/** Deterministic sample of the install grid points, as lookups. */
LookupList
sampleInstallLookups(const core::Session &session, std::int64_t stride,
                     std::uint64_t seed, int count)
{
    const world::GridMap &grid = session.grid();
    const std::int64_t rows = (grid.rows() + stride - 1) / stride;
    const std::int64_t cols = (grid.cols() + stride - 1) / stride;
    Rng rng(hashCombine(seed, 0x1257a11));
    LookupList lookups;
    for (int i = 0; i < count; ++i) {
        const world::GridPoint g{rng.uniformInt(0, cols - 1) * stride,
                                 rng.uniformInt(0, rows - 1) * stride};
        // The key prerenderFarBe files a grid point under. FrameStore
        // does not expose it, so this mirrors its grid-index scheme
        // (src/core/server.cc, FrameStore::prerenderFarBe); a change to
        // that scheme shows here as "a workload panorama is not cached".
        core::FrameStore::FarBeLookup lookup;
        lookup.rep = grid.position(g);
        lookup.cutoff = session.regions().cutoffAt(lookup.rep);
        lookup.key.worldTag = session.frames().worldTag();
        lookup.key.qx = g.ix;
        lookup.key.qy = g.iy;
        lookup.key.cutoffBits = std::bit_cast<std::uint64_t>(lookup.cutoff);
        lookup.key.pitchBits = 0;
        lookup.key.width = kInstall.width;
        lookup.key.height = kInstall.height;
        lookups.push_back(lookup);
    }
    return lookups;
}

// ---------------------------------------------------------------------
// Replays: per-call render and image costs, and output checks

struct RenderReplay
{
    std::vector<double> panoMs;
    double stageMs[5] = {};
    std::uint64_t nodesVisited = 0;
    std::uint64_t leafTests = 0;
    std::vector<double> encodeMs;
    std::vector<double> decodeMs;
    std::vector<double> ssimMs;
    std::uint64_t encodedBytes = 0;
};

constexpr const char *kStageTimers[5] = {
    "render.stage.dirs_ms", "render.stage.raycast_ms",
    "render.stage.terrain_ms", "render.stage.shade_ms",
    // The composite stage (sky fill + clip-key write) is timed under
    // this registry name.
    "render.stage.sky_ms"};

/**
 * Replay @p lookups single-threaded through FrameStore::renderFarBe
 * (timed), once more with stage timers on (must be byte-identical),
 * and against the panorama the workload cached (must be identical).
 * With @p codec, also encode, decode and compare each panorama.
 */
RenderReplay
replayRenders(const core::FrameStore &frames, const LookupList &lookups,
              bool codec, Ledger &ledger, Checks &checks)
{
    RenderReplay r;
    double stageBefore[5];
    for (int i = 0; i < 5; ++i)
        stageBefore[i] = timerSumMs(kStageTimers[i]);
    const render::Renderer renderer(frames.world());
    bool cachedMissing = false;
    bool cachedDiffers = false;
    bool stagesDiffer = false;
    bool codecPoor = false;
    for (const core::FrameStore::FarBeLookup &lookup : lookups) {
        image::Image pano;
        {
            Ledger::Span span(ledger, "render.pano");
            const std::uint64_t nodes = counterValue("bvh.nodes_visited");
            const std::uint64_t leaves = counterValue("bvh.leaf_tests");
            const auto t0 = Clock::now();
            pano = frames.renderFarBe(lookup, /*threads=*/1);
            r.panoMs.push_back(secondsSince(t0) * 1e3);
            r.nodesVisited += counterValue("bvh.nodes_visited") - nodes;
            r.leafTests += counterValue("bvh.leaf_tests") - leaves;
        }
        {
            Ledger::Span span(ledger, "render.stages");
            render::RenderOptions opts;
            opts.layer = render::DepthLayer::farBe(lookup.cutoff);
            opts.threads = 1;
            opts.stageTimers = true;
            const image::Image staged = renderer.renderPanorama(
                frames.world().eyePosition(lookup.rep), lookup.key.width,
                lookup.key.height, opts);
            stagesDiffer |= !(staged.pixels() == pano.pixels());
        }
        // What the workload cached under this key must be this frame.
        bool rendered = false;
        const auto cached = frames.panoCache().getOrRender(lookup.key, [&] {
            rendered = true;
            return pano;
        });
        cachedMissing |= rendered;
        cachedDiffers |= !(cached->pixels() == pano.pixels());
        if (!codec)
            continue;
        image::EncodedFrame encoded;
        image::Image decoded;
        double similarity = 0.0;
        {
            Ledger::Span span(ledger, "image.encode");
            const auto t0 = Clock::now();
            encoded = image::encode(pano);
            r.encodeMs.push_back(secondsSince(t0) * 1e3);
        }
        {
            Ledger::Span span(ledger, "image.decode");
            const auto t0 = Clock::now();
            decoded = image::decode(encoded);
            r.decodeMs.push_back(secondsSince(t0) * 1e3);
        }
        {
            Ledger::Span span(ledger, "image.ssim");
            const auto t0 = Clock::now();
            similarity = image::ssim(pano, decoded);
            r.ssimMs.push_back(secondsSince(t0) * 1e3);
        }
        r.encodedBytes += encoded.sizeBytes();
        codecPoor |= !(similarity >= image::kGoodSsim);
    }
    for (int i = 0; i < 5; ++i)
        r.stageMs[i] = timerSumMs(kStageTimers[i]) - stageBefore[i];
    checks.require(!stagesDiffer,
                   "stage-timed render differs from renderFarBe");
    checks.require(!cachedMissing, "a workload panorama is not cached");
    checks.require(!cachedDiffers,
                   "cached panorama differs from a fresh renderFarBe");
    checks.require(!codecPoor, "decoded panorama SSIM below kGoodSsim");
    return r;
}

/**
 * The offline setup, step by step through the same public functions
 * Session::create calls, each under its own span. Its results must
 * match the session's (the setup fingerprint).
 */
struct SetupSteps
{
    std::uint64_t leaves = 0;
    std::uint64_t digest = 0;
};

SetupSteps
replaySetup(world::gen::GameId game, std::uint64_t seed, bool calibrate,
            Ledger &ledger)
{
    const world::gen::GameInfo info = world::gen::gameInfo(game);
    std::optional<world::VirtualWorld> world;
    std::function<bool(geom::Vec2)> reachable;
    {
        Ledger::Span span(ledger, "world.gen");
        world.emplace(world::gen::makeWorld(game, seed));
        [[maybe_unused]] const world::GridMap grid =
            world::gen::makeGrid(info);
        reachable = world::gen::makeReachability(info, *world);
    }
    core::PartitionResult partition;
    std::optional<core::RegionIndex> regions;
    {
        Ledger::Span span(ledger, "core.partition");
        core::PartitionParams part;
        part.seed = hashCombine(seed, 0x9a97);
        part.reachable = reachable;
        partition = core::partitionWorld(*world, device::pixel2(), part);
        regions.emplace(world->bounds(), partition.leaves);
    }
    core::AnalyticSimilarityParams similarity;
    if (calibrate) {
        Ledger::Span span(ledger, "core.calibrate");
        std::vector<double> cutoffs;
        const auto &leaves = partition.leaves;
        for (std::size_t i = 0; i < leaves.size();
             i += std::max<std::size_t>(1, leaves.size() / 4))
            if (leaves[i].reachable)
                cutoffs.push_back(std::max(1.0, leaves[i].cutoffRadius));
        if (cutoffs.empty())
            cutoffs.push_back(8.0);
        const core::AnalyticSimilarityParams defaults;
        similarity = core::calibrateAnalytic(
            *world, cutoffs, 5, hashCombine(seed, 0xca1), reachable);
        similarity.alpha = defaults.alpha;
        similarity.floor = defaults.floor;
    }
    std::vector<double> thresholds;
    {
        Ledger::Span span(ledger, "core.dist_thresh");
        core::DistThreshParams dt;
        dt.seed = hashCombine(seed, 0xd157);
        thresholds = core::deriveDistThresholds(
            *regions, core::AnalyticSimilarity(similarity), dt);
    }
    return {partition.leaves.size(),
            setupDigest(partition.leaves, thresholds)};
}

// ---------------------------------------------------------------------
// Reporting

struct Report
{
    std::vector<Metric> &metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Span names whose self time the ledger reports, as `<name>_s`. */
const std::vector<std::string> &
ledgerLayers()
{
    static const std::vector<std::string> names = {
        "world.gen",           "core.partition",   "core.calibrate",
        "core.dist_thresh",    "core.session_create", "fleet.submit",
        "fleet.run",           "fleet.norender",   "server.prerender",
        "render.pano",         "render.stages",    "image.encode",
        "image.decode",        "image.ssim"};
    return names;
}

/** Mean real encoded panorama size of an install pass. */
double
meanKb(const core::PrerenderResult &r)
{
    return r.frames ? static_cast<double>(r.encodedBytes) / 1024.0 /
                          static_cast<double>(r.frames)
                    : 0.0;
}

/**
 * Sim-time QoE of a fleet (Equation-2 latency from the FrameLogEntry
 * logs, displayed FPS and BE prefetch bandwidth per player). These are
 * deterministic for a seed: a speed-only change leaves them identical.
 */
void
reportQoe(Report &rep, const Qoe &q)
{
    const auto frames = static_cast<double>(q.frames);
    rep.add("qoe.frame_latency_p50_ms", percentile(q.latenciesMs, 50.0),
            "ms");
    rep.add("qoe.frame_latency_p99_ms", percentile(q.latenciesMs, 99.0),
            "ms");
    rep.add("qoe.frame_latency_samples", frames, "count");
    rep.add("qoe.deadline_miss_ratio",
            frames > 0.0 ? static_cast<double>(q.overBudget) / frames : 0.0,
            "ratio");
    rep.add("qoe.degraded_ratio",
            frames > 0.0 ? static_cast<double>(q.degraded) / frames : 0.0,
            "ratio");
    rep.add("qoe.fps", q.perPlayer(q.fpsSum), "1/s");
    rep.add("qoe.be_mbps_per_player", q.perPlayer(q.beMbpsSum), "Mb/s");
}

/** What a traced run measured, besides the ledger's spans. */
struct TracedRun
{
    double overheadRatio = 0.0;
    std::size_t reps = 0;
    SetupSteps setup;
    RenderReplay replay;
    int width = 0;
    int height = 0;
    double renderS = 0.0; ///< fleet.render_s
    // The first traced repetition's results and counters.
    core::PanoCacheStats pano;
    std::uint64_t renderRequests = 0;
    Qoe qoe;
    std::uint64_t events = 0;
    double runS = 0.0;
    double horizonS = 0.0;
    core::PrerenderResult prerender;
    std::uint64_t netTransfers = 0;
    std::uint64_t netBytes = 0;
    std::uint64_t netRetries = 0;
    std::uint64_t poolJobs = 0;
    std::uint64_t poolChunks = 0;
};

struct RegistrySnapshot
{
    std::uint64_t transfers = counterValue("net.transfers");
    std::uint64_t bytes = counterValue("net.bytes_delivered");
    std::uint64_t retries = counterValue("net.retries");
    std::uint64_t jobs = counterValue("pool.jobs");
    std::uint64_t chunks = counterValue("pool.chunks");

    void
    deltaInto(TracedRun &c) const
    {
        const RegistrySnapshot now;
        c.netTransfers = now.transfers - transfers;
        c.netBytes = now.bytes - bytes;
        c.netRetries = now.retries - retries;
        c.poolJobs = now.jobs - jobs;
        c.poolChunks = now.chunks - chunks;
    }
};

void
reportLayers(Report &rep, const Ledger &ledger, const TracedRun &c)
{
    const SpanRecord &run = ledger.spans().front();
    const RenderReplay &replay = c.replay;
    const std::map<std::string, double> self =
        selfSecondsByName(ledger.spans());
    const auto selfOf = [&](const std::string &name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    for (const std::string &name : ledgerLayers())
        rep.add(name + "_s", selfOf(name), "s");
    rep.add("layers.unattributed_s", selfOf("run"), "s");
    rep.add("layers.wall_s",
            static_cast<double>(run.endNs - run.beginNs) * 1e-9, "s");
    rep.add("layers.traced_reps", static_cast<double>(c.reps), "count");
    rep.add("obs.trace_overhead_ratio", c.overheadRatio, "ratio");

    rep.add("core.partition_leaves", static_cast<double>(c.setup.leaves),
            "count");
    rep.add("fleet.render_s", c.renderS, "s");

    rep.add("sim.events", static_cast<double>(c.events), "count");
    rep.add("sim.events_per_s",
            c.runS > 0.0 ? static_cast<double>(c.events) / c.runS : 0.0,
            "1/s");
    rep.add("sim.wall_per_sim_s",
            c.horizonS > 0.0 ? c.runS / c.horizonS : 0.0, "s/s");

    const auto frames = static_cast<double>(replay.panoMs.size());
    const std::optional<double> tail = tailPercentile(replay.panoMs.size());
    double panoSumMs = 0.0;
    for (const double ms : replay.panoMs)
        panoSumMs += ms;
    rep.add("render.frames", frames, "count");
    rep.add("render.pano_ms_p50", percentile(replay.panoMs, 50.0),
            "ms");
    rep.add("render.pano_ms_tail",
            tail ? percentile(replay.panoMs, *tail) : 0.0, "ms");
    rep.add("render.pano_ms_tail_pct", tail ? *tail : 0.0, "%");
    static const char *kStageMetric[5] = {
        "render.stage.dirs_ms", "render.stage.raycast_ms",
        "render.stage.terrain_ms", "render.stage.shade_ms",
        "render.stage.composite_ms"};
    for (int i = 0; i < 5; ++i)
        rep.add(kStageMetric[i],
                frames > 0.0 ? replay.stageMs[i] / frames : 0.0, "ms");
    rep.add("render.rays_per_s",
            panoSumMs > 0.0 ? frames * c.width * c.height / (panoSumMs / 1e3)
                            : 0.0,
            "1/s");
    rep.add("bvh.nodes_visited_per_frame",
            frames > 0.0 ? static_cast<double>(replay.nodesVisited) / frames
                         : 0.0,
            "count");
    rep.add("bvh.leaf_tests_per_frame",
            frames > 0.0 ? static_cast<double>(replay.leafTests) / frames
                         : 0.0,
            "count");

    rep.add("image.encode_ms_p50", percentile(replay.encodeMs, 50.0),
            "ms");
    rep.add("image.decode_ms_p50", percentile(replay.decodeMs, 50.0),
            "ms");
    rep.add("image.ssim_ms_p50", percentile(replay.ssimMs, 50.0),
            "ms");
    rep.add("image.encoded_kb",
            replay.encodeMs.empty()
                ? 0.0
                : static_cast<double>(replay.encodedBytes) / 1024.0 /
                      static_cast<double>(replay.encodeMs.size()),
            "KiB");

    const core::PanoCacheStats &p = c.pano;
    const double served =
        static_cast<double>(p.hits + p.misses + p.inflightJoins);
    rep.add("pano_cache.hits", static_cast<double>(p.hits), "count");
    rep.add("pano_cache.misses", static_cast<double>(p.misses), "count");
    rep.add("pano_cache.inflight_joins", static_cast<double>(p.inflightJoins),
            "count");
    rep.add("pano_cache.evictions", static_cast<double>(p.evictions),
            "count");
    rep.add("pano_cache.hit_ratio",
            served > 0.0 ? static_cast<double>(p.hits + p.inflightJoins) /
                               served
                         : 0.0,
            "ratio");
    rep.add("pano_cache.renders_per_frame",
            c.renderRequests > 0
                ? static_cast<double>(p.misses) /
                      static_cast<double>(c.renderRequests)
                : 0.0,
            "ratio");

    rep.add("server.frame_kb", meanKb(c.prerender), "KiB");
    rep.add("server.encoded_bytes",
            static_cast<double>(c.prerender.encodedBytes), "bytes");

    const Qoe &q = c.qoe;
    rep.add("client.cache_hit_ratio", q.perPlayer(q.hitRatioSum), "ratio");
    rep.add("client.frame_kb", q.perFetch(q.fetchedKbSum), "KiB");
    rep.add("client.frames_fetched", static_cast<double>(q.fetched),
            "count");
    rep.add("client.grid_transitions", static_cast<double>(q.gridTransitions),
            "count");
    rep.add("client.stalls", static_cast<double>(q.stalls), "count");
    rep.add("client.frames_degraded", static_cast<double>(q.framesDegraded),
            "count");
    reportQoe(rep, q);

    rep.add("net.transfers", static_cast<double>(c.netTransfers), "count");
    rep.add("net.bytes_delivered", static_cast<double>(c.netBytes), "bytes");
    rep.add("net.delay_ms_mean", q.perFetch(q.netDelaySum), "ms");
    rep.add("net.retries", static_cast<double>(c.netRetries), "count");

    rep.add("pool.jobs", static_cast<double>(c.poolJobs), "count");
    rep.add("pool.chunks", static_cast<double>(c.poolChunks), "count");
}

/**
 * The ledger check: the self times of every layer plus the unattributed
 * remainder (the root's self time) must account for @p wallS, the
 * traced phase's wall time read from a clock pair around it, outside
 * the ledger. They may fall short of it only by the cost of opening and
 * closing the root span (allowed: 1 ms plus 0.1%), and never exceed it.
 */
bool
ledgerCoversWall(const Ledger &ledger, double wallS)
{
    double sum = 0.0;
    for (const auto &[name, s] : selfSecondsByName(ledger.spans()))
        sum += s;
    return sum <= wallS && wallS - sum < 1e-3 + 1e-3 * wallS;
}

/** Runs @p rep until @p seconds have passed and at least kMinReps ran. */
template <typename Fn>
void
repeatFor(double seconds, Fn &&rep)
{
    const auto t0 = Clock::now();
    for (int i = 0; i < kMinReps || secondsSince(t0) < seconds; ++i)
        rep(i);
}

/** The untraced repetitions' numbers, and the traced run's ledger. */
struct Phases
{
    std::vector<double> setupS;     ///< set-up CPU time
    std::vector<double> setupWallS; ///< the same set-ups' wall time
    std::vector<double> workPerS; ///< frames (or panoramas) per wall s
    std::vector<double> untracedWallS;
    std::vector<double> tracedWallS;
    std::vector<double> tracedRunS;

    /** Record an untraced repetition and its set-up samples (and log
     *  them to stderr). */
    void
    add(double work, std::initializer_list<SetupTime> setups)
    {
        workPerS.push_back(work);
        std::fprintf(stderr, "  rep %zu: frames_per_s=%.1f setup (cpu/wall s):",
                     workPerS.size(), work);
        for (const SetupTime &s : setups) {
            setupS.push_back(s.cpuS);
            setupWallS.push_back(s.wallS);
            std::fprintf(stderr, " %.4f/%.4f", s.cpuS, s.wallS);
        }
        std::fprintf(stderr, "\n");
    }
};

/** Quartiles of the per-repetition numbers behind two medians. */
void
reportSpread(Outcome &out, const Phases &ph)
{
    Report info{out.info};
    info.add("setup_s.q1", percentile(ph.setupS, 25.0), "s");
    info.add("setup_s.q3", percentile(ph.setupS, 75.0), "s");
    info.add("setup_wall_s", median(ph.setupWallS), "s");
    info.add("setup_wall_s.q1", percentile(ph.setupWallS, 25.0), "s");
    info.add("setup_wall_s.q3", percentile(ph.setupWallS, 75.0), "s");
    info.add("frames_per_s.q1", percentile(ph.workPerS, 25.0), "1/s");
    info.add("frames_per_s.q3", percentile(ph.workPerS, 75.0), "1/s");
}

/** Fold one repetition's failures and fingerprint into @p out. */
void
account(Outcome &out, const Fingerprint &fp,
        const std::vector<std::string> &failures, std::uint64_t attempted,
        std::uint64_t lost)
{
    Checks checks{out};
    out.attempted += attempted;
    out.failed += lost;
    for (const std::string &f : failures)
        checks.require(false, f);
    if (out.reps == 0)
        out.fingerprint = fp;
    else
        checks.require(fp == out.fingerprint,
                       "rep " + std::to_string(out.reps) +
                           " fingerprint differs: " + fp.str());
    ++out.reps;
}

/** The traced run's last checks, then its per-layer metrics. */
void
finishTraced(Outcome &out, const Ledger &ledger, const Phases &ph,
             TracedRun &t, double wallS)
{
    Checks checks{out};
    checks.require(t.setup.digest == out.fingerprint.setup,
                   "step-by-step setup differs from Session::create");
    checks.require(ledgerCoversWall(ledger, wallS),
                   "layer self times do not add up to the traced wall time");
    t.reps = ph.tracedWallS.size();
    t.overheadRatio = median(ph.tracedWallS) / median(ph.untracedWallS);
    Report rep{out.metrics};
    reportLayers(rep, ledger, t);
}

Outcome
runFleetWorkload(const RunOptions &opts, const FleetShape &shape,
                 Ledger &ledger)
{
    Outcome out;
    Checks checks{out};
    Ledger off(opts.workload, false);
    Phases ph;
    Qoe firstQoe;
    FleetRep live;
    const auto oneRep = [&](Ledger &l, std::vector<double> &wall) {
        release(live);
        const auto t0 = Clock::now();
        live = runFleet(shape, opts.seed, shape.repSimS, shape.render, l);
        wall.push_back(secondsSince(t0));
        account(out, live.fp, live.failures, live.attempted, live.lostFrames);
        if (out.reps == 1)
            firstQoe = live.qoe;
    };

    // A warm-up repetition (checked, not timed) lets the pool start and
    // the allocator reach its steady state. Then untraced repetitions:
    // the end-to-end numbers, or in a traced run the baseline of the
    // tracing overhead.
    std::vector<double> warmWallS;
    oneRep(off, warmWallS);
    // An untraced run takes one more set-up sample before each
    // repetition, for a steadier setup_s median.
    repeatFor(opts.trace ? opts.seconds / 2 : opts.seconds, [&](int) {
        SetupTime extraSetup;
        if (!opts.trace) {
            release(live);
            extraSetup = fleetSetupSample(shape);
        }
        oneRep(off, ph.untracedWallS);
        const double work = static_cast<double>(live.qoe.frames) / live.runS;
        if (opts.trace)
            ph.add(work, {live.setup});
        else
            ph.add(work, {extraSetup, live.setup});
    });

    if (!opts.trace) {
        if (shape.render)
            replayRenders(live.base->frames(),
                          sampleFleetLookups(live, shape, opts.seed,
                                             kCheckSamples),
                          false, off, checks);
        release(live);
        Report rep{out.metrics};
        rep.add("setup_s", median(ph.setupS), "s");
        rep.add("frames_per_s", median(ph.workPerS), "1/s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        reportSpread(out, ph);
        Report info{out.info};
        info.add("client.frame_kb", firstQoe.perFetch(firstQoe.fetchedKbSum),
                 "KiB");
        reportQoe(info, firstQoe);
        // failed_ratio: frames over the 16.7 ms budget or
        // served degraded, plus every hard failure, over frames.
        info.add("failed_ratio",
                 static_cast<double>(firstQoe.overBudget +
                                     firstQoe.degraded) /
                         static_cast<double>(firstQoe.frames) +
                     static_cast<double>(out.failed) /
                         static_cast<double>(out.attempted),
                 "ratio");
        return out;
    }

    release(live);
    obs::installPoolTelemetry();
    TracedRun t;
    t.width = shape.width;
    t.height = shape.height;
    const auto tracedT0 = Clock::now();
    {
        Ledger::Span root(ledger, "run");
        t.setup = replaySetup(world::gen::GameId::Viking, kWorldSeed,
                              false, ledger);
        repeatFor(opts.seconds / 2, [&](int i) {
            const RegistrySnapshot before;
            oneRep(ledger, ph.tracedWallS);
            ph.tracedRunS.push_back(live.runS);
            if (i == 0) {
                before.deltaInto(t);
                t.pano = live.pano;
                t.renderRequests = live.renderRequests;
                t.qoe = live.qoe;
                t.events = live.fp.events;
                t.runS = live.runS;
                t.horizonS = live.horizonS;
            }
        });
        if (shape.render) {
            t.replay = replayRenders(live.base->frames(),
                                   sampleFleetLookups(live, shape, opts.seed,
                                                      shape.replaySamples),
                                   false, ledger, checks);
            release(live);
            // fleet.render_s: the fleet's run time minus the same fleet
            // with renders off, attributed from outside the program.
            Ledger::Span span(ledger, "fleet.norender");
            FleetRep bare =
                runFleet(shape, opts.seed, shape.repSimS, false, off);
            t.renderS = median(ph.tracedRunS) - bare.runS;
            for (const std::string &f : bare.failures)
                checks.require(false, "renders off: " + f);
            release(bare);
        }
        release(live);
    }
    finishTraced(out, ledger, ph, t, secondsSince(tracedT0));
    return out;
}

Outcome
runInstallWorkload(const RunOptions &opts, Ledger &ledger)
{
    Outcome out;
    Checks checks{out};
    Ledger off(opts.workload, false);
    Phases ph;
    InstallRep first;
    std::unique_ptr<core::Session> live;
    const auto oneRep = [&](Ledger &l, std::vector<double> &wall) {
        live.reset();
        const auto t0 = Clock::now();
        InstallRep rep = runInstall(kInstall.stride, l);
        wall.push_back(secondsSince(t0));
        account(out, rep.fp, rep.failures, rep.expected,
                rep.expected - std::min(rep.expected, rep.prerender.frames));
        live = std::move(rep.session);
        return rep;
    };

    std::vector<double> warmWallS;
    first = oneRep(off, warmWallS);
    // As on the fleets: one more set-up sample before each repetition.
    repeatFor(opts.trace ? opts.seconds / 2 : opts.seconds, [&](int) {
        SetupTime extraSetup;
        if (!opts.trace) {
            live.reset();
            extraSetup = installSetupSample();
        }
        const InstallRep rep = oneRep(off, ph.untracedWallS);
        const double work =
            static_cast<double>(rep.prerender.frames) / rep.prerenderS;
        if (opts.trace)
            ph.add(work, {rep.setup});
        else
            ph.add(work, {extraSetup, rep.setup});
    });

    if (!opts.trace) {
        replayRenders(live->frames(),
                      sampleInstallLookups(*live, kInstall.stride, opts.seed,
                                           kCheckSamples),
                      true, off, checks);
        live.reset();
        Report rep{out.metrics};
        rep.add("setup_s", median(ph.setupS), "s");
        rep.add("frames_per_s", median(ph.workPerS), "1/s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        reportSpread(out, ph);
        Report{out.info}.add("server.frame_kb", meanKb(first.prerender),
                             "KiB");
        return out;
    }

    live.reset();
    obs::installPoolTelemetry();
    TracedRun t;
    t.width = kInstall.width;
    t.height = kInstall.height;
    const auto tracedT0 = Clock::now();
    {
        Ledger::Span root(ledger, "run");
        t.setup = replaySetup(world::gen::GameId::CTS, kWorldSeed, true,
                              ledger);
        repeatFor(opts.seconds / 2, [&](int i) {
            const RegistrySnapshot before;
            const InstallRep rep = oneRep(ledger, ph.tracedWallS);
            if (i == 0) {
                before.deltaInto(t);
                t.pano = rep.pano;
                t.prerender = rep.prerender;
            }
        });
        t.replay = replayRenders(live->frames(),
                               sampleInstallLookups(*live, kInstall.stride,
                                                    opts.seed,
                                                    kInstall.replaySamples),
                               true, ledger, checks);
        live.reset();
    }
    finishTraced(out, ledger, ph, t, secondsSince(tracedT0));
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fleet_render",
                                                   "fleet_des",
                                                   "server_install"};
    return names;
}

Outcome
runWorkload(const RunOptions &opts, Ledger &ledger)
{
    if (opts.workload == "fleet_render")
        return runFleetWorkload(opts, kFleetRender, ledger);
    if (opts.workload == "fleet_des")
        return runFleetWorkload(opts, kFleetDes, ledger);
    return runInstallWorkload(opts, ledger);
}

Fingerprint
shortFingerprint(const RunOptions &opts)
{
    Ledger off(opts.workload, false);
    if (opts.workload == "server_install")
        return runInstall(kInstall.shortStride, off).fp;
    const FleetShape &shape =
        opts.workload == "fleet_render" ? kFleetRender : kFleetDes;
    FleetRep rep =
        runFleet(shape, opts.seed, shape.shortSimS, shape.render, off);
    release(rep);
    return rep.fp;
}

} // namespace perfbench
