/**
 * @file
 * Render hot-path benchmark. Three axes:
 *  - render path A/B: the seed per-pixel renderer (SeedScalar) vs the
 *    SIMD scalar path vs the packetized row-batched pipeline (Batched)
 *    on the production SAH tree — the frames are bit-identical, only
 *    the time moves;
 *  - BVH build A/B: median split vs binned SAH (both on the batched
 *    path), plus the raw raycast seed-traversal comparison;
 *  - the coterie-wide far-BE render de-dup scenario (8 clients,
 *    pano-cache hit ratio and renders per frame).
 * Each world also records a per-stage panorama breakdown (direction
 * gen / raycast / terrain / shade / composite) from the batched
 * pipeline's stage timers, plus the terrain height evaluations per
 * frame that explain the terrain stage.
 *
 * Every timed quantity is the minimum over `reps` repetitions (the
 * least noise-inflated estimate of a deterministic workload), with
 * the A/B arms interleaved within each repetition; its spread
 * (max / min - 1) is recorded next to it, together with
 * hardware_concurrency and the pool size the frames ran on.
 *
 * Flags:
 *   --smoke   tiny resolutions (CI perf-smoke job)
 *   --check   exit non-zero if a tracked ratio regresses or the
 *             batched and seed frames differ
 *   --stages  re-run the stage breakdown with full reps and print a
 *             per-world table
 *
 * Writes results/BENCH_render.json (and ./BENCH_render.json).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/partitioner.hh"
#include "core/server.hh"
#include "obs/metrics.hh"
#include "render/renderer.hh"
#include "support/parallel.hh"
#include "world/gen/generators.hh"

namespace {

using namespace coterie;
using world::gen::GameId;

double
seconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Min-of-reps wall time of one repeated workload, with its spread. */
struct RepTime
{
    double minS = std::numeric_limits<double>::infinity();
    double maxS = 0.0;

    void
    add(double s)
    {
        minS = std::min(minS, s);
        maxS = std::max(maxS, s);
    }
    /** max / min - 1 across the repetitions. */
    double spread() const { return maxS / minS - 1.0; }
};

/** One A/B arm: a world (and so its BVH build) through a render path. */
struct RenderArm
{
    const world::VirtualWorld *world;
    render::RenderPath path;
};

struct AbTimes
{
    RepTime pano;  ///< one panorama frame
    RepTime persp; ///< one perspective frame
};

/**
 * Time panorama + perspective frames through every arm. Each
 * repetition renders one frame of each arm in turn, so a slow spell
 * on a shared machine lands on all arms alike instead of skewing the
 * ratios between them.
 */
std::vector<AbTimes>
timeRenders(const std::vector<RenderArm> &arms, int panoW, int panoH,
            int perspW, int perspH, int reps)
{
    std::vector<AbTimes> out(arms.size());
    for (int r = -1; r < reps; ++r) { // r == -1: untimed warm-up
        for (std::size_t a = 0; a < arms.size(); ++a) {
            const world::VirtualWorld &world = *arms[a].world;
            const render::Renderer renderer(world);
            const geom::Vec3 eye =
                world.eyePosition(world.bounds().center());
            render::Camera camera;
            camera.position = eye;
            render::RenderOptions opts;
            opts.path = arms[a].path;
            const double pano_s = seconds([&] {
                if (renderer.renderPanorama(eye, panoW, panoH, opts).empty())
                    std::abort(); // keep the optimizer honest
            });
            const double persp_s = seconds([&] {
                if (renderer.renderPerspective(camera, perspW, perspH, opts)
                        .empty())
                    std::abort();
            });
            if (r >= 0) {
                out[a].pano.add(pano_s);
                out[a].persp.add(persp_s);
            }
        }
    }
    return out;
}

/** Stage timer metric names, in pipeline order. */
constexpr const char *kStageNames[] = {
    "render.stage.dirs_ms", "render.stage.raycast_ms",
    "render.stage.terrain_ms", "render.stage.shade_ms",
    "render.stage.sky_ms"};
constexpr const char *kStageLabels[] = {"dirs", "raycast", "terrain",
                                        "shade", "composite"};
constexpr int kStageCount = 5;

/**
 * Per-stage panorama cost (ms/frame) via the batched pipeline's stage
 * timers: render @p reps frames with timers on, diff the registry
 * timer sums. The instrumentation is two clock reads per row per
 * stage — well under timing noise at bench resolutions. Returns the
 * terrain height evaluations per frame (`render.stage.terrain_evals`).
 */
double
stageBreakdown(const world::VirtualWorld &world, int panoW, int panoH,
               int reps, double out[kStageCount])
{
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    render::RenderOptions opts;
    opts.stageTimers = true;
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    double before[kStageCount];
    for (int i = 0; i < kStageCount; ++i)
        before[i] = registry.timer(kStageNames[i]).snapshot().stats.sum();
    obs::Counter &evals = registry.counter("render.stage.terrain_evals");
    const std::uint64_t evals_before = evals.value();
    for (int r = 0; r < reps; ++r) {
        const auto frame = renderer.renderPanorama(eye, panoW, panoH, opts);
        if (frame.empty())
            std::abort();
    }
    for (int i = 0; i < kStageCount; ++i)
        out[i] = (registry.timer(kStageNames[i]).snapshot().stats.sum() -
                  before[i]) /
                 reps;
    return static_cast<double>(evals.value() - evals_before) / reps;
}

/**
 * The load-bearing equivalence behind every A/B above: the batched
 * packet pipeline and the seed per-pixel renderer must produce
 * byte-identical frames (whole scene and both clip layers).
 */
bool
pathsAgree(const world::VirtualWorld &world)
{
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    for (int layer = 0; layer < 3; ++layer) {
        render::RenderOptions opts;
        if (layer == 1)
            opts.layer = render::DepthLayer::nearBe(25.0);
        else if (layer == 2)
            opts.layer = render::DepthLayer::farBe(25.0);
        opts.path = render::RenderPath::SeedScalar;
        const auto seed = renderer.renderPanorama(eye, 96, 48, opts);
        opts.path = render::RenderPath::Batched;
        const auto packet = renderer.renderPanorama(eye, 96, 48, opts);
        if (!(seed.pixels() == packet.pixels()))
            return false;
    }
    return true;
}

/**
 * Cast the full panorama ray set through the BVH alone (no shading, no
 * terrain, serial): isolates the hot path the overhaul targets. With
 * @p seedBaseline the rays go through the preserved pre-overhaul
 * traversal — Median build + seedBaseline reproduces the seed renderer.
 * Returns the wall seconds of one pass.
 */
double
raycastSeconds(const world::VirtualWorld &world, geom::Vec3 eye, int w,
               int h, bool seedBaseline)
{
    const world::Bvh &bvh = world.bvh();
    double sink = 0.0;
    const double s = seconds([&] {
        for (int y = 0; y < h; ++y) {
            const double v = (y + 0.5) / h;
            for (int x = 0; x < w; ++x) {
                const double u = (x + 0.5) / w;
                geom::Ray ray;
                ray.origin = eye;
                ray.dir = render::panoramaDirection(u, v);
                const geom::Hit hit = seedBaseline
                                          ? bvh.closestHitSeedBaseline(ray)
                                          : bvh.closestHit(ray);
                if (hit.valid())
                    sink += hit.t;
            }
        }
    });
    if (sink < 0.0)
        std::abort(); // keep the optimizer honest
    return s;
}

/**
 * 8-client far-BE scenario: four position pairs, each pair inside one
 * quantization cell, fanned out over the pool — measures how many
 * actual renders the pano cache performs and its hit ratio.
 */
obs::Json
panoCacheScenario(const world::VirtualWorld &world, int width, int height)
{
    const world::GridMap grid =
        world::gen::makeGrid(world::gen::gameInfo(GameId::Viking));
    const auto partition = core::partitionWorld(world, device::pixel2(), {});
    const core::RegionIndex regions(world.bounds(), partition.leaves);
    const core::FrameStore frames(world, grid, regions);

    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    std::vector<geom::Vec2> clients;
    for (int pair = 0; pair < 4; ++pair) {
        const double cx = b.lo.x + (2.0 * pair + 2.25) * pitch;
        const double cy = b.lo.y + 2.25 * pitch;
        clients.push_back({cx, cy});
        clients.push_back({cx + 0.4 * pitch, cy + 0.4 * pitch});
    }

    const double wall_s = seconds([&] {
        support::parallelFor(
            0, static_cast<std::int64_t>(clients.size()), 1,
            [&](std::int64_t s, std::int64_t e) {
                for (std::int64_t i = s; i < e; ++i)
                    frames.farBePanorama(
                        clients[static_cast<std::size_t>(i)], thresh,
                        width, height);
            },
            4);
    });

    const core::PanoCacheStats stats = frames.panoCacheStats();
    const double served =
        static_cast<double>(stats.hits + stats.misses + stats.inflightJoins);
    obs::Json out = obs::Json::object();
    out.set("clients",
            obs::Json(static_cast<std::uint64_t>(clients.size())));
    out.set("renders", obs::Json(stats.misses));
    out.set("hits", obs::Json(stats.hits));
    out.set("inflight_joins", obs::Json(stats.inflightJoins));
    out.set("hit_ratio",
            obs::Json(served > 0.0
                          ? (served - stats.misses) / served
                          : 0.0));
    out.set("renders_per_frame",
            obs::Json(static_cast<double>(stats.misses) /
                      static_cast<double>(clients.size())));
    out.set("wall_s", obs::Json(wall_s));
    std::printf("  pano-cache: %zu clients -> %llu renders "
                "(%.0f%% cache-served), %.2f renders/frame\n",
                clients.size(),
                static_cast<unsigned long long>(stats.misses),
                100.0 * (served - stats.misses) / served,
                static_cast<double>(stats.misses) / clients.size());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool check = false;
    bool stages_mode = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--stages") == 0)
            stages_mode = true;
    }

    bench::banner("Render hot path: packet pipeline vs seed renderer + "
                  "BVH A/B + far-BE de-dup",
                  "the renderer behind Tables 6-8");

    const int pano_w = smoke ? 160 : 512;
    const int pano_h = smoke ? 80 : 256;
    const int persp_w = smoke ? 128 : 320;
    const int persp_h = smoke ? 96 : 240;
    // Smoke frames are ~10x cheaper, so smoke runs more repetitions:
    // with one, the gated smoke ratios flapped run to run.
    const int reps = smoke ? 9 : 5;

    const struct
    {
        GameId id;
        const char *name;
    } games[] = {{GameId::Racing, "racing"},
                 {GameId::CTS, "cts"},
                 {GameId::Viking, "viking"}};

    obs::Json worlds = obs::Json::object();
    double total_median_ms = 0.0;
    double total_sah_ms = 0.0;
    double total_seed_ms = 0.0;
    double total_seed_ray_s = 0.0;
    double total_new_ray_s = 0.0;
    bool parity_ok = true;
    for (const auto &game : games) {
        world::VirtualWorld world = world::gen::makeWorld(game.id, 42);
        std::printf("\n  %s (%zu objects)\n", game.name,
                    world.objects().size());

        // The seed-equivalent tree (median build) beside the production
        // SAH tree, so the A/B arms can interleave. Frames are
        // byte-identical across paths and trees (checked below); only
        // time moves.
        world::VirtualWorld median_world = world::gen::makeWorld(game.id, 42);
        median_world.rebuildIndex(world::BvhBuildPolicy::Median);
        const std::vector<AbTimes> times = timeRenders(
            {{&median_world, render::RenderPath::Batched},
             {&world, render::RenderPath::SeedScalar},
             {&world, render::RenderPath::Scalar},
             {&world, render::RenderPath::Batched}},
            pano_w, pano_h, persp_w, persp_h, reps);
        const AbTimes &median = times[0];
        const AbTimes &seed_path = times[1];
        const AbTimes &scalar_path = times[2];
        const AbTimes &sah = times[3];
        // Raycast-only A/B: seed traversal on the median tree vs the
        // ordered traversal on the SAH tree, interleaved per rep.
        const geom::Vec3 eye = world.eyePosition(world.bounds().center());
        RepTime seed_ray, new_ray;
        for (int r = 0; r < reps; ++r) {
            seed_ray.add(
                raycastSeconds(median_world, eye, pano_w, pano_h, true));
            new_ray.add(raycastSeconds(world, eye, pano_w, pano_h, false));
        }
        const double seed_ray_s = seed_ray.minS;
        const double new_ray_s = new_ray.minS;
        const double ray_speedup = seed_ray_s / new_ray_s;
        const double pano_ms_median = median.pano.minS * 1000.0;
        const double pano_ms_seed = seed_path.pano.minS * 1000.0;
        const double pano_ms_scalar = scalar_path.pano.minS * 1000.0;
        const double pano_ms_sah = sah.pano.minS * 1000.0;
        const double persp_ms_median = median.persp.minS * 1000.0;
        const double persp_ms_seed = seed_path.persp.minS * 1000.0;
        const double persp_ms_sah = sah.persp.minS * 1000.0;
        const double pano_rays = static_cast<double>(pano_w) * pano_h;
        const double pano_speedup_vs_seed = pano_ms_seed / pano_ms_sah;
        double stage_ms[kStageCount];
        const double terrain_evals = stageBreakdown(
            world, pano_w, pano_h, stages_mode ? reps : 1, stage_ms);
        const bool agree = pathsAgree(world);
        parity_ok = parity_ok && agree;

        std::printf("    pano   %7.2f ms (seed)  %7.2f ms (scalar)  "
                    "%7.2f ms (packet)  %.2fx vs seed\n",
                    pano_ms_seed, pano_ms_scalar, pano_ms_sah,
                    pano_speedup_vs_seed);
        std::printf("    persp  %7.2f ms (seed)  %7.2f ms (packet)  "
                    "%.2fx vs seed\n",
                    persp_ms_seed, persp_ms_sah, persp_ms_seed / persp_ms_sah);
        std::printf("    pano   %7.2f ms (median tree)  %7.2f ms (sah)  "
                    "%.2fx,  rays/s %.2fM\n",
                    pano_ms_median, pano_ms_sah,
                    pano_ms_median / pano_ms_sah,
                    pano_rays / sah.pano.minS / 1e6);
        std::printf("    pano raycast vs seed traversal: %7.2f ms -> "
                    "%7.2f ms  %.2fx\n",
                    seed_ray_s * 1000.0, new_ray_s * 1000.0, ray_speedup);
        std::printf("    stages ");
        for (int i = 0; i < kStageCount; ++i)
            std::printf(" %s %.1f ms%s", kStageLabels[i], stage_ms[i],
                        i + 1 < kStageCount ? "," : "\n");
        std::printf("    terrain height evaluations: %.0f per frame "
                    "(%.2f per pixel)\n",
                    terrain_evals,
                    terrain_evals / (static_cast<double>(pano_w) * pano_h));
        std::printf("    frames: packet %s seed\n",
                    agree ? "==" : "DIFFER FROM");

        obs::Json w = obs::Json::object();
        w.set("objects", obs::Json(static_cast<std::uint64_t>(
                             world.objects().size())));
        w.set("pano_ms_median", obs::Json(pano_ms_median));
        w.set("pano_ms_sah", obs::Json(pano_ms_sah));
        w.set("pano_speedup", obs::Json(pano_ms_median / pano_ms_sah));
        w.set("pano_ms_seed", obs::Json(pano_ms_seed));
        w.set("pano_ms_scalar", obs::Json(pano_ms_scalar));
        w.set("pano_ms_packet", obs::Json(pano_ms_sah));
        w.set("pano_speedup_vs_seed", obs::Json(pano_speedup_vs_seed));
        w.set("persp_ms_median", obs::Json(persp_ms_median));
        w.set("persp_ms_sah", obs::Json(persp_ms_sah));
        w.set("persp_ms_seed", obs::Json(persp_ms_seed));
        w.set("persp_speedup", obs::Json(persp_ms_median / persp_ms_sah));
        w.set("persp_speedup_vs_seed",
              obs::Json(persp_ms_seed / persp_ms_sah));
        w.set("pano_rays_per_s_median",
              obs::Json(pano_rays / median.pano.minS));
        w.set("pano_rays_per_s_sah", obs::Json(pano_rays / sah.pano.minS));
        w.set("pano_raycast_ms_seed", obs::Json(seed_ray_s * 1000.0));
        w.set("pano_raycast_ms_new", obs::Json(new_ray_s * 1000.0));
        w.set("pano_raycast_speedup_vs_seed", obs::Json(ray_speedup));
        obs::Json stages = obs::Json::object();
        for (int i = 0; i < kStageCount; ++i)
            stages.set(kStageLabels[i], obs::Json(stage_ms[i]));
        w.set("pano_stage_ms", std::move(stages));
        w.set("pano_terrain_evals_per_frame", obs::Json(terrain_evals));
        // Relative spread (max / min - 1) of every min-of-reps time.
        obs::Json spread = obs::Json::object();
        spread.set("pano_median", obs::Json(median.pano.spread()));
        spread.set("pano_seed", obs::Json(seed_path.pano.spread()));
        spread.set("pano_scalar", obs::Json(scalar_path.pano.spread()));
        spread.set("pano_packet", obs::Json(sah.pano.spread()));
        spread.set("persp_median", obs::Json(median.persp.spread()));
        spread.set("persp_seed", obs::Json(seed_path.persp.spread()));
        spread.set("persp_packet", obs::Json(sah.persp.spread()));
        spread.set("raycast_seed", obs::Json(seed_ray.spread()));
        spread.set("raycast_new", obs::Json(new_ray.spread()));
        w.set("spread", std::move(spread));
        w.set("packet_matches_seed", obs::Json(agree));
        worlds.set(game.name, std::move(w));
        total_median_ms += pano_ms_median;
        total_sah_ms += pano_ms_sah;
        total_seed_ms += pano_ms_seed;
        total_seed_ray_s += seed_ray_s;
        total_new_ray_s += new_ray_s;
    }

    std::printf("\n  8-client far-BE de-dup (viking)\n");
    world::VirtualWorld viking = world::gen::makeWorld(GameId::Viking, 42);
    obs::Json cache = panoCacheScenario(viking, smoke ? 64 : 192,
                                        smoke ? 32 : 96);

    obs::Json doc = obs::Json::object();
    doc.set("smoke", obs::Json(smoke));
    doc.set("pano_w", obs::Json(static_cast<std::uint64_t>(pano_w)));
    doc.set("pano_h", obs::Json(static_cast<std::uint64_t>(pano_h)));
    doc.set("reps", obs::Json(static_cast<std::uint64_t>(reps)));
    doc.set("timing", obs::Json("min of reps; spread = max / min - 1"));
    doc.set("hardware_concurrency",
            obs::Json(static_cast<std::uint64_t>(
                std::thread::hardware_concurrency())));
    doc.set("pool_threads",
            obs::Json(static_cast<std::uint64_t>(
                support::ThreadPool::instance().concurrency())));
    doc.set("worlds", std::move(worlds));
    doc.set("pano_cache", std::move(cache));
    doc.set("total_pano_ms_median", obs::Json(total_median_ms));
    doc.set("total_pano_ms_sah", obs::Json(total_sah_ms));
    doc.set("total_pano_ms_seed", obs::Json(total_seed_ms));
    doc.set("total_pano_ms_packet", obs::Json(total_sah_ms));
    doc.set("total_pano_speedup",
            obs::Json(total_median_ms / total_sah_ms));
    doc.set("total_pano_speedup_vs_seed",
            obs::Json(total_seed_ms / total_sah_ms));
    const double total_ray_speedup = total_seed_ray_s / total_new_ray_s;
    doc.set("total_pano_raycast_speedup_vs_seed",
            obs::Json(total_ray_speedup));
    doc.set("packet_matches_seed", obs::Json(parity_ok));
    bench::writeBenchJson("render", doc);

    std::printf("\n  total pano: %.2f ms (seed path) vs %.2f ms (packet) "
                "-> %.2fx frame; %.2fx raycast vs seed traversal\n",
                total_seed_ms, total_sah_ms, total_seed_ms / total_sah_ms,
                total_ray_speedup);

    if (check) {
        // The parity and raycast checks are deterministic — solid CI
        // signals. Frame times run on the pool, so allow 10% noise.
        if (!parity_ok) {
            std::printf("  CHECK FAILED: packet pipeline frames differ "
                        "from the seed renderer\n");
            return 1;
        }
        if (total_ray_speedup < 1.0) {
            std::printf("  CHECK FAILED: overhauled traversal slower "
                        "than seed baseline\n");
            return 1;
        }
        if (total_sah_ms > 1.10 * total_median_ms) {
            std::printf("  CHECK FAILED: SAH frame time regressed above "
                        "median split\n");
            return 1;
        }
        if (total_sah_ms > 1.10 * total_seed_ms) {
            std::printf("  CHECK FAILED: packet pipeline slower than "
                        "the seed render path\n");
            return 1;
        }
    }
    return 0;
}
