/**
 * @file
 * Tests for the procedural terrain: determinism, continuity, flat
 * floors, golden heights, the slope bound, ray-march/heightfield
 * consistency (the slope-bounded march against the per-sample
 * reference), and the foothold query used to place the player camera.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/rng.hh"
#include "world/gen/generators.hh"
#include "world/terrain.hh"

namespace coterie::world {
namespace {

using geom::Ray;
using geom::Vec2;
using geom::Vec3;

TEST(Terrain, DeterministicInSeed)
{
    TerrainParams p;
    p.seed = 77;
    Terrain a(p), b(p);
    for (double x = 0; x < 50; x += 7.3)
        EXPECT_DOUBLE_EQ(a.heightAt({x, x * 2}), b.heightAt({x, x * 2}));
    p.seed = 78;
    Terrain c(p);
    bool differs = false;
    for (double x = 0; x < 50; x += 7.3)
        differs |= a.heightAt({x, x}) != c.heightAt({x, x});
    EXPECT_TRUE(differs);
}

TEST(Terrain, HeightBoundedByAmplitude)
{
    TerrainParams p;
    p.amplitude = 3.0;
    Terrain t(p);
    for (double x = -100; x < 100; x += 3.7)
        for (double y = -100; y < 100; y += 11.1)
            EXPECT_LE(std::abs(t.heightAt({x, y})), p.amplitude + 1e-9);
}

TEST(Terrain, Continuity)
{
    Terrain t{TerrainParams{}};
    const double h0 = t.heightAt({10.0, 10.0});
    const double h1 = t.heightAt({10.001, 10.0});
    EXPECT_NEAR(h0, h1, 0.01);
}

TEST(Terrain, FlatFloorIsZero)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p);
    EXPECT_DOUBLE_EQ(t.heightAt({12.3, -4.5}), 0.0);
    EXPECT_EQ(t.normalAt({1, 1}), Vec3(0.0, 1.0, 0.0));
}

TEST(Terrain, FootholdEqualsHeight)
{
    Terrain t{TerrainParams{}};
    const Vec2 p{31.0, 8.0};
    EXPECT_DOUBLE_EQ(t.foothold(p), t.heightAt(p));
}

TEST(Terrain, NormalIsUnitAndUpish)
{
    Terrain t{TerrainParams{}};
    for (double x = 0; x < 60; x += 13.7) {
        const Vec3 n = t.normalAt({x, 2 * x});
        EXPECT_NEAR(n.length(), 1.0, 1e-9);
        EXPECT_GT(n.y, 0.5); // gentle terrain: mostly up
    }
}

TEST(Terrain, DownwardRayHitsSurfaceAtHeight)
{
    Terrain t{TerrainParams{}};
    const Vec2 ground{25.0, 40.0};
    Ray ray;
    ray.origin = geom::lift(ground, 50.0);
    ray.dir = {0.0, -1.0, 0.0};
    const auto hit = t.intersect(ray, 1000.0);
    ASSERT_TRUE(hit.has_value());
    const Vec3 p = ray.at(*hit);
    EXPECT_NEAR(p.y, t.heightAt(p.ground()), 0.05);
}

TEST(Terrain, UpwardRayEscapes)
{
    Terrain t{TerrainParams{}};
    Ray ray;
    ray.origin = {10.0, 10.0, 10.0};
    ray.dir = Vec3{0.1, 1.0, 0.1}.normalized();
    EXPECT_FALSE(t.intersect(ray, 1000.0).has_value());
}

TEST(Terrain, RayStartingBelowSurfaceIsClippedOut)
{
    Terrain t{TerrainParams{}};
    Ray ray;
    // Start well below any terrain and look horizontally: the clipped
    // start is below ground, which the renderer treats as "clipped".
    ray.origin = {10.0, -50.0, 10.0};
    ray.dir = {1.0, 0.0, 0.0};
    EXPECT_FALSE(t.intersect(ray, 200.0).has_value());
}

TEST(Terrain, FlatFloorRayIntersection)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p);
    Ray ray;
    ray.origin = {0.0, 2.0, 0.0};
    ray.dir = Vec3{1.0, -1.0, 0.0}.normalized();
    const auto hit = t.intersect(ray, 100.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(ray.at(*hit).y, 0.0, 1e-9);
}

TEST(Terrain, MarchMatchesReferenceOverRaySweep)
{
    // The slope-bounded march must be bit-identical to the preserved
    // per-sample reference march: same hit/miss decision and the
    // exact same distance.
    TerrainParams p;
    p.seed = 9;
    p.amplitude = 4.0;
    Terrain t(p);
    int hits = 0, misses = 0;
    for (double ox = -40; ox <= 40; ox += 16.0) {
        for (double oy : {1.5, 6.0, 30.0}) {
            for (double pitch : {-0.8, -0.2, -0.02, 0.0, 0.15}) {
                for (double yaw = 0.0; yaw < 6.0; yaw += 0.9) {
                    Ray ray;
                    ray.origin = {ox, oy, -ox * 0.5};
                    ray.dir = Vec3{std::cos(yaw) * std::cos(pitch),
                                   std::sin(pitch),
                                   std::sin(yaw) * std::cos(pitch)}
                                  .normalized();
                    const auto fast = t.intersect(ray, 300.0);
                    const auto ref = t.intersectReference(ray, 300.0);
                    ASSERT_EQ(fast.has_value(), ref.has_value());
                    if (ref) {
                        EXPECT_EQ(*fast, *ref);
                        ++hits;
                    } else {
                        ++misses;
                    }
                }
            }
        }
    }
    // The sweep must exercise both outcomes to mean anything.
    EXPECT_GT(hits, 100);
    EXPECT_GT(misses, 100);
}

TEST(Terrain, AbortBeyondPreservesAcceptedHits)
{
    // Contract used by the renderer: capping the march at a known
    // object hit may only change outcomes *beyond* the cap. If the
    // capped march reports a hit, it is the uncapped hit; and any
    // uncapped hit at or before the cap survives capping.
    TerrainParams p;
    p.seed = 5;
    Terrain t(p);
    Rng rng(31);
    for (int i = 0; i < 400; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-50, 50), rng.uniform(0.5, 25),
                      rng.uniform(-50, 50)};
        ray.dir = Vec3{rng.normal(), rng.normal() * 0.4, rng.normal()}
                      .normalized();
        const auto full = t.intersect(ray, 200.0);
        const double cap = rng.uniform(0.5, 150.0);
        const auto capped = t.intersect(ray, 200.0, cap);
        if (capped) {
            ASSERT_TRUE(full.has_value());
            EXPECT_EQ(*capped, *full);
        }
        if (full && *full <= cap) {
            ASSERT_TRUE(capped.has_value());
            EXPECT_EQ(*capped, *full);
        }
    }
    // An infinite cap is exactly the uncapped march.
    Ray ray;
    ray.origin = {3.0, 8.0, -2.0};
    ray.dir = Vec3{0.6, -0.25, 0.4}.normalized();
    const auto inf_cap = t.intersect(
        ray, 200.0, std::numeric_limits<double>::infinity());
    const auto plain = t.intersect(ray, 200.0);
    ASSERT_EQ(inf_cap.has_value(), plain.has_value());
    if (plain)
        EXPECT_EQ(*inf_cap, *plain);
}

/** The six outdoor generator terrains (world seed 42). */
struct GameTerrain
{
    gen::GameId id;
    const char *name;
};
constexpr GameTerrain kGameTerrains[] = {
    {gen::GameId::Viking, "Viking"}, {gen::GameId::CTS, "CTS"},
    {gen::GameId::FPS, "FPS"},       {gen::GameId::Soccer, "Soccer"},
    {gen::GameId::Racing, "Racing"}, {gen::GameId::DS, "DS"},
};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(Terrain, GoldenHeightsPerGame)
{
    // Recorded from the out-of-line hash and per-corner axis mixes that
    // preceded the inlined lattice hash: the integer hashing is exact,
    // so every height must reproduce bit for bit.
    const Vec2 points[] = {{0.0, 0.0},
                           {12.25, -7.5},
                           {-301.7, 188.3},
                           {1234.5, 987.25},
                           {-0.3, -2047.9}};
    const double golden[][5] = {
        // Viking
        {0x1.0a8225121b625p+0, 0x1.2436884cfcf91p+0, 0x1.0bb9834cb529ap-1,
         0x1.39a8446b8ff9cp-2, 0x1.23ce52bec487p+0},
        // CTS
        {0x1.3fcf5faf540f9p+1, 0x1.5fa69e7dbc1p+1, 0x1.3226777081fb6p+0,
         0x1.ecb8120714c2ep-2, -0x1.8ea7bdbb97177p+1},
        // FPS
        {0x1.552177216abb4p-2, 0x1.d0d2b8dccb24dp-3, 0x1.6bf62a34e6d8ep-2,
         -0x1.0f01f5c8e7263p-2, 0x1.f2d46fb594f2ap-3},
        // Soccer
        {0x1.ffb232b22018ep-4, 0x1.2098e4a99f81dp-3, 0x1.7886937e9fb79p-4,
         -0x1.a3b7acd6e1117p-5, 0x1.a686b4d2e2339p-3},
        // Racing
        {0x1.751c9a4c8cbcdp+2, 0x1.7a15131e6d66bp+2, -0x1.8cdc7297507e4p+2,
         -0x1.554351d0862ap+0, 0x1.3cf80b251e03p-3},
        // DS
        {0x1.aa69d4e9c56a1p+1, 0x1.b724deb30908bp+1, -0x1.1d5acc09cd6b5p+0,
         -0x1.2bb44938d0877p-2, -0x1.18b94b03fbe65p+2},
    };
    for (std::size_t g = 0; g < std::size(kGameTerrains); ++g) {
        const VirtualWorld world = gen::makeWorld(kGameTerrains[g].id, 42);
        for (std::size_t i = 0; i < std::size(points); ++i) {
            EXPECT_EQ(bits(world.terrain().heightAt(points[i])),
                      bits(golden[g][i]))
                << kGameTerrains[g].name << " point " << i << ": "
                << std::hexfloat << world.terrain().heightAt(points[i]);
        }
    }
}

TEST(Terrain, SlopeBoundHoldsAlongRandomDirections)
{
    // |H(p + d u) - H(p)| <= L (|u.x| + |u.z|) d for the per-axis bound
    // L the march skips with; the largest observed ratio must also be
    // a sizeable fraction of L, or the bound is too loose to matter.
    for (const GameTerrain &game : kGameTerrains) {
        const VirtualWorld world = gen::makeWorld(game.id, 42);
        const Terrain &terrain = world.terrain();
        const double bound = terrain.slopeBound();
        ASSERT_TRUE(std::isfinite(bound)) << game.name;
        ASSERT_GT(bound, 0.0) << game.name;
        Rng rng(hashCombine(0x510FE, static_cast<std::uint64_t>(game.id)));
        double worst = 0.0;
        for (int i = 0; i < 20000; ++i) {
            const Vec2 p{rng.uniform(-2000.0, 2000.0),
                         rng.uniform(-2000.0, 2000.0)};
            const double yaw = rng.uniform(0.0, 2.0 * M_PI);
            const Vec2 u{std::cos(yaw), std::sin(yaw)};
            const double d = std::exp2(rng.uniform(-12.0, 2.0));
            const double rise =
                std::abs(terrain.heightAt({p.x + d * u.x, p.y + d * u.y}) -
                         terrain.heightAt(p));
            const double allowed =
                bound * (std::abs(u.x) + std::abs(u.y)) * d;
            ASSERT_LE(rise, allowed + 1e-12)
                << game.name << " at (" << p.x << ", " << p.y << ")";
            worst = std::max(worst, rise / allowed);
        }
        EXPECT_GT(worst, 0.2) << game.name;
    }
    TerrainParams flat;
    flat.flat = true;
    EXPECT_EQ(Terrain(flat).slopeBound(), 0.0);
}

TEST(Terrain, MarchMatchesReferenceOnGeneratorTerrains)
{
    // Seeded randomized differential test of the slope-bounded march
    // against the per-sample reference: eye-height origins over the
    // foothold, far-BE-style clipped tMin > 0, the renderer's 2000 m
    // march distance, grazing pitches, rays run up the steepest slope
    // (where the margin falls nearly as fast as the bound allows, so
    // an overstated bound skips past the crossing), and finite abort
    // caps checked through the abort contract. Every distance must be
    // bit-equal.
    for (const GameTerrain &game : kGameTerrains) {
        const VirtualWorld world = gen::makeWorld(game.id, 42);
        const Terrain &terrain = world.terrain();
        const geom::Rect bounds = world.bounds();
        Rng rng(hashCombine(0xD1FF, static_cast<std::uint64_t>(game.id)));
        int hits = 0, misses = 0, grazing = 0, steepest = 0, clipped = 0,
            aborted = 0;
        for (int i = 0; i < 1500; ++i) {
            const Vec2 ground{rng.uniform(bounds.lo.x, bounds.hi.x),
                              rng.uniform(bounds.lo.y, bounds.hi.y)};
            const double lift =
                rng.chance(0.6) ? world.eyeHeight() : rng.uniform(0.05, 40.0);
            Ray ray;
            ray.origin = geom::lift(ground, terrain.foothold(ground) + lift);
            double pitch;
            switch (i % 5) {
            case 4: {
                // Level ray up the gradient at the steepest of a few
                // candidate points, aimed to meet the ground there
                // after a short run.
                Vec2 q = ground;
                Vec3 n = terrain.normalAt(q);
                for (int c = 0; c < 32; ++c) {
                    const Vec2 cand{rng.uniform(bounds.lo.x, bounds.hi.x),
                                    rng.uniform(bounds.lo.y, bounds.hi.y)};
                    const Vec3 cn = terrain.normalAt(cand);
                    if (cn.y < n.y) {
                        q = cand;
                        n = cn;
                    }
                }
                const Vec2 up = Vec2{-n.x, -n.z}.normalized();
                const double run = rng.uniform(1.0, 8.0);
                ray.origin = geom::lift(q - up * run,
                                        terrain.heightAt(q) +
                                            rng.uniform(-0.05, 0.05));
                ray.dir = Vec3{up.x, rng.uniform(-0.02, 0.02), up.y};
                ++steepest;
                break;
            }
            case 0:
                pitch = rng.chance(0.5) ? 0.02 : -0.02;
                ++grazing;
                break;
            case 1:
                pitch = rng.uniform(-0.02, 0.02);
                ++grazing;
                break;
            case 2:
                pitch = rng.uniform(-1.4, 0.0);
                break;
            default:
                pitch = rng.uniform(-0.3, 0.5);
                break;
            }
            if (i % 5 != 4) {
                const double yaw = rng.uniform(0.0, 2.0 * M_PI);
                ray.dir = Vec3{std::cos(yaw) * std::cos(pitch),
                               std::sin(pitch),
                               std::sin(yaw) * std::cos(pitch)};
            }
            if (rng.chance(0.3)) {
                ray.tMin = rng.uniform(5.0, 80.0); // far-BE clip
                ++clipped;
            }
            const double maxDist = rng.chance(0.7) ? 2000.0 : 300.0;

            const auto ref = terrain.intersectReference(ray, maxDist);
            std::uint64_t evals = 0;
            const auto fast = terrain.intersect(
                ray, maxDist, std::numeric_limits<double>::infinity(),
                &evals);
            ASSERT_EQ(fast.has_value(), ref.has_value())
                << game.name << " ray " << i;
            if (ref) {
                ASSERT_EQ(bits(*fast), bits(*ref)) << game.name << " ray " << i;
                ++hits;
            } else {
                ++misses;
            }

            // Abort contract against the reference distance.
            const double cap = rng.uniform(0.5, 400.0);
            const auto capped = terrain.intersect(ray, maxDist, cap);
            if (capped) {
                ASSERT_TRUE(ref.has_value()) << game.name << " ray " << i;
                EXPECT_EQ(bits(*capped), bits(*ref))
                    << game.name << " ray " << i;
            } else if (ref) {
                EXPECT_GT(*ref, cap) << game.name << " ray " << i;
                ++aborted;
            }
        }
        // Every case class must actually occur to mean anything.
        EXPECT_GT(hits, 150) << game.name;
        EXPECT_GT(misses, 150) << game.name;
        EXPECT_GT(grazing, 400) << game.name;
        EXPECT_GT(steepest, 200) << game.name;
        EXPECT_GT(clipped, 300) << game.name;
        EXPECT_GT(aborted, 10) << game.name;
    }
}

TEST(Terrain, MarchCountsHeightEvaluations)
{
    // The optional tally adds this call's evaluations (start sample,
    // march samples, bisection) and leaves the result unchanged.
    Terrain t{TerrainParams{}};
    Ray ray;
    ray.origin = {3.0, 8.0, -2.0};
    ray.dir = Vec3{0.6, -0.25, 0.4}.normalized();
    std::uint64_t evals = 5;
    const auto counted = t.intersect(
        ray, 200.0, std::numeric_limits<double>::infinity(), &evals);
    const auto plain = t.intersect(ray, 200.0);
    ASSERT_TRUE(counted.has_value());
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(bits(*counted), bits(*plain));
    // At least the start sample, one march sample and 16 bisection
    // steps; fewer samples than the reference schedule visits.
    EXPECT_GE(evals, 5u + 18u);
    EXPECT_LT(evals, 5u + 16u + static_cast<std::uint64_t>(*plain / 0.35));

    // A ray starting below any possible terrain costs no evaluation.
    Ray below;
    below.origin = {10.0, -50.0, 10.0};
    below.dir = {1.0, 0.0, 0.0};
    std::uint64_t none = 0;
    EXPECT_FALSE(t.intersect(below, 200.0,
                             std::numeric_limits<double>::infinity(), &none)
                     .has_value());
    EXPECT_EQ(none, 0u);
}

TEST(Terrain, TrianglesWithinScalesWithArea)
{
    TerrainParams p;
    p.trianglesPerM2 = 10.0;
    Terrain t(p);
    const double t1 = t.trianglesWithin({0, 0}, 10.0);
    const double t2 = t.trianglesWithin({0, 0}, 20.0);
    EXPECT_NEAR(t2 / t1, 4.0, 1e-9);
    EXPECT_NEAR(t1, 10.0 * M_PI * 100.0, 1e-6);
}

TEST(Terrain, ColorVariesAcrossTerrain)
{
    Terrain t{TerrainParams{}};
    const auto c1 = t.colorAt({0, 0});
    bool varies = false;
    for (double x = 5; x < 200 && !varies; x += 17)
        varies = !(t.colorAt({x, x}) == c1);
    EXPECT_TRUE(varies);
}

} // namespace
} // namespace coterie::world
