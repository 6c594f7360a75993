/**
 * @file
 * Procedural heightfield terrain.
 *
 * The paper adjusts camera height per-location with a ray-cast "foothold"
 * query against the terrain; we reproduce that with an analytic value-
 * noise heightfield that also participates in rendering (ground pixels)
 * and the triangle-density model (terrain tessellation triangles count
 * toward near-BE render cost).
 */

#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "geom/ray.hh"
#include "geom/region.hh"
#include "geom/vec.hh"
#include "image/image.hh"

namespace coterie::world {

/** Terrain configuration. */
struct TerrainParams
{
    std::uint64_t seed = 1;
    double amplitude = 3.0;      ///< peak-to-mean height variation (m)
    double featureScale = 60.0;  ///< horizontal noise wavelength (m)
    int octaves = 3;             ///< fractal octaves
    /** Triangles per square meter of the tessellated ground mesh. */
    double trianglesPerM2 = 8.0;
    /** Flat floor (indoor scenes). */
    bool flat = false;
};

/**
 * Continuous heightfield over the ground plane, built from fractal
 * value noise. Deterministic in its seed.
 */
class Terrain
{
  public:
    explicit Terrain(const TerrainParams &params = {});

    const TerrainParams &params() const { return params_; }

    /** Ground elevation at a ground-plane point. */
    double heightAt(geom::Vec2 p) const;

    /** Outward surface normal at a ground-plane point. */
    geom::Vec3 normalAt(geom::Vec2 p) const;

    /**
     * Foothold query: the paper ray-traces downward to place the camera.
     * Returns the standing elevation (== heightAt for a heightfield).
     */
    double foothold(geom::Vec2 p) const { return heightAt(p); }

    /**
     * Per-axis slope (Lipschitz) bound of `heightAt`:
     * |dH/dx|, |dH/dz| <= slopeBound() everywhere. Closed form from the
     * noise construction: the quintic fade has slope <= 15/8, lattice
     * corner deltas are < 2, each octave contributes amp * freq =
     * 1/featureScale, and the octave sum is divided by its norm
     * 2 - 2^(1 - octaves). 0 for flat floors.
     */
    double slopeBound() const { return slopeBound_; }

    /**
     * March a ray against the heightfield; returns hit distance, or
     * nullopt if the ray escapes. Walks a fixed step schedule
     * (`max(0.35 m, 2.5% of t)`), then bisects the first bracket whose
     * far end is at or below the ground. Bit-identical to
     * `intersectReference` (tests/terrain_test.cc asserts it over
     * randomized rays on every generator terrain).
     *
     * Schedule points that provably cannot be a crossing are not
     * evaluated: after a sample with margin h = p.y - H above the
     * ground, the margin can fall by at most
     * `rate = slopeBound() * (|dir.x| + |dir.z|) - dir.y` per unit t,
     * so every schedule point up to t + (h - slack) / rate is skipped.
     * The slack covers the floating-point error of `heightAt` and
     * `Ray::at` (DESIGN.md §10). Skipped points still advance the
     * bracket start and still take the escape and @p abortBeyond exits,
     * so the bisection bracket, and therefore the result, is the
     * reference's. A ray whose margin can never fall (rate <= 0), that
     * starts below any possible terrain, or that climbs from above it
     * returns nullopt without marching.
     *
     * @p abortBeyond lets the renderer stop marching once the sample
     * distance exceeds a known closer object hit: the march aborts only
     * at a sample with t > abortBeyond that found no surface crossing,
     * and any crossing the full march could still find would bisect to
     * a root beyond that sample — i.e. beyond @p abortBeyond — so the
     * caller's object-vs-terrain resolution is unchanged. Infinity
     * (the default) reproduces the uncapped march exactly.
     *
     * When @p heightEvals is non-null, the number of `heightAt`
     * evaluations this call made (start, march and bisection) is added
     * to it.
     */
    std::optional<double>
    intersect(const geom::Ray &ray, double maxDist,
              double abortBeyond = std::numeric_limits<double>::infinity(),
              std::uint64_t *heightEvals = nullptr) const;

    /**
     * The seed per-sample scalar march, preserved verbatim as the
     * equivalence baseline for tests and bench_render's seed pipeline.
     */
    std::optional<double> intersectReference(const geom::Ray &ray,
                                             double maxDist) const;

    /** Ground albedo at a point (height/moisture-tinted). */
    image::Rgb colorAt(geom::Vec2 p) const;

    /** Terrain mesh triangles inside a disc of @p radius around @p p. */
    double trianglesWithin(geom::Vec2 p, double radius) const;

  private:
    /** `intersect`, counting its height evaluations into @p evals. */
    std::optional<double> march(const geom::Ray &ray, double maxDist,
                                double abortBeyond,
                                std::uint64_t &evals) const;
    double noise2(double x, double y, std::uint64_t salt) const;
    double fractal(geom::Vec2 p) const;

    TerrainParams params_;
    double slopeBound_ = 0.0;
};

} // namespace coterie::world

