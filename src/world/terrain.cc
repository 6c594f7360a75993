#include "world/terrain.hh"

#include <algorithm>
#include <cmath>

#include "support/rng.hh"

namespace coterie::world {

using geom::Ray;
using geom::Vec2;
using geom::Vec3;

namespace {

/** Quintic fade for value-noise interpolation. */
double
fade(double t)
{
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
}

/**
 * Per-axis slope bound of the fractal heightfield (see
 * Terrain::slopeBound): |A| * (15/8) * 2 * octaves /
 * (featureScale * norm). Not finite or not positive for degenerate
 * params (no octaves, zero or negative scale), which turns the
 * march's sample skipping off.
 */
double
fractalSlopeBound(const TerrainParams &params)
{
    if (params.flat)
        return 0.0;
    const double norm = 2.0 - std::exp2(1.0 - params.octaves);
    return std::abs(params.amplitude) * (15.0 / 8.0) * 2.0 *
           params.octaves / (params.featureScale * norm);
}

/**
 * Floating-point slack of the march's skip bound, as a multiple of
 * (1 + slope) * reach + |amplitude| (reach: the largest coordinate the
 * march can touch). The error budget of DESIGN.md §10 — Ray::at, the
 * noise argument scaling, the fade and lerp arithmetic of heightAt,
 * the margin subtraction, and the skip distance itself — stays below
 * 2^12 units of roundoff (2^-53) of that; 2^-40 is 2^13 units.
 */
constexpr double kSlackScale = 0x1.0p-40;

} // namespace

Terrain::Terrain(const TerrainParams &params)
    : params_(params), slopeBound_(fractalSlopeBound(params))
{
}

double
Terrain::noise2(double x, double y, std::uint64_t salt) const
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const double tx = fade(x - fx);
    const double ty = fade(y - fy);
    // Lattice value in [-1, 1) of a corner. Each axis coordinate is
    // mixed once and shared by its two corners.
    const std::uint64_t seedSalt = params_.seed ^ salt;
    const auto lattice = [seedSalt](std::uint64_t mixX, std::uint64_t mixY) {
        const std::uint64_t h =
            hashMix(hashCombine(seedSalt, hashCombine(mixX, mixY)));
        return (h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    };
    const std::uint64_t mx0 = hashMix(ix), mx1 = hashMix(ix + 1);
    const std::uint64_t my0 = hashMix(iy), my1 = hashMix(iy + 1);
    const double v00 = lattice(mx0, my0);
    const double v10 = lattice(mx1, my0);
    const double v01 = lattice(mx0, my1);
    const double v11 = lattice(mx1, my1);
    const double a = v00 + (v10 - v00) * tx;
    const double b = v01 + (v11 - v01) * tx;
    return a + (b - a) * ty;
}

double
Terrain::fractal(Vec2 p) const
{
    double amp = 1.0;
    double freq = 1.0 / params_.featureScale;
    double sum = 0.0;
    double norm = 0.0;
    for (int o = 0; o < params_.octaves; ++o) {
        sum += amp * noise2(p.x * freq, p.y * freq,
                            0x5eedULL + static_cast<std::uint64_t>(o));
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    return norm > 0.0 ? sum / norm : 0.0;
}

double
Terrain::heightAt(Vec2 p) const
{
    if (params_.flat)
        return 0.0;
    return params_.amplitude * fractal(p);
}

Vec3
Terrain::normalAt(Vec2 p) const
{
    if (params_.flat)
        return {0.0, 1.0, 0.0};
    const double eps = 0.25;
    const double hx =
        heightAt({p.x + eps, p.y}) - heightAt({p.x - eps, p.y});
    const double hy =
        heightAt({p.x, p.y + eps}) - heightAt({p.x, p.y - eps});
    return Vec3{-hx / (2 * eps), 1.0, -hy / (2 * eps)}.normalized();
}

std::optional<double>
Terrain::intersect(const Ray &ray, double maxDist, double abortBeyond,
                   std::uint64_t *heightEvals) const
{
    std::uint64_t evals = 0;
    const std::optional<double> t = march(ray, maxDist, abortBeyond, evals);
    if (heightEvals)
        *heightEvals += evals;
    return t;
}

std::optional<double>
Terrain::march(const Ray &ray, double maxDist, double abortBeyond,
               std::uint64_t &evals) const
{
    if (params_.flat) {
        // Plane y = 0: exact solve, nothing to march or abort.
        if (std::abs(ray.dir.y) < 1e-12)
            return std::nullopt;
        const double t = -ray.origin.y / ray.dir.y;
        if (t < ray.tMin || t > std::min(ray.tMax, maxDist))
            return std::nullopt;
        return t;
    }
    const auto margin = [&](const Vec3 &p) {
        ++evals;
        return p.y - heightAt(p.ground());
    };

    const double limit = std::min(ray.tMax, maxDist);
    const double amp = std::abs(params_.amplitude);
    // Skip bound (see intersect's doc comment and DESIGN.md §10): the
    // margin falls at most `rate` per unit t, give or take `slack`.
    const double rate =
        slopeBound_ * (std::abs(ray.dir.x) + std::abs(ray.dir.z)) -
        ray.dir.y;
    const double reach =
        std::max({std::abs(ray.origin.x), std::abs(ray.origin.y),
                  std::abs(ray.origin.z)}) +
        std::max({std::abs(ray.dir.x), std::abs(ray.dir.y),
                  std::abs(ray.dir.z)}) *
            limit;
    const double slack =
        kSlackScale * ((1.0 + slopeBound_) * reach + amp);
    const bool bounded = slopeBound_ > 0.0 && std::isfinite(slopeBound_) &&
                         std::isfinite(slack);

    // Early-escape threshold for climbing rays. The fractal is a
    // normalized average of [-1, 1) noise, so |height| < |amplitude|
    // everywhere: above |amplitude| a non-descending ray can never
    // cross, making escape at |amplitude| result-identical to marching
    // on. The min() with the reference loop's amplitude + 0.5 keeps the
    // escape no later than the reference's for any params.
    const double escape = std::min(params_.amplitude + 0.5, amp);
    const bool climbing = ray.dir.y >= 0.0;

    // A ray whose clipped start is below the surface is treated as
    // clipped out (no hit), matching depth-interval clipping semantics
    // in the renderer. Both bounds on the start need no evaluation: a
    // start below -|amplitude| is below any surface, and a climbing ray
    // starting above the escape height escapes at its first sample.
    double t_prev = ray.tMin;
    const Vec3 start = ray.at(t_prev);
    if (start.y < -amp - slack || (climbing && start.y > escape))
        return std::nullopt;
    const double h_start = margin(start);
    if (h_start <= 0.0)
        return std::nullopt;
    if (bounded && rate <= 0.0 && h_start > slack)
        return std::nullopt; // the margin can never fall to zero
    const bool skipping = bounded && rate > 0.0;
    // Schedule points at or before skip_to cannot be a crossing.
    double skip_to = skipping ? t_prev + (h_start - slack) / rate : t_prev;

    double t = t_prev;
    while (t < limit) {
        // Adaptive step (grows with distance — angular error budget).
        t = std::min(limit, t + std::max(0.35, t * 0.025));
        const Vec3 p = ray.at(t);
        if (climbing && p.y > escape)
            return std::nullopt;
        if (t > skip_to) {
            const double h = margin(p);
            if (h <= 0.0) {
                double lo = t_prev, hi = t;
                for (int i = 0; i < 16; ++i) {
                    const double mid = 0.5 * (lo + hi);
                    if (margin(ray.at(mid)) <= 0.0)
                        hi = mid;
                    else
                        lo = mid;
                }
                return hi;
            }
            if (skipping)
                skip_to = t + (h - slack) / rate;
        }
        // No crossing up to this sample: a later root would bisect to
        // hi > t > abortBeyond, which the caller has declared
        // irrelevant (occluded by a closer hit).
        if (t > abortBeyond)
            return std::nullopt;
        t_prev = t;
    }
    return std::nullopt;
}

std::optional<double>
Terrain::intersectReference(const Ray &ray, double maxDist) const
{
    if (params_.flat) {
        // Plane y = 0.
        if (std::abs(ray.dir.y) < 1e-12)
            return std::nullopt;
        const double t = -ray.origin.y / ray.dir.y;
        if (t < ray.tMin || t > std::min(ray.tMax, maxDist))
            return std::nullopt;
        return t;
    }
    double t_prev = ray.tMin;
    double h_prev = ray.origin.y + t_prev * ray.dir.y -
                    heightAt(ray.at(t_prev).ground());
    if (h_prev <= 0.0)
        return std::nullopt;
    const double limit = std::min(ray.tMax, maxDist);
    double t = t_prev;
    while (t < limit) {
        t = std::min(limit, t + std::max(0.35, t * 0.025));
        const Vec3 p = ray.at(t);
        // Early escape: climbing above any possible terrain.
        if (ray.dir.y >= 0.0 && p.y > params_.amplitude + 0.5)
            return std::nullopt;
        const double h = p.y - heightAt(p.ground());
        if (h <= 0.0) {
            double lo = t_prev, hi = t;
            for (int i = 0; i < 16; ++i) {
                const double mid = 0.5 * (lo + hi);
                const Vec3 mp = ray.at(mid);
                if (mp.y - heightAt(mp.ground()) <= 0.0)
                    hi = mid;
                else
                    lo = mid;
            }
            return hi;
        }
        t_prev = t;
        h_prev = h;
    }
    (void)h_prev;
    return std::nullopt;
}

image::Rgb
Terrain::colorAt(Vec2 p) const
{
    if (params_.flat)
        return {96, 92, 88}; // indoor floor
    const double h = heightAt(p);
    const double moisture =
        0.5 + 0.5 * noise2(p.x / 37.0, p.y / 37.0, 0x5151ULL);
    // Grass -> dirt -> rock blend with elevation.
    const double rockiness =
        std::clamp((h / std::max(params_.amplitude, 1e-9)) * 0.5 + 0.3,
                   0.0, 1.0);
    const auto mix = [](double a, double b, double t) {
        return a + (b - a) * t;
    };
    const double r = mix(mix(70, 110, moisture), 130, rockiness);
    const double g = mix(mix(120, 100, moisture), 125, rockiness);
    const double b = mix(mix(60, 60, moisture), 120, rockiness);
    return {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(g),
            static_cast<std::uint8_t>(b)};
}

double
Terrain::trianglesWithin(Vec2 /*p*/, double radius) const
{
    return params_.trianglesPerM2 * M_PI * radius * radius;
}

} // namespace coterie::world
