/**
 * @file
 * Exact statistics and output fingerprints for perfbench.
 *
 * Every percentile here is computed from the stored samples, never from
 * a histogram, so it always lies within [min, max] of what was measured.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/**
 * The @p p-th percentile (0..100) of @p samples by linear interpolation
 * between closest ranks (Hyndman-Fan type 7). 0 for no samples.
 */
inline double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                        static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

/**
 * The highest percentile of {50, 75, 90, 95, 99, 99.9} that still has
 * at least ten of @p count samples beyond it; nothing when even the
 * median has fewer than ten above it. A tail reported past that point
 * would rest on a handful of samples.
 */
inline std::optional<double>
tailPercentile(std::uint64_t count)
{
    // Percentiles in tenths, so the test is exact integer arithmetic:
    // count * (100 - p) / 100 >= 10  <=>  count * (1000 - p10) >= 10000.
    static constexpr std::uint64_t kLadder[] = {999, 990, 950, 900, 750,
                                                500};
    for (const std::uint64_t p10 : kLadder)
        if (count * (1000 - p10) >= 10000)
            return static_cast<double>(p10) / 10.0;
    return std::nullopt;
}

/** FNV-1a over the exact bit patterns of the values fed to it. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            state_ ^= (v >> (8 * i)) & 0xffu;
            state_ *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/**
 * What one repetition of a workload produced. Two repetitions of the
 * same inputs must agree on every field, at any thread count; the
 * determinism contract says so.
 */
struct Fingerprint
{
    std::uint64_t events = 0;       ///< DES events executed
    std::uint64_t deliveries = 0;   ///< megaframes delivered / panoramas
    std::uint64_t panoMisses = 0;   ///< shared render-cache misses
    std::uint64_t encodedBytes = 0; ///< real encoded payload
    std::uint64_t frameLog = 0;     ///< digest of every FrameLogEntry
    std::uint64_t setup = 0;        ///< digest of partition + thresholds

    bool operator==(const Fingerprint &) const = default;

    std::string
    str() const
    {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "events=%llu deliveries=%llu pano_misses=%llu "
                      "encoded_bytes=%llu frame_log=%016llx "
                      "setup=%016llx",
                      static_cast<unsigned long long>(events),
                      static_cast<unsigned long long>(deliveries),
                      static_cast<unsigned long long>(panoMisses),
                      static_cast<unsigned long long>(encodedBytes),
                      static_cast<unsigned long long>(frameLog),
                      static_cast<unsigned long long>(setup));
        return buf;
    }
};

} // namespace perfbench
