#include "obs/metrics.hh"

#include "obs/slo.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

namespace coterie::obs {

int
threadSlot()
{
    static std::atomic<int> next{0};
    thread_local const int slot = next.fetch_add(1);
    return slot;
}

Timer::Timer() = default;

void
Timer::observe(double value)
{
    if (!std::isfinite(value))
        return;
    // Histogram is over log10(value); clamp so the log stays finite
    // (zero-duration scopes land in the bottom edge bin).
    const double clamped = std::max(value, 1e-9);
    Shard &shard =
        shards_[static_cast<std::size_t>(threadSlot()) % kShards];
    support::MutexLock lock(shard.shardMutex);
    shard.stats.add(value);
    shard.hist.add(std::log10(clamped));
}

Timer::Snapshot
Timer::snapshot() const
{
    Snapshot merged;
    for (const Shard &shard : shards_) {
        support::MutexLock lock(shard.shardMutex);
        merged.stats.merge(shard.stats);
        merged.hist.merge(shard.hist);
    }
    return merged;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Stripe &
MetricsRegistry::stripeFor(std::string_view name)
{
    return stripes_[std::hash<std::string_view>{}(name) % kStripes];
}

namespace {

/** Find-or-insert in a name-keyed vector of unique_ptrs. */
template <typename T>
T &
findOrCreate(std::vector<std::pair<std::string, std::unique_ptr<T>>> &vec,
             std::string_view name)
{
    for (auto &[key, value] : vec)
        if (key == name)
            return *value;
    vec.emplace_back(std::string(name), std::make_unique<T>());
    return *vec.back().second;
}

} // namespace

Counter &
MetricsRegistry::counter(std::string_view name)
{
    Stripe &stripe = stripeFor(name);
    support::MutexLock lock(stripe.stripeMutex);
    return findOrCreate(stripe.counters, name);
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    Stripe &stripe = stripeFor(name);
    support::MutexLock lock(stripe.stripeMutex);
    return findOrCreate(stripe.gauges, name);
}

Timer &
MetricsRegistry::timer(std::string_view name)
{
    Stripe &stripe = stripeFor(name);
    support::MutexLock lock(stripe.stripeMutex);
    return findOrCreate(stripe.timers, name);
}

std::size_t
MetricsRegistry::size() const
{
    std::size_t n = 0;
    for (const Stripe &stripe : stripes_) {
        support::MutexLock lock(stripe.stripeMutex);
        n += stripe.counters.size() + stripe.gauges.size() +
             stripe.timers.size();
    }
    return n;
}

Json
MetricsRegistry::snapshotJson() const
{
    // Collect name-sorted views of each kind for stable export.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Timer::Snapshot>> timers;
    for (const Stripe &stripe : stripes_) {
        support::MutexLock lock(stripe.stripeMutex);
        for (const auto &[name, c] : stripe.counters)
            counters.emplace_back(name, c->value());
        for (const auto &[name, g] : stripe.gauges)
            gauges.emplace_back(name, g->value());
        for (const auto &[name, t] : stripe.timers)
            timers.emplace_back(name, t->snapshot());
    }
    const auto byName = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(counters.begin(), counters.end(), byName);
    std::sort(gauges.begin(), gauges.end(), byName);
    std::sort(timers.begin(), timers.end(), byName);

    Json countersJson = Json::object();
    for (const auto &[name, v] : counters)
        countersJson.set(name, Json(v));
    Json gaugesJson = Json::object();
    for (const auto &[name, v] : gauges)
        gaugesJson.set(name, Json(v));
    Json timersJson = Json::object();
    for (const auto &[name, snap] : timers) {
        Json t = Json::object();
        t.set("count", Json(static_cast<std::uint64_t>(
                           snap.stats.count())));
        t.set("mean", Json(snap.stats.mean()));
        t.set("min", Json(snap.stats.min()));
        t.set("max", Json(snap.stats.max()));
        t.set("stddev", Json(snap.stats.stddev()));
        t.set("sum", Json(snap.stats.sum()));
        // The histogram stores log10(value); undo the transform so
        // percentiles come out in the timer's own unit. Interpolation
        // inside a log bin can land past the observed extremes, so
        // clamp to [min, max]: a quantile never leaves the sample range.
        const auto pct = [&snap](double q) {
            return snap.stats.count() > 0
                       ? std::clamp(std::pow(10.0, snap.hist.quantile(q)),
                                    snap.stats.min(), snap.stats.max())
                       : 0.0;
        };
        t.set("p50", Json(pct(0.50)));
        t.set("p99", Json(pct(0.99)));
        t.set("p999", Json(pct(0.999)));
        timersJson.set(name, std::move(t));
    }

    Json out = Json::object();
    out.set("counters", std::move(countersJson));
    out.set("gauges", std::move(gaugesJson));
    out.set("timers", std::move(timersJson));
    out.set("slo", SloRegistry::global().snapshotJson());
    return out;
}

std::string
MetricsRegistry::snapshotCsv() const
{
    const Json snap = snapshotJson();
    std::ostringstream os;
    os << "kind,name,count,value,mean,min,max\n";
    for (const auto &[name, v] : snap.at("counters").members())
        os << "counter," << name << "," << v.dump() << ",,,,\n";
    for (const auto &[name, v] : snap.at("gauges").members())
        os << "gauge," << name << ",," << v.dump() << ",,,\n";
    for (const auto &[name, t] : snap.at("timers").members()) {
        os << "timer," << name << "," << t.at("count").dump() << ",,"
           << t.at("mean").dump() << "," << t.at("min").dump() << ","
           << t.at("max").dump() << "\n";
    }
    return os.str();
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = snapshotJson().dump(2);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

} // namespace coterie::obs
