#include "ledger.hh"

#include <chrono>

namespace perfbench {

std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans)
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.beginNs;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t ns =
            spans[i].endNs - spans[i].beginNs - childNs[i];
        self[spans[i].name] += static_cast<double>(ns) * 1e-9;
    }
    return self;
}

std::int64_t
Ledger::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Ledger::Span::Span(Ledger &ledger, const char *name) : ledger_(ledger)
{
    if (!ledger_.enabled_)
        return;
    index_ = static_cast<int>(ledger_.spans_.size());
    SpanRecord rec;
    rec.name = name;
    rec.parent = ledger_.open_.empty() ? -1 : ledger_.open_.back();
    ledger_.spans_.push_back(std::move(rec));
    ledger_.open_.push_back(index_);
    ledger_.spans_.back().beginNs = nowNs();
}

Ledger::Span::~Span()
{
    if (index_ < 0)
        return;
    ledger_.spans_[static_cast<std::size_t>(index_)].endNs = nowNs();
    ledger_.open_.pop_back();
}

coterie::obs::Json
Ledger::chromeTrace() const
{
    using coterie::obs::Json;
    Json events = Json::array();
    const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().beginNs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        Json args = Json::object();
        args.set("id", Json(static_cast<std::uint64_t>(i)));
        args.set("parent",
                 Json(s.parent < 0
                          ? std::string()
                          : spans_[static_cast<std::size_t>(s.parent)].name));
        args.set("parent_id", Json(static_cast<std::int64_t>(s.parent)));
        args.set("workload", Json(workload_));
        Json e = Json::object();
        e.set("name", Json(s.name));
        e.set("cat", Json("perfbench"));
        e.set("ph", Json("X"));
        e.set("ts", Json(static_cast<double>(s.beginNs - epoch) / 1e3));
        e.set("dur", Json(static_cast<double>(s.endNs - s.beginNs) / 1e3));
        e.set("pid", Json(1));
        e.set("tid", Json(1));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("displayTimeUnit", Json("ms"));
    doc.set("traceEvents", std::move(events));
    return doc;
}

} // namespace perfbench
