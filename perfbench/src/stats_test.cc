/**
 * @file
 * Tests of perfbench's own helpers: exact percentiles, the tail rule,
 * the fingerprint digest and the ledger's self-time accounting.
 * Exits non-zero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ledger.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (ok)
        return;
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testPercentiles()
{
    // Median of an even count interpolates; of an odd count is the middle.
    EXPECT(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
    EXPECT(near(median({5.0, 1.0, 3.0}), 3.0));
    EXPECT(near(median({7.0}), 7.0));
    EXPECT(near(median({}), 0.0));
    // Quartiles of 1..9 by closest-rank interpolation.
    std::vector<double> nine;
    for (int i = 1; i <= 9; ++i)
        nine.push_back(i);
    EXPECT(near(percentile(nine, 25.0), 3.0));
    EXPECT(near(percentile(nine, 75.0), 7.0));
    EXPECT(near(percentile(nine, 0.0), 1.0));
    EXPECT(near(percentile(nine, 100.0), 9.0));
    // Quartiles of 1..4: ranks 0.75 and 2.25.
    EXPECT(near(percentile({1.0, 2.0, 3.0, 4.0}, 25.0), 1.75));
    EXPECT(near(percentile({1.0, 2.0, 3.0, 4.0}, 75.0), 3.25));
    // An exact percentile never leaves [min, max], even for skewed data.
    const std::vector<double> skewed = {0.1, 0.1, 0.1, 0.1, 1000.0};
    for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
        const double v = percentile(skewed, p);
        EXPECT(v >= 0.1 && v <= 1000.0);
    }
}

void
testTailRule()
{
    EXPECT(!tailPercentile(0).has_value());
    EXPECT(!tailPercentile(19).has_value());
    EXPECT(tailPercentile(20) == 50.0);    // 10 beyond the median
    EXPECT(tailPercentile(39) == 50.0);
    EXPECT(tailPercentile(40) == 75.0);    // 10 beyond p75
    EXPECT(tailPercentile(99) == 75.0);
    EXPECT(tailPercentile(100) == 90.0);
    EXPECT(tailPercentile(200) == 95.0);
    EXPECT(tailPercentile(999) == 95.0);
    EXPECT(tailPercentile(1000) == 99.0);
    EXPECT(tailPercentile(9999) == 99.0);
    EXPECT(tailPercentile(10000) == 99.9);
    EXPECT(tailPercentile(1000000) == 99.9);
}

void
testDigest()
{
    using coterie::core::FrameLogEntry;
    const std::vector<std::vector<FrameLogEntry>> logs = {
        {{16.7, 12.5, 3.0, 4096, false}, {33.3, 13.0, 3.1, 8192, true}},
        {{16.7, 11.0, 2.9, 0, false}}};
    Digest a;
    digestFrameLogs(logs, a);
    Digest b;
    digestFrameLogs(logs, b);
    EXPECT(a.value() == b.value());

    // Every field, and the split between players, changes the digest.
    auto changed = logs;
    changed[0][1].latencyMs = std::nextafter(13.0, 14.0);
    Digest c;
    digestFrameLogs(changed, c);
    EXPECT(c.value() != a.value());
    changed = logs;
    changed[0][0].degraded = true;
    Digest d;
    digestFrameLogs(changed, d);
    EXPECT(d.value() != a.value());
    changed = logs;
    changed[1].insert(changed[1].begin(), changed[0].back());
    changed[0].pop_back();
    Digest e;
    digestFrameLogs(changed, e);
    EXPECT(e.value() != a.value());

    Fingerprint f1;
    f1.frameLog = a.value();
    Fingerprint f2 = f1;
    EXPECT(f1 == f2);
    f2.events = 1;
    EXPECT(!(f1 == f2));
}

void
testSelfTimes()
{
    // run [0, 100] > a [10, 40] > b [15, 25]; run > a [50, 70].
    std::vector<SpanRecord> spans = {
        {"run", 0, 100, -1},
        {"a", 10, 40, 0},
        {"b", 15, 25, 1},
        {"a", 50, 70, 0},
    };
    const auto self = selfSecondsByName(spans);
    EXPECT(near(self.at("run"), 50e-9));
    EXPECT(near(self.at("a"), 40e-9));
    EXPECT(near(self.at("b"), 10e-9));
    double sum = 0.0;
    for (const auto &[name, s] : self)
        sum += s;
    EXPECT(near(sum, 100e-9));

    // A live ledger's spans nest and add up the same way.
    Ledger ledger("test", true);
    {
        Ledger::Span run(ledger, "run");
        {
            Ledger::Span a(ledger, "a");
            Ledger::Span b(ledger, "b");
        }
        Ledger::Span c(ledger, "c");
    }
    EXPECT(ledger.spans().size() == 4);
    EXPECT(ledger.spans()[2].parent == 1);
    EXPECT(ledger.spans()[3].parent == 0);
    double total = 0.0;
    for (const auto &[name, s] : selfSecondsByName(ledger.spans()))
        total += s;
    const SpanRecord &root = ledger.spans().front();
    EXPECT(near(total, static_cast<double>(root.endNs - root.beginNs) * 1e-9));
    EXPECT(ledger.chromeTrace().at("traceEvents").items().size() == 4);

    Ledger off("test", false);
    {
        Ledger::Span run(off, "run");
    }
    EXPECT(off.spans().empty());
}

} // namespace

int
main()
{
    testPercentiles();
    testTailRule();
    testDigest();
    testSelfTimes();
    if (failures == 0)
        std::printf("stats_test: all passed\n");
    return failures == 0 ? 0 : 1;
}
