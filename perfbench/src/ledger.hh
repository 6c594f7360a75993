/**
 * @file
 * The per-layer ledger: spans the benchmark records around its own
 * calls into each library module.
 *
 * Spans live in memory and are written at exit as a Chrome trace_event
 * document (the schema tools/trace_report loads). A span's self time is
 * its duration minus its children's; the root span is the whole traced
 * run, so its self time is the wall time no layer covers, and the self
 * times of all spans add up to the root's duration exactly.
 *
 * Spans are recorded from one thread (the benchmark's main thread),
 * so nesting is a stack. A disabled ledger reads no clock.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace perfbench {

/** One closed span. */
struct SpanRecord
{
    std::string name;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index into the record list; -1 for a root
};

/**
 * Self time of every span, summed by span name, in seconds. Children
 * of one parent must not overlap (true of spans from one thread).
 */
std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans);

class Ledger
{
  public:
    Ledger(std::string workload, bool enabled)
        : workload_(std::move(workload)), enabled_(enabled)
    {
    }

    Ledger(const Ledger &) = delete;
    Ledger &operator=(const Ledger &) = delete;

    /** RAII span; a no-op on a disabled ledger. */
    class Span
    {
      public:
        Span(Ledger &ledger, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Ledger &ledger_;
        int index_ = -1;
    };

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Chrome trace_event document of every recorded span. */
    coterie::obs::Json chromeTrace() const;

  private:
    static std::int64_t nowNs();

    std::string workload_;
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

} // namespace perfbench
