/**
 * @file
 * The benchmark's own arithmetic, kept free of engine types so that
 * test_bench_math.cpp can check it in isolation: medians, span
 * self-time, the plain/rebuild step split, counter-delta ratios, and
 * the correctness-check bookkeeping.
 */

#ifndef MDBENCH_E2EBENCH_BENCH_MATH_H
#define MDBENCH_E2EBENCH_BENCH_MATH_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace e2ebench {

/** Median of @p values (mean of the middle two for even sizes); 0 when
 * empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

/** @p num / @p den, or 0 when the base is 0 (a layer the workload never
 * enters, e.g. kspace on lj). */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** One recorded span: [start, end) in nanoseconds, with the index of
 * the span that encloses it (-1 for a root). */
struct Span
{
    int name = 0;
    int parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * Total self time per span name, in nanoseconds: each span's duration
 * minus the part of it its direct children cover. Children are clipped
 * to their parent's interval, so a child that overruns cannot drive the
 * parent's self time negative.
 */
inline std::vector<double>
selfTimeByName(const std::vector<Span> &spans, int names)
{
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const std::int64_t lo = std::max(s.start, p.start);
        const std::int64_t hi = std::min(s.end, p.end);
        if (hi > lo)
            covered[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(hi - lo);
    }
    std::vector<double> self(static_cast<std::size_t>(names), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double own =
            static_cast<double>(spans[i].end - spans[i].start) - covered[i];
        self[static_cast<std::size_t>(spans[i].name)] += std::max(own, 0.0);
    }
    return self;
}

/** Per-class medians of step wall times. A neighbor-rebuild step costs
 * many plain steps, so one pooled percentile would report whichever
 * mode the percentile happens to land in. */
struct StepSplit
{
    double plainP50 = 0.0;   ///< seconds, steps without a rebuild
    double rebuildP50 = 0.0; ///< seconds, steps with a rebuild
    long plainSteps = 0;
    long rebuildSteps = 0;
};

inline StepSplit
splitSteps(const std::vector<double> &seconds,
           const std::vector<std::uint8_t> &rebuilt)
{
    std::vector<double> plain;
    std::vector<double> rebuild;
    for (std::size_t i = 0; i < seconds.size(); ++i)
        (rebuilt[i] ? rebuild : plain).push_back(seconds[i]);
    StepSplit split;
    split.plainSteps = static_cast<long>(plain.size());
    split.rebuildSteps = static_cast<long>(rebuild.size());
    split.plainP50 = median(std::move(plain));
    split.rebuildP50 = median(std::move(rebuild));
    return split;
}

/** Add the counter increments between @p before and @p after to
 * @p total. Counters are process-wide and the configurations run one
 * block at a time, so a block's delta belongs to its configuration. */
template <std::size_t N>
void
accumulateDeltas(std::array<std::uint64_t, N> &total,
                 const std::array<std::uint64_t, N> &before,
                 const std::array<std::uint64_t, N> &after)
{
    for (std::size_t c = 0; c < N; ++c)
        total[c] += after[c] - before[c];
}

/** |e1 - e0| / |e0| (absolute drift when e0 is 0). */
inline double
relativeDrift(double e0, double e1)
{
    const double d = std::fabs(e1 - e0);
    return e0 != 0.0 ? d / std::fabs(e0) : d;
}

/** True when @p a and @p b have the same bit pattern. */
inline bool
sameBits(double a, double b)
{
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a, sizeof a);
    std::memcpy(&ub, &b, sizeof b);
    return ua == ub;
}

/** Correctness checks of one run: every check is an attempted
 * operation, every false one a failed operation. */
class Checks
{
  public:
    /** Record one check; returns @p ok. */
    bool
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            failures_.push_back(what);
        }
        return ok;
    }

    bool expectFinite(double value, const std::string &what)
    {
        return expect(std::isfinite(value), what + " is finite");
    }

    /** Drift check: fails on a NaN as well as on drift above @p bound. */
    bool
    expectDriftBelow(double e0, double e1, double bound,
                     const std::string &what)
    {
        const double drift = relativeDrift(e0, e1);
        return expect(std::isfinite(drift) && drift < bound,
                      what + " relative drift below bound");
    }

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }
    bool correct() const { return failed_ == 0; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    long attempted_ = 0;
    long failed_ = 0;
    std::vector<std::string> failures_;
};

} // namespace e2ebench

#endif // MDBENCH_E2EBENCH_BENCH_MATH_H
