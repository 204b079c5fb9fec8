/**
 * @file
 * Minimal gem5-flavoured statistics package.
 *
 * Components register named scalars/histograms with a StatGroup; harness
 * code dumps them as text or consumes them programmatically.
 */

#ifndef PICOSIM_SIM_STATS_HH
#define PICOSIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace picosim::sim
{

/** A named accumulating counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * A per-cycle stall counter for a component that sleeps through its
 * stalls instead of retrying every cycle. It counts what retrying every
 * cycle would have counted: one per cycle from the first failed attempt
 * up to the cycle before the attempt that succeeds.
 *
 * Positions are cycles on the owner's live timeline: the plain clock, or
 * the clock with the cycles of a fault window removed for a component
 * that does not retry while it is down.
 *
 *  - fail(p): an attempt at p failed; counts every position since the
 *    previous count, p included.
 *  - clear(p): an attempt at p succeeded; counts the positions before p
 *    not yet counted and closes the span.
 *  - settle(p): the counter is about to be read; counts every position
 *    through p, leaving the span open.
 */
class StallSpan
{
  public:
    explicit StallSpan(Scalar &stat) : stat_(&stat) {}

    bool open() const { return open_; }

    void
    fail(Cycle p)
    {
        if (!open_) {
            open_ = true;
            through_ = p - 1;
        }
        *stat_ += static_cast<double>(p - through_);
        through_ = p;
    }

    void
    clear(Cycle p)
    {
        if (!open_)
            return;
        *stat_ += static_cast<double>(p - 1 - through_);
        open_ = false;
    }

    void
    settle(Cycle p)
    {
        if (!open_ || p <= through_)
            return;
        *stat_ += static_cast<double>(p - through_);
        through_ = p;
    }

  private:
    Scalar *stat_;
    Cycle through_ = 0; ///< last position already counted
    bool open_ = false;
};

/** A simple sample-statistics accumulator (count/sum/min/max/mean). */
class Distribution
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        sum_ += v;
        sumSq_ += v * v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    double
    variance() const
    {
        if (count_ < 2)
            return 0.0;
        const double m = mean();
        return sumSq_ / count_ - m * m;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = sumSq_ = min_ = max_ = 0.0;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A flat registry of named statistics. Hierarchy is encoded in the names
 * ("picos.readyQueue.pops") like gem5's stat dump.
 */
class StatGroup
{
  public:
    Scalar &scalar(const std::string &name) { return scalars_[name]; }
    Distribution &dist(const std::string &name) { return dists_[name]; }

    bool hasScalar(const std::string &name) const
    {
        return scalars_.count(name) > 0;
    }

    double
    scalarValue(const std::string &name) const
    {
        auto it = scalars_.find(name);
        return it == scalars_.end() ? 0.0 : it->second.value();
    }

    /**
     * Sum of every scalar whose name starts with @p prefix and ends with
     * @p suffix — aggregates per-instance port stats ("manager.c3
     * .routingQueue.pushStalls") across replicated components.
     */
    double
    sumScalars(const std::string &prefix, const std::string &suffix) const
    {
        double sum = 0.0;
        for (auto it = scalars_.lower_bound(prefix);
             it != scalars_.end() && it->first.compare(0, prefix.size(),
                                                       prefix) == 0;
             ++it) {
            const std::string &name = it->first;
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                sum += it->second.value();
        }
        return sum;
    }

    void
    reset()
    {
        for (auto &kv : scalars_)
            kv.second.reset();
        for (auto &kv : dists_)
            kv.second.reset();
    }

    /** Dump all statistics, sorted by name, as "name value" lines. */
    void dump(std::ostream &os) const;

  private:
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, Distribution> dists_;
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_STATS_HH
