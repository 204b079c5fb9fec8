#include "sim/stats.hh"

#include <charconv>
#include <cmath>
#include <iomanip>

namespace picosim::sim
{

namespace
{

/**
 * Integral values (every counter) print exactly, anything else (means)
 * at shortest round-trip precision: the dump is the equality oracle of
 * EventDriven==TickWorld gates and checkpoint digests, so two dumps
 * must differ whenever two values do, however many digits they have.
 */
void
writeValue(std::ostream &os, double v)
{
    char buf[400]; // fixed notation of the largest double: 309 digits
    const bool integral = std::isfinite(v) && v == std::trunc(v);
    const std::to_chars_result res =
        integral ? std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::fixed)
                 : std::to_chars(buf, buf + sizeof buf, v);
    os.write(buf, res.ptr - buf);
}

} // namespace

void
StatGroup::dump(std::ostream &os) const
{
    os << std::left;
    const auto line = [&os](const std::string &name, double v) {
        os << std::setw(48) << name << ' ';
        writeValue(os, v);
        os << '\n';
    };
    for (const auto &kv : scalars_)
        line(kv.first, kv.second.value());
    for (const auto &kv : dists_) {
        os << std::setw(48) << (kv.first + ".count") << ' '
           << kv.second.count() << '\n';
        line(kv.first + ".mean", kv.second.mean());
        line(kv.first + ".min", kv.second.min());
        line(kv.first + ".max", kv.second.max());
    }
}

} // namespace picosim::sim
