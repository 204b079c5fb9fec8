#include "spec/run_spec.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "apps/workloads.hh"
#include "spec/json.hh"

namespace picosim::spec
{

namespace
{

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

} // namespace

std::uint64_t
parseInt(const std::string &disp, const std::string &v, std::uint64_t min,
         std::uint64_t max)
{
    std::uint64_t value = 0;
    bool ok = !v.empty() && v.size() <= 20;
    if (ok) {
        for (const char c : v) {
            if (c < '0' || c > '9') {
                ok = false;
                break;
            }
            const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
            if (value > (kU64Max - digit) / 10) {
                ok = false;
                break;
            }
            value = value * 10 + digit;
        }
    }
    if (!ok || value < min || value > max) {
        throw SpecError(disp + " expects an integer in [" +
                        std::to_string(min) + ", " + std::to_string(max) +
                        "], got '" + v + "'");
    }
    return value;
}

namespace
{

/** Shortest decimal form of @p d that strtod parses back bit-exactly. */
std::string
formatDouble(double d)
{
    char buf[40];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    return buf;
}

double
parseDouble(const std::string &disp, const std::string &v, double min,
            double max)
{
    char *end = nullptr;
    const double d = v.empty() ? 0.0 : std::strtod(v.c_str(), &end);
    const bool ok = !v.empty() && end == v.c_str() + v.size() &&
                    std::isfinite(d);
    if (!ok || d < min || d > max) {
        throw SpecError(disp + " expects a number in [" +
                        formatDouble(min) + ", " + formatDouble(max) +
                        "], got '" + v + "'");
    }
    return d;
}

/** One choice of an enum-valued key. */
struct Choice
{
    const char *name;
    unsigned value;
};

unsigned
parseChoice(const std::string &what, const std::string &v,
            const std::vector<Choice> &choices)
{
    std::string valid;
    std::string best;
    unsigned bestDist = ~0u;
    for (const Choice &c : choices) {
        if (v == c.name)
            return c.value;
        if (!valid.empty())
            valid += ", ";
        valid += c.name;
        const unsigned d = editDistance(v, c.name);
        if (d < bestDist) {
            bestDist = d;
            best = c.name;
        }
    }
    throw SpecError("unknown " + what + " '" + v + "' (valid: " + valid +
                    ")" + didYouMean(v, best));
}

struct KeyDef
{
    const char *key;
    std::string (*get)(const RunSpec &);
    void (*set)(RunSpec &, const std::string &v, const std::string &disp);
};

/** The spec schema: every fixed key, in serialization order. */
const std::vector<KeyDef> &
keyTable()
{
    using S = RunSpec;
    static const std::vector<KeyDef> table = {
        {"workload", [](const S &s) { return s.workload; },
         [](S &s, const std::string &v, const std::string &) {
             s.workload = v;
         }},
        {"runtime",
         [](const S &s) { return kindSpecName(s.runtime); },
         [](S &s, const std::string &v, const std::string &) {
             s.runtime = static_cast<rt::RuntimeKind>(parseChoice(
                 "runtime", v,
                 {{"serial", 0}, {"nanos-sw", 1}, {"nanos-rv", 2},
                  {"nanos-axi", 3}, {"phentos", 4}}));
         }},
        {"cores",
         [](const S &s) { return std::to_string(s.cores); },
         [](S &s, const std::string &v, const std::string &d) {
             s.cores = static_cast<unsigned>(parseInt(d, v, 1, 4096));
         }},
        {"mode",
         [](const S &s) {
             return std::string(s.mode == sim::EvalMode::TickWorld
                                    ? "tickworld"
                                    : "event");
         },
         [](S &s, const std::string &v, const std::string &) {
             s.mode = parseChoice("mode", v,
                                  {{"event", 0}, {"tickworld", 1}}) == 0
                          ? sim::EvalMode::EventDriven
                          : sim::EvalMode::TickWorld;
         }},
        {"mem",
         [](const S &s) {
             return std::string(s.mem == mem::MemMode::Timed ? "timed"
                                                             : "inline");
         },
         [](S &s, const std::string &v, const std::string &) {
             s.mem = parseChoice("memory model", v,
                                 {{"inline", 0}, {"timed", 1}}) == 0
                         ? mem::MemMode::Inline
                         : mem::MemMode::Timed;
         }},
        {"mshrs",
         [](const S &s) { return std::to_string(s.mshrs); },
         [](S &s, const std::string &v, const std::string &d) {
             s.mshrs =
                 static_cast<unsigned>(parseInt(d, v, 1, 100'000'000));
         }},
        {"bus-bytes",
         [](const S &s) { return std::to_string(s.busBytes); },
         [](S &s, const std::string &v, const std::string &d) {
             s.busBytes =
                 static_cast<unsigned>(parseInt(d, v, 1, 100'000'000));
         }},
        {"mem-occupancy",
         [](const S &s) { return std::to_string(s.memOccupancy); },
         [](S &s, const std::string &v, const std::string &d) {
             s.memOccupancy = parseInt(d, v, 1, 100'000'000);
         }},
        {"sched-shards",
         [](const S &s) { return std::to_string(s.schedShards); },
         [](S &s, const std::string &v, const std::string &d) {
             s.schedShards = static_cast<unsigned>(parseInt(d, v, 1, 64));
         }},
        {"clusters",
         [](const S &s) { return std::to_string(s.clusters); },
         [](S &s, const std::string &v, const std::string &d) {
             s.clusters = static_cast<unsigned>(parseInt(d, v, 1, 256));
         }},
        {"steal",
         [](const S &s) { return std::string(s.steal ? "on" : "off"); },
         [](S &s, const std::string &v, const std::string &) {
             s.steal = parseChoice("steal policy", v,
                                   {{"on", 1}, {"off", 0}}) != 0;
         }},
        {"cluster-link",
         [](const S &s) { return std::to_string(s.clusterLink); },
         [](S &s, const std::string &v, const std::string &d) {
             s.clusterLink = parseInt(d, v, 0, 1'000'000);
         }},
        {"xshard-dep",
         [](const S &s) { return std::to_string(s.xshardDep); },
         [](S &s, const std::string &v, const std::string &d) {
             s.xshardDep = parseInt(d, v, 0, 1'000'000);
         }},
        {"xshard-notify",
         [](const S &s) { return std::to_string(s.xshardNotify); },
         [](S &s, const std::string &v, const std::string &d) {
             s.xshardNotify = parseInt(d, v, 0, 1'000'000);
         }},
        {"steal-penalty",
         [](const S &s) { return std::to_string(s.stealPenalty); },
         [](S &s, const std::string &v, const std::string &d) {
             s.stealPenalty = parseInt(d, v, 0, 1'000'000);
         }},
        {"gateway-depth",
         [](const S &s) { return std::to_string(s.gatewayDepth); },
         [](S &s, const std::string &v, const std::string &d) {
             s.gatewayDepth =
                 static_cast<unsigned>(parseInt(d, v, 1, 100'000));
         }},
        {"rocc-latency",
         [](const S &s) { return std::to_string(s.roccLatency); },
         [](S &s, const std::string &v, const std::string &d) {
             s.roccLatency = parseInt(d, v, 0, 1'000'000);
         }},
        {"core-ready-depth",
         [](const S &s) { return std::to_string(s.coreReadyDepth); },
         [](S &s, const std::string &v, const std::string &d) {
             s.coreReadyDepth =
                 static_cast<unsigned>(parseInt(d, v, 1, 100'000));
         }},
        {"bandwidth-alpha",
         [](const S &s) { return formatDouble(s.bandwidthAlpha); },
         [](S &s, const std::string &v, const std::string &d) {
             s.bandwidthAlpha = parseDouble(d, v, 0.0, 1.0);
         }},
        {"repeat",
         [](const S &s) { return std::to_string(s.repeat); },
         [](S &s, const std::string &v, const std::string &d) {
             s.repeat = static_cast<unsigned>(parseInt(d, v, 1, 1'000'000));
         }},
        {"seed",
         [](const S &s) { return std::to_string(s.seed); },
         [](S &s, const std::string &v, const std::string &d) {
             s.seed = parseInt(d, v, 0, kU64Max);
         }},
        {"cycle-limit",
         [](const S &s) { return std::to_string(s.cycleLimit); },
         [](S &s, const std::string &v, const std::string &d) {
             s.cycleLimit = parseInt(d, v, 1, kU64Max);
         }},
        {"fault.kind",
         [](const S &s) {
             return std::string(sim::faultKindName(s.faultKind));
         },
         [](S &s, const std::string &v, const std::string &) {
             s.faultKind = static_cast<sim::FaultKind>(parseChoice(
                 "fault kind", v,
                 {{"none", 0}, {"kill-shard", 1}, {"stall-link", 2},
                  {"drop-job", 3}}));
         }},
        {"fault.cycle",
         [](const S &s) { return std::to_string(s.faultCycle); },
         [](S &s, const std::string &v, const std::string &d) {
             s.faultCycle = parseInt(d, v, 0, kU64Max);
         }},
        {"fault.until",
         [](const S &s) { return std::to_string(s.faultUntil); },
         [](S &s, const std::string &v, const std::string &d) {
             s.faultUntil = parseInt(d, v, 0, kU64Max);
         }},
        {"fault.target",
         [](const S &s) { return std::to_string(s.faultTarget); },
         [](S &s, const std::string &v, const std::string &d) {
             s.faultTarget = static_cast<unsigned>(parseInt(d, v, 0, 256));
         }},
        // Folded away by canonicalize(), hence never serialized; kept
        // last so serialize() can simply skip the final table entry.
        {"nested",
         [](const S &s) { return std::string(s.nested ? "on" : "off"); },
         [](S &s, const std::string &v, const std::string &) {
             s.nested = parseChoice("nested mode", v,
                                    {{"on", 1}, {"off", 0}}) != 0;
         }},
    };
    return table;
}

/**
 * Keys of the removed parallel (conservative-PDES) kernel. Spec text
 * written before the removal (spec files, BENCH row stamps, daemon
 * journals) must fail naming the key and the reason, never with a
 * did-you-mean to an unrelated key.
 */
constexpr const char *kRemovedKeys[] = {"pdes", "pdes-domains",
                                        "host-threads"};

/** Workloads the `nested` key folds between (or accepts as-is). */
bool
inherentlyNested(const std::string &workload)
{
    return workload == "task-tree" || workload == "cholesky-nested" ||
           workload == "mergesort-nested";
}

} // namespace

std::string
kindSpecName(rt::RuntimeKind kind)
{
    switch (kind) {
      case rt::RuntimeKind::Serial:   return "serial";
      case rt::RuntimeKind::NanosSW:  return "nanos-sw";
      case rt::RuntimeKind::NanosRV:  return "nanos-rv";
      case rt::RuntimeKind::NanosAXI: return "nanos-axi";
      case rt::RuntimeKind::Phentos:  return "phentos";
    }
    return "phentos";
}

void
RunSpec::setKey(const std::string &key, const std::string &value,
                const std::string &display_prefix)
{
    if (key.rfind("wl.", 0) == 0) {
        const std::string param = key.substr(3);
        if (param.empty()) {
            throw SpecError("empty workload parameter name in '" +
                            display_prefix + key + "'");
        }
        // Range/schema checks happen at canonicalize(), when the
        // workload the parameter belongs to is known.
        wl[param] = parseInt(display_prefix + key, value, 0, kU64Max);
        return;
    }
    for (const KeyDef &kd : keyTable()) {
        if (key == kd.key) {
            kd.set(*this, value, display_prefix + key);
            return;
        }
    }
    rejectRemovedKey(key, display_prefix);
    const bool is_flag = display_prefix == "--";
    throw SpecError(std::string("unknown ") + (is_flag ? "flag" : "key") +
                    " '" + display_prefix + key + "'" +
                    didYouMean(key, nearestKey(key), display_prefix));
}

void
RunSpec::canonicalize(const std::string &display_prefix)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();

    // 1. Resolve the workload: exact registry name, else a Figure-9
    // "program label" substring, rewritten losslessly to the registry
    // name plus its wl.* parameters (explicit wl.* keys win).
    const WorkloadDef *def = reg.find(workload);
    if (!def) {
        for (const auto &input : apps::figure9Inputs()) {
            const std::string full = input.program + " " + input.label;
            if (full.find(workload) != std::string::npos) {
                workload = input.program;
                for (const auto &[param, value] : input.args)
                    wl.emplace(param, value);
                def = reg.find(workload);
                break;
            }
        }
        if (!def) {
            throw SpecError("unknown workload '" + workload +
                            "' (try --list-workloads)" +
                            didYouMean(workload, reg.nearest(workload)));
        }
    }

    // 2. Fold taskbench nested mode into the workload itself: the flat
    // microbenchmarks become the equivalent recursive task trees.
    if (nested) {
        if (workload == "task-free" || workload == "task-chain") {
            WorkloadArgs tree;
            if (const auto it = wl.find("payload"); it != wl.end())
                tree["payload"] = it->second;
            tree["chained"] = workload == "task-chain" ? 1 : 0;
            workload = "task-tree";
            wl = std::move(tree);
            def = reg.find(workload);
        } else if (!inherentlyNested(workload)) {
            throw SpecError(
                display_prefix + "nested is not supported for workload '" +
                workload + "' (valid: task-free, task-chain, task-tree, "
                           "cholesky-nested, mergesort-nested)");
        }
        nested = false;
    }

    // 3. The global seed fills a workload's seed parameter unless one
    // was given explicitly.
    if (def->findParam("seed") != nullptr && wl.find("seed") == wl.end())
        wl["seed"] = seed;

    // 4. Fill schema defaults and range-check every parameter.
    wl = def->canonicalArgs(wl);

    // 5. Cross-key constraints.
    if (clusters > cores) {
        throw SpecError(display_prefix + "clusters=" +
                        std::to_string(clusters) + " exceeds " +
                        display_prefix + "cores=" + std::to_string(cores) +
                        " (each cluster needs at least one core)");
    }
    if (faultKind != sim::FaultKind::None) {
        if (faultUntil != 0 && faultUntil <= faultCycle) {
            throw SpecError(
                display_prefix + "fault.until=" +
                std::to_string(faultUntil) + " must exceed " +
                display_prefix + "fault.cycle=" +
                std::to_string(faultCycle) + " (or be 0: never restored)");
        }
        const bool modelFault = faultKind == sim::FaultKind::KillShard ||
                                faultKind == sim::FaultKind::StallLink;
        if (modelFault && schedShards == 1 && clusters == 1) {
            throw SpecError(
                display_prefix + "fault.kind=" +
                sim::faultKindName(faultKind) +
                " needs the sharded scheduler (" + display_prefix +
                "sched-shards or " + display_prefix + "clusters > 1); "
                "the single centralized Picos has no shard or link to "
                "fault");
        }
        if (modelFault && runtime == rt::RuntimeKind::Serial) {
            throw SpecError(
                display_prefix + "fault.kind=" +
                sim::faultKindName(faultKind) +
                " is meaningless under runtime=serial (no scheduler is "
                "built)");
        }
        if (faultKind == sim::FaultKind::KillShard &&
            faultTarget >= schedShards) {
            throw SpecError(
                display_prefix + "fault.target=" +
                std::to_string(faultTarget) + " is out of range for " +
                display_prefix + "fault.kind=kill-shard (sched-shards=" +
                std::to_string(schedShards) + ")");
        }
        if (faultKind == sim::FaultKind::StallLink &&
            faultTarget >= clusters) {
            throw SpecError(
                display_prefix + "fault.target=" +
                std::to_string(faultTarget) + " is out of range for " +
                display_prefix + "fault.kind=stall-link (clusters=" +
                std::to_string(clusters) + ")");
        }
    }
}

std::string
RunSpec::serialize(char sep) const
{
    std::string out;
    const auto emit = [&](const std::string &key,
                          const std::string &value) {
        if (!out.empty())
            out += sep;
        out += key;
        out += '=';
        out += value;
    };
    for (const KeyDef &kd : keyTable()) {
        if (std::strcmp(kd.key, "nested") == 0)
            continue; // canonical specs have it folded away
        emit(kd.key, kd.get(*this));
        if (std::strcmp(kd.key, "workload") == 0) {
            for (const auto &[param, value] : wl)
                emit("wl." + param, std::to_string(value));
        }
    }
    return out;
}

void
RunSpec::merge(const std::string &text)
{
    std::size_t first = 0;
    while (first < text.size() &&
           std::isspace(static_cast<unsigned char>(text[first])))
        ++first;

    if (first < text.size() && text[first] == '{') {
        for (auto [key, value] : parseFlatJson(text)) {
            // JSON booleans spell the on/off keys.
            if (value == "true")
                value = "on";
            else if (value == "false")
                value = "off";
            setKey(key, value, "");
        }
        return;
    }

    // Blank out # comments, then whitespace-tokenize key=value pairs.
    std::string clean;
    clean.reserve(text.size());
    bool comment = false;
    for (const char c : text) {
        if (c == '#')
            comment = true;
        if (c == '\n')
            comment = false;
        clean += comment ? ' ' : c;
    }
    std::istringstream ss(clean);
    std::string token;
    while (ss >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            throw SpecError("malformed spec entry '" + token +
                            "' (expected key=value)");
        }
        setKey(token.substr(0, eq), token.substr(eq + 1));
    }
}

RunSpec
RunSpec::parse(const std::string &text)
{
    RunSpec spec;
    spec.merge(text);
    spec.canonicalize();
    return spec;
}

std::vector<std::string>
RunSpec::keys()
{
    std::vector<std::string> out;
    out.reserve(keyTable().size());
    for (const KeyDef &kd : keyTable())
        out.push_back(kd.key);
    return out;
}

std::string
RunSpec::nearestKey(const std::string &key)
{
    std::string best;
    unsigned bestDist = ~0u;
    for (const KeyDef &kd : keyTable()) {
        const unsigned d = editDistance(key, kd.key);
        if (d < bestDist) {
            bestDist = d;
            best = kd.key;
        }
    }
    return best;
}

void
RunSpec::rejectRemovedKey(const std::string &key,
                          const std::string &display_prefix)
{
    for (const char *removed : kRemovedKeys) {
        if (key == removed) {
            const bool is_flag = display_prefix == "--";
            throw SpecError(std::string(is_flag ? "flag" : "key") + " '" +
                            display_prefix + key +
                            "' was removed: the parallel (conservative-"
                            "PDES) kernel was removed and every run uses "
                            "the sequential kernel, so drop it");
        }
    }
}

} // namespace picosim::spec
