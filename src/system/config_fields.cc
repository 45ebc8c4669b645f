#include "system/config_fields.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

#include "mem/addr.hh"
#include "sim/core_set.hh"
#include "sim/json.hh"

namespace vsnoop
{

namespace
{

constexpr EnumToken<PolicyKind> kPolicyTokens[] = {
    {PolicyKind::TokenB, "tokenb"},
    {PolicyKind::VirtualSnoop, "vsnoop"},
    {PolicyKind::IdealRegionFilter, "region"},
};

constexpr EnumToken<RelocationMode> kRelocationTokens[] = {
    {RelocationMode::Base, "base"},
    {RelocationMode::Counter, "counter"},
    {RelocationMode::CounterThreshold, "counter-threshold"},
    {RelocationMode::CounterFlush, "counter-flush"},
};

constexpr EnumToken<RoPolicy> kRoPolicyTokens[] = {
    {RoPolicy::Broadcast, "broadcast"},
    {RoPolicy::MemoryDirect, "memory-direct"},
    {RoPolicy::IntraVm, "intra-vm"},
    {RoPolicy::FriendVm, "friend-vm"},
};

/** The leading members of a row: key, scope bits, member path. */
#define VSNOOP_FIELD(name, scopes, path)                                   \
    .key = name, .scope = scopes,                                          \
    .ref = [](SystemConfig &c) -> FieldRef { return &c.path; }

constexpr unsigned kConfig = kRecordConfig | kWireConfig;

/**
 * The table.  Row order is the order of record members, wire
 * members and cache-key members, so reordering rows changes bytes.
 */
constexpr ConfigField kFields[] = {
    // The run identity: vsnoopsweep sweeps these as axes.
    {VSNOOP_FIELD("policy", kRunIdentity | kSimFlagOnly, policy),
     .flag = "--policy", .metavar = "P", .help = "snoop-target policy"},
    {VSNOOP_FIELD("relocation", kRunIdentity | kSimFlagOnly,
                  vsnoop.relocation),
     .flag = "--relocation", .metavar = "M",
     .help = "vCPU-map relocation mode"},
    {VSNOOP_FIELD("ro_policy", kRunIdentity | kSimFlagOnly,
                  vsnoop.roPolicy),
     .flag = "--ro-policy", .metavar = "P",
     .help = "target policy for read-only content-shared misses"},
    {VSNOOP_FIELD("seed", kRunIdentity | kSimFlagOnly, seed),
     .flag = "--seed", .metavar = "N", .help = "RNG seed"},

    // The machine and the workload.
    {VSNOOP_FIELD("mesh_width", kConfig | kFlagPair, mesh.width),
     .flag = "--mesh", .metavar = "WxH", .help = "mesh geometry",
     .nonzero = true},
    {VSNOOP_FIELD("mesh_height", kConfig, mesh.height), .nonzero = true},
    {VSNOOP_FIELD("ideal_network", kConfig, idealNetwork),
     .flag = "--ideal-network",
     .help = "use a contention-free crossbar instead of the mesh"},
    {VSNOOP_FIELD("vms", kConfig, numVms), .flag = "--vms",
     .metavar = "N", .help = "virtual machines", .nonzero = true},
    {VSNOOP_FIELD("vcpus_per_vm", kConfig, vcpusPerVm),
     .flag = "--vcpus", .metavar = "N", .help = "vCPUs per VM",
     .nonzero = true},
    // The L2 asserts lines >= ways and lines % ways == 0 (8 ways);
    // the L1 the same with its 4 ways.
    {VSNOOP_FIELD("l2_bytes", kConfig, l2.sizeBytes), .flag = "--l2-kb",
     .metavar = "N", .help = "private L2 size in KB", .flagScale = 1024,
     .nonzero = true, .multipleOf = kLineBytes * 8},
    {VSNOOP_FIELD("l1_bytes", kConfig, l2.l1SizeBytes),
     .flag = "--l1-kb", .metavar = "N",
     .help = "model private L1s of N KB; 0 = off, and generators "
             "emit post-L1 streams",
     .flagScale = 1024, .multipleOf = kLineBytes * 4},
    {VSNOOP_FIELD("accesses_per_vcpu", kConfig, accessesPerVcpu),
     .flag = "--accesses", .metavar = "N", .help = "accesses per vCPU",
     .nonzero = true},
    {VSNOOP_FIELD("warmup_accesses_per_vcpu", kConfig,
                  warmupAccessesPerVcpu),
     .flag = "--warmup", .metavar = "N",
     .help = "warmup accesses per vCPU (default accesses/4)"},
    {VSNOOP_FIELD("migration_period", kConfig, migrationPeriod),
     .flag = "--migration-period", .metavar = "T",
     .help = "ticks between vCPU shuffles, 0 = pinned"},
    {VSNOOP_FIELD("counter_threshold", kConfig, vsnoop.counterThreshold),
     .flag = "--threshold", .metavar = "N", .help = "counter threshold"},
    {VSNOOP_FIELD("region_bytes", kConfig, regionBytes),
     .flag = "--region-bytes", .metavar = "N",
     .help = "region filter granularity in bytes", .nonzero = true,
     .multipleOf = kLineBytes},

    // The resolved timing and protocol parameters, so archived
    // records reproduce without consulting source defaults.
    {VSNOOP_FIELD("crossbar_latency", kConfig, crossbarLatency)},
    {VSNOOP_FIELD("link_bytes", kConfig, mesh.linkBytes), .nonzero = true},
    {VSNOOP_FIELD("router_pipeline", kConfig, mesh.routerPipeline)},
    {VSNOOP_FIELD("link_latency", kConfig, mesh.linkLatency)},
    {VSNOOP_FIELD("l1_latency", kConfig, protocol.l1Latency)},
    {VSNOOP_FIELD("l2_latency", kConfig, protocol.l2Latency)},
    {VSNOOP_FIELD("mem_latency", kConfig, protocol.memLatency)},
    {VSNOOP_FIELD("retry_window", kConfig, protocol.retryWindow)},
    {VSNOOP_FIELD("max_transient_attempts", kConfig,
                  protocol.maxTransientAttempts)},
    {VSNOOP_FIELD("persistent_window", kConfig,
                  protocol.persistentWindow)},
    {VSNOOP_FIELD("broadcast_attempt", kConfig, vsnoop.broadcastAttempt)},
    {VSNOOP_FIELD("map_sync_bytes", kConfig, vsnoop.mapSyncBytes)},
    {VSNOOP_FIELD("ro_token_bundle", kConfig, vsnoop.roTokenBundle)},
    {VSNOOP_FIELD("content_scan", kConfig, contentScan)},
    {VSNOOP_FIELD("content_scan_period", kConfig, contentScanPeriod)},
    {VSNOOP_FIELD("timeseries_interval", kConfig, timeseriesInterval),
     .flag = "--timeseries-interval", .metavar = "T",
     .help = "sample the interval time series every T ticks into the "
             "JSON record, 0 = off"},
    {VSNOOP_FIELD("tag_lookup_cycles", kConfig,
                  protocol.tagLookupCycles)},

    // Optional observability groups: recorded only when on.
    {VSNOOP_FIELD("perf", kConfig, perf), .flag = "--perf",
     .help = "collect simulator-internals counters (event-queue "
             "occupancy, hash-table probe lengths, pool watermarks, "
             "mesh backlog) into results.perf; deterministic, and "
             "records are byte-identical to a run without it when off",
     .emitWhen = &SystemConfig::perf},
    {VSNOOP_FIELD("perf_sample_interval", kConfig, perfSampleInterval),
     .flag = "--perf-sample-interval", .metavar = "T",
     .help = "sample perf occupancy histograms every T ticks (a nonzero "
             "time-series interval takes precedence)",
     .emitWhen = &SystemConfig::perf},
    {VSNOOP_FIELD("pages", kConfig, pages), .flag = "--pages",
     .help = "attribute snoop activity to host pages: a bounded top-K "
             "table of per-page counters, sharing-lifecycle counts and "
             "a mapped-page census in results.pages, whose lookups "
             "reconcile exactly with snoop_lookups",
     .emitWhen = &SystemConfig::pages},
    {VSNOOP_FIELD("pages_top", kConfig, pagesTop), .flag = "--pages-top",
     .metavar = "K", .help = "heavy-hitter capacity for --pages",
     .nonzero = true, .emitWhen = &SystemConfig::pages},

    // Fields only the C++ API sets, keyed so a customized base is
    // never served another configuration's record.
    {VSNOOP_FIELD("l2_ways", kKeyExtra, l2.ways)},
    {VSNOOP_FIELD("l1_ways", kKeyExtra, l2.l1Ways)},
    {VSNOOP_FIELD("local_latency", kKeyExtra, mesh.localLatency)},
    {VSNOOP_FIELD("mem_token_latency", kKeyExtra,
                  protocol.memTokenLatency)},
    {VSNOOP_FIELD("control_bytes", kKeyExtra, protocol.controlBytes)},
    {VSNOOP_FIELD("data_bytes", kKeyExtra, protocol.dataBytes)},
    {VSNOOP_FIELD("hypervisor_pages", kKeyExtra,
                  hypervisor.hypervisorPages)},
    {VSNOOP_FIELD("per_vm_shared_pages", kKeyExtra,
                  hypervisor.perVmSharedPages)},
    {VSNOOP_FIELD("channel_pages", kKeyExtra, hypervisor.channelPages)},
    {VSNOOP_FIELD("trace_ticks_per_ms", kKeyExtra, traceTicksPerMs)},
    {VSNOOP_FIELD("invariant_check_period", kKeyExtra,
                  invariantCheckPeriod)},
    {VSNOOP_FIELD("capture_trace", kKeyExtra, captureTrace)},
    {VSNOOP_FIELD("trace_limit", kKeyExtra, traceLimit),
     .flag = "--trace-limit", .metavar = "N",
     .help = "trace ring capacity in records (the oldest records are "
             "dropped when full)",
     .nonzero = true},
    // Watchpoints filter the trace, so they key the cache too.
    {VSNOOP_FIELD("watch_pages", kRecordConfig | kKeyExtra | kSimFlagOnly,
                  watchPages),
     .flag = "--watch-page", .metavar = "ADDR",
     .help = "watch one host page (byte address, decimal or 0x-hex; "
             "repeatable): transaction trace records are kept only for "
             "watched pages, and page lifecycle events are traced; "
             "implies trace capture"},
};

#undef VSNOOP_FIELD

/** Reads go through the same accessors; nothing is written. */
FieldRef
readRef(const ConfigField &field, const SystemConfig &config)
{
    return field.ref(const_cast<SystemConfig &>(config));
}

bool
inSet(const ConfigField &field, KnobFlags set)
{
    return field.flag != nullptr &&
           (set == KnobFlags::Sim || !(field.scope & kSimFlagOnly));
}

/** Strict unsigned decimal: digits only, no sign, no overflow. */
bool
parseDecimal(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    errno = 0;
    *out = std::strtoull(text.c_str(), nullptr, 10);
    return errno == 0;
}

/** Set a row from the text @p flag gave, in the flag's unit. */
bool
setFromFlag(const ConfigField &field, const std::string &flag,
            const std::string &text, SystemConfig *config,
            std::string *error)
{
    return std::visit(
        [&](auto *member) {
            using T = std::remove_pointer_t<decltype(member)>;
            if constexpr (std::is_enum_v<T>) {
                if (parseEnumToken(text, member))
                    return true;
                *error = "unknown " + flag + " '" + text +
                         "'; known: " + enumTokenList<T>();
                return false;
            } else if constexpr (std::is_same_v<
                                     T, std::vector<std::uint64_t>>) {
                // A byte address, stored as its host page number.
                char *end = nullptr;
                std::uint64_t addr = std::strtoull(text.c_str(), &end, 0);
                if (end == text.c_str() || *end != '\0') {
                    *error = flag + " expects an address, got '" + text +
                             "'";
                    return false;
                }
                member->push_back(addr >> kPageShift);
                return true;
            } else {
                std::uint64_t value = 0;
                if (!parseDecimal(text, &value) ||
                    value > std::numeric_limits<T>::max() /
                                field.flagScale) {
                    *error = flag + " expects a non-negative integer, "
                             "got '" + text + "'";
                    return false;
                }
                *member = static_cast<T>(value * field.flagScale);
                return true;
            }
        },
        field.ref(*config));
}

/** A row's value in its flag's unit, for --help defaults. */
std::string
flagText(const ConfigField &field, const SystemConfig &config)
{
    return std::visit(
        [&](auto *member) -> std::string {
            using T = std::remove_pointer_t<decltype(member)>;
            if constexpr (std::is_enum_v<T>)
                return enumToken(*member);
            else if constexpr (std::is_integral_v<T> &&
                               !std::is_same_v<T, bool>)
                return std::to_string(*member / field.flagScale);
            else
                return "";
        },
        readRef(field, config));
}

/** Append "  --flag META   text" with the text wrapped at 62. */
void
appendHelpEntry(std::string *out, const std::string &head,
                const std::string &text)
{
    constexpr std::size_t kIndent = 24, kWidth = 62;
    std::string line = head;
    if (line.size() + 2 > kIndent) {
        *out += line + "\n";
        line.clear();
    }
    line.resize(kIndent, ' ');
    std::istringstream words(text);
    for (std::string word; words >> word;) {
        if (line.size() > kIndent &&
            line.size() + 1 + word.size() > kWidth) {
            *out += line + "\n";
            line.assign(kIndent, ' ');
        }
        line += (line.size() > kIndent ? " " : "") + word;
    }
    *out += line + "\n";
}

} // namespace

std::span<const EnumToken<PolicyKind>>
enumTokens(PolicyKind)
{
    return kPolicyTokens;
}

std::span<const EnumToken<RelocationMode>>
enumTokens(RelocationMode)
{
    return kRelocationTokens;
}

std::span<const EnumToken<RoPolicy>>
enumTokens(RoPolicy)
{
    return kRoPolicyTokens;
}

std::span<const ConfigField>
configFields()
{
    return kFields;
}

void
writeConfigFields(JsonWriter &json, const SystemConfig &config,
                  FieldScope scope)
{
    for (const ConfigField &field : kFields) {
        if (!(field.scope & scope))
            continue;
        if (scope == kRecordConfig && field.emitWhen != nullptr &&
            !(config.*field.emitWhen))
            continue;
        std::visit(
            [&](auto *member) {
                using T = std::remove_pointer_t<decltype(member)>;
                if constexpr (std::is_same_v<
                                  T, std::vector<std::uint64_t>>) {
                    if (member->empty())
                        return;
                    json.key(field.key).beginArray();
                    for (std::uint64_t item : *member)
                        json.value(item);
                    json.endArray();
                } else if constexpr (std::is_enum_v<T>) {
                    json.key(field.key).value(enumToken(*member));
                } else {
                    json.key(field.key).value(*member);
                }
            },
            readRef(field, config));
    }
}

bool
jsonToU64(const JsonValue &value, std::uint64_t *out)
{
    if (!value.isNumber())
        return false;
    double d = value.number();
    // 2^53: the largest range where doubles hold integers exactly.
    if (d < 0 || d != std::floor(d) || d > 9007199254740992.0)
        return false;
    *out = static_cast<std::uint64_t>(d);
    return true;
}

bool
readWireConfig(const JsonValue &object, SystemConfig *config,
               std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    for (const auto &[key, value] : object.members()) {
        const ConfigField *field = nullptr;
        for (const ConfigField &row : kFields)
            if ((row.scope & kWireConfig) && key == row.key)
                field = &row;
        if (field == nullptr)
            return fail("unknown config key \"" + key + "\"");
        bool typed = std::visit(
            [&](auto *member) {
                using T = std::remove_pointer_t<decltype(member)>;
                std::uint64_t u = 0;
                if constexpr (std::is_same_v<T, bool>) {
                    if (value.kind() != JsonValue::Kind::Bool)
                        return false;
                    *member = value.boolean();
                    return true;
                } else if constexpr (std::is_integral_v<T>) {
                    if (!jsonToU64(value, &u) ||
                        u > std::numeric_limits<T>::max())
                        return false;
                    *member = static_cast<T>(u);
                    return true;
                } else {
                    return false;
                }
            },
            field->ref(*config));
        if (!typed)
            return fail("config key \"" + key + "\" has the wrong type");
    }
    return true;
}

bool
validateConfig(const SystemConfig &config, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    for (const ConfigField &field : kFields) {
        if (!field.nonzero && field.multipleOf == 0)
            continue;
        std::uint64_t value = std::visit(
            [](auto *member) -> std::uint64_t {
                using T = std::remove_pointer_t<decltype(member)>;
                if constexpr (std::is_integral_v<T>)
                    return *member;
                else
                    return 0;
            },
            readRef(field, config));
        std::string name = field.key;
        if (field.multipleOf != 0 &&
            (value % field.multipleOf != 0 ||
             (field.nonzero && value == 0)))
            return fail(name + " must be " +
                        (field.nonzero ? "" : "0 or ") +
                        "a positive multiple of " +
                        std::to_string(field.multipleOf));
        if (field.nonzero && value == 0)
            return fail(name + " must be at least 1");
    }
    std::uint64_t cores = std::uint64_t(config.mesh.width) *
                          std::uint64_t(config.mesh.height);
    if (cores > CoreSet::kMaxCores)
        return fail("a " + std::to_string(config.mesh.width) + "x" +
                    std::to_string(config.mesh.height) + " mesh has " +
                    std::to_string(cores) + " cores; at most " +
                    std::to_string(CoreSet::kMaxCores) +
                    " are supported");
    std::uint64_t vcpus = std::uint64_t(config.numVms) *
                          std::uint64_t(config.vcpusPerVm);
    if (vcpus > cores)
        return fail("overcommitted: " + std::to_string(vcpus) +
                    " vCPUs on " + std::to_string(cores) + " cores");
    return true;
}

const ConfigField *
parseKnobFlag(const std::vector<std::string> &args, std::size_t *i,
              KnobFlags set, SystemConfig *config, std::string *error)
{
    const std::string &flag = args[*i];
    for (std::size_t f = 0; f < std::size(kFields); ++f) {
        const ConfigField &field = kFields[f];
        if (!inSet(field, set) || flag != field.flag)
            continue;
        FieldRef ref = field.ref(*config);
        if (bool **on = std::get_if<bool *>(&ref)) {
            **on = true;
            return &field;
        }
        if (*i + 1 >= args.size()) {
            *error = flag + " requires a value";
            return &field;
        }
        const std::string &value = args[++*i];
        if (field.scope & kFlagPair) {
            std::size_t x = value.find('x');
            if (x == std::string::npos) {
                *error = flag + " expects " + field.metavar + ", got '" +
                         value + "'";
                return &field;
            }
            if (setFromFlag(field, flag, value.substr(0, x),
                            config, error))
                setFromFlag(kFields[f + 1], flag,
                            value.substr(x + 1), config, error);
            return &field;
        }
        setFromFlag(field, flag, value, config, error);
        return &field;
    }
    return nullptr;
}

std::string
knobFlagHelp(KnobFlags set, const SystemConfig &defaults)
{
    std::string out;
    for (std::size_t f = 0; f < std::size(kFields); ++f) {
        const ConfigField &field = kFields[f];
        if (!inSet(field, set))
            continue;
        std::string head = std::string("  ") + field.flag;
        if (field.metavar != nullptr)
            head += std::string(" ") + field.metavar;
        std::string text = field.help;
        std::visit(
            [&](auto *member) {
                using T = std::remove_pointer_t<decltype(member)>;
                if constexpr (std::is_enum_v<T>)
                    text += ": " + enumTokenList<T>(" | ");
            },
            readRef(field, defaults));
        std::string value = flagText(field, defaults);
        if (field.scope & kFlagPair)
            value += "x" + flagText(kFields[f + 1], defaults);
        if (!value.empty() && text.find("(default") == std::string::npos)
            text += " (default " + value + ")";
        appendHelpEntry(&out, head, text);
    }
    return out;
}

} // namespace vsnoop
