/**
 * @file
 * The SystemConfig field table: every configuration knob a run
 * record, the sweep wire format, the run cache key or a
 * command-line flag names, declared once.
 *
 * Each row gives a field's record/wire key, the surfaces it appears
 * on, an accessor for the SystemConfig member, its command-line
 * flag (with the flag's unit scale and --help text), its validity
 * rule, and an "emit only when on" switch for the optional perf and
 * pages groups — the TOML11_DEFINE_CONVERSION_NON_INTRUSIVE idea
 * without the dependency.  Defaults stay in the struct initializers
 * (system/sim_system.hh).  Generated from the rows:
 *
 *   - the run record's top-level identity and "config" block
 *     (system/run_result.cc);
 *   - the submission "config" object, its parser with unknown-key
 *     rejection, and the cache key (service/sweep_wire.cc);
 *   - the knob flags of vsnoopsim and vsnoopsweep and the knob
 *     section of their --help;
 *   - validateConfig(), which every front end runs before a
 *     SimSystem is built.
 *
 * Adding a knob is one row: a key puts it in records, on the wire
 * and in cache keys; a flag adds it to both front ends.
 */

#ifndef VSNOOP_SYSTEM_CONFIG_FIELDS_HH_
#define VSNOOP_SYSTEM_CONFIG_FIELDS_HH_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/logging.hh"
#include "system/sim_system.hh"

namespace vsnoop
{

class JsonValue;
class JsonWriter;

/** One enum value and the token records, the wire and flags use. */
template <typename E>
struct EnumToken
{
    E value;
    const char *token;
};

/** @{ The token table of each enum a field or sweep axis holds. */
std::span<const EnumToken<PolicyKind>> enumTokens(PolicyKind);
std::span<const EnumToken<RelocationMode>> enumTokens(RelocationMode);
std::span<const EnumToken<RoPolicy>> enumTokens(RoPolicy);
/** @} */

/** The token of @p value ("tokenb", "counter-threshold", ...). */
template <typename E>
const char *
enumToken(E value)
{
    for (const EnumToken<E> &entry : enumTokens(value))
        if (entry.value == value)
            return entry.token;
    vsnoop_panic("no token for enum value ", static_cast<int>(value));
}

/** Parse a token into @p out; false (output untouched) if unknown. */
template <typename E>
bool
parseEnumToken(std::string_view token, E *out)
{
    for (const EnumToken<E> &entry : enumTokens(E{})) {
        if (token == entry.token) {
            *out = entry.value;
            return true;
        }
    }
    return false;
}

/** Every token of E, joined by @p sep (for errors and --help). */
template <typename E>
std::string
enumTokenList(const char *sep = " ")
{
    std::string out;
    for (const EnumToken<E> &entry : enumTokens(E{})) {
        if (!out.empty())
            out += sep;
        out += entry.token;
    }
    return out;
}

/** @{ Shorthands kept for the many callers that name the enum. */
inline const char *policyKindName(PolicyKind kind)
{
    return enumToken(kind);
}
inline const char *relocationModeToken(RelocationMode mode)
{
    return enumToken(mode);
}
inline const char *roPolicyToken(RoPolicy policy)
{
    return enumToken(policy);
}
/** @} */

/** The member a row names, typed by the alternative it holds. */
using FieldRef =
    std::variant<std::uint32_t *, std::uint64_t *, bool *, double *,
                 PolicyKind *, RelocationMode *, RoPolicy *,
                 std::vector<std::uint64_t> *>;

/** ConfigField::scope bits. */
enum FieldScope : unsigned
{
    /** Top level of run records and cache keys (a sweep axis). */
    kRunIdentity = 1u << 0,
    /** The run record's "config" block. */
    kRecordConfig = 1u << 1,
    /** The submission "config" object and the cache key's copy. */
    kWireConfig = 1u << 2,
    /** The cache key's "extra" block: fields only the API sets. */
    kKeyExtra = 1u << 3,
    /** The flag is vsnoopsim's only (vsnoopsweep sweeps the
     *  identity fields as axes and has no watchpoints). */
    kSimFlagOnly = 1u << 4,
    /** The flag takes "AxB": A sets this row, B the next row. */
    kFlagPair = 1u << 5,
};

/** One row of the table. */
struct ConfigField
{
    /** Record / wire / cache-key name. */
    const char *key;
    /** FieldScope bits. */
    unsigned scope;
    /** The member, reached from a config. */
    FieldRef (*ref)(SystemConfig &);
    /** Command-line flag; nullptr when only the API sets the field. */
    const char *flag = nullptr;
    /** Value placeholder for --help; nullptr for a switch. */
    const char *metavar = nullptr;
    /** --help text; the default is appended unless it names one. */
    const char *help = nullptr;
    /** Flag value times this is the field value (--l2-kb: 1024). */
    std::uint64_t flagScale = 1;
    /** @{ Validity: nonzero, and a multiple of multipleOf (if set;
     *  zero stays allowed unless nonzero). */
    bool nonzero = false;
    std::uint64_t multipleOf = 0;
    /** @} */
    /** Record rule: emit only while this switch is on, so records
     *  of runs without the group keep their historical bytes. */
    bool SystemConfig::*emitWhen = nullptr;
};

/** The table, in record order. */
std::span<const ConfigField> configFields();

/**
 * Append the members of every row in @p scope to the open object.
 * Lists are written only when non-empty; in kRecordConfig, rows
 * with an emitWhen switch only while it is on.
 */
void writeConfigFields(JsonWriter &json, const SystemConfig &config,
                       FieldScope scope);

/**
 * Apply the members of a submission "config" object to @p config.
 * False with a one-line @p error on an unknown key or a value of
 * the wrong type; validity is validateConfig()'s job.
 */
bool readWireConfig(const JsonValue &object, SystemConfig *config,
                    std::string *error);

/**
 * Reject a configuration the simulator cannot run — the per-row
 * rules, a mesh beyond CoreSet's 64 cores, more vCPUs than cores —
 * with a one-line @p error, before any constructor asserts on it.
 */
bool validateConfig(const SystemConfig &config, std::string *error);

/** Whose knob flags a command line takes. */
enum class KnobFlags : std::uint8_t
{
    /** vsnoopsweep: the base configuration shared by every run. */
    Sweep,
    /** vsnoopsim: also the run identity and --watch-page. */
    Sim,
};

/**
 * If args[*i] is one of @p set's knob flags, apply it to @p config
 * (advancing *i past its value) and return its row; else nullptr.
 * A missing or malformed value leaves a one-line @p error.
 */
const ConfigField *parseKnobFlag(const std::vector<std::string> &args,
                                 std::size_t *i, KnobFlags set,
                                 SystemConfig *config,
                                 std::string *error);

/** The knob-flag section of a --help text, with @p defaults. */
std::string knobFlagHelp(KnobFlags set, const SystemConfig &defaults);

/** A JSON number that is an integer in [0, 2^53]. */
bool jsonToU64(const JsonValue &value, std::uint64_t *out);

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_CONFIG_FIELDS_HH_
