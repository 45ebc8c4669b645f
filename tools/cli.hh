/**
 * @file
 * Command-line helpers shared by the vsnoop tools: diagnostics,
 * "--flag=value" expansion, and integer and list values.
 *
 * Header-only.  Each tool defines kToolName, the prefix of its
 * diagnostics.  Every error exits with status 2, the tools' usage
 * error code.
 */

#ifndef VSNOOP_TOOLS_CLI_HH_
#define VSNOOP_TOOLS_CLI_HH_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

namespace vsnoop
{

/** The tool's name, prefixed to every diagnostic. */
extern const char *const kToolName;

/** Print "<tool>: @p msg" to stderr and exit with status 2. */
[[noreturn]] inline void
die(const std::string &msg)
{
    std::cerr << kToolName << ": " << msg << "\n";
    std::exit(2);
}

/** @p value as a non-negative decimal integer, or die. */
inline std::uint64_t
parseUint(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        die(flag + " expects a non-negative integer, got '" + value +
            "'");
    return parsed;
}

/** Expand "--flag=value" into "--flag","value". */
inline std::vector<std::string>
normalizeArgs(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq;
        if (arg.rfind("--", 0) == 0 &&
            (eq = arg.find('=')) != std::string::npos) {
            args.push_back(arg.substr(0, eq));
            args.push_back(arg.substr(eq + 1));
        } else {
            args.push_back(std::move(arg));
        }
    }
    return args;
}

/** The value of the flag args[i], advancing @p i; dies if none. */
inline const std::string &
nextValue(const std::vector<std::string> &args, std::size_t &i)
{
    if (i + 1 >= args.size())
        die(args[i] + " requires a value");
    return args[++i];
}

/** Split a non-empty comma-separated list, or die. */
inline std::vector<std::string>
splitList(const std::string &flag, const std::string &value)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string::npos)
            comma = value.size();
        std::string item = value.substr(start, comma - start);
        if (item.empty())
            die(flag + " has an empty list element in '" + value + "'");
        items.push_back(std::move(item));
        start = comma + 1;
        if (comma == value.size())
            break;
    }
    if (items.empty())
        die(flag + " expects a non-empty comma-separated list");
    return items;
}

/** @p names joined by single spaces. */
inline std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ' ';
        out += name;
    }
    return out;
}

} // namespace vsnoop

#endif // VSNOOP_TOOLS_CLI_HH_
