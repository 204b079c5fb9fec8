/**
 * @file
 * Flat JSON: the one reader and writer of the JSON the project exchanges
 * — spec files, wire replies and result rows, journal records and BENCH
 * rows. Objects are flat (string, number and boolean values only), which
 * is all those formats use.
 */

#ifndef PICOSIM_SPEC_JSON_HH
#define PICOSIM_SPEC_JSON_HH

#include <map>
#include <string>

namespace picosim::spec
{

/** Quote + escape @p s as a JSON string literal (control characters
 *  as escapes, so the result is always one line). */
std::string jsonString(const std::string &s);

/**
 * Parse a flat JSON object into raw key → value strings (string values
 * unescaped; numbers/booleans verbatim). Nothing but whitespace may
 * follow the closing brace. Throws SpecError naming the byte offset.
 */
std::map<std::string, std::string> parseFlatJson(const std::string &text);

/** Parse a standalone JSON string literal (for ERR payloads). */
std::string parseJsonString(const std::string &text);

} // namespace picosim::spec

#endif // PICOSIM_SPEC_JSON_HH
