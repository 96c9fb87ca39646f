#ifndef ODEVIEW_COMMON_STRINGS_H_
#define ODEVIEW_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace ode {

/// Removes ASCII whitespace from both ends of `s`.
std::string_view StripWhitespace(std::string_view s);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff `s` begins with / ends with the given affix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII lowercase copy of `s`.
std::string ToLower(std::string_view s);

/// Pads or truncates `s` to exactly `width` characters (left-aligned).
std::string PadTo(std::string_view s, size_t width);

/// Wraps `text` into lines at most `width` characters long, breaking at
/// spaces when possible. Existing newlines are honored.
std::vector<std::string> WrapText(std::string_view text, size_t width);

/// Appends `s` to `*out` escaped for the inside of a JSON string: `"`,
/// `\`, newline, carriage return and tab as two-character escapes,
/// other bytes below 0x20 as `\u00XX`, and every other byte (UTF-8
/// included) unchanged.
void AppendJsonEscaped(std::string* out, std::string_view s);

}  // namespace ode

#endif  // ODEVIEW_COMMON_STRINGS_H_
