#include "common/strings.h"

#include <cctype>
#include <cstdio>

namespace ode {

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string PadTo(std::string_view s, size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::vector<std::string> WrapText(std::string_view text, size_t width) {
  std::vector<std::string> lines;
  if (width == 0) width = 1;
  for (const std::string& paragraph : Split(text, '\n')) {
    std::string_view rest = paragraph;
    if (rest.empty()) {
      lines.emplace_back();
      continue;
    }
    while (!rest.empty()) {
      if (rest.size() <= width) {
        lines.emplace_back(rest);
        break;
      }
      size_t brk = rest.rfind(' ', width);
      if (brk == std::string_view::npos || brk == 0) brk = width;
      lines.emplace_back(StripWhitespace(rest.substr(0, brk)));
      rest = rest.substr(brk);
      while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    }
  }
  return lines;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace ode
