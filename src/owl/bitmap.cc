#include "owl/bitmap.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>
#include <utility>

namespace ode::owl {

Bitmap::Bitmap(int width, int height)
    : width_(std::max(0, width)),
      height_(std::max(0, height)),
      bits_(static_cast<size_t>(width_) * static_cast<size_t>(height_), 0) {}

namespace {

bool IsPbmSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Skips whitespace and '#' comments from `*pos`.
void SkipPbmSpace(std::string_view text, size_t* pos) {
  while (*pos < text.size()) {
    if (text[*pos] == '#') {
      while (*pos < text.size() && text[*pos] != '\n') ++*pos;
    } else if (IsPbmSpace(text[*pos])) {
      ++*pos;
    } else {
      return;
    }
  }
}

/// The header token at `*pos` (up to whitespace or a comment).
std::string_view NextPbmToken(std::string_view text, size_t* pos) {
  SkipPbmSpace(text, pos);
  size_t start = *pos;
  while (*pos < text.size() && !IsPbmSpace(text[*pos]) &&
         text[*pos] != '#') {
    ++*pos;
  }
  return text.substr(start, *pos - start);
}

/// A dimension token: digits only, 1..65536.
Result<int> ParsePbmDimension(std::string_view token) {
  uint32_t value = 0;
  auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::invalid_argument ||
      end != token.data() + token.size()) {
    return Status::InvalidArgument("PBM dimension is not a number");
  }
  if (ec != std::errc() || value == 0 || value > (1u << 16)) {
    return Status::InvalidArgument("PBM dimensions out of range");
  }
  return static_cast<int>(value);
}

}  // namespace

Result<Bitmap> Bitmap::FromPbm(std::string_view text) {
  size_t pos = 0;
  if (NextPbmToken(text, &pos) != "P1") {
    return Status::InvalidArgument("not an ASCII PBM (missing P1 header)");
  }
  std::string_view width_token = NextPbmToken(text, &pos);
  std::string_view height_token = NextPbmToken(text, &pos);
  if (height_token.empty()) {
    return Status::InvalidArgument("not an ASCII PBM (missing dimensions)");
  }
  ODE_ASSIGN_OR_RETURN(int width, ParsePbmDimension(width_token));
  ODE_ASSIGN_OR_RETURN(int height, ParsePbmDimension(height_token));
  // Every pixel takes at least one byte, so a header claiming more
  // pixels than bytes remain is refused before the buffer is allocated.
  const size_t needed =
      static_cast<size_t>(width) * static_cast<size_t>(height);
  if (needed > text.size() - pos) {
    return Status::InvalidArgument("PBM has too few pixels");
  }
  Bitmap bitmap(width, height);
  // Cells may be packed ("0101") or separated ("0 1 0 1"); reading stops
  // once the image is full.
  size_t filled = 0;
  while (filled < needed) {
    SkipPbmSpace(text, &pos);
    if (pos == text.size()) {
      return Status::InvalidArgument("PBM has too few pixels");
    }
    const char c = text[pos++];
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("PBM pixel must be 0 or 1");
    }
    bitmap.bits_[filled++] = c == '1' ? 1 : 0;
  }
  return bitmap;
}

std::string Bitmap::ToPbm() const {
  std::ostringstream out;
  out << "P1 " << width_ << " " << height_ << "\n";
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out << (Get(x, y) ? '1' : '0');
      if (x + 1 < width_) out << ' ';
    }
    out << "\n";
  }
  return out.str();
}

void Bitmap::Set(int x, int y, bool on) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  bits_[static_cast<size_t>(y) * static_cast<size_t>(width_) +
        static_cast<size_t>(x)] = on ? 1 : 0;
}

int Bitmap::PopCount() const {
  int n = 0;
  for (uint8_t b : bits_) n += b;
  return n;
}

Bitmap Bitmap::ScaledNearest(int new_width, int new_height) const {
  Bitmap out(new_width, new_height);
  if (empty() || out.empty()) return out;
  for (int y = 0; y < out.height_; ++y) {
    int sy = static_cast<int>(
        (static_cast<int64_t>(y) * height_) / out.height_);
    for (int x = 0; x < out.width_; ++x) {
      int sx = static_cast<int>(
          (static_cast<int64_t>(x) * width_) / out.width_);
      out.Set(x, y, Get(sx, sy));
    }
  }
  return out;
}

Bitmap Bitmap::ScaledBox(int new_width, int new_height) const {
  Bitmap out(new_width, new_height);
  if (empty() || out.empty()) return out;
  // The source span [first, last) that destination cell `i` covers along
  // an axis of `from` source and `to` destination cells: at least one
  // source cell, and never past the source edge since i < to.
  auto span = [](int i, int from, int to) {
    int first = static_cast<int>((static_cast<int64_t>(i) * from) / to);
    int last = static_cast<int>((static_cast<int64_t>(i + 1) * from) / to);
    return std::pair<int, int>{first, std::max(last, first + 1)};
  };
  std::vector<std::pair<int, int>> columns(static_cast<size_t>(out.width_));
  for (int x = 0; x < out.width_; ++x) {
    columns[static_cast<size_t>(x)] = span(x, width_, out.width_);
  }
  uint8_t* dst = out.bits_.data();
  for (int y = 0; y < out.height_; ++y) {
    auto [sy0, sy1] = span(y, height_, out.height_);
    for (auto [sx0, sx1] : columns) {
      int set = 0;
      for (int sy = sy0; sy < sy1; ++sy) {
        const uint8_t* row = row_bits(sy);
        for (int sx = sx0; sx < sx1; ++sx) set += row[sx];
      }
      *dst++ = 2 * set >= (sy1 - sy0) * (sx1 - sx0) ? 1 : 0;
    }
  }
  return out;
}

void Bitmap::Invert() {
  for (uint8_t& b : bits_) b = b ? 0 : 1;
}

std::vector<std::string> Bitmap::ToAscii(char on, char off) const {
  std::vector<std::string> rows;
  rows.reserve(static_cast<size_t>(height_));
  for (int y = 0; y < height_; ++y) {
    std::string row;
    row.reserve(static_cast<size_t>(width_));
    for (int x = 0; x < width_; ++x) row.push_back(Get(x, y) ? on : off);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ode::owl
