#include "owl/framebuffer.h"

#include <algorithm>
#include <cstdint>

namespace ode::owl {

Framebuffer::Framebuffer(int width, int height)
    : width_(std::max(0, width)),
      height_(std::max(0, height)),
      cells_(static_cast<size_t>(width_) * static_cast<size_t>(height_),
             ' ') {}

void Framebuffer::Clear(char fill) {
  std::fill(cells_.begin(), cells_.end(), fill);
}

void Framebuffer::DrawText(int x, int y, std::string_view text) {
  if (y < 0 || y >= height_ || x >= width_) return;
  // Cut the part left of column 0, then copy what fits on the row.
  const size_t skip = x < 0 ? static_cast<size_t>(-int64_t{x}) : 0;
  if (skip >= text.size()) return;
  const int first = std::max(x, 0);
  const size_t count =
      std::min(text.size() - skip, static_cast<size_t>(width_ - first));
  std::copy_n(text.data() + skip, count, cells_.data() + Index(first, y));
}

void Framebuffer::DrawHLine(int x, int y, int length, char c) {
  FillRect(Rect{x, y, length, 1}, c);
}

void Framebuffer::DrawVLine(int x, int y, int length, char c) {
  for (int i = 0; i < length; ++i) Put(x, y + i, c);
}

void Framebuffer::DrawBox(const Rect& rect) {
  if (rect.width < 2 || rect.height < 2) return;
  DrawHLine(rect.x + 1, rect.y, rect.width - 2, '-');
  DrawHLine(rect.x + 1, rect.bottom() - 1, rect.width - 2, '-');
  DrawVLine(rect.x, rect.y + 1, rect.height - 2, '|');
  DrawVLine(rect.right() - 1, rect.y + 1, rect.height - 2, '|');
  Put(rect.x, rect.y, '+');
  Put(rect.right() - 1, rect.y, '+');
  Put(rect.x, rect.bottom() - 1, '+');
  Put(rect.right() - 1, rect.bottom() - 1, '+');
}

void Framebuffer::FillRect(const Rect& rect, char c) {
  const int x0 = std::max(rect.x, 0);
  const int x1 = std::min(rect.right(), width_);
  const int y1 = std::min(rect.bottom(), height_);
  if (x0 >= x1) return;
  for (int y = std::max(rect.y, 0); y < y1; ++y) {
    std::fill_n(cells_.data() + Index(x0, y), x1 - x0, c);
  }
}

void Framebuffer::DrawBitmap(int x, int y, const Bitmap& bitmap, char on,
                             char off) {
  // Bitmap columns [bx0, bx1) and rows [by0, by1) land on the buffer.
  const int bx0 = std::max(0, -x);
  const int bx1 = std::min(bitmap.width(), width_ - x);
  const int by0 = std::max(0, -y);
  const int by1 = std::min(bitmap.height(), height_ - y);
  if (bx0 >= bx1) return;
  for (int by = by0; by < by1; ++by) {
    const uint8_t* bits = bitmap.row_bits(by);
    char* out = cells_.data() + Index(x + bx0, y + by);
    for (int bx = bx0; bx < bx1; ++bx) *out++ = bits[bx] ? on : off;
  }
}

std::string Framebuffer::ToString() const {
  std::string out;
  out.reserve(static_cast<size_t>(height_) *
              (static_cast<size_t>(width_) + 1));
  for (int y = 0; y < height_; ++y) {
    out.append(cells_.data() + Index(0, y), static_cast<size_t>(width_));
    out.push_back('\n');
  }
  return out;
}

std::string Framebuffer::Row(int y) const {
  if (y < 0 || y >= height_) return std::string();
  return std::string(
      cells_.begin() + static_cast<long>(y) * width_,
      cells_.begin() + static_cast<long>(y + 1) * width_);
}

}  // namespace ode::owl
