#ifndef ODEVIEW_OWL_FRAMEBUFFER_H_
#define ODEVIEW_OWL_FRAMEBUFFER_H_

#include <string>
#include <string_view>
#include <vector>

#include "owl/bitmap.h"
#include "owl/geometry.h"

namespace ode::owl {

/// A character-cell frame buffer the headless server composes windows
/// into. Tests and examples assert on / print its `ToString()`.
///
/// Every primitive clips to the buffer: the run primitives (`FillRect`,
/// `DrawHLine`, `DrawText`, `DrawBitmap`) clip each row run once and
/// then fill or copy it whole, writing exactly the cells a loop of
/// `Put` calls would.
class Framebuffer {
 public:
  Framebuffer(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  /// Fills the whole buffer with `fill`.
  void Clear(char fill = ' ');

  /// Single-cell write; out-of-bounds writes are clipped.
  void Put(int x, int y, char c) {
    if (Contains(x, y)) cells_[Index(x, y)] = c;
  }
  /// Out-of-bounds reads return ' '.
  char At(int x, int y) const {
    return Contains(x, y) ? cells_[Index(x, y)] : ' ';
  }

  /// Writes `text` starting at (x, y), clipped to the row.
  void DrawText(int x, int y, std::string_view text);

  /// Horizontal / vertical runs of `c`.
  void DrawHLine(int x, int y, int length, char c = '-');
  void DrawVLine(int x, int y, int length, char c = '|');

  /// Box outline with '+' corners.
  void DrawBox(const Rect& rect);

  /// Fills a rectangle with `c`.
  void FillRect(const Rect& rect, char c);

  /// Blits a bitmap using `on`/`off` characters at (x, y).
  void DrawBitmap(int x, int y, const Bitmap& bitmap, char on = '#',
                  char off = ' ');

  /// The full buffer as newline-separated rows (trailing spaces kept,
  /// so output is rectangular and diffable).
  std::string ToString() const;

  /// One row (for targeted assertions).
  std::string Row(int y) const;

 private:
  bool Contains(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }
  size_t Index(int x, int y) const {
    return static_cast<size_t>(y) * static_cast<size_t>(width_) +
           static_cast<size_t>(x);
  }

  int width_;
  int height_;
  std::vector<char> cells_;
};

}  // namespace ode::owl

#endif  // ODEVIEW_OWL_FRAMEBUFFER_H_
