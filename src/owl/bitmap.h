#ifndef ODEVIEW_OWL_BITMAP_H_
#define ODEVIEW_OWL_BITMAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ode::owl {

/// A monochrome raster image, as X11 bitmaps were.
///
/// The paper's employee objects have pictorial displays; its
/// acknowledgments credit a "bitmap filter" and "bitmap scaling
/// routines" — reproduced here as `ScaledNearest` (point sampling) and
/// `ScaledBox` (box-filter anti-aliasing via majority threshold).
class Bitmap {
 public:
  Bitmap() = default;
  /// Creates a cleared bitmap of the given dimensions.
  Bitmap(int width, int height);

  /// Parses an ASCII PBM ("P1 w h" then 0/1 cells, packed or
  /// whitespace-separated; '#' comments allowed). Dimensions are digits
  /// only, 1..65536 each; a header claiming more pixels than the text
  /// has bytes left is refused before anything is allocated.
  static Result<Bitmap> FromPbm(std::string_view text);

  /// Serializes back to ASCII PBM.
  std::string ToPbm() const;

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  /// Pixel access; out-of-bounds reads return false, writes are ignored.
  bool Get(int x, int y) const {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) return false;
    return row_bits(y)[x] != 0;
  }
  void Set(int x, int y, bool on);

  /// Row `y` (0 <= y < height()) as one byte per pixel, 0 or 1.
  const uint8_t* row_bits(int y) const {
    return bits_.data() +
           static_cast<size_t>(y) * static_cast<size_t>(width_);
  }

  /// Count of set pixels.
  int PopCount() const;

  /// Point-sampled rescale to `new_width` x `new_height`.
  Bitmap ScaledNearest(int new_width, int new_height) const;

  /// Box-filtered rescale: each destination pixel is set when at least
  /// half of the covered source region is set. Smoother for downscale.
  Bitmap ScaledBox(int new_width, int new_height) const;

  /// Inverts every pixel in place.
  void Invert();

  /// Renders rows of characters (`on` for set pixels, `off` otherwise).
  std::vector<std::string> ToAscii(char on = '#', char off = '.') const;

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.bits_ == b.bits_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<uint8_t> bits_;  // one byte per pixel (simplicity > space)
};

}  // namespace ode::owl

#endif  // ODEVIEW_OWL_BITMAP_H_
