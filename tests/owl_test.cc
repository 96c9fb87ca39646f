#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string_view>

#include "owl/bitmap.h"
#include "owl/framebuffer.h"
#include "owl/server.h"
#include "owl/widgets.h"
#include "owl/window.h"

namespace ode::owl {
namespace {

// --- Geometry -------------------------------------------------------------

TEST(GeometryTest, RectContains) {
  Rect r{2, 3, 4, 5};
  EXPECT_TRUE(r.Contains(Point{2, 3}));
  EXPECT_TRUE(r.Contains(Point{5, 7}));
  EXPECT_FALSE(r.Contains(Point{6, 3}));
  EXPECT_FALSE(r.Contains(Point{2, 8}));
  EXPECT_FALSE(r.Contains(Point{1, 3}));
}

TEST(GeometryTest, RectIntersection) {
  Rect a{0, 0, 10, 10};
  Rect b{5, 5, 10, 10};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_EQ(a.Intersection(b), (Rect{5, 5, 5, 5}));
  Rect c{20, 20, 2, 2};
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Intersection(c).Empty());
}

TEST(GeometryTest, RectTranslateAndToString) {
  Rect r{1, 2, 3, 4};
  EXPECT_EQ(r.Translated(Point{10, 20}), (Rect{11, 22, 3, 4}));
  EXPECT_EQ(r.ToString(), "3x4+1+2");
}

// --- Bitmap -----------------------------------------------------------------

TEST(BitmapTest, PbmRoundTrip) {
  Bitmap bitmap(3, 2);
  bitmap.Set(0, 0, true);
  bitmap.Set(2, 1, true);
  Result<Bitmap> parsed = Bitmap::FromPbm(bitmap.ToPbm());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, bitmap);
}

TEST(BitmapTest, PbmPackedAndComments) {
  Result<Bitmap> bitmap = Bitmap::FromPbm("P1 # comment\n2 2\n1001");
  ASSERT_TRUE(bitmap.ok()) << bitmap.status().ToString();
  EXPECT_TRUE(bitmap->Get(0, 0));
  EXPECT_FALSE(bitmap->Get(1, 0));
  EXPECT_TRUE(bitmap->Get(1, 1));
}

TEST(BitmapTest, PbmErrors) {
  EXPECT_FALSE(Bitmap::FromPbm("P2 2 2 0 0 0 0").ok());
  EXPECT_FALSE(Bitmap::FromPbm("P1 2 2 0 0 0").ok());   // too few
  EXPECT_FALSE(Bitmap::FromPbm("P1 2 2 0 0 0 2").ok()); // bad digit
  EXPECT_FALSE(Bitmap::FromPbm("P1 0 5 ").ok());        // zero dim
  EXPECT_FALSE(Bitmap::FromPbm("").ok());
  EXPECT_FALSE(Bitmap::FromPbm("P1 2").ok());           // no height
  // A dimension is digits only: no suffix, sign or hex.
  EXPECT_TRUE(
      Bitmap::FromPbm("P1 2x 2 0 0 0 0").status().IsInvalidArgument());
  EXPECT_FALSE(Bitmap::FromPbm("P1 +2 2 0 0 0 0").ok());
  EXPECT_FALSE(Bitmap::FromPbm("P1 2 -2 0 0 0 0").ok());
  EXPECT_FALSE(Bitmap::FromPbm("P1 0x2 2 0 0 0 0").ok());
  EXPECT_FALSE(Bitmap::FromPbm("P1 65537 1 1").ok());
  EXPECT_FALSE(Bitmap::FromPbm("P1 99999999999 1 1").ok());
  // A header claiming 2^32 pixels in a 16-byte text is refused before
  // the pixel buffer is allocated.
  EXPECT_TRUE(
      Bitmap::FromPbm("P1 65536 65536 1").status().IsInvalidArgument());
}

TEST(BitmapTest, OutOfBoundsSafe) {
  Bitmap bitmap(2, 2);
  EXPECT_FALSE(bitmap.Get(-1, 0));
  EXPECT_FALSE(bitmap.Get(0, 5));
  bitmap.Set(100, 100, true);  // ignored, no crash
  EXPECT_EQ(bitmap.PopCount(), 0);
}

TEST(BitmapTest, NearestScalingPreservesSolid) {
  Bitmap solid(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) solid.Set(x, y, true);
  }
  Bitmap scaled = solid.ScaledNearest(3, 5);
  EXPECT_EQ(scaled.PopCount(), 15);
  Bitmap up = solid.ScaledNearest(16, 16);
  EXPECT_EQ(up.PopCount(), 256);
}

TEST(BitmapTest, BoxScalingMajorityThreshold) {
  // Left half set, right half clear; downscale to 2x1.
  Bitmap half(8, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) half.Set(x, y, true);
  }
  Bitmap scaled = half.ScaledBox(2, 1);
  EXPECT_TRUE(scaled.Get(0, 0));
  EXPECT_FALSE(scaled.Get(1, 0));
}

TEST(BitmapTest, BoxScalingSmoothsCheckerboard) {
  Bitmap checker(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) checker.Set(x, y, (x + y) % 2 == 0);
  }
  // A 50% checkerboard downsampled by box filter stays all-on (ties
  // round up), while nearest sampling keeps the pattern.
  Bitmap box = checker.ScaledBox(4, 4);
  EXPECT_EQ(box.PopCount(), 16);
  Bitmap nearest = checker.ScaledNearest(4, 4);
  EXPECT_EQ(nearest.PopCount(), 16);  // samples only even cells
}

TEST(BitmapTest, InvertFlipsEverything) {
  Bitmap bitmap(4, 4);
  bitmap.Set(1, 1, true);
  bitmap.Invert();
  EXPECT_EQ(bitmap.PopCount(), 15);
  EXPECT_FALSE(bitmap.Get(1, 1));
}

TEST(BitmapTest, ToAsciiRows) {
  Bitmap bitmap(2, 2);
  bitmap.Set(0, 0, true);
  std::vector<std::string> rows = bitmap.ToAscii('#', '.');
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "#.");
  EXPECT_EQ(rows[1], "..");
}

// --- Framebuffer ---------------------------------------------------------------

TEST(FramebufferTest, PutAtAndClipping) {
  Framebuffer fb(4, 3);
  fb.Put(0, 0, 'a');
  fb.Put(3, 2, 'z');
  fb.Put(-1, 0, 'x');
  fb.Put(4, 0, 'x');
  fb.Put(0, 3, 'x');
  EXPECT_EQ(fb.At(0, 0), 'a');
  EXPECT_EQ(fb.At(3, 2), 'z');
  EXPECT_EQ(fb.At(-1, -1), ' ');
}

TEST(FramebufferTest, DrawTextClipsAtEdge) {
  Framebuffer fb(5, 1);
  fb.DrawText(2, 0, "hello");
  EXPECT_EQ(fb.Row(0), "  hel");
}

TEST(FramebufferTest, BoxDrawing) {
  Framebuffer fb(5, 4);
  fb.DrawBox(Rect{0, 0, 5, 4});
  EXPECT_EQ(fb.Row(0), "+---+");
  EXPECT_EQ(fb.Row(1), "|   |");
  EXPECT_EQ(fb.Row(3), "+---+");
}

TEST(FramebufferTest, FillAndBitmap) {
  Framebuffer fb(6, 3);
  fb.FillRect(Rect{1, 1, 2, 2}, '#');
  EXPECT_EQ(fb.At(1, 1), '#');
  EXPECT_EQ(fb.At(2, 2), '#');
  EXPECT_EQ(fb.At(3, 1), ' ');
  Bitmap bitmap(2, 1);
  bitmap.Set(0, 0, true);
  fb.DrawBitmap(4, 0, bitmap, '@', '.');
  EXPECT_EQ(fb.At(4, 0), '@');
  EXPECT_EQ(fb.At(5, 0), '.');
}

TEST(FramebufferTest, ToStringIsRectangular) {
  Framebuffer fb(3, 2);
  EXPECT_EQ(fb.ToString(), "   \n   \n");
}

// --- Run primitives against per-cell references ---------------------------
//
// Each primitive must write exactly the cells a per-cell `Put` loop
// writes, for runs that start before, straddle, or end past each edge of
// a small screen, and for zero and negative extents.

constexpr int kScreenW = 7;
constexpr int kScreenH = 5;

Framebuffer Background() {
  Framebuffer fb(kScreenW, kScreenH);
  fb.Clear('.');
  return fb;
}

TEST(FramebufferRunTest, FillRectMatchesPerCellPuts) {
  for (int x = -9; x <= kScreenW + 1; ++x) {
    for (int y = -3; y <= kScreenH + 1; ++y) {
      for (int w = -2; w <= kScreenW + 4; ++w) {
        for (int h = -2; h <= kScreenH + 3; ++h) {
          Rect rect{x, y, w, h};
          Framebuffer fast = Background();
          Framebuffer slow = Background();
          fast.FillRect(rect, '#');
          for (int cy = y; cy < rect.bottom(); ++cy) {
            for (int cx = x; cx < rect.right(); ++cx) slow.Put(cx, cy, '#');
          }
          ASSERT_EQ(fast.ToString(), slow.ToString()) << rect.ToString();
        }
      }
    }
  }
}

TEST(FramebufferRunTest, HLineAndTextMatchPerCellPuts) {
  const std::string_view alphabet = "abcdefghijklmn";
  for (int x = -16; x <= kScreenW + 1; ++x) {
    for (int y = -1; y <= kScreenH; ++y) {
      for (int length = -2; length <= static_cast<int>(alphabet.size());
           ++length) {
        Framebuffer fast = Background();
        Framebuffer slow = Background();
        fast.DrawHLine(x, y, length, '=');
        for (int i = 0; i < length; ++i) slow.Put(x + i, y, '=');
        ASSERT_EQ(fast.ToString(), slow.ToString())
            << "hline x=" << x << " y=" << y << " length=" << length;
        if (length < 0) continue;
        std::string_view text = alphabet.substr(0, length);
        fast.DrawText(x, y, text);
        for (size_t i = 0; i < text.size(); ++i) {
          slow.Put(x + static_cast<int>(i), y, text[i]);
        }
        ASSERT_EQ(fast.ToString(), slow.ToString())
            << "text x=" << x << " y=" << y << " '" << text << "'";
      }
    }
  }
}

TEST(FramebufferRunTest, DrawBitmapMatchesPerCellPuts) {
  std::mt19937 rng(1990);
  for (int bw = 0; bw <= kScreenW + 3; ++bw) {
    for (int bh = 0; bh <= kScreenH + 2; ++bh) {
      Bitmap bitmap(bw, bh);
      for (int by = 0; by < bh; ++by) {
        for (int bx = 0; bx < bw; ++bx) {
          bitmap.Set(bx, by, (rng() & 1) != 0);
        }
      }
      for (int x = -bw - 1; x <= kScreenW + 1; ++x) {
        for (int y = -bh - 1; y <= kScreenH + 1; ++y) {
          Framebuffer fast = Background();
          Framebuffer slow = Background();
          fast.DrawBitmap(x, y, bitmap, '#', ' ');
          for (int by = 0; by < bh; ++by) {
            for (int bx = 0; bx < bw; ++bx) {
              slow.Put(x + bx, y + by, bitmap.Get(bx, by) ? '#' : ' ');
            }
          }
          ASSERT_EQ(fast.ToString(), slow.ToString())
              << bw << "x" << bh << " at " << x << "," << y;
        }
      }
    }
  }
}

// The box filter as a naive per-destination-pixel loop over `Get`.
Bitmap NaiveScaledBox(const Bitmap& src, int new_width, int new_height) {
  Bitmap out(new_width, new_height);
  if (src.empty() || out.empty()) return out;
  const int64_t w = src.width();
  const int64_t h = src.height();
  for (int y = 0; y < new_height; ++y) {
    int sy0 = static_cast<int>(y * h / new_height);
    int sy1 = std::max(sy0 + 1, static_cast<int>((y + 1) * h / new_height));
    for (int x = 0; x < new_width; ++x) {
      int sx0 = static_cast<int>(x * w / new_width);
      int sx1 =
          std::max(sx0 + 1, static_cast<int>((x + 1) * w / new_width));
      int set = 0;
      int total = 0;
      for (int sy = sy0; sy < sy1 && sy < h; ++sy) {
        for (int sx = sx0; sx < sx1 && sx < w; ++sx) {
          ++total;
          set += src.Get(sx, sy) ? 1 : 0;
        }
      }
      out.Set(x, y, total > 0 && 2 * set >= total);
    }
  }
  return out;
}

TEST(BitmapTest, ScaledBoxMatchesNaiveBoxFilter) {
  std::mt19937 rng(11);
  for (int sw = 1; sw <= 20; ++sw) {
    for (int sh = 1; sh <= 20; ++sh) {
      Bitmap src(sw, sh);
      for (int y = 0; y < sh; ++y) {
        for (int x = 0; x < sw; ++x) src.Set(x, y, (rng() & 1) != 0);
      }
      for (int dw = 1; dw <= 20; ++dw) {
        for (int dh = 1; dh <= 20; ++dh) {
          ASSERT_EQ(src.ScaledBox(dw, dh), NaiveScaledBox(src, dw, dh))
              << sw << "x" << sh << " -> " << dw << "x" << dh;
        }
      }
    }
  }
}

// --- Widgets -----------------------------------------------------------------------

TEST(WidgetTest, TreeFindAndAbsoluteOrigin) {
  Widget root("root");
  root.set_rect(Rect{0, 0, 40, 20});
  auto* panel = root.AddChild(std::make_unique<Panel>("panel"));
  panel->set_rect(Rect{5, 3, 20, 10});
  auto* button = panel->AddChild(
      std::make_unique<Button>("ok", "OK"));
  button->set_rect(Rect{2, 1, 6, 1});
  EXPECT_EQ(root.FindWidget("ok"), button);
  EXPECT_EQ(root.FindWidget("ghost"), nullptr);
  EXPECT_EQ(button->AbsoluteOrigin(), (Point{7, 4}));
}

TEST(WidgetTest, RemoveChildRecursive) {
  Widget root("root");
  auto* panel = root.AddChild(std::make_unique<Panel>("panel"));
  panel->AddChild(std::make_unique<Button>("deep", "X"));
  EXPECT_TRUE(root.RemoveChild("deep"));
  EXPECT_EQ(root.FindWidget("deep"), nullptr);
  EXPECT_FALSE(root.RemoveChild("deep"));
}

TEST(ButtonTest, ClickInvokesCallbackAndCounts) {
  int clicks = 0;
  Button button("b", "Go", [&](Button&) { ++clicks; });
  button.set_rect(Rect{0, 0, 6, 1});
  EXPECT_TRUE(button.DispatchClick(Point{1, 0}));
  button.Press();
  EXPECT_EQ(clicks, 2);
  EXPECT_EQ(button.click_count(), 2);
}

TEST(ButtonTest, DisabledButtonIgnoresPress) {
  int clicks = 0;
  Button button("b", "Go", [&](Button&) { ++clicks; });
  button.set_enabled(false);
  button.Press();
  EXPECT_EQ(clicks, 0);
}

TEST(ButtonTest, ToggleModeFlipsState) {
  Button button("b", "text");
  button.set_toggle_mode(true);
  EXPECT_FALSE(button.toggled());
  button.Press();
  EXPECT_TRUE(button.toggled());
  button.Press();
  EXPECT_FALSE(button.toggled());
}

TEST(ButtonTest, RenderShowsToggleMarker) {
  Framebuffer fb(12, 1);
  Button button("b", "text");
  button.set_toggle_mode(true);
  button.set_rect(Rect{0, 0, 8, 1});
  button.Render(&fb, Point{0, 0});
  EXPECT_EQ(fb.Row(0).substr(0, 6), "[text]");
  button.Press();
  fb.Clear();
  button.Render(&fb, Point{0, 0});
  EXPECT_EQ(fb.Row(0).substr(0, 7), "[*text]");
}

TEST(StaticTextTest, WrapsToWidth) {
  Framebuffer fb(12, 4);
  StaticText text("t", "alpha beta gamma");
  text.set_rect(Rect{0, 0, 6, 4});
  text.Render(&fb, Point{0, 0});
  EXPECT_EQ(fb.Row(0).substr(0, 5), "alpha");
  EXPECT_EQ(fb.Row(1).substr(0, 4), "beta");
}

TEST(ScrollTextTest, ScrollClampsAndSlices) {
  std::vector<std::string> lines;
  for (int i = 0; i < 20; ++i) lines.push_back("line" + std::to_string(i));
  ScrollText text("t", lines);
  text.set_rect(Rect{0, 0, 10, 6});  // 5 content rows + scrollbar row
  EXPECT_EQ(text.VisibleLines().front(), "line0");
  text.ScrollBy(100);
  EXPECT_EQ(text.scroll_y(), 15);  // 20 - 5
  EXPECT_EQ(text.VisibleLines().front(), "line15");
  text.ScrollBy(-100);
  EXPECT_EQ(text.scroll_y(), 0);
  // Horizontal scroll is clamped too: all lines fit, so x stays 0.
  text.ScrollTo(2, 3);
  EXPECT_EQ(text.scroll_x(), 0);
  EXPECT_EQ(text.VisibleLines().front(), "line3");
}

TEST(ScrollTextTest, HorizontalScrollOverWideLines) {
  ScrollText text("t", {"0123456789abcdef", "short"});
  text.set_rect(Rect{0, 0, 5, 4});  // 4 content columns
  text.ScrollTo(3, 0);
  EXPECT_EQ(text.scroll_x(), 3);
  EXPECT_EQ(text.VisibleLines()[0], "3456");
  EXPECT_EQ(text.VisibleLines()[1], "rt");
  text.ScrollTo(100, 0);  // clamped to widest - content width
  EXPECT_EQ(text.scroll_x(), 12);
  text.ScrollHorizontallyBy(-100);
  EXPECT_EQ(text.scroll_x(), 0);
}

TEST(ScrollTextTest, ScrollEventAndArrowClicks) {
  std::vector<std::string> lines(30, "x");
  ScrollText text("t", lines);
  text.set_rect(Rect{0, 0, 8, 5});
  EXPECT_TRUE(text.DispatchScroll(Point{1, 1}, 3));
  EXPECT_EQ(text.scroll_y(), 3);
  // Top arrow is at the last column, row 0.
  EXPECT_TRUE(text.DispatchClick(Point{7, 0}));
  EXPECT_EQ(text.scroll_y(), 2);
  // Bottom arrow.
  EXPECT_TRUE(text.DispatchClick(Point{7, 3}));
  EXPECT_EQ(text.scroll_y(), 3);
}

TEST(MenuTest, SelectionByClickAndName) {
  std::vector<std::pair<int, std::string>> picks;
  Menu menu("m", {"alpha", "beta", "gamma"},
            [&](int i, const std::string& s) { picks.push_back({i, s}); });
  menu.set_rect(Rect{0, 0, 10, 3});
  EXPECT_TRUE(menu.DispatchClick(Point{1, 1}));
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0].second, "beta");
  ASSERT_TRUE(menu.SelectItem("gamma").ok());
  EXPECT_EQ(menu.selected(), 2);
  EXPECT_TRUE(menu.SelectItem("nope").IsNotFound());
  EXPECT_TRUE(menu.SelectItem(9).IsOutOfRange());
}

TEST(TextInputTest, TypingEditingSubmitting) {
  std::vector<std::string> submitted;
  TextInput input("i", [&](const std::string& s) { submitted.push_back(s); });
  input.OnKey("age > 3");
  EXPECT_EQ(input.text(), "age > 3");
  input.OnKey("\b41");
  EXPECT_EQ(input.text(), "age > 41");
  input.OnKey("\n");
  ASSERT_EQ(submitted.size(), 1u);
  EXPECT_EQ(submitted[0], "age > 41");
}

// --- Window & server ------------------------------------------------------------------

TEST(WindowTest, ClickRoutesThroughFrame) {
  Window window(1, "test", Point{0, 0}, Size{20, 5});
  int clicks = 0;
  auto* button = window.root()->AddChild(
      std::make_unique<Button>("b", "Hit", [&](Button&) { ++clicks; }));
  button->set_rect(Rect{2, 1, 6, 1});
  // Window-local (3, 2) = content (2, 1).
  EXPECT_TRUE(window.HandleEvent(Event::MouseClick(1, Point{3, 2})));
  EXPECT_EQ(clicks, 1);
  // Clicking the frame itself is not consumed.
  EXPECT_FALSE(window.HandleEvent(Event::MouseClick(1, Point{0, 0})));
}

TEST(WindowTest, CloseRequestClosesAndNotifies) {
  Window window(1, "test", Point{0, 0}, Size{10, 3});
  bool closed = false;
  window.set_on_close([&] { closed = true; });
  EXPECT_TRUE(window.HandleEvent(Event::CloseRequest(1)));
  EXPECT_FALSE(window.open());
  EXPECT_TRUE(closed);
  // Closed windows ignore clicks.
  EXPECT_FALSE(window.HandleEvent(Event::MouseClick(1, Point{1, 1})));
}

TEST(WindowTest, RenderDrawsFrameAndTitle) {
  Window window(1, "lab", Point{1, 0}, Size{10, 2});
  Framebuffer fb(20, 6);
  window.Render(&fb);
  EXPECT_EQ(fb.At(1, 0), '+');
  EXPECT_EQ(fb.Row(0).substr(2, 7), "[ lab ]");
  EXPECT_EQ(fb.At(12, 3), '+');
}

TEST(ServerTest, CreateFindDestroy) {
  Server server;
  Window* a = server.CreateWindow("a", Point{0, 0}, Size{8, 2});
  Window* b = server.CreateWindow("b", Server::kAutoPlace, Size{8, 2});
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(server.FindWindow(a->id()), a);
  EXPECT_EQ(server.FindWindowByTitle("b"), b);
  const WindowId a_id = a->id();  // `a` dangles once destroyed below.
  ASSERT_TRUE(server.DestroyWindow(a_id).ok());
  EXPECT_EQ(server.FindWindow(a_id), nullptr);
  EXPECT_TRUE(server.DestroyWindow(999).IsNotFound());
}

TEST(ServerTest, AutoPlacementAvoidsOverlapWhileRoomRemains) {
  Server server(100, 40);
  Window* a = server.CreateWindow("a", Server::kAutoPlace, Size{20, 5});
  Window* b = server.CreateWindow("b", Server::kAutoPlace, Size{20, 5});
  Window* c = server.CreateWindow("c", Server::kAutoPlace, Size{20, 5});
  EXPECT_FALSE(a->FrameRect().Intersects(b->FrameRect()));
  EXPECT_FALSE(b->FrameRect().Intersects(c->FrameRect()));
  EXPECT_FALSE(a->FrameRect().Intersects(c->FrameRect()));
}

TEST(ServerTest, EventQueueDispatches) {
  Server server;
  Window* window = server.CreateWindow("w", Point{0, 0}, Size{20, 3});
  int clicks = 0;
  auto* button = window->root()->AddChild(
      std::make_unique<Button>("b", "Hit", [&](Button&) { ++clicks; }));
  button->set_rect(Rect{0, 0, 6, 1});
  server.PostEvent(Event::MouseClick(window->id(), Point{2, 1}));
  server.PostEvent(Event::MouseClick(window->id(), Point{2, 1}));
  EXPECT_EQ(server.RunLoop(), 2);
  EXPECT_EQ(clicks, 2);
  EXPECT_EQ(server.stats().events_posted, 2u);
}

TEST(ServerTest, ClickWidgetByName) {
  Server server;
  Window* window = server.CreateWindow("w", Point{3, 3}, Size{30, 5});
  int clicks = 0;
  auto* panel = window->root()->AddChild(std::make_unique<Panel>("p"));
  panel->set_rect(Rect{2, 1, 20, 3});
  auto* button = panel->AddChild(
      std::make_unique<Button>("go", "Go", [&](Button&) { ++clicks; }));
  button->set_rect(Rect{1, 1, 6, 1});
  ASSERT_TRUE(server.ClickWidget(window->id(), "go").ok());
  EXPECT_EQ(clicks, 1);
  EXPECT_TRUE(server.ClickWidget(window->id(), "ghost").IsNotFound());
  EXPECT_TRUE(server.ClickWidget(999, "go").IsNotFound());
}

TEST(ServerTest, SendKeysReachFocus) {
  Server server;
  Window* window = server.CreateWindow("w", Point{0, 0}, Size{20, 3});
  auto* input = static_cast<TextInput*>(window->root()->AddChild(
      std::make_unique<TextInput>("in")));
  input->set_rect(Rect{0, 0, 18, 1});
  window->set_focus(input);
  ASSERT_TRUE(server.SendKeys(window->id(), "hello").ok());
  EXPECT_EQ(input->text(), "hello");
}

TEST(ServerTest, CompositeRespectsZOrderAndOpenState) {
  Server server(40, 10);
  Window* back = server.CreateWindow("back", Point{0, 0}, Size{10, 3});
  Window* front = server.CreateWindow("front", Point{2, 1}, Size{10, 3});
  Framebuffer fb = server.Composite();
  // front overlaps back; front's frame wins at the overlap.
  EXPECT_EQ(fb.At(2, 1), '+');
  front->set_open(false);
  fb = server.Composite();
  EXPECT_EQ(fb.At(0, 0), '+');  // back still there
  EXPECT_NE(fb.Row(1).substr(3, 5), "[ fro");
  (void)back;
}

}  // namespace
}  // namespace ode::owl
