// Edge-case coverage across modules: lexer corner cases, predicate
// containers, catalog limits, widget clipping, and app-level lookups.

#include <gtest/gtest.h>

#include "odb/database.h"
#include "odb/lexer.h"
#include "odb/predicate.h"
#include "odeview/app.h"
#include "owl/widgets.h"

namespace ode::odb {
namespace {

// --- Lexer ------------------------------------------------------------

TEST(LexerTest, StringEscapes) {
  Lexer lexer(R"("a\"b" "tab\there" "nl\nline" "back\\slash")");
  std::vector<Token> tokens = *lexer.Tokenize();
  ASSERT_EQ(tokens.size(), 5u);  // 4 strings + end
  EXPECT_EQ(tokens[0].text, "a\"b");
  EXPECT_EQ(tokens[1].text, "tab\there");
  EXPECT_EQ(tokens[2].text, "nl\nline");
  EXPECT_EQ(tokens[3].text, "back\\slash");
}

TEST(LexerTest, NumbersAndOperators) {
  Lexer lexer("3.5e-2 42 .5 >= == && || -> ::");
  std::vector<Token> tokens = *lexer.Tokenize();
  EXPECT_EQ(tokens[0].kind, TokenKind::kReal);
  EXPECT_EQ(tokens[1].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[2].kind, TokenKind::kReal);
  EXPECT_EQ(tokens[2].text, ".5");
  for (int i = 3; i <= 8; ++i) {
    EXPECT_EQ(tokens[static_cast<size_t>(i)].kind, TokenKind::kPunct);
  }
  EXPECT_EQ(tokens[3].text, ">=");
  EXPECT_EQ(tokens[7].text, "->");
}

TEST(LexerTest, LineNumbersTracked) {
  Lexer lexer("a\nb\n  c");
  std::vector<Token> tokens = *lexer.Tokenize();
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 3);
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(Lexer("a $ b").Tokenize().ok());
  EXPECT_FALSE(Lexer("a ` b").Tokenize().ok());
}

TEST(LexerTest, CursorRewind) {
  Lexer lexer("a b c");
  TokenCursor cursor(*lexer.Tokenize());
  (void)cursor.Next();
  size_t mark = cursor.position();
  (void)cursor.Next();
  EXPECT_EQ(cursor.Peek().text, "c");
  cursor.Rewind(mark);
  EXPECT_EQ(cursor.Peek().text, "b");
}

// --- Predicates over containers ------------------------------------------

TEST(PredicateEdgeTest, ContainsOnArraysAndNumericSets) {
  Value obj = Value::Struct({
      {"scores", Value::Array({Value::Int(3), Value::Int(7)})},
      {"reals", Value::Set({Value::Real(1.5)})},
  });
  EXPECT_TRUE(*ParsePredicate("scores contains 7")->Evaluate(obj));
  EXPECT_FALSE(*ParsePredicate("scores contains 8")->Evaluate(obj));
  EXPECT_TRUE(*ParsePredicate("reals contains 1.5")->Evaluate(obj));
}

TEST(PredicateEdgeTest, ContainsOnScalarIsError) {
  Value obj = Value::Struct({{"n", Value::Int(3)}});
  EXPECT_FALSE(ParsePredicate("n contains 3")->Evaluate(obj).ok());
}

TEST(PredicateEdgeTest, NullComparesEqualOnlyToNull) {
  Value obj = Value::Struct({{"maybe", Value::Null()}});
  EXPECT_TRUE(*ParsePredicate("maybe == null")->Evaluate(obj));
  EXPECT_FALSE(*ParsePredicate("maybe == 3")->Evaluate(obj));
}

// --- Value paths ------------------------------------------------------------

TEST(ValueEdgeTest, FindPathOnNonStruct) {
  EXPECT_EQ(Value::Int(3).FindPath("a"), nullptr);
  Value obj = Value::Struct({{"a", Value::Int(1)}});
  EXPECT_EQ(obj.FindPath(""), nullptr);
  EXPECT_EQ(obj.FindPath("a"), obj.FindField("a"));
}

// --- Database lookups ----------------------------------------------------------

TEST(DatabaseEdgeTest, ClusterNameMapping) {
  auto db = std::move(*Database::CreateInMemory("t"));
  ASSERT_TRUE(db->DefineSchema("class a { public: int x; };").ok());
  ClusterId id = *db->ClusterOf("a");
  EXPECT_EQ(*db->ClassOfCluster(id), "a");
  EXPECT_TRUE(db->ClassOfCluster(999).status().IsNotFound());
  EXPECT_TRUE(db->GetObject(Oid{999, 1}).status().IsNotFound());
}

TEST(DatabaseEdgeTest, EmptyClusterSequencing) {
  auto db = std::move(*Database::CreateInMemory("t"));
  ASSERT_TRUE(db->DefineSchema("class a { public: int x; };").ok());
  ObjectCursor cursor(db.get(), "a");
  EXPECT_TRUE(cursor.Next().status().IsOutOfRange());
  EXPECT_TRUE(cursor.Prev().status().IsOutOfRange());
  EXPECT_FALSE(cursor.has_current());
  EXPECT_TRUE(db->ScanCluster("a")->empty());
  EXPECT_TRUE(db->Select("a", Predicate::True())->empty());
}

TEST(DatabaseEdgeTest, DatabaseNameTooLongRejected) {
  std::string huge(5000, 'n');
  EXPECT_FALSE(Database::CreateInMemory(huge).ok());
}

}  // namespace
}  // namespace ode::odb

namespace ode::owl {
namespace {

TEST(WidgetEdgeTest, LabelClipsToWidth) {
  Framebuffer fb(10, 1);
  Label label("l", "abcdefghij");
  label.set_rect(Rect{0, 0, 4, 1});
  label.Render(&fb, Point{0, 0});
  EXPECT_EQ(fb.Row(0), "abcd      ");
}

TEST(WidgetEdgeTest, InvisibleWidgetsSkipRenderAndEvents) {
  Framebuffer fb(10, 2);
  int clicks = 0;
  Button button("b", "hit", [&](Button&) { ++clicks; });
  button.set_rect(Rect{0, 0, 6, 1});
  button.set_visible(false);
  button.Render(&fb, Point{0, 0});
  EXPECT_EQ(fb.Row(0), "          ");
  EXPECT_FALSE(button.DispatchClick(Point{1, 0}));
  EXPECT_EQ(clicks, 0);
}

TEST(WidgetEdgeTest, OverlappingChildrenTopmostWins) {
  Widget root("root");
  root.set_rect(Rect{0, 0, 20, 3});
  int first = 0, second = 0;
  auto* a = root.AddChild(std::make_unique<Button>(
      "a", "aaaa", [&](Button&) { ++first; }));
  a->set_rect(Rect{0, 0, 10, 1});
  auto* b = root.AddChild(std::make_unique<Button>(
      "b", "bbbb", [&](Button&) { ++second; }));
  b->set_rect(Rect{0, 0, 10, 1});  // fully overlaps a
  EXPECT_TRUE(root.DispatchClick(Point{2, 0}));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);  // later-added child is on top
}

TEST(WidgetEdgeTest, PanelWithoutBorderRendersNothing) {
  Framebuffer fb(8, 3);
  Panel panel("p", "title");
  panel.set_border(false);
  panel.set_rect(Rect{0, 0, 8, 3});
  panel.Render(&fb, Point{0, 0});
  EXPECT_EQ(fb.ToString(), "        \n        \n        \n");
}

TEST(ServerEdgeTest, EventsForDestroyedWindowsIgnored) {
  Server server;
  Window* window = server.CreateWindow("w", Point{0, 0}, Size{10, 2});
  WindowId id = window->id();
  server.PostEvent(Event::MouseClick(id, Point{1, 1}));
  ASSERT_TRUE(server.DestroyWindow(id).ok());
  EXPECT_EQ(server.RunLoop(), 1);  // dispatched into the void, no crash
}

TEST(ServerEdgeTest, RunLoopRespectsEventLimit) {
  Server server;
  Window* window = server.CreateWindow("w", Point{0, 0}, Size{10, 2});
  for (int i = 0; i < 10; ++i) {
    server.PostEvent(Event::CloseRequest(window->id()));
  }
  EXPECT_EQ(server.RunLoop(3), 3);
  EXPECT_EQ(server.RunLoop(), 7);
}

}  // namespace
}  // namespace ode::owl

namespace ode::view {
namespace {

TEST(AppEdgeTest, DuplicateAndUnknownDatabases) {
  OdeViewApp app;
  auto db = std::move(*odb::Database::CreateInMemory("x"));
  ASSERT_TRUE(app.AddDatabaseBorrowed(db.get()).ok());
  EXPECT_EQ(app.AddDatabaseBorrowed(db.get()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(app.AddDatabaseBorrowed(nullptr).IsInvalidArgument());
  EXPECT_TRUE(app.OpenDatabase("ghost").status().IsNotFound());
  EXPECT_TRUE(app.FindDatabase("x").ok());
  EXPECT_EQ(app.DatabaseNames(), (std::vector<std::string>{"x"}));
}

TEST(AppEdgeTest, ReopenedDatabaseReusesInteractor) {
  OdeViewApp app;
  auto db = std::move(*odb::Database::CreateInMemory("x"));
  ASSERT_TRUE(db->DefineSchema("class a { public: int n; };").ok());
  ASSERT_TRUE(app.AddDatabaseBorrowed(db.get()).ok());
  DbInteractor* first = *app.OpenDatabase("x");
  DbInteractor* second = *app.OpenDatabase("x");
  EXPECT_EQ(first, second);
  size_t windows = app.server()->window_count();
  (void)*app.OpenDatabase("x");
  EXPECT_EQ(app.server()->window_count(), windows);
}

}  // namespace
}  // namespace ode::view
