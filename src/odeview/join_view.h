#ifndef ODEVIEW_ODEVIEW_JOIN_VIEW_H_
#define ODEVIEW_ODEVIEW_JOIN_VIEW_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "odb/predicate.h"
#include "odeview/browse_node.h"

namespace ode::view {

/// A view over the join of two classes (§5.3).
///
/// "We have decided to display all the objects involved in the join
/// simultaneously — each displayed using the corresponding display
/// function." A JoinView sequences over the matching (left, right)
/// pairs; each step refreshes one display window per side, rendered by
/// that side's own class display function.
///
/// The join predicate is evaluated over a combined object
/// `{left: <left object>, right: <right object>}`, so condition-box
/// text like `left.dept == right.name` or `left.age > right.reports`
/// works unchanged through the ordinary predicate language.
class JoinView {
 public:
  /// Builds the join (nested-loop, materialized at creation) and its
  /// panel window. Fails if either class is unknown or the predicate
  /// references attributes outside `left.*` / `right.*`.
  static Result<std::unique_ptr<JoinView>> Create(
      BrowseContext* context, const std::string& left_class,
      const std::string& right_class, odb::Predicate predicate,
      std::string predicate_text);

  ~JoinView();
  JoinView(const JoinView&) = delete;
  JoinView& operator=(const JoinView&) = delete;

  const std::string& left_class() const { return left_class_; }
  const std::string& right_class() const { return right_class_; }
  const std::string& predicate_text() const { return predicate_text_; }

  /// Number of matching pairs.
  size_t pair_count() const { return pairs_.size(); }
  bool has_current() const { return index_ >= 0; }
  Result<std::pair<odb::ObjectBuffer, odb::ObjectBuffer>> Current() const;

  /// Sequencing over the pair list; both sides' windows refresh.
  Status Next();
  Status Prev();
  Status Reset();

  /// Re-renders the current pair's two windows, e.g. after debug mode
  /// or a class definition changed; FailedPrecondition with no current
  /// pair.
  Status RefreshDisplays();

  owl::WindowId panel_window() const { return panel_window_; }
  owl::WindowId left_window() const { return left_window_; }
  owl::WindowId right_window() const { return right_window_; }

 private:
  JoinView(BrowseContext* context, std::string left_class,
           std::string right_class, odb::Predicate predicate,
           std::string predicate_text);

  Status Materialize();
  Status BuildPanel();
  /// Renders one side into its window via that class's display
  /// function (or the synthesized fallback).
  Status RenderSide(const odb::ObjectBuffer& object, bool left);

  BrowseContext* context_;
  std::string left_class_;
  std::string right_class_;
  odb::Predicate predicate_;
  std::string predicate_text_;
  std::vector<std::pair<odb::Oid, odb::Oid>> pairs_;
  int index_ = -1;
  owl::WindowId panel_window_ = owl::kNoWindow;
  owl::WindowId left_window_ = owl::kNoWindow;
  owl::WindowId right_window_ = owl::kNoWindow;
};

}  // namespace ode::view

#endif  // ODEVIEW_ODEVIEW_JOIN_VIEW_H_
