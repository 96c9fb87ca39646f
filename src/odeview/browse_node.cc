#include "odeview/browse_node.h"

#include <algorithm>

#include "common/access_log.h"
#include "common/journal.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "dynlink/synthesized.h"
#include "owl/widgets.h"

namespace ode::view {

obs::OpContext GestureContext(const odb::Session& session) {
  obs::OpContext ctx = session.context();
  ctx.profile = obs::CurrentOpProfile();
  return ctx;
}

namespace {

constexpr int kPanelWidth = 46;

// Synchronized-browsing instruments. Cascades are sequencing
// operations (next/prev/reset) that refresh a whole subtree; fan-out
// and depth histograms characterize how much window tree each cascade
// touches, and the skipped counter measures the lazy-refresh savings
// (display windows that exist but are closed, so they are not
// re-rendered).
obs::Counter& RefreshCascades() {
  static obs::Counter* c =
      obs::Registry::Global().counter("view.refresh.cascades");
  return *c;
}
obs::Counter& RefreshNodes() {
  static obs::Counter* c =
      obs::Registry::Global().counter("view.refresh.nodes");
  return *c;
}
obs::Counter& WindowsRendered() {
  static obs::Counter* c =
      obs::Registry::Global().counter("view.refresh.windows_rendered");
  return *c;
}
obs::Counter& WindowsSkipped() {
  static obs::Counter* c =
      obs::Registry::Global().counter("view.refresh.windows_skipped");
  return *c;
}
obs::Histogram& RefreshFanout() {
  static obs::Histogram* h =
      obs::Registry::Global().histogram("view.refresh.fanout");
  return *h;
}
obs::Histogram& RefreshDepth() {
  static obs::Histogram* h =
      obs::Registry::Global().histogram("view.refresh.depth");
  return *h;
}
obs::Counter& DisplayDispatches() {
  static obs::Counter* c =
      obs::Registry::Global().counter("display.dispatch");
  return *c;
}
obs::Counter& DisplayFaults() {
  static obs::Counter* c = obs::Registry::Global().counter("display.faults");
  return *c;
}

void RecordCascade(const BrowseNode& root) {
  RefreshCascades().Increment();
  RefreshFanout().Record(static_cast<uint64_t>(root.SubtreeSize()));
  RefreshDepth().Record(static_cast<uint64_t>(root.SubtreeDepth()));
}

/// Lays one row of buttons into `parent`, returning the row height (1).
int LayoutButtonRow(owl::Widget* parent, int y,
                    const std::vector<owl::Button*>& buttons) {
  int x = 0;
  for (owl::Button* button : buttons) {
    int width = static_cast<int>(button->label().size()) + 3;
    button->set_rect(owl::Rect{x, y, width, 1});
    x += width + 1;
  }
  (void)parent;
  return 1;
}

}  // namespace

BrowseNode::BrowseNode(BrowseContext* context, BrowseNodeKind kind,
                       std::string class_name)
    : context_(context),
      kind_(kind),
      class_name_(std::move(class_name)),
      state_(context->display_states->StateFor(context->db_name,
                                               class_name_)) {}

BrowseNode::~BrowseNode() {
  children_.clear();  // children release their windows first
  for (const auto& [format, id] : display_windows_) {
    (void)context_->server->DestroyWindow(id);
  }
  if (versions_window_ != owl::kNoWindow) {
    (void)context_->server->DestroyWindow(versions_window_);
  }
  if (panel_window_ != owl::kNoWindow) {
    (void)context_->server->DestroyWindow(panel_window_);
  }
}

Result<std::unique_ptr<BrowseNode>> BrowseNode::CreateClusterSet(
    BrowseContext* context, const std::string& class_name) {
  ODE_RETURN_IF_ERROR(context->db->GetClass(class_name).status());
  ODE_RETURN_IF_ERROR(context->db->ClusterOf(class_name).status());
  std::unique_ptr<BrowseNode> node(
      new BrowseNode(context, BrowseNodeKind::kClusterSet, class_name));
  node->cursor_.emplace(context->db, class_name);
  ODE_RETURN_IF_ERROR(node->BuildPanel());
  return node;
}

Result<odb::ObjectBuffer> BrowseNode::Current() const {
  if (!current_.has_value()) {
    return Status::FailedPrecondition("no current object in this window");
  }
  return *current_;
}

Result<const odb::ClassLayout*> BrowseNode::Layout() const {
  return context_->db->schema().Layout(class_name_);
}

Status BrowseNode::BuildPanel() {
  std::string title;
  switch (kind_) {
    case BrowseNodeKind::kClusterSet:
      title = class_name_ + " object set";
      break;
    case BrowseNodeKind::kReference:
      title = (parent_ ? parent_->class_name() + "." : "") + member_name_ +
              ": " + class_name_;
      break;
    case BrowseNodeKind::kReferenceSet:
      title = (parent_ ? parent_->class_name() + "." : "") + member_name_ +
              " object set";
      break;
  }
  // Rows: control panel / object label / formats / refs / sets /
  // project / status.
  int height = 8;
  owl::Window* window = context_->server->CreateWindow(
      title, owl::Server::kAutoPlace, owl::Size{kPanelWidth, height});
  panel_window_ = window->id();
  owl::Widget* root = window->root();

  int y = 0;
  if (CanSequence()) {
    std::vector<owl::Button*> buttons;
    auto* reset = static_cast<owl::Button*>(
        root->AddChild(std::make_unique<owl::Button>(
            "reset", "reset", [this](owl::Button&) { (void)Reset(); })));
    auto* next = static_cast<owl::Button*>(
        root->AddChild(std::make_unique<owl::Button>(
            "next", "next", [this](owl::Button&) { (void)Next(); })));
    auto* prev = static_cast<owl::Button*>(
        root->AddChild(std::make_unique<owl::Button>(
            "previous", "previous",
            [this](owl::Button&) { (void)Prev(); })));
    buttons = {reset, next, prev};
    y += LayoutButtonRow(root, y, buttons);
  }
  auto* object_label = static_cast<owl::Label*>(
      root->AddChild(std::make_unique<owl::Label>("object-label",
                                                  "object: <none>")));
  object_label->set_rect(owl::Rect{0, y, kPanelWidth, 1});
  ++y;

  // Format buttons (toggles).
  {
    std::vector<owl::Button*> buttons;
    for (const std::string& format : AvailableFormats()) {
      auto* button = static_cast<owl::Button*>(
          root->AddChild(std::make_unique<owl::Button>(
              "fmt:" + format, format, [this, format](owl::Button&) {
                (void)ToggleFormat(format);
              })));
      button->set_toggle_mode(true);
      buttons.push_back(button);
    }
    y += LayoutButtonRow(root, y, buttons);
  }
  // Reference buttons.
  {
    std::vector<owl::Button*> buttons;
    Result<std::vector<std::string>> refs = ReferenceMembers();
    if (refs.ok()) {
      for (const std::string& member : *refs) {
        buttons.push_back(static_cast<owl::Button*>(
            root->AddChild(std::make_unique<owl::Button>(
                "ref:" + member, member, [this, member](owl::Button&) {
                  (void)FollowReference(member);
                }))));
      }
    }
    y += LayoutButtonRow(root, y, buttons);
  }
  // Set buttons.
  {
    std::vector<owl::Button*> buttons;
    Result<std::vector<std::string>> sets = ReferenceSetMembers();
    if (sets.ok()) {
      for (const std::string& member : *sets) {
        buttons.push_back(static_cast<owl::Button*>(
            root->AddChild(std::make_unique<owl::Button>(
                "set:" + member, member, [this, member](owl::Button&) {
                  (void)FollowReferenceSet(member);
                }))));
      }
    }
    y += LayoutButtonRow(root, y, buttons);
  }
  // Projection button row.
  {
    auto* project = static_cast<owl::Button*>(
        root->AddChild(std::make_unique<owl::Button>(
            "project", "project", [this](owl::Button&) {
              if (context_->on_project_request) {
                context_->on_project_request(class_name_);
              } else if (!projection_mask().empty()) {
                (void)ClearProjection();
              }
            })));
    project->set_rect(owl::Rect{0, y, 12, 1});
    // Versioned classes additionally get a `versions` button.
    Result<const odb::ClassDef*> def =
        context_->db->GetClass(class_name_);
    if (def.ok() && (*def)->versioned) {
      auto* versions = static_cast<owl::Button*>(
          root->AddChild(std::make_unique<owl::Button>(
              "versions", "versions", [this](owl::Button&) {
                (void)OpenVersionsWindow();
              })));
      versions->set_rect(owl::Rect{13, y, 12, 1});
    }
    ++y;
  }
  auto* status = static_cast<owl::Label*>(
      root->AddChild(std::make_unique<owl::Label>("status", "")));
  status->set_rect(owl::Rect{0, y, kPanelWidth, 1});
  return Status::OK();
}

namespace {
void SetLabel(owl::Server* server, owl::WindowId window_id,
              std::string_view widget, std::string text) {
  owl::Window* window = server->FindWindow(window_id);
  if (window == nullptr) return;
  if (auto* label =
          dynamic_cast<owl::Label*>(window->FindWidget(widget))) {
    label->set_text(std::move(text));
  }
}
}  // namespace

std::vector<std::string> BrowseNode::AvailableFormats() const {
  // Display functions are member functions: a class inherits the
  // display media of its ancestors.
  std::vector<std::string> formats =
      context_->repository->InheritedFormatsFor(
          context_->db->schema(), context_->db_name, class_name_);
  if (formats.empty()) formats.push_back("text");  // synthesized
  return formats;
}

Result<std::vector<std::string>> BrowseNode::DisplayList() const {
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout, Layout());
  if (!layout->displaylist.empty()) return layout->displaylist;
  return dynlink::SynthesizeDisplayList(context_->db->schema(),
                                        class_name_);
}

Result<std::vector<std::string>> BrowseNode::SelectList() const {
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout, Layout());
  if (!layout->selectlist.empty()) return layout->selectlist;
  return dynlink::SynthesizeSelectList(context_->db->schema(), class_name_);
}

const std::vector<bool>& BrowseNode::projection_mask() const {
  return state_->projection_mask;
}

Status BrowseNode::SetProjection(const std::vector<std::string>& attrs) {
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> list, DisplayList());
  for (const std::string& attr : attrs) {
    if (std::find(list.begin(), list.end(), attr) == list.end()) {
      return Status::InvalidArgument("attribute '" + attr +
                                     "' is not in the displaylist of '" +
                                     class_name_ + "'");
    }
  }
  state_->projection_mask = BuildProjectionMask(list, attrs);
  return RefreshSelf();
}

Status BrowseNode::ClearProjection() {
  state_->projection_mask.clear();
  return RefreshSelf();
}

Status BrowseNode::SetSelection(odb::Predicate predicate,
                                std::string display_text) {
  if (kind_ != BrowseNodeKind::kClusterSet) {
    return Status::FailedPrecondition(
        "selection applies to cluster object-set windows");
  }
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> selectlist, SelectList());
  for (const std::string& path : predicate.AttributePaths()) {
    std::string first = Split(path, '.').front();
    if (std::find(selectlist.begin(), selectlist.end(), first) ==
        selectlist.end()) {
      return Status::InvalidArgument(
          "attribute '" + first + "' is not in the selectlist of '" +
          class_name_ + "'");
    }
  }
  cursor_.emplace(context_->db, class_name_, std::move(predicate));
  has_selection_ = true;
  selection_text_ = std::move(display_text);
  current_.reset();
  ODE_RETURN_IF_ERROR(RefreshSelf());
  for (const auto& child : children_) {
    ODE_RETURN_IF_ERROR(child->RefreshSubtree());
  }
  return Status::OK();
}

Status BrowseNode::ClearSelection() {
  if (kind_ != BrowseNodeKind::kClusterSet) {
    return Status::FailedPrecondition(
        "selection applies to cluster object-set windows");
  }
  cursor_.emplace(context_->db, class_name_);
  has_selection_ = false;
  selection_text_.clear();
  current_.reset();
  ODE_RETURN_IF_ERROR(RefreshSelf());
  for (const auto& child : children_) {
    ODE_RETURN_IF_ERROR(child->RefreshSubtree());
  }
  return Status::OK();
}

Status BrowseNode::Step(bool forward) {
  switch (kind_) {
    case BrowseNodeKind::kClusterSet: {
      Result<odb::ObjectBuffer> buffer =
          forward ? cursor_->Next() : cursor_->Prev();
      if (!buffer.ok()) return buffer.status();
      current_ = std::move(*buffer);
      return Status::OK();
    }
    case BrowseNodeKind::kReferenceSet: {
      int next = set_index_ + (forward ? 1 : -1);
      if (set_index_ < 0 && forward) next = 0;
      if (next < 0 || next >= static_cast<int>(set_targets_.size())) {
        return Status::OutOfRange("no more objects in this set");
      }
      RecordCascadeAffinity(set_targets_[static_cast<size_t>(next)]);
      ODE_ASSIGN_OR_RETURN(odb::ObjectBuffer buffer,
                           context_->session->GetObject(
                               set_targets_[static_cast<size_t>(next)]));
      set_index_ = next;
      current_ = std::move(buffer);
      return Status::OK();
    }
    case BrowseNodeKind::kReference:
      return Status::FailedPrecondition(
          "object windows have no sequencing controls");
  }
  return Status::Internal("unreachable");
}

Status BrowseNode::Next() {
  // Adopt the session's context for the whole gesture, so the step's
  // object fetches and the refresh cascade land in one trace.
  obs::OpContextScope adopt(GestureContext(*context_->session));
  if (faulted_) {
    return Status::FailedPrecondition("object-interactor has terminated: " +
                                      fault_message_);
  }
  Status stepped = Step(/*forward=*/true);
  if (!stepped.ok()) {
    SetLabel(context_->server, panel_window_, "status",
             stepped.IsOutOfRange() ? "at end of object set"
                                    : stepped.ToString());
    return stepped;
  }
  SetLabel(context_->server, panel_window_, "status", "");
  return PropagateCascade();
}

Status BrowseNode::Prev() {
  // Adopt the session's context for the whole gesture, so the step's
  // object fetches and the refresh cascade land in one trace.
  obs::OpContextScope adopt(GestureContext(*context_->session));
  if (faulted_) {
    return Status::FailedPrecondition("object-interactor has terminated: " +
                                      fault_message_);
  }
  Status stepped = Step(/*forward=*/false);
  if (!stepped.ok()) {
    SetLabel(context_->server, panel_window_, "status",
             stepped.IsOutOfRange() ? "at start of object set"
                                    : stepped.ToString());
    return stepped;
  }
  SetLabel(context_->server, panel_window_, "status", "");
  return PropagateCascade();
}

Status BrowseNode::Reset() {
  // Adopt the session's context for the whole gesture, so the step's
  // object fetches and the refresh cascade land in one trace.
  obs::OpContextScope adopt(GestureContext(*context_->session));
  if (faulted_) {
    return Status::FailedPrecondition("object-interactor has terminated: " +
                                      fault_message_);
  }
  switch (kind_) {
    case BrowseNodeKind::kClusterSet:
      cursor_->Reset();
      break;
    case BrowseNodeKind::kReferenceSet:
      set_index_ = -1;
      break;
    case BrowseNodeKind::kReference:
      return Status::FailedPrecondition(
          "object windows have no sequencing controls");
  }
  current_.reset();
  SetLabel(context_->server, panel_window_, "status", "");
  return PropagateCascade();
}

Status BrowseNode::PropagateCascade() {
  // Callers (Next/Prev/Reset) have already adopted the session's
  // context, so this span — and every pool/pager span the refreshes
  // below it open — hangs off the user gesture that triggered it.
  ODE_TRACE_SPAN("view.sync_cascade");
  RecordCascade(*this);
  const int fan_out = SubtreeSize();
  obs::Journal::Global().Append(obs::JournalEvent::kCascadeStart, fan_out,
                                SubtreeDepth(),
                                obs::Journal::InternLabel(class_name_));
  Status refreshed = RefreshSelf();
  for (const auto& child : children_) {
    if (!refreshed.ok()) break;
    refreshed = child->RefreshSubtree();
  }
  obs::Journal::Global().Append(obs::JournalEvent::kCascadeEnd, fan_out,
                                refreshed.ok() ? 0 : 1,
                                obs::Journal::InternLabel(class_name_));
  return refreshed;
}

bool BrowseNode::IsFormatOpen(const std::string& format) const {
  return state_->IsOpen(format);
}

owl::WindowId BrowseNode::DisplayWindow(const std::string& format) const {
  auto it = display_windows_.find(format);
  return it == display_windows_.end() ? owl::kNoWindow : it->second;
}

Status BrowseNode::ToggleFormat(const std::string& format) {
  if (faulted_) {
    return Status::FailedPrecondition("object-interactor has terminated: " +
                                      fault_message_);
  }
  std::vector<std::string> formats = AvailableFormats();
  if (std::find(formats.begin(), formats.end(), format) == formats.end()) {
    return Status::NotFound("class '" + class_name_ +
                            "' has no display format '" + format + "'");
  }
  bool now_open = state_->Toggle(format);
  if (!now_open) {
    auto it = display_windows_.find(format);
    if (it != display_windows_.end()) {
      if (owl::Window* window = context_->server->FindWindow(it->second)) {
        window->set_open(false);
      }
    }
    return Status::OK();
  }
  if (!current_.has_value()) return Status::OK();  // shown on next object
  return RenderFormat(format);
}

Status BrowseNode::RenderFormat(const std::string& format) {
  if (!current_.has_value()) return Status::OK();
  ODE_TRACE_SPAN("display.render");
  const std::string& actual_class = current_->class_name;
  dynlink::DisplayFunction synthesized;
  const dynlink::DisplayFunction* fn = nullptr;
  // Resolve the defining class first (a subclass inherits display
  // member functions), then dynamically link that class's module.
  Result<const dynlink::DisplayModule*> module =
      context_->repository->FindInherited(context_->db->schema(),
                                          context_->db_name, actual_class,
                                          format);
  if (module.ok()) {
    ODE_ASSIGN_OR_RETURN(
        fn, context_->linker->Load(context_->db_name,
                                   (*module)->class_name, format));
  } else if (module.status().IsNotFound()) {
    synthesized = dynlink::SynthesizeDisplayFunction(
        context_->db->schema(), actual_class, context_->privileged);
    fn = &synthesized;
  } else {
    return module.status();
  }
  Result<std::vector<std::string>> attrs = DisplayList();
  static const std::vector<std::string> kNoAttrs;
  const std::vector<std::string>& attributes =
      attrs.ok() ? *attrs : kNoAttrs;
  DisplayDispatches().Increment();
  obs::Registry::Global()
      .counter("display.dispatch." + actual_class)
      ->Increment();
  Result<dynlink::DisplayResources> resources =
      (*fn)(*current_, attributes, state_->projection_mask);
  if (!resources.ok()) {
    if (resources.status().IsDisplayFault()) {
      return MarkFaulted(format, resources.status().message());
    }
    return resources.status();
  }
  for (const dynlink::WindowSpec& spec : resources->windows) {
    owl::Size size = spec.size;
    if (size.width <= 0 || size.height <= 0) {
      size = spec.kind == dynlink::WindowKind::kRasterImage
                 ? owl::Size{20, 10}
                 : owl::Size{38, 10};
    }
    owl::Window* window = nullptr;
    auto it = display_windows_.find(format);
    if (it != display_windows_.end()) {
      window = context_->server->FindWindow(it->second);
    }
    if (window == nullptr) {
      owl::Point placement = spec.placement;
      if (placement == owl::Point{-1, -1}) {
        placement = owl::Server::kAutoPlace;
      }
      window = context_->server->CreateWindow(spec.title, placement, size);
      display_windows_[format] = window->id();
      switch (spec.kind) {
        case dynlink::WindowKind::kStaticText: {
          auto text = std::make_unique<owl::StaticText>("content", "");
          text->set_rect(owl::Rect{0, 0, size.width, size.height});
          window->root()->AddChild(std::move(text));
          break;
        }
        case dynlink::WindowKind::kScrollText: {
          auto text = std::make_unique<owl::ScrollText>(
              "content", std::vector<std::string>{});
          text->set_rect(owl::Rect{0, 0, size.width, size.height});
          window->root()->AddChild(std::move(text));
          break;
        }
        case dynlink::WindowKind::kRasterImage: {
          auto raster =
              std::make_unique<owl::RasterView>("image", owl::Bitmap());
          raster->set_rect(owl::Rect{0, 0, size.width, size.height});
          window->root()->AddChild(std::move(raster));
          break;
        }
      }
    }
    window->set_title(spec.title);
    window->set_open(true);
    switch (spec.kind) {
      case dynlink::WindowKind::kStaticText:
        if (auto* text = dynamic_cast<owl::StaticText*>(
                window->FindWidget("content"))) {
          text->set_text(spec.text);
        }
        break;
      case dynlink::WindowKind::kScrollText:
        if (auto* text = dynamic_cast<owl::ScrollText*>(
                window->FindWidget("content"))) {
          text->set_lines(Split(spec.text, '\n'));
        }
        break;
      case dynlink::WindowKind::kRasterImage: {
        Result<owl::Bitmap> bitmap = owl::Bitmap::FromPbm(spec.image_pbm);
        if (!bitmap.ok()) {
          return MarkFaulted(format,
                             "display function produced a bad bitmap: " +
                                 bitmap.status().message());
        }
        if (auto* raster = dynamic_cast<owl::RasterView*>(
                window->FindWidget("image"))) {
          raster->set_bitmap(std::move(*bitmap));
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status BrowseNode::RefreshSelf() {
  std::string label = "object: <none>";
  if (current_.has_value()) {
    label = "object: " + current_->class_name + " " +
            current_->oid.ToString();
    if (kind_ == BrowseNodeKind::kReferenceSet) {
      label += " (" + std::to_string(set_index_ + 1) + "/" +
               std::to_string(set_targets_.size()) + ")";
    }
  }
  if (has_selection_) label += " where " + selection_text_;
  SetLabel(context_->server, panel_window_, "object-label", label);
  if (!current_.has_value()) {
    // Blank open display windows.
    for (const auto& [format, id] : display_windows_) {
      if (owl::Window* window = context_->server->FindWindow(id)) {
        if (auto* text = dynamic_cast<owl::ScrollText*>(
                window->FindWidget("content"))) {
          text->set_lines({"<no object>"});
        }
        if (auto* text = dynamic_cast<owl::StaticText*>(
                window->FindWidget("content"))) {
          text->set_text("<no object>");
        }
      }
    }
    return Status::OK();
  }
  // Mirror the format buttons' toggle state onto the panel.
  if (owl::Window* panel = context_->server->FindWindow(panel_window_)) {
    for (const std::string& format : AvailableFormats()) {
      if (auto* button = dynamic_cast<owl::Button*>(
              panel->FindWidget("fmt:" + format))) {
        button->set_toggled(state_->IsOpen(format));
      }
    }
  }
  // Lazy-refresh savings: display windows that exist but are closed
  // are left stale instead of re-rendered.
  for (const auto& [format, id] : display_windows_) {
    if (!state_->IsOpen(format)) WindowsSkipped().Increment();
  }
  for (const std::string& format : state_->open_formats) {
    ODE_RETURN_IF_ERROR(RenderFormat(format));
    WindowsRendered().Increment();
    if (faulted_) break;
  }
  return Status::OK();
}

Status BrowseNode::OpenVersionsWindow() {
  ODE_ASSIGN_OR_RETURN(const odb::ClassDef* def,
                       context_->db->GetClass(class_name_));
  if (!def->versioned) {
    return Status::NotFound("class '" + class_name_ +
                            "' is not versioned");
  }
  if (!current_.has_value()) {
    return Status::FailedPrecondition(
        "select an object before viewing its versions");
  }
  ODE_ASSIGN_OR_RETURN(std::vector<uint32_t> versions,
                       context_->session->ListVersions(current_->oid));
  std::vector<std::string> lines;
  lines.push_back("versions of " + current_->oid.ToString() + ":");
  for (uint32_t version : versions) {
    ODE_ASSIGN_OR_RETURN(
        odb::ObjectBuffer buffer,
        context_->session->GetObjectVersion(current_->oid, version));
    std::string marker = version == current_->version ? "*" : " ";
    lines.push_back(marker + "v" + std::to_string(version) + " " +
                    buffer.value.ToString());
  }
  owl::Window* window = nullptr;
  if (versions_window_ != owl::kNoWindow) {
    window = context_->server->FindWindow(versions_window_);
  }
  if (window == nullptr) {
    window = context_->server->CreateWindow(
        class_name_ + " versions", owl::Server::kAutoPlace,
        owl::Size{60, 10});
    versions_window_ = window->id();
    auto text = std::make_unique<owl::ScrollText>(
        "content", std::vector<std::string>{});
    text->set_rect(owl::Rect{0, 0, 60, 10});
    window->root()->AddChild(std::move(text));
  }
  window->set_open(true);
  if (auto* text =
          dynamic_cast<owl::ScrollText*>(window->FindWidget("content"))) {
    text->set_lines(std::move(lines));
  }
  return Status::OK();
}

Result<std::vector<std::string>> BrowseNode::ReferenceMembers() const {
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout, Layout());
  std::vector<std::string> out;
  for (const odb::MemberDef& member : layout->members) {
    if (member.type.kind == odb::TypeRef::Kind::kRef &&
        member.access == odb::Access::kPublic) {
      out.push_back(member.name);
    }
  }
  return out;
}

Result<std::vector<std::string>> BrowseNode::ReferenceSetMembers() const {
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout, Layout());
  std::vector<std::string> out;
  for (const odb::MemberDef& member : layout->members) {
    if (member.type.kind == odb::TypeRef::Kind::kSet &&
        member.type.element != nullptr &&
        member.type.element->kind == odb::TypeRef::Kind::kRef &&
        member.access == odb::Access::kPublic) {
      out.push_back(member.name);
    }
  }
  return out;
}

BrowseNode* BrowseNode::FindChild(std::string_view member) {
  for (const auto& child : children_) {
    if (child->member_name_ == member) return child.get();
  }
  return nullptr;
}

int BrowseNode::SubtreeSize() const {
  int n = 1;
  for (const auto& child : children_) n += child->SubtreeSize();
  return n;
}

int BrowseNode::SubtreeDepth() const {
  int deepest = 0;
  for (const auto& child : children_) {
    deepest = std::max(deepest, child->SubtreeDepth());
  }
  return deepest + 1;
}

Result<BrowseNode*> BrowseNode::FollowReference(const std::string& member) {
  if (faulted_) {
    return Status::FailedPrecondition("object-interactor has terminated: " +
                                      fault_message_);
  }
  if (BrowseNode* existing = FindChild(member)) return existing;
  if (!current_.has_value()) {
    return Status::FailedPrecondition(
        "select an object before following its references");
  }
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout, Layout());
  const odb::MemberDef* def = layout->FindMember(member);
  if (def == nullptr || def->type.kind != odb::TypeRef::Kind::kRef) {
    return Status::InvalidArgument("'" + member +
                                   "' is not a reference member of '" +
                                   class_name_ + "'");
  }
  std::unique_ptr<BrowseNode> child(new BrowseNode(
      context_, BrowseNodeKind::kReference, def->type.class_name));
  child->member_name_ = member;
  child->parent_ = this;
  ODE_RETURN_IF_ERROR(child->BuildPanel());
  ODE_RETURN_IF_ERROR(child->RefreshSubtree());
  children_.push_back(std::move(child));
  return children_.back().get();
}

Result<BrowseNode*> BrowseNode::FollowReferenceSet(
    const std::string& member) {
  if (faulted_) {
    return Status::FailedPrecondition("object-interactor has terminated: " +
                                      fault_message_);
  }
  if (BrowseNode* existing = FindChild(member)) return existing;
  if (!current_.has_value()) {
    return Status::FailedPrecondition(
        "select an object before following its references");
  }
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout, Layout());
  const odb::MemberDef* def = layout->FindMember(member);
  if (def == nullptr || def->type.kind != odb::TypeRef::Kind::kSet ||
      def->type.element == nullptr ||
      def->type.element->kind != odb::TypeRef::Kind::kRef) {
    return Status::InvalidArgument(
        "'" + member + "' is not a set-of-references member of '" +
        class_name_ + "'");
  }
  std::unique_ptr<BrowseNode> child(new BrowseNode(
      context_, BrowseNodeKind::kReferenceSet,
      def->type.element->class_name));
  child->member_name_ = member;
  child->parent_ = this;
  ODE_RETURN_IF_ERROR(child->BuildPanel());
  ODE_RETURN_IF_ERROR(child->RefreshSubtree());
  children_.push_back(std::move(child));
  return children_.back().get();
}

void BrowseNode::RecordCascadeAffinity(odb::Oid dst) const {
  obs::AccessLog& log = obs::AccessLog::Global();
  if (!log.enabled()) return;
  if (parent_ == nullptr || !parent_->current_.has_value()) return;
  odb::Oid src = parent_->current_->oid;
  log.RecordAffinity(src.cluster, src.local,
                     obs::Journal::InternLabel(parent_->class_name_),
                     dst.cluster, dst.local,
                     obs::Journal::InternLabel(class_name_));
}

Status BrowseNode::ResolveFromParent() {
  if (parent_ == nullptr || !parent_->current_.has_value()) {
    current_.reset();
    set_targets_.clear();
    set_index_ = -1;
    return Status::OK();
  }
  const odb::Value* field =
      parent_->current_->value.FindField(member_name_);
  if (field == nullptr) {
    current_.reset();
    return Status::OK();
  }
  if (kind_ == BrowseNodeKind::kReference) {
    if (field->kind() != odb::ValueKind::kRef || field->AsRef().IsNull()) {
      current_.reset();
      return Status::OK();
    }
    RecordCascadeAffinity(field->AsRef());
    ODE_ASSIGN_OR_RETURN(odb::ObjectBuffer buffer,
                         context_->session->GetObject(field->AsRef()));
    current_ = std::move(buffer);
    return Status::OK();
  }
  // kReferenceSet
  set_targets_.clear();
  if (field->kind() == odb::ValueKind::kSet ||
      field->kind() == odb::ValueKind::kArray) {
    for (const odb::Value& element : field->elements()) {
      if (element.kind() == odb::ValueKind::kRef &&
          !element.AsRef().IsNull()) {
        set_targets_.push_back(element.AsRef());
      }
    }
  }
  if (set_targets_.empty()) {
    set_index_ = -1;
    current_.reset();
    return Status::OK();
  }
  // After the parent sequences, show the first element if this window
  // was already showing one (Fig. 10's synchronized refresh).
  if (set_index_ >= 0 || kind_ == BrowseNodeKind::kReferenceSet) {
    set_index_ = 0;
    RecordCascadeAffinity(set_targets_.front());
    ODE_ASSIGN_OR_RETURN(odb::ObjectBuffer buffer,
                         context_->session->GetObject(set_targets_.front()));
    current_ = std::move(buffer);
  }
  return Status::OK();
}

Status BrowseNode::RefreshSubtree() {
  RefreshNodes().Increment();
  if (kind_ != BrowseNodeKind::kClusterSet) {
    ODE_RETURN_IF_ERROR(ResolveFromParent());
  }
  if (!faulted_) {
    ODE_RETURN_IF_ERROR(RefreshSelf());
  }
  for (const auto& child : children_) {
    ODE_RETURN_IF_ERROR(child->RefreshSubtree());
  }
  return Status::OK();
}

Status BrowseNode::MarkFaulted(const std::string& format,
                               const std::string& message) {
  faulted_ = true;
  fault_message_ = message;
  DisplayFaults().Increment();
  obs::Journal::Global().Append(obs::JournalEvent::kDynlinkFault, 0, 0,
                                obs::Journal::InternLabel(class_name_));
  obs::Registry::Global()
      .counter("display.fault." + class_name_)
      ->Increment();
  // The crashed display is no longer part of the cluster's display
  // state (its simulated process died), so a restarted interactor does
  // not immediately crash again.
  if (state_->IsOpen(format)) (void)state_->Toggle(format);
  ODE_LOG(Warning) << "object-interactor fault for class '" << class_name_
                   << "': " << message;
  SetLabel(context_->server, panel_window_, "status",
           "INTERACTOR FAULT: " + message);
  for (const auto& [format, id] : display_windows_) {
    if (owl::Window* window = context_->server->FindWindow(id)) {
      window->set_open(false);
    }
  }
  // The fault is contained: return OK so sibling refreshes continue.
  return Status::OK();
}

Status BrowseNode::Restart() {
  if (!faulted_) return Status::OK();
  faulted_ = false;
  fault_message_.clear();
  SetLabel(context_->server, panel_window_, "status", "restarted");
  return RefreshSubtree();
}

}  // namespace ode::view
