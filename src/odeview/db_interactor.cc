#include "odeview/db_interactor.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"
#include "dynlink/synthesized.h"
#include "odb/predicate.h"
#include "owl/widgets.h"

namespace ode::view {

namespace {
constexpr owl::Size kSchemaWindowSize{72, 22};
constexpr owl::Size kClassInfoSize{52, 14};
constexpr owl::Size kClassDefSize{56, 16};
}  // namespace

DbInteractor::DbInteractor(owl::Server* server,
                           dynlink::ModuleRepository* repository,
                           DisplayStateRegistry* display_states,
                           odb::Database* db)
    : server_(server), db_(db), linker_(repository),
      session_(db->OpenSession()) {
  context_.db = db;
  context_.session = &session_;
  context_.server = server;
  context_.repository = repository;
  context_.linker = &linker_;
  context_.display_states = display_states;
  context_.db_name = db->name();
  context_.on_project_request = [this](const std::string& class_name) {
    (void)OpenProjectionDialog(class_name);
  };
}

DbInteractor::~DbInteractor() {
  object_sets_.clear();  // browse trees destroy their windows
  auto destroy_all = [&](const std::map<std::string, owl::WindowId>& map) {
    for (const auto& [name, id] : map) (void)server_->DestroyWindow(id);
  };
  destroy_all(class_info_windows_);
  destroy_all(class_def_windows_);
  destroy_all(selection_dialogs_);
  destroy_all(projection_dialogs_);
  if (schema_window_ != owl::kNoWindow) {
    (void)server_->DestroyWindow(schema_window_);
  }
}

Status DbInteractor::OpenSchemaWindow() {
  if (schema_window_ != owl::kNoWindow) {
    if (owl::Window* window = server_->FindWindow(schema_window_)) {
      window->set_open(true);
      return Status::OK();
    }
  }
  dag::Digraph graph;
  // Every class is a node; inheritance edges run base -> derived.
  for (const odb::ClassDef& def : db_->schema().classes()) {
    graph.EnsureNode(def.name);
  }
  for (const auto& [base, derived] : db_->schema().InheritanceEdges()) {
    dag::NodeId from = graph.EnsureNode(base);
    dag::NodeId to = graph.EnsureNode(derived);
    (void)graph.AddEdge(from, to);
  }
  owl::Window* window = server_->CreateWindow(
      db_->name() + " schema", owl::Server::kAutoPlace, kSchemaWindowSize);
  schema_window_ = window->id();
  auto view = std::make_unique<DagView>(
      "dag", std::move(graph),
      [this](const std::string& cls) { (void)OpenClassInfo(cls); });
  view->set_rect(owl::Rect{0, 1, kSchemaWindowSize.width,
                           kSchemaWindowSize.height - 1});
  auto* zoom_in = static_cast<owl::Button*>(window->root()->AddChild(
      std::make_unique<owl::Button>("zoom-in", "zoom in",
                                    [this](owl::Button&) {
                                      (void)ZoomIn();
                                    })));
  zoom_in->set_rect(owl::Rect{0, 0, 11, 1});
  auto* zoom_out = static_cast<owl::Button*>(window->root()->AddChild(
      std::make_unique<owl::Button>("zoom-out", "zoom out",
                                    [this](owl::Button&) {
                                      (void)ZoomOut();
                                    })));
  zoom_out->set_rect(owl::Rect{12, 0, 12, 1});
  dag_view_ = static_cast<DagView*>(window->root()->AddChild(std::move(view)));
  return Status::OK();
}

Status DbInteractor::ZoomIn() {
  if (dag_view_ == nullptr) {
    return Status::FailedPrecondition("schema window is not open");
  }
  return dag_view_->ZoomIn();
}

Status DbInteractor::ZoomOut() {
  if (dag_view_ == nullptr) {
    return Status::FailedPrecondition("schema window is not open");
  }
  return dag_view_->ZoomOut();
}

void DbInteractor::AddClassListMenu(owl::Widget* root,
                                    const std::string& widget_name,
                                    const std::vector<std::string>& classes,
                                    const owl::Rect& rect) {
  auto menu = std::make_unique<owl::Menu>(
      widget_name, classes,
      [this](int, const std::string& cls) { (void)OpenClassInfo(cls); });
  menu->set_rect(rect);
  root->AddChild(std::move(menu));
}

Status DbInteractor::OpenClassInfo(const std::string& class_name) {
  auto existing = class_info_windows_.find(class_name);
  if (existing != class_info_windows_.end()) {
    if (owl::Window* window = server_->FindWindow(existing->second)) {
      window->set_open(true);
      return Status::OK();
    }
    class_info_windows_.erase(existing);
  }
  ODE_ASSIGN_OR_RETURN(const odb::ClassDef* def,
                       db_->GetClass(class_name));
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> supers,
                       db_->schema().DirectSuperclasses(class_name));
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> subs,
                       db_->schema().DirectSubclasses(class_name));
  uint64_t count = 0;
  if (def->persistent) {
    ODE_ASSIGN_OR_RETURN(count, db_->ClusterCount(class_name));
  }
  owl::Window* window =
      server_->CreateWindow("class " + class_name, owl::Server::kAutoPlace,
                            kClassInfoSize);
  class_info_windows_[class_name] = window->id();
  owl::Widget* root = window->root();

  int column = kClassInfoSize.width / 2 - 1;
  // Left column: superclasses + subclasses (clickable, Fig. 3 & 5).
  auto* supers_label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("supers-label", "superclasses:")));
  supers_label->set_rect(owl::Rect{0, 0, column, 1});
  AddClassListMenu(root, "supers-menu",
                   supers.empty() ? std::vector<std::string>{"<none>"}
                                  : supers,
                   owl::Rect{0, 1, column, 4});
  auto* subs_label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("subs-label", "subclasses:")));
  subs_label->set_rect(owl::Rect{0, 5, column, 1});
  AddClassListMenu(root, "subs-menu",
                   subs.empty() ? std::vector<std::string>{"<none>"} : subs,
                   owl::Rect{0, 6, column, 4});
  // Right column: metadata.
  std::ostringstream meta;
  meta << "class: " << class_name << "\n";
  meta << (def->persistent ? "persistent" : "transient");
  if (def->versioned) meta << ", versioned";
  meta << "\n";
  meta << "members: " << def->members.size() << "\n";
  meta << "methods: " << def->methods.size() << "\n";
  meta << "objects in cluster: " << count << "\n";
  auto meta_text = std::make_unique<owl::ScrollText>(
      "meta", Split(meta.str(), '\n'));
  meta_text->set_rect(
      owl::Rect{column + 1, 0, kClassInfoSize.width - column - 1, 10});
  root->AddChild(std::move(meta_text));
  // Buttons.
  auto* def_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "definition", "definition", [this, class_name](owl::Button&) {
            (void)OpenClassDefinition(class_name);
          })));
  def_button->set_rect(owl::Rect{0, 11, 14, 1});
  auto* objects_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "objects", "objects", [this, class_name](owl::Button&) {
            (void)OpenObjectSet(class_name);
          })));
  objects_button->set_rect(owl::Rect{15, 11, 11, 1});
  if (!def->persistent) objects_button->set_enabled(false);
  return Status::OK();
}

owl::WindowId DbInteractor::class_info_window(
    const std::string& class_name) const {
  auto it = class_info_windows_.find(class_name);
  return it == class_info_windows_.end() ? owl::kNoWindow : it->second;
}

Status DbInteractor::OpenClassDefinition(const std::string& class_name) {
  auto existing = class_def_windows_.find(class_name);
  if (existing != class_def_windows_.end()) {
    if (owl::Window* window = server_->FindWindow(existing->second)) {
      window->set_open(true);
      return Status::OK();
    }
    class_def_windows_.erase(existing);
  }
  ODE_ASSIGN_OR_RETURN(const odb::ClassDef* def, db_->GetClass(class_name));
  owl::Window* window = server_->CreateWindow(
      class_name + " definition", owl::Server::kAutoPlace, kClassDefSize);
  class_def_windows_[class_name] = window->id();
  auto text = std::make_unique<owl::ScrollText>(
      "source", Split(def->source.empty()
                          ? "// definition source unavailable"
                          : def->source,
                      '\n'));
  text->set_rect(
      owl::Rect{0, 0, kClassDefSize.width, kClassDefSize.height});
  window->root()->AddChild(std::move(text));
  return Status::OK();
}

owl::WindowId DbInteractor::class_def_window(
    const std::string& class_name) const {
  auto it = class_def_windows_.find(class_name);
  return it == class_def_windows_.end() ? owl::kNoWindow : it->second;
}

Result<BrowseNode*> DbInteractor::OpenObjectSet(
    const std::string& class_name) {
  if (BrowseNode* existing = FindObjectSet(class_name)) return existing;
  ODE_ASSIGN_OR_RETURN(std::unique_ptr<BrowseNode> node,
                       BrowseNode::CreateClusterSet(&context_, class_name));
  object_sets_.push_back(std::move(node));
  return object_sets_.back().get();
}

BrowseNode* DbInteractor::FindObjectSet(const std::string& class_name) {
  for (const auto& node : object_sets_) {
    if (node->class_name() == class_name) return node.get();
  }
  return nullptr;
}

Status DbInteractor::CloseObjectSet(const std::string& class_name) {
  for (size_t i = 0; i < object_sets_.size(); ++i) {
    if (object_sets_[i]->class_name() == class_name) {
      object_sets_.erase(object_sets_.begin() + static_cast<long>(i));
      return Status::OK();
    }
  }
  return Status::NotFound("no object set open for class '" + class_name +
                          "'");
}

Status DbInteractor::OpenSelectionDialog(const std::string& class_name) {
  auto existing = selection_dialogs_.find(class_name);
  if (existing != selection_dialogs_.end()) {
    if (owl::Window* window = server_->FindWindow(existing->second)) {
      window->set_open(true);
      return Status::OK();
    }
    selection_dialogs_.erase(existing);
  }
  ODE_ASSIGN_OR_RETURN(BrowseNode * node, OpenObjectSet(class_name));
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> selectlist,
                       node->SelectList());
  if (selectlist.empty()) {
    return Status::FailedPrecondition("class '" + class_name +
                                      "' has no selectable attributes");
  }
  owl::Size size{56, static_cast<int>(selectlist.size()) + 12};
  owl::Window* window = server_->CreateWindow(
      class_name + " selection", owl::Server::kAutoPlace, size);
  selection_dialogs_[class_name] = window->id();
  owl::Widget* root = window->root();

  // Scheme 1 (menu-based, after Pasta-3 [18]): attribute menu, operator
  // menu, value field, and an "add" button accumulating conjuncts.
  auto* attr_menu = static_cast<owl::Menu*>(root->AddChild(
      std::make_unique<owl::Menu>("attr-menu", selectlist)));
  attr_menu->set_rect(
      owl::Rect{0, 1, 20, static_cast<int>(selectlist.size())});
  auto* attr_label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("attr-label", "attribute:")));
  attr_label->set_rect(owl::Rect{0, 0, 20, 1});

  static const std::vector<std::string> kOps = {"==", "!=", "<",       "<=",
                                                ">",  ">=", "contains"};
  auto* op_menu = static_cast<owl::Menu*>(
      root->AddChild(std::make_unique<owl::Menu>("op-menu", kOps)));
  op_menu->set_rect(owl::Rect{22, 1, 12, static_cast<int>(kOps.size())});
  auto* op_label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("op-label", "operator:")));
  op_label->set_rect(owl::Rect{22, 0, 12, 1});

  auto* value_input = static_cast<owl::TextInput*>(root->AddChild(
      std::make_unique<owl::TextInput>("value")));
  value_input->set_rect(owl::Rect{36, 1, 18, 1});
  auto* value_label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("value-label", "value:")));
  value_label->set_rect(owl::Rect{36, 0, 12, 1});
  window->set_focus(value_input);

  int row = static_cast<int>(selectlist.size()) + 2;
  auto* draft_label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("draft", "predicate: <empty>")));
  draft_label->set_rect(owl::Rect{0, row + 1, size.width, 1});

  auto add_conjunct = [this, class_name, attr_menu, op_menu, value_input,
                       draft_label](const std::string& connector) {
    if (attr_menu->selected() < 0 || op_menu->selected() < 0) return;
    const std::string attr =
        attr_menu->items()[static_cast<size_t>(attr_menu->selected())];
    const std::string op =
        op_menu->items()[static_cast<size_t>(op_menu->selected())];
    std::string value = value_input->text();
    if (value.empty()) return;
    // Quote non-numeric values for the predicate language.
    bool numeric = !value.empty() &&
                   value.find_first_not_of("0123456789.-") ==
                       std::string::npos;
    std::string term =
        attr + " " + op + " " + (numeric ? value : "\"" + value + "\"");
    std::string& draft = selection_drafts_[class_name];
    if (draft.empty()) {
      draft = term;
    } else {
      draft += " " + connector + " " + term;
    }
    draft_label->set_text("predicate: " + draft);
  };
  auto* and_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "add-and", "AND",
          [add_conjunct](owl::Button&) { add_conjunct("&&"); })));
  and_button->set_rect(owl::Rect{0, row, 7, 1});
  auto* or_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "add-or", "OR",
          [add_conjunct](owl::Button&) { add_conjunct("||"); })));
  or_button->set_rect(owl::Rect{8, row, 6, 1});
  auto* apply_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "apply", "apply", [this, class_name](owl::Button&) {
            auto it = selection_drafts_.find(class_name);
            if (it != selection_drafts_.end() && !it->second.empty()) {
              (void)ApplyConditionBox(class_name, it->second);
            }
          })));
  apply_button->set_rect(owl::Rect{15, row, 9, 1});
  auto* clear_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "clear", "clear",
          [this, class_name, draft_label](owl::Button&) {
            selection_drafts_[class_name].clear();
            draft_label->set_text("predicate: <empty>");
            (void)ClearSelection(class_name);
          })));
  clear_button->set_rect(owl::Rect{25, row, 9, 1});

  // Scheme 2 (QBE-style condition box [34]): type the whole condition.
  auto* box_label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("box-label",
                                   "condition box (QBE style):")));
  box_label->set_rect(owl::Rect{0, row + 3, size.width, 1});
  auto* box = static_cast<owl::TextInput*>(root->AddChild(
      std::make_unique<owl::TextInput>(
          "condition-box", [this, class_name](const std::string& text) {
            (void)ApplyConditionBox(class_name, text);
          })));
  box->set_rect(owl::Rect{0, row + 4, size.width, 1});
  auto* status = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>("status", "")));
  status->set_rect(owl::Rect{0, row + 6, size.width, 1});
  return Status::OK();
}

owl::WindowId DbInteractor::selection_dialog(
    const std::string& class_name) const {
  auto it = selection_dialogs_.find(class_name);
  return it == selection_dialogs_.end() ? owl::kNoWindow : it->second;
}

Status DbInteractor::ApplyConditionBox(const std::string& class_name,
                                       const std::string& condition) {
  ODE_ASSIGN_OR_RETURN(BrowseNode * node, OpenObjectSet(class_name));
  auto report = [&](const Status& status) {
    auto it = selection_dialogs_.find(class_name);
    if (it == selection_dialogs_.end()) return;
    if (owl::Window* window = server_->FindWindow(it->second)) {
      if (auto* label =
              dynamic_cast<owl::Label*>(window->FindWidget("status"))) {
        label->set_text(status.ok() ? "selection applied"
                                    : status.ToString());
      }
    }
  };
  Result<odb::Predicate> predicate = odb::ParsePredicate(condition);
  if (!predicate.ok()) {
    report(predicate.status());
    return predicate.status();
  }
  Status applied = node->SetSelection(std::move(*predicate), condition);
  report(applied);
  return applied;
}

Status DbInteractor::ClearSelection(const std::string& class_name) {
  ODE_ASSIGN_OR_RETURN(BrowseNode * node, OpenObjectSet(class_name));
  return node->ClearSelection();
}

Status DbInteractor::OpenProjectionDialog(const std::string& class_name) {
  auto existing = projection_dialogs_.find(class_name);
  if (existing != projection_dialogs_.end()) {
    if (owl::Window* window = server_->FindWindow(existing->second)) {
      window->set_open(true);
      return Status::OK();
    }
    projection_dialogs_.erase(existing);
  }
  ODE_ASSIGN_OR_RETURN(BrowseNode * node, OpenObjectSet(class_name));
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> displaylist,
                       node->DisplayList());
  if (displaylist.empty()) {
    return Status::FailedPrecondition("class '" + class_name +
                                      "' has an empty displaylist");
  }
  owl::Size size{40, static_cast<int>(displaylist.size()) + 4};
  owl::Window* window = server_->CreateWindow(
      class_name + " projection", owl::Server::kAutoPlace, size);
  projection_dialogs_[class_name] = window->id();
  owl::Widget* root = window->root();
  std::vector<owl::Button*> attr_buttons;
  for (size_t i = 0; i < displaylist.size(); ++i) {
    auto* button = static_cast<owl::Button*>(root->AddChild(
        std::make_unique<owl::Button>("attr:" + displaylist[i],
                                      displaylist[i])));
    button->set_toggle_mode(true);
    button->set_rect(
        owl::Rect{0, static_cast<int>(i),
                  static_cast<int>(displaylist[i].size()) + 4, 1});
    attr_buttons.push_back(button);
  }
  int row = static_cast<int>(displaylist.size()) + 1;
  auto* all_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "ALL", "ALL", [node, attr_buttons](owl::Button&) {
            for (owl::Button* b : attr_buttons) b->set_toggled(false);
            (void)node->ClearProjection();
          })));
  all_button->set_rect(owl::Rect{0, row, 7, 1});
  auto* apply_button = static_cast<owl::Button*>(root->AddChild(
      std::make_unique<owl::Button>(
          "apply", "apply",
          [node, attr_buttons, displaylist](owl::Button&) {
            std::vector<std::string> chosen;
            for (size_t i = 0; i < attr_buttons.size(); ++i) {
              if (attr_buttons[i]->toggled()) {
                chosen.push_back(displaylist[i]);
              }
            }
            if (chosen.empty()) {
              (void)node->ClearProjection();
            } else {
              (void)node->SetProjection(chosen);
            }
          })));
  apply_button->set_rect(owl::Rect{8, row, 9, 1});
  return Status::OK();
}

owl::WindowId DbInteractor::projection_dialog(
    const std::string& class_name) const {
  auto it = projection_dialogs_.find(class_name);
  return it == projection_dialogs_.end() ? owl::kNoWindow : it->second;
}

Result<JoinView*> DbInteractor::OpenJoinView(const std::string& left_class,
                                             const std::string& right_class,
                                             const std::string& condition) {
  ODE_ASSIGN_OR_RETURN(odb::Predicate predicate,
                       odb::ParsePredicate(condition));
  ODE_ASSIGN_OR_RETURN(
      std::unique_ptr<JoinView> view,
      JoinView::Create(&context_, left_class, right_class,
                       std::move(predicate), condition));
  join_views_.push_back(std::move(view));
  return join_views_.back().get();
}

Status DbInteractor::CloseJoinView(JoinView* view) {
  for (auto it = join_views_.begin(); it != join_views_.end(); ++it) {
    if (it->get() == view) {
      join_views_.erase(it);  // destructor destroys the view's windows
      return Status::OK();
    }
  }
  return Status::NotFound("join view is not open in this interactor");
}

void DbInteractor::set_privileged(bool privileged) {
  context_.privileged = privileged;
  for (const auto& node : object_sets_) {
    (void)node->RefreshSubtree();
  }
  for (const auto& view : join_views_) {
    if (view->has_current()) (void)view->RefreshDisplays();
  }
}

bool DbInteractor::privileged() const { return context_.privileged; }

Status DbInteractor::OnClassChanged(const std::string& class_name) {
  linker_.Invalidate(db_->name(), class_name);
  for (const auto& node : object_sets_) {
    ODE_RETURN_IF_ERROR(node->RefreshSubtree());
  }
  for (const auto& view : join_views_) {
    if (view->has_current()) ODE_RETURN_IF_ERROR(view->RefreshDisplays());
  }
  // Class info/definition windows are refreshed by recreating them on
  // next open; mark existing ones closed so stale data is not shown.
  auto close_window = [&](std::map<std::string, owl::WindowId>* map) {
    auto it = map->find(class_name);
    if (it != map->end()) {
      (void)server_->DestroyWindow(it->second);
      map->erase(it);
    }
  };
  close_window(&class_info_windows_);
  close_window(&class_def_windows_);
  // Selection/projection dialogs enumerate the class's attribute
  // lists; stale ones must be rebuilt too.
  close_window(&selection_dialogs_);
  close_window(&projection_dialogs_);
  selection_drafts_.erase(class_name);
  return Status::OK();
}

}  // namespace ode::view
