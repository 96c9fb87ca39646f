#include "odeview/join_view.h"

#include "common/op_profile.h"
#include "common/strings.h"
#include "dynlink/synthesized.h"
#include "odb/exec/executor.h"
#include "owl/widgets.h"

namespace ode::view {

namespace {
constexpr owl::Size kSideWindowSize{40, 12};
}  // namespace

JoinView::JoinView(BrowseContext* context, std::string left_class,
                   std::string right_class, odb::Predicate predicate,
                   std::string predicate_text)
    : context_(context),
      left_class_(std::move(left_class)),
      right_class_(std::move(right_class)),
      predicate_(std::move(predicate)),
      predicate_text_(std::move(predicate_text)) {}

JoinView::~JoinView() {
  for (owl::WindowId id : {left_window_, right_window_, panel_window_}) {
    if (id != owl::kNoWindow) (void)context_->server->DestroyWindow(id);
  }
}

Result<std::unique_ptr<JoinView>> JoinView::Create(
    BrowseContext* context, const std::string& left_class,
    const std::string& right_class, odb::Predicate predicate,
    std::string predicate_text) {
  ODE_RETURN_IF_ERROR(context->db->GetClass(left_class).status());
  ODE_RETURN_IF_ERROR(context->db->GetClass(right_class).status());
  for (const std::string& path : predicate.AttributePaths()) {
    std::string first = Split(path, '.').front();
    if (first != "left" && first != "right") {
      return Status::InvalidArgument(
          "join predicates reference attributes as left.<attr> / "
          "right.<attr>; got '" +
          path + "'");
    }
  }
  std::unique_ptr<JoinView> view(
      new JoinView(context, left_class, right_class, std::move(predicate),
                   std::move(predicate_text)));
  ODE_RETURN_IF_ERROR(view->Materialize());
  ODE_RETURN_IF_ERROR(view->BuildPanel());
  return view;
}

Status JoinView::Materialize() {
  // Batched executor: hash join on an equality conjunct when one
  // exists, batched nested loop otherwise — replacing the per-pair
  // GetObject + combined-struct cross product. The view keeps the
  // separation principle: it receives only the sequenced pair list.
  // The join is one op of the interactor's session, so its scans and
  // pairs reach the session totals and the slow-op ring.
  obs::OpContextScope adopt(GestureContext(*context_->session));
  obs::ProfiledOp op(context_->session->entry(), "join");
  odb::exec::JoinSpec spec;
  spec.left_class = left_class_;
  spec.right_class = right_class_;
  spec.predicate = &predicate_;
  ODE_ASSIGN_OR_RETURN(odb::exec::JoinResult result,
                       odb::exec::ExecuteJoin(context_->db, spec));
  pairs_ = std::move(result.pairs);
  return Status::OK();
}

Status JoinView::BuildPanel() {
  owl::Window* window = context_->server->CreateWindow(
      left_class_ + " x " + right_class_ + " join",
      owl::Server::kAutoPlace, owl::Size{52, 4});
  panel_window_ = window->id();
  owl::Widget* root = window->root();
  auto* reset = static_cast<owl::Button*>(
      root->AddChild(std::make_unique<owl::Button>(
          "reset", "reset", [this](owl::Button&) { (void)Reset(); })));
  reset->set_rect(owl::Rect{0, 0, 8, 1});
  auto* next = static_cast<owl::Button*>(
      root->AddChild(std::make_unique<owl::Button>(
          "next", "next", [this](owl::Button&) { (void)Next(); })));
  next->set_rect(owl::Rect{9, 0, 7, 1});
  auto* prev = static_cast<owl::Button*>(
      root->AddChild(std::make_unique<owl::Button>(
          "previous", "previous",
          [this](owl::Button&) { (void)Prev(); })));
  prev->set_rect(owl::Rect{17, 0, 11, 1});
  auto* label = static_cast<owl::Label*>(root->AddChild(
      std::make_unique<owl::Label>(
          "pair-label", "0/" + std::to_string(pairs_.size()) +
                            " where " + predicate_text_)));
  label->set_rect(owl::Rect{0, 1, 52, 1});
  auto* status = static_cast<owl::Label*>(
      root->AddChild(std::make_unique<owl::Label>("status", "")));
  status->set_rect(owl::Rect{0, 2, 52, 1});
  return Status::OK();
}

Result<std::pair<odb::ObjectBuffer, odb::ObjectBuffer>> JoinView::Current()
    const {
  if (index_ < 0) {
    return Status::FailedPrecondition("join view has no current pair");
  }
  const auto& [left, right] = pairs_[static_cast<size_t>(index_)];
  ODE_ASSIGN_OR_RETURN(odb::ObjectBuffer lbuf,
                       context_->session->GetObject(left));
  ODE_ASSIGN_OR_RETURN(odb::ObjectBuffer rbuf,
                       context_->session->GetObject(right));
  return std::make_pair(std::move(lbuf), std::move(rbuf));
}

Status JoinView::Next() {
  if (index_ + 1 >= static_cast<int>(pairs_.size())) {
    return Status::OutOfRange("no more pairs in the join");
  }
  ++index_;
  return RefreshDisplays();
}

Status JoinView::Prev() {
  if (index_ <= 0) {
    return Status::OutOfRange("no pair before the current one");
  }
  --index_;
  return RefreshDisplays();
}

Status JoinView::Reset() {
  index_ = -1;
  if (owl::Window* window = context_->server->FindWindow(panel_window_)) {
    if (auto* label = dynamic_cast<owl::Label*>(
            window->FindWidget("pair-label"))) {
      label->set_text("0/" + std::to_string(pairs_.size()) + " where " +
                      predicate_text_);
    }
  }
  return Status::OK();
}

Status JoinView::RenderSide(const odb::ObjectBuffer& object, bool left) {
  // Resolve that side's own display function — "each displayed using
  // the corresponding display function" (inherited modules included).
  std::vector<std::string> formats =
      context_->repository->InheritedFormatsFor(
          context_->db->schema(), context_->db_name, object.class_name);
  dynlink::DisplayFunction synthesized;
  const dynlink::DisplayFunction* fn = nullptr;
  std::string format = formats.empty() ? "text" : formats.front();
  if (formats.empty()) {
    synthesized = dynlink::SynthesizeDisplayFunction(
        context_->db->schema(), object.class_name, context_->privileged);
    fn = &synthesized;
  } else {
    ODE_ASSIGN_OR_RETURN(
        const dynlink::DisplayModule* module,
        context_->repository->FindInherited(context_->db->schema(),
                                            context_->db_name,
                                            object.class_name, format));
    ODE_ASSIGN_OR_RETURN(
        fn, context_->linker->Load(context_->db_name, module->class_name,
                                   format));
  }
  ODE_ASSIGN_OR_RETURN(dynlink::DisplayResources resources,
                       (*fn)(object, {}, {}));
  if (resources.windows.empty()) {
    return Status::DisplayFault("display function produced no windows");
  }
  const dynlink::WindowSpec& spec = resources.windows.front();
  owl::WindowId* slot = left ? &left_window_ : &right_window_;
  owl::Window* window =
      *slot == owl::kNoWindow ? nullptr
                              : context_->server->FindWindow(*slot);
  if (window == nullptr) {
    window = context_->server->CreateWindow(
        spec.title, owl::Server::kAutoPlace, kSideWindowSize);
    *slot = window->id();
    auto text = std::make_unique<owl::ScrollText>(
        "content", std::vector<std::string>{});
    text->set_rect(owl::Rect{0, 0, kSideWindowSize.width,
                             kSideWindowSize.height});
    window->root()->AddChild(std::move(text));
  }
  window->set_title(spec.title);
  window->set_open(true);
  if (auto* text =
          dynamic_cast<owl::ScrollText*>(window->FindWidget("content"))) {
    if (spec.kind == dynlink::WindowKind::kRasterImage) {
      text->set_lines({"<raster display: " +
                       std::to_string(spec.image_pbm.size()) +
                       "B bitmap>"});
    } else {
      text->set_lines(Split(spec.text, '\n'));
    }
  }
  return Status::OK();
}

Status JoinView::RefreshDisplays() {
  // One gesture of the interactor's session: both fetches land in the
  // session's trace.
  obs::OpContextScope adopt(GestureContext(*context_->session));
  ODE_ASSIGN_OR_RETURN(auto pair, Current());
  ODE_RETURN_IF_ERROR(RenderSide(pair.first, /*left=*/true));
  ODE_RETURN_IF_ERROR(RenderSide(pair.second, /*left=*/false));
  if (owl::Window* window = context_->server->FindWindow(panel_window_)) {
    if (auto* label = dynamic_cast<owl::Label*>(
            window->FindWidget("pair-label"))) {
      label->set_text(std::to_string(index_ + 1) + "/" +
                      std::to_string(pairs_.size()) + " where " +
                      predicate_text_);
    }
  }
  return Status::OK();
}

}  // namespace ode::view
