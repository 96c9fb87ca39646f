// odeview_shell: an interactive (and scriptable) driver for OdeView.
// Reads commands from stdin and operates the same public API the GUI
// buttons call, printing ASCII screenshots on demand.
//
//   $ ./odeview_shell <<'EOF'
//   open lab
//   info employee
//   objects employee
//   next employee
//   show employee text
//   follow employee dept
//   screen
//   EOF

#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/access_log.h"
#include "common/journal.h"
#include "common/op_profile.h"
#include "common/strings.h"
#include "common/telemetry_http.h"
#include "common/timeseries.h"
#include "common/watchdog.h"
#include "dynlink/lab_modules.h"
#include "odb/cluster/advisor.h"
#include "odb/cluster/plan.h"
#include "odb/cluster/prefetch.h"
#include "odb/database.h"
#include "odb/exec/executor.h"
#include "odb/exec/explain.h"
#include "odb/integrity.h"
#include "odb/labdb.h"
#include "odeview/app.h"

namespace {

using ode::Status;

void Help() {
  std::puts(R"(commands:
  dbs                          list registered databases
  open <db>                    open a database (schema window)
  schema                       render the schema DAG
  zoom in|out                  change schema detail level
  info <class>                 class information window
  def <class>                  class definition window
  objects <class>              open the object-set window
  next|prev|reset <class>      sequence the object set
  show <class> <format>        toggle a display format
  follow <class> <member>      follow a reference member
  followset <class> <member>   follow a set-of-references member
  project <class> <attrs,...>  project onto attributes (empty = ALL)
  select <class> <predicate>   apply a selection predicate
  join <left> <right> <pred>   open a §5.3 join view
  explain [analyze] select <class> <pred>
                               show (and with analyze, run) the plan
  explain [analyze] join <left> <right> <pred>
  sessions                     list open sessions (JSON)
  slow-demo                    run a deliberately slow profiled query
                               (parks it in the /slow ring)
  versions <class>             open the version-history window
  check                        run the referential-integrity checker
  stats                        open/refresh the statistics window
  telemetry                    dump the metrics registry (text report)
  heatmap [top-n]              print the access heat map (pages, classes,
                               affinity edges; recorder starts with
                               --telemetry-port, or at 'record start')
  record start <file>          capture the access stream to <file>
  record stop                  close the capture; prints records written
  cluster-plan [trace-file]    compute a co-location plan from the access
                               recorder's affinity edges (or from a
                               captured ODEACC02 trace file)
  recluster                    apply the last cluster-plan (builds one if
                               needed), then install the affinity
                               prefetch source and enable affinity
                               read-ahead
  journal                      print the flight-recorder journal tail
  watchdog [start [ms]|stop]   stall watchdog status / control
  screen                       print the composed screen
  quit

flags: [--telemetry-port=N] [employee-count])");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ode;
  int employees = 55;
  int telemetry_port = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string kPortFlag = "--telemetry-port=";
    if (arg.rfind(kPortFlag, 0) == 0) {
      telemetry_port = std::atoi(arg.c_str() + kPortFlag.size());
    } else {
      employees = std::atoi(arg.c_str());
    }
  }

  obs::TelemetryServer telemetry_server;
  if (telemetry_port >= 0) {
    Status started =
        telemetry_server.Start(static_cast<uint16_t>(telemetry_port));
    if (started.ok()) {
      std::fprintf(stderr,
                   "telemetry endpoint listening on 127.0.0.1:%u "
                   "(/metrics /metrics.json /journal /trace /sessions "
                   "/slow /heatmap /timeseries /healthz)\n",
                   telemetry_server.port());
      // Give the endpoint live content: the access recorder feeds
      // /heatmap and a 1 s metrics-history tick feeds /timeseries.
      obs::AccessLog::Global().Start();
      (void)obs::TimeSeriesStore::Global().Configure(
          /*resolution_ns=*/1'000'000'000ull, /*slots=*/600);
      obs::TimeSeriesStore::Global().Start();
    } else {
      std::fprintf(stderr, "telemetry endpoint: %s\n",
                   started.ToString().c_str());
    }
  }

  odb::LabDbConfig config;
  config.employees = employees;
  auto db_result = odb::Database::CreateInMemory("lab");
  if (!db_result.ok()) return 1;
  auto db = std::move(*db_result);
  if (Status s = odb::BuildLabDatabase(db.get(), config); !s.ok()) {
    std::fprintf(stderr, "build: %s\n", s.ToString().c_str());
    return 1;
  }
  view::OdeViewApp app(150, 56);
  (void)dynlink::RegisterLabDisplayModules(app.repository(), "lab",
                                           db->schema());
  (void)app.AddDatabaseBorrowed(db.get());
  (void)app.OpenInitialWindow();

  // slow-demo state: a second database with a deliberately tiny pool
  // and a session held open so /sessions and /slow have live content.
  std::unique_ptr<odb::Database> demo_db;
  std::optional<odb::Session> demo_session;

  // The last advisor output; `recluster` applies (and consumes) it.
  std::optional<odb::cluster::ClusterPlan> last_plan;

  auto interactor = [&]() -> view::DbInteractor* {
    return app.FindInteractor("lab");
  };
  auto need_set = [&](const std::string& cls) -> view::BrowseNode* {
    if (interactor() == nullptr) return nullptr;
    Result<view::BrowseNode*> node = interactor()->OpenObjectSet(cls);
    if (!node.ok()) {
      std::printf("%s\n", node.status().ToString().c_str());
      return nullptr;
    }
    return *node;
  };
  auto report = [](const Status& status) {
    std::printf("%s\n", status.ToString().c_str());
  };

  std::puts("OdeView shell — 'help' for commands.");
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      Help();
    } else if (cmd == "dbs") {
      for (const std::string& name : app.DatabaseNames()) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (cmd == "open") {
      std::string name;
      in >> name;
      report(app.OpenDatabase(name).status());
    } else if (cmd == "slow-demo") {
      // A page-miss-heavy profiled query made predictably slow: an
      // 8-frame pool over 200 employees forces real pool misses, and
      // a 2 ms/batch injected delay pushes the op past the (lowered)
      // slow threshold. CI curls /slow and /sessions afterwards and
      // asserts the parked record carries nonzero pages_read.
      if (demo_db == nullptr) {
        odb::DatabaseOptions demo_options;
        demo_options.buffer_pool_pages = 8;
        auto demo_or =
            odb::Database::CreateInMemory("slowdemo", demo_options);
        if (!demo_or.ok()) {
          report(demo_or.status());
          continue;
        }
        demo_db = std::move(*demo_or);
        odb::LabDbConfig demo_config;
        demo_config.employees = 200;
        if (Status s = odb::BuildLabDatabase(demo_db.get(), demo_config);
            !s.ok()) {
          report(s);
          demo_db.reset();
          continue;
        }
        demo_session.emplace(demo_db->OpenSession());
      }
      obs::SlowOpLog::Global().set_threshold_ns(1'000'000);  // 1 ms
      auto predicate = odb::ParsePredicate("age > 30");
      if (!predicate.ok()) {
        report(predicate.status());
        continue;
      }
      odb::exec::ScanSpec spec;
      spec.class_name = "employee";
      spec.predicate = &*predicate;
      spec.batch_size = 32;  // ~7 batches over 200 employees
      spec.injected_delay_ns_per_batch = 2'000'000;  // 2 ms per batch
      size_t matched = 0;
      {
        obs::ProfiledOp op(demo_session->entry(), "slow_demo");
        auto result = odb::exec::ExecuteScan(demo_db.get(), spec);
        if (!result.ok()) {
          report(result.status());
          continue;
        }
        matched = result->rows.size();
      }
      std::printf(
          "slow demo: %zu rows matched; the op is parked in /slow and "
          "the session shows on /sessions\n",
          matched);
    } else if (cmd == "sessions") {
      std::printf("%s\n",
                  obs::SessionRegistry::Global().RenderJson().c_str());
    } else if (cmd == "heatmap") {
      size_t top_n = 16;
      int requested = 0;
      if (in >> requested && requested > 0) {
        top_n = static_cast<size_t>(requested);
      }
      if (!obs::AccessLog::Global().enabled()) {
        std::puts(
            "access recorder is off — run with --telemetry-port or "
            "'record start <file>' to enable it");
      }
      std::fputs(obs::AccessLog::Global().RenderHeatmapText(top_n).c_str(),
                 stdout);
    } else if (cmd == "record") {
      std::string sub;
      in >> sub;
      if (sub == "start") {
        std::string path;
        in >> path;
        if (path.empty()) {
          std::puts("usage: record start <file>");
          continue;
        }
        Status started = obs::AccessLog::Global().StartCapture(path);
        if (started.ok()) {
          std::printf("capturing access stream to %s\n", path.c_str());
        } else {
          report(started);
        }
      } else if (sub == "stop") {
        auto written = obs::AccessLog::Global().StopCapture();
        if (written.ok()) {
          std::printf("capture closed: %llu records written\n",
                      static_cast<unsigned long long>(*written));
        } else {
          report(written.status());
        }
      } else {
        std::puts("usage: record start <file> | record stop");
      }
    } else if (cmd == "cluster-plan") {
      std::string trace;
      in >> trace;
      Result<odb::cluster::ClusterPlan> plan =
          trace.empty()
              ? odb::cluster::BuildClusterPlan(
                    db.get(), obs::AccessLog::Global().SnapshotProfile())
              : odb::cluster::BuildClusterPlanFromTrace(db.get(), trace);
      if (!plan.ok()) {
        report(plan.status());
        continue;
      }
      last_plan = std::move(*plan);
      std::fputs(last_plan->Summary().c_str(), stdout);
      if (last_plan->empty()) {
        std::puts(
            "no co-location opportunities found — browse some references "
            "with the access recorder on, then retry");
      }
    } else if (cmd == "recluster") {
      if (!last_plan.has_value() || last_plan->empty()) {
        Result<odb::cluster::ClusterPlan> plan = odb::cluster::BuildClusterPlan(
            db.get(), obs::AccessLog::Global().SnapshotProfile());
        if (!plan.ok()) {
          report(plan.status());
          continue;
        }
        last_plan = std::move(*plan);
      }
      if (last_plan->empty()) {
        std::puts("nothing to recluster (empty plan)");
        last_plan.reset();
        continue;
      }
      Status applied = db->Recluster(*last_plan);
      if (!applied.ok()) {
        report(applied);
        continue;
      }
      std::printf("recluster applied: %llu move(s)\n",
                  static_cast<unsigned long long>(last_plan->planned_moves));
      last_plan.reset();
      // Re-project the affinity edges onto the new placement and turn
      // on affinity read-ahead so cascades ride the new layout.
      auto source = odb::cluster::BuildAffinityPrefetchSource(
          db.get(), obs::AccessLog::Global().SnapshotProfile());
      if (source.ok()) {
        db->buffer_pool()->SetPrefetchSource(*source);
        db->buffer_pool()->SetReadAheadPolicy(odb::ReadAheadPolicy::kAffinity);
        std::printf(
            "affinity prefetch installed: %zu page(s) with neighbors\n",
            (*source)->page_count());
      } else {
        report(source.status());
      }
    } else if (interactor() == nullptr) {
      std::puts("open a database first ('open lab')");
    } else if (cmd == "schema") {
      for (const std::string& row :
           interactor()->dag_view()->RenderLines()) {
        std::printf("%s\n", row.c_str());
      }
    } else if (cmd == "zoom") {
      std::string dir;
      in >> dir;
      report(dir == "in" ? interactor()->ZoomIn()
                         : interactor()->ZoomOut());
    } else if (cmd == "info") {
      std::string cls;
      in >> cls;
      report(interactor()->OpenClassInfo(cls));
    } else if (cmd == "def") {
      std::string cls;
      in >> cls;
      report(interactor()->OpenClassDefinition(cls));
    } else if (cmd == "objects") {
      std::string cls;
      in >> cls;
      report(interactor()->OpenObjectSet(cls).status());
    } else if (cmd == "next" || cmd == "prev" || cmd == "reset") {
      std::string cls;
      in >> cls;
      view::BrowseNode* node = need_set(cls);
      if (node == nullptr) continue;
      Status status = cmd == "next"   ? node->Next()
                      : cmd == "prev" ? node->Prev()
                                      : node->Reset();
      if (status.ok() && node->has_current()) {
        auto current = node->Current();
        std::printf("-> %s\n", current->value.ToString().c_str());
      } else {
        report(status);
      }
    } else if (cmd == "show") {
      std::string cls, format;
      in >> cls >> format;
      view::BrowseNode* node = need_set(cls);
      if (node != nullptr) report(node->ToggleFormat(format));
    } else if (cmd == "follow" || cmd == "followset") {
      std::string cls, member;
      in >> cls >> member;
      view::BrowseNode* node = need_set(cls);
      if (node == nullptr) continue;
      auto child = cmd == "follow" ? node->FollowReference(member)
                                   : node->FollowReferenceSet(member);
      report(child.status());
    } else if (cmd == "project") {
      std::string cls, attrs;
      in >> cls >> attrs;
      view::BrowseNode* node = need_set(cls);
      if (node == nullptr) continue;
      if (attrs.empty()) {
        report(node->ClearProjection());
      } else {
        std::vector<std::string> chosen = Split(attrs, ',');
        report(node->SetProjection(chosen));
      }
    } else if (cmd == "select") {
      std::string cls;
      in >> cls;
      std::string predicate;
      std::getline(in, predicate);
      report(interactor()->ApplyConditionBox(
          cls, std::string(StripWhitespace(predicate))));
    } else if (cmd == "join") {
      std::string left, right;
      in >> left >> right;
      std::string predicate;
      std::getline(in, predicate);
      auto join = interactor()->OpenJoinView(
          left, right, std::string(StripWhitespace(predicate)));
      if (join.ok()) {
        std::printf("%zu matching pairs\n", (*join)->pair_count());
      } else {
        report(join.status());
      }
    } else if (cmd == "explain") {
      std::string what;
      in >> what;
      bool analyze = false;
      if (what == "analyze") {
        analyze = true;
        in >> what;
      }
      std::string left, right;
      if (what == "select") {
        in >> left;
      } else if (what == "join") {
        in >> left >> right;
      } else {
        std::puts(
            "usage: explain [analyze] select <class> <pred>\n"
            "       explain [analyze] join <left> <right> <pred>");
        continue;
      }
      std::string predicate_text;
      std::getline(in, predicate_text);
      auto predicate =
          odb::ParsePredicate(StripWhitespace(predicate_text));
      if (!predicate.ok()) {
        report(predicate.status());
        continue;
      }
      auto explained =
          what == "select"
              ? db->ExplainSelect(left, *predicate, analyze)
              : db->ExplainJoin(left, right, *predicate, analyze);
      if (explained.ok()) {
        std::fputs(explained->RenderText().c_str(), stdout);
      } else {
        report(explained.status());
      }
    } else if (cmd == "versions") {
      std::string cls;
      in >> cls;
      view::BrowseNode* node = need_set(cls);
      if (node != nullptr) report(node->OpenVersionsWindow());
    } else if (cmd == "check") {
      auto issues = odb::CheckIntegrity(db.get());
      if (!issues.ok()) {
        report(issues.status());
      } else if (issues->empty()) {
        std::puts("no integrity issues");
      } else {
        for (const odb::IntegrityIssue& issue : *issues) {
          std::printf("  %s\n", issue.ToString().c_str());
        }
      }
    } else if (cmd == "stats") {
      report(app.OpenStatsWindow());
    } else if (cmd == "telemetry") {
      std::fputs(db->DumpTelemetry().c_str(), stdout);
    } else if (cmd == "journal") {
      std::fputs(obs::Journal::Global().RenderText().c_str(), stdout);
    } else if (cmd == "watchdog") {
      std::string sub;
      in >> sub;
      if (sub == "start") {
        int deadline_ms = 0;
        in >> deadline_ms;
        obs::WatchdogOptions options;
        if (deadline_ms > 0) {
          options.span_deadline = std::chrono::milliseconds(deadline_ms);
          options.hold_deadline = std::chrono::milliseconds(deadline_ms);
        }
        report(obs::Watchdog::Global().Start(options));
      } else if (sub == "stop") {
        obs::Watchdog::Global().Stop();
        std::puts("watchdog stopped");
      } else {
        std::fputs(obs::Watchdog::Global().StatusReport().c_str(), stdout);
      }
    } else if (cmd == "screen") {
      std::fputs(app.Screenshot().c_str(), stdout);
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  obs::TimeSeriesStore::Global().Stop();
  if (obs::AccessLog::Global().capturing()) {
    (void)obs::AccessLog::Global().StopCapture();
  }
  return 0;
}
