// OdeView benchmark binary: four single-client, closed-loop workloads
// over one seeded lab database, driven from outside through the public
// APIs of odeview, owl and odb. See README.md for what each workload
// exercises and how every metric is defined.
//
//   odeview_bench --workload browse|chase|query|edit --seed N
//                 --seconds S --trace 0|1 --dir RUN_DIR [--counts-only]
//
// The last line of standard output is one JSON object. With --trace 0
// its metrics are the end-to-end ones, with --trace 1 the per-layer
// ones; --counts-only prints the exact per-layer counts of a fixed
// number of ops plus a digest of the op sequence (determinism check).

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/status.h"
#include "common/threading.h"
#include "common/trace.h"
#include "dynlink/lab_modules.h"
#include "dynlink/linker.h"
#include "odb/buffer_pool.h"
#include "odb/database.h"
#include "odb/integrity.h"
#include "odb/labdb.h"
#include "odb/object_record.h"
#include "odb/predicate.h"
#include "odeview/app.h"
#include "odeview/browse_node.h"
#include "odeview/db_interactor.h"
#include "fast_window.h"

namespace ode::perfbench {
namespace {

using odb::Database;
using odb::ObjectBuffer;
using odb::Oid;

// --- Lab database shape (shared by every workload) ----------------------

constexpr int kEmployees = 20000;
constexpr int kDepartments = 400;
constexpr int kManagers = 400;
constexpr int kProjects = 1000;
constexpr int kDocuments = 200;
/// Big enough to hold the whole ~14.6 MB data file (browse only).
constexpr size_t kBrowsePoolPages = 8192;
constexpr uint64_t kTmpfsMagic = 0x01021994;

/// Taken at static-initialization time: setup_s is measured from
/// process start.
const uint64_t kProcessStartNs = obs::Tracing::NowNanos();

uint64_t NowNs() { return obs::Tracing::NowNanos(); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// splitmix64: every workload input is drawn from the --seed argument.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

/// FNV-1a over the op sequence and the answers it produced.
class Digest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Mix(const Oid& oid) {
    Mix(oid.cluster);
    Mix(oid.local);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// --- Counters read before and after each op -----------------------------

obs::Counter* Reg(const char* name) {
  return obs::Registry::Global().counter(name);
}

struct Counts {
  uint64_t nodes = 0;
  uint64_t rendered = 0;
  uint64_t dispatches = 0;
  uint64_t fetched = 0;
  uint64_t batch_records = 0;
  uint64_t pager_reads = 0;
  uint64_t pager_writes = 0;
  uint64_t pager_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_checkpoints = 0;
  uint64_t commit_wait_ns = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t link_loads = 0;
  uint64_t link_hits = 0;
  odb::BufferPool::Stats pool;

  void Accumulate(const Counts& after, const Counts& before) {
    nodes += after.nodes - before.nodes;
    rendered += after.rendered - before.rendered;
    dispatches += after.dispatches - before.dispatches;
    fetched += after.fetched - before.fetched;
    batch_records += after.batch_records - before.batch_records;
    pager_reads += after.pager_reads - before.pager_reads;
    pager_writes += after.pager_writes - before.pager_writes;
    pager_syncs += after.pager_syncs - before.pager_syncs;
    wal_bytes += after.wal_bytes - before.wal_bytes;
    wal_fsyncs += after.wal_fsyncs - before.wal_fsyncs;
    wal_checkpoints += after.wal_checkpoints - before.wal_checkpoints;
    commit_wait_ns += after.commit_wait_ns - before.commit_wait_ns;
    lock_wait_ns += after.lock_wait_ns - before.lock_wait_ns;
    link_loads += after.link_loads - before.link_loads;
    link_hits += after.link_hits - before.link_hits;
    pool.lookups += after.pool.lookups - before.pool.lookups;
    pool.hits += after.pool.hits - before.pool.hits;
    pool.misses += after.pool.misses - before.pool.misses;
    pool.evictions += after.pool.evictions - before.pool.evictions;
    pool.writebacks += after.pool.writebacks - before.pool.writebacks;
    pool.prefetches += after.pool.prefetches - before.pool.prefetches;
  }
};

// --- The database, the app and its windows --------------------------------

struct Env {
  std::string db_path;
  std::unique_ptr<Database> db;
  std::unique_ptr<view::OdeViewApp> app;
  view::DbInteractor* interactor = nullptr;
  /// Employee oids in ScanCluster order.
  std::vector<Oid> employees;
  /// Stored record bytes per employee local id.
  std::unordered_map<uint64_t, size_t> record_bytes;

  odb::Session* session() { return interactor->session(); }

  Counts Snapshot() {
    static obs::Counter* nodes = Reg("view.refresh.nodes");
    static obs::Counter* rendered = Reg("view.refresh.windows_rendered");
    static obs::Counter* dispatches = Reg("display.dispatch");
    static obs::Counter* fetched = Reg("db.objects.fetched");
    static obs::Counter* batch = Reg("heap.batch_records");
    static obs::Counter* reads = Reg("pager.file.reads");
    static obs::Counter* writes = Reg("pager.file.writes");
    static obs::Counter* syncs = Reg("pager.file.syncs");
    static obs::Counter* wal_bytes = Reg("wal.bytes.appended");
    static obs::Counter* fsyncs = Reg("wal.fsyncs");
    static obs::Counter* checkpoints = Reg("wal.checkpoints");
    static obs::Histogram* commit_wait =
        obs::Registry::Global().histogram("wal.commit.wait_ns");
    Counts c;
    c.nodes = nodes->value();
    c.rendered = rendered->value();
    c.dispatches = dispatches->value();
    c.fetched = fetched->value();
    c.batch_records = batch->value();
    c.pager_reads = reads->value();
    c.pager_writes = writes->value();
    c.pager_syncs = syncs->value();
    c.wal_bytes = wal_bytes->value();
    c.wal_fsyncs = fsyncs->value();
    c.wal_checkpoints = checkpoints->value();
    c.commit_wait_ns = commit_wait->sum();
    c.lock_wait_ns = session()->entry()->totals().Snapshot().lock_wait_ns;
    c.link_loads = interactor->linker()->stats().loads;
    c.link_hits = interactor->linker()->stats().cache_hits;
    c.pool = db->buffer_pool()->stats();
    return c;
  }

  /// Tears down the app before the database it borrows.
  void Close() {
    app.reset();
    interactor = nullptr;
    db.reset();
  }
};

Status BuildEnv(const std::string& dir, uint64_t seed, size_t pool_pages,
                Env* env) {
  env->db_path = dir + "/lab.odb";
  // Flush policy: WAL fsync off, a checkpoint per 4 MiB of log. The
  // files live in the checkout, usually on a disk file system where an
  // fsync times the device, not the program; every other part of the
  // write path (WAL appends, commits, checkpoints, page write-back)
  // runs as in the default policy.
  odb::DatabaseOptions build_options;
  build_options.wal_sync = false;
  ODE_ASSIGN_OR_RETURN(
      env->db, Database::CreateOnDisk(env->db_path, "lab", build_options));
  odb::LabDbConfig config;
  config.employees = kEmployees;
  config.departments = kDepartments;
  config.managers = kManagers;
  config.projects = kProjects;
  config.documents = kDocuments;
  config.seed = seed;
  ODE_RETURN_IF_ERROR(odb::BuildLabDatabase(env->db.get(), config));
  ODE_RETURN_IF_ERROR(env->db->Sync());
  env->db.reset();
  // Reopened (through WAL recovery) with the workload's pool size and
  // the same flush policy.
  odb::DatabaseOptions options = build_options;
  options.buffer_pool_pages = pool_pages;
  ODE_ASSIGN_OR_RETURN(env->db, Database::OpenOnDisk(env->db_path, options));
  ODE_ASSIGN_OR_RETURN(env->employees, env->db->ScanCluster("employee"));
  if (env->employees.size() != static_cast<size_t>(kEmployees)) {
    return Status::Internal("employee cluster has the wrong size");
  }
  odb::RawRecordBatch batch;
  uint64_t after = 0;
  while (true) {
    ODE_RETURN_IF_ERROR(
        env->db->ScanRawRecords("employee", after, 512, &batch));
    if (batch.records.empty()) break;
    for (const auto& span : batch.records) {
      env->record_bytes[span.local_id] = span.length;
      after = span.local_id;
    }
  }

  env->app = std::make_unique<view::OdeViewApp>(240, 100);
  ODE_RETURN_IF_ERROR(dynlink::RegisterLabDisplayModules(
      env->app->repository(), "lab", env->db->schema()));
  ODE_RETURN_IF_ERROR(env->app->AddDatabaseBorrowed(env->db.get()));
  ODE_RETURN_IF_ERROR(env->app->OpenInitialWindow());
  ODE_ASSIGN_OR_RETURN(env->interactor, env->app->OpenDatabase("lab"));
  return Status::OK();
}

const odb::Value* FieldOf(const ObjectBuffer& buffer, std::string_view name) {
  return buffer.value.FindField(name);
}

Oid RefOf(const ObjectBuffer& buffer, std::string_view name) {
  const odb::Value* v = FieldOf(buffer, name);
  return v != nullptr && v->kind() == odb::ValueKind::kRef ? v->AsRef()
                                                           : Oid::Null();
}

// --- Per-op hooks: timing, counters, trace ------------------------------

/// Layers timed from the traced run, as self (or total) time per op.
enum Layer : int {
  kNextSelf,         // BrowseNode::Next + view.sync_cascade, self
  kRenderSelf,       // display.render + dynlink.load, self
  kComposite,        // Server::Composite, total
  kSessionGet,       // Session::GetObject, total
  kSessionOverhead,  // Session::GetObject, self
  kUpdate,           // Session::UpdateObject, total
  kDbGetSelf,        // db.get_object, self
  kHeapSelf,         // heap.batch_read, self
  kPoolSelf,         // pool.fetch, self
  kPagerRead,        // pager.read, total
  kPagerWrite,       // pager.write, total
  kCheckpoint,       // db.checkpoint, total
  kLayerCount
};

struct SpanRule {
  const char* name;
  int self_layer;
  int total_layer;
};

constexpr SpanRule kSpanRules[] = {
    {"BrowseNode::Next", kNextSelf, -1},
    {"view.sync_cascade", kNextSelf, -1},
    {"display.render", kRenderSelf, -1},
    {"dynlink.load", kRenderSelf, -1},
    {"Server::Composite", -1, kComposite},
    {"Session::GetObject", kSessionOverhead, kSessionGet},
    {"Session::UpdateObject", -1, kUpdate},
    {"db.get_object", kDbGetSelf, -1},
    {"heap.batch_read", kHeapSelf, -1},
    {"pool.fetch", kPoolSelf, -1},
    {"pager.read", -1, kPagerRead},
    {"pager.write", -1, kPagerWrite},
    {"db.checkpoint", -1, kCheckpoint},
};

/// Adds one op's span self/total times to `layers`. Only the calling
/// thread's spans count: prefetch-thread work does not block the op.
/// A span's self time is its duration minus its direct children's
/// (depth + 1, nested in time on the same thread).
void ChargeSpans(std::vector<obs::TraceEvent> events, uint32_t thread,
                 std::array<uint64_t, kLayerCount>* layers) {
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&](const obs::TraceEvent& e) {
                                return e.thread_id != thread;
                              }),
               events.end());
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.depth < b.depth;
            });
  std::vector<int64_t> self(events.size());
  std::vector<size_t> open;  // indices of enclosing spans
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    self[i] = static_cast<int64_t>(e.duration_ns);
    while (!open.empty()) {
      const obs::TraceEvent& top = events[open.back()];
      if (top.depth < e.depth &&
          top.start_ns + top.duration_ns >= e.start_ns + e.duration_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth + 1 == e.depth) {
      self[open.back()] -= static_cast<int64_t>(e.duration_ns);
    }
    open.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    for (const SpanRule& rule : kSpanRules) {
      if (std::strcmp(rule.name, events[i].name) != 0) continue;
      if (rule.self_layer >= 0) {
        (*layers)[rule.self_layer] +=
            static_cast<uint64_t>(std::max<int64_t>(self[i], 0));
      }
      if (rule.total_layer >= 0) {
        (*layers)[rule.total_layer] += events[i].duration_ns;
      }
    }
  }
}

enum class Mode { kTimed, kCounted, kTraced };

/// Ops per second the sample arrays of a timed phase are sized for: an
/// op of 40 us, against 85 us or more per op for every workload but
/// chase (edit's mean). A faster program fills them early, and the phase
/// then ends before --seconds.
constexpr double kMaxOpsPerSecond = 25'000;

size_t SampleCapacity(double seconds) {
  return static_cast<size_t>(std::ceil(seconds * kMaxOpsPerSecond));
}

/// What the workloads call around the part of a step that is timed.
/// Everything a step does outside Begin()..End() — correctness checks,
/// installing the next predicate — is excluded from times and counts.
class Probe {
 public:
  /// Allocates and touches room for `capacity` ops up front, so the
  /// samples a phase records do not grow the process while it runs.
  Probe(Env* env, Mode mode, size_t capacity)
      : env_(env), mode_(mode), ops_(capacity), split_ns_(capacity) {}

  bool full() const { return size_ == ops_.size(); }

  void Begin() {
    if (mode_ == Mode::kTraced) obs::Tracing::Clear();
    if (mode_ == Mode::kCounted) before_ = env_->Snapshot();
    start_ = NowNs();
  }
  /// edit: the read ends and the write begins.
  void Split() { split_ = NowNs(); }
  void End(bool ok) {
    uint64_t end = NowNs();
    ++attempted_;
    if (!ok) ++failed_;
    OpSample& op = ops_[size_];
    op.start_us = static_cast<uint32_t>((start_ - phase_start_) / 1000);
    op.duration_ns = ok ? static_cast<uint32_t>(std::min<uint64_t>(
                              end - start_, OpSample::kFailedNs - 1))
                        : OpSample::kFailedNs;
    split_ns_[size_] = split_ == 0 ? 0 : static_cast<uint32_t>(split_ - start_);
    ++size_;
    split_ = 0;
    if (mode_ == Mode::kCounted) {
      // Settle the prefetch thread so its work is billed to this op.
      env_->db->buffer_pool()->WaitForPrefetches();
      counts_.Accumulate(env_->Snapshot(), before_);
    }
    if (mode_ == Mode::kTraced) {
      std::array<uint64_t, kLayerCount> layers{};
      ChargeSpans(obs::Tracing::SnapshotEvents(), CurrentThreadId(),
                  &layers);
      layers_.push_back(layers);
      dropped_ += obs::Tracing::DroppedCount();
      obs::Tracing::Clear();
    }
  }
  /// A check after End() found the op's answer wrong.
  void Wrong(const std::string& what) {
    if (size_ > 0 && !ops_[size_ - 1].failed()) {
      ops_[size_ - 1].duration_ns = OpSample::kFailedNs;
      ++failed_;
    }
    if (wrong_.empty()) wrong_ = what;
    ++wrong_count_;
  }
  /// Sets the last op's size in work units (records the cursor moved
  /// over); the fast-window rule compares windows per unit of work.
  void Work(uint64_t units) {
    if (size_ > 0) {
      ops_[size_ - 1].work = static_cast<uint32_t>(
          std::clamp<uint64_t>(units, 1, UINT32_MAX));
    }
  }
  /// Records a selection install (ns) outside the op series.
  void Apply(uint64_t ns) { applies_.push_back(ns); }
  void CountWrite(uint64_t record_bytes) {
    ++writes_done_;
    record_bytes_written_ += record_bytes;
  }
  void CountMatch() { ++matches_; }

  void StartPhase() { phase_start_ = NowNs(); }
  uint64_t phase_start() const { return phase_start_; }

  std::span<const OpSample> ops() const { return {ops_.data(), size_}; }
  /// edit: the read and the write part of each op, split at Split().
  void SplitSeries(std::vector<OpSample>* reads,
                   std::vector<OpSample>* writes) const {
    for (size_t i = 0; i < size_; ++i) {
      OpSample read = ops_[i], write = ops_[i];
      if (!read.failed()) {
        read.duration_ns = split_ns_[i];
        write.start_us += split_ns_[i] / 1000;
        write.duration_ns -= split_ns_[i];
      }
      reads->push_back(read);
      writes->push_back(write);
    }
  }
  const std::vector<std::array<uint64_t, kLayerCount>>& layers() const {
    return layers_;
  }
  const std::vector<uint64_t>& applies() const { return applies_; }
  const Counts& counts() const { return counts_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t wrong_count() const { return wrong_count_; }
  const std::string& wrong() const { return wrong_; }
  uint64_t writes_done() const { return writes_done_; }
  uint64_t record_bytes_written() const { return record_bytes_written_; }
  uint64_t matches() const { return matches_; }
  uint64_t dropped() const { return dropped_; }

 private:
  Env* env_;
  Mode mode_;
  uint64_t phase_start_ = 0;
  uint64_t start_ = 0;
  uint64_t split_ = 0;
  std::vector<OpSample> ops_;
  std::vector<uint32_t> split_ns_;
  size_t size_ = 0;
  std::vector<std::array<uint64_t, kLayerCount>> layers_;
  std::vector<uint64_t> applies_;
  Counts before_, counts_;
  uint64_t attempted_ = 0, failed_ = 0, wrong_count_ = 0;
  std::string wrong_;
  uint64_t writes_done_ = 0, record_bytes_written_ = 0, matches_ = 0;
  uint64_t dropped_ = 0;
};

// --- Workloads ------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t pool_pages() const { return 256; }
  /// Opens windows and precomputes expected answers (part of setup).
  virtual Status Prepare(Env* env, uint64_t seed) = 0;
  /// Ops run after Prepare as warm-up (part of setup).
  virtual int warmup_steps() const = 0;
  /// Ops in the fixed-length phase whose counts must repeat exactly.
  virtual int count_steps() const = 0;
  /// One closed-loop step; times its op through `probe`.
  virtual void Step(Probe* probe) = 0;
  /// Checks after the timed phases; may close and reopen the database.
  virtual Status Finish(Env* env) {
    (void)env;
    return Status::OK();
  }
  uint64_t digest() const { return digest_.value(); }

 protected:
  Digest digest_;
};

/// browse: `next` on the employee object set with the §4.4 window
/// network open, then a screen composite. Pool holds the whole database.
class BrowseWorkload final : public Workload {
 public:
  size_t pool_pages() const override { return kBrowsePoolPages; }
  int warmup_steps() const override { return warmup_; }
  int count_steps() const override { return 2000; }

  Status Prepare(Env* env, uint64_t seed) override {
    env_ = env;
    ODE_ASSIGN_OR_RETURN(root_, env->interactor->OpenObjectSet("employee"));
    ODE_RETURN_IF_ERROR(root_->Next());
    ODE_RETURN_IF_ERROR(root_->ToggleFormat("text"));
    ODE_RETURN_IF_ERROR(root_->ToggleFormat("picture"));
    ODE_ASSIGN_OR_RETURN(dept_, root_->FollowReference("dept"));
    ODE_RETURN_IF_ERROR(dept_->ToggleFormat("text"));
    ODE_ASSIGN_OR_RETURN(boss_, root_->FollowReference("boss"));
    ODE_RETURN_IF_ERROR(boss_->ToggleFormat("text"));
    ODE_RETURN_IF_ERROR(dept_->FollowReference("head").status());
    ODE_RETURN_IF_ERROR(dept_->FollowReferenceSet("employees").status());
    ODE_RETURN_IF_ERROR(dept_->FollowReferenceSet("projects").status());
    ODE_RETURN_IF_ERROR(root_->Reset());
    shown_ = -1;
    // The seed shifts where in the cluster the measured presses start,
    // within a range small enough to keep set-up time seed-independent.
    Rng rng(seed ^ 0xb505e);
    warmup_ = 1000 + static_cast<int>(rng.Below(256));
    return Status::OK();
  }

  void Step(Probe* probe) override {
    bool reset = false;
    probe->Begin();
    Status status;
    {
      obs::TraceSpan span("BrowseNode::Next");
      status = root_->Next();
    }
    if (status.IsOutOfRange()) {
      reset = true;
      obs::TraceSpan span("BrowseNode::Next");
      status = root_->Reset();
    }
    {
      obs::TraceSpan span("Server::Composite");
      owl::Framebuffer screen = env_->app->server()->Composite();
      screen_width_ = screen.width();
    }
    probe->End(status.ok() && screen_width_ > 0);
    if (!status.ok()) {
      probe->Wrong("browse: " + status.ToString());
      return;
    }
    Check(probe, reset);
  }

 private:
  void Check(Probe* probe, bool reset) {
    if (reset) {
      if (shown_ != kEmployees - 1) probe->Wrong("browse: early cluster end");
      shown_ = -1;
      if (root_->has_current()) probe->Wrong("browse: reset kept an object");
      return;
    }
    ++shown_;
    Result<ObjectBuffer> root = root_->Current();
    if (!root.ok() || shown_ >= kEmployees ||
        root->oid != env_->employees[static_cast<size_t>(shown_)]) {
      probe->Wrong("browse: shown oid leaves ScanCluster order");
      return;
    }
    Result<ObjectBuffer> dept = dept_->Current();
    Result<ObjectBuffer> boss = boss_->Current();
    if (!dept.ok() || dept->oid != RefOf(*root, "dept") ||
        dept->class_name != "department") {
      probe->Wrong("browse: dept window does not show the referenced dept");
    }
    if (!boss.ok() || boss->oid != RefOf(*root, "boss") ||
        boss->class_name != "manager") {
      probe->Wrong("browse: boss window does not show the referenced boss");
    }
    digest_.Mix(root->oid);
    if (dept.ok()) digest_.Mix(dept->oid);
  }

  Env* env_ = nullptr;
  view::BrowseNode* root_ = nullptr;
  view::BrowseNode* dept_ = nullptr;
  view::BrowseNode* boss_ = nullptr;
  int shown_ = -1;
  int warmup_ = 500;
  int screen_width_ = 0;
};

/// chase: a five-hop reference chain through Session::GetObject with a
/// pool ~14x smaller than the data. The view is bypassed.
class ChaseWorkload final : public Workload {
 public:
  int warmup_steps() const override { return 2000; }
  int count_steps() const override { return 5000; }

  Status Prepare(Env* env, uint64_t seed) override {
    session_ = env->session();
    Rng rng(seed ^ 0xc4a5e);
    chains_.resize(kChains);
    for (Chain& chain : chains_) {
      Oid e = env->employees[rng.Below(env->employees.size())];
      ODE_ASSIGN_OR_RETURN(ObjectBuffer employee, env->db->GetObject(e));
      ODE_ASSIGN_OR_RETURN(ObjectBuffer dept,
                           env->db->GetObject(RefOf(employee, "dept")));
      ODE_ASSIGN_OR_RETURN(ObjectBuffer head,
                           env->db->GetObject(RefOf(dept, "head")));
      const odb::Value* projects = FieldOf(dept, "projects");
      if (projects == nullptr || projects->elements().empty()) {
        return Status::Internal("department without projects");
      }
      chain.project_index = rng.Below(projects->elements().size());
      ODE_ASSIGN_OR_RETURN(
          ObjectBuffer project,
          env->db->GetObject(
              projects->elements()[chain.project_index].AsRef()));
      ODE_ASSIGN_OR_RETURN(ObjectBuffer lead,
                           env->db->GetObject(RefOf(project, "lead")));
      const ObjectBuffer* hops[kHops] = {&employee, &dept, &head, &project,
                                         &lead};
      for (int h = 0; h < kHops; ++h) {
        chain.oids[h] = hops[h]->oid;
        chain.classes[h] = hops[h]->class_name;
      }
    }
    return Status::OK();
  }

  void Step(Probe* probe) override {
    const Chain& chain = chains_[next_++ % chains_.size()];
    Oid got[kHops];
    std::string got_class[kHops];
    bool ok = true;
    probe->Begin();
    Oid target = chain.oids[0];
    Oid project;
    for (int h = 0; h < kHops && ok; ++h) {
      Result<ObjectBuffer> buffer = Status::Internal("unset");
      {
        obs::TraceSpan span("Session::GetObject");
        buffer = session_->GetObject(target);
      }
      if (!buffer.ok()) {
        ok = false;
        break;
      }
      got[h] = buffer->oid;
      got_class[h].swap(buffer->class_name);
      switch (h) {
        case 0: target = RefOf(*buffer, "dept"); break;
        case 1: {
          const odb::Value* projects = FieldOf(*buffer, "projects");
          project = projects != nullptr &&
                            chain.project_index < projects->elements().size()
                        ? projects->elements()[chain.project_index].AsRef()
                        : Oid::Null();
          target = RefOf(*buffer, "head");
          break;
        }
        case 2: target = project; break;
        case 3: target = RefOf(*buffer, "lead"); break;
        default: break;
      }
    }
    probe->End(ok);
    if (!ok) {
      probe->Wrong("chase: a hop failed");
      return;
    }
    for (int h = 0; h < kHops; ++h) {
      if (got[h] != chain.oids[h] || got_class[h] != chain.classes[h]) {
        probe->Wrong("chase: hop " + std::to_string(h) +
                     " returned the wrong object");
        return;
      }
      digest_.Mix(got[h]);
    }
  }

 private:
  static constexpr int kHops = 5;
  static constexpr size_t kChains = 4096;
  struct Chain {
    Oid oids[kHops];
    std::string classes[kHops];
    size_t project_index = 0;
  };
  odb::Session* session_ = nullptr;
  std::vector<Chain> chains_;
  size_t next_ = 0;
};

/// query: `next` under a §5.2 selection (age == k && salary > s, about
/// 0.5% of employees); a fresh predicate at each cluster end.
class QueryWorkload final : public Workload {
 public:
  int warmup_steps() const override { return 300; }
  int count_steps() const override { return 2000; }

  Status Prepare(Env* env, uint64_t seed) override {
    env_ = env;
    for (size_t i = 0; i < env->employees.size(); ++i) {
      scan_index_[env->employees[i].local] = static_cast<int64_t>(i);
    }
    // One predicate per age, in a seed-chosen order, so every run
    // covers the whole predicate space and only the order and the
    // salary cut-offs depend on the seed.
    Rng rng(seed ^ 0x9e4e);
    std::vector<int> ages;
    for (int age = 25; age < 65; ++age) ages.push_back(age);
    for (size_t i = ages.size() - 1; i > 0; --i) {
      std::swap(ages[i], ages[rng.Below(i + 1)]);
    }
    for (int age : ages) {
      int salary = 120000 + static_cast<int>(rng.Below(4000));
      Selection p;
      p.text = "age == " + std::to_string(age) +
               " && salary > " + std::to_string(salary);
      ODE_ASSIGN_OR_RETURN(odb::Predicate parsed,
                           odb::ParsePredicate(p.text));
      // Cross-check source: the batched executor.
      ODE_ASSIGN_OR_RETURN(p.expected,
                           env->session()->Select("employee", parsed));
      predicates_.push_back(std::move(p));
    }
    ODE_ASSIGN_OR_RETURN(root_, env->interactor->OpenObjectSet("employee"));
    ODE_RETURN_IF_ERROR(root_->ToggleFormat("text"));
    next_predicate_ = 0;
    return Install(nullptr);
  }

  void Step(Probe* probe) override {
    probe->Begin();
    Status status;
    {
      obs::TraceSpan span("BrowseNode::Next");
      status = root_->Next();
    }
    probe->End(status.ok() || status.IsOutOfRange());
    if (status.ok()) {
      Result<ObjectBuffer> shown = root_->Current();
      auto at = shown.ok() ? scan_index_.find(shown->oid.local)
                           : scan_index_.end();
      if (at == scan_index_.end() || at->second <= position_) {
        probe->Wrong("query: next did not move forward");
        return;
      }
      probe->Work(static_cast<uint64_t>(at->second - position_));
      position_ = at->second;
      got_.push_back(shown->oid);
      probe->CountMatch();
      return;
    }
    probe->Work(static_cast<uint64_t>(
        std::max<int64_t>(kEmployees - 1 - position_, 1)));
    if (!status.IsOutOfRange()) {
      probe->Wrong("query: " + status.ToString());
      return;
    }
    const Selection& done = predicates_[current_];
    if (got_ != done.expected) {
      probe->Wrong("query: pass for '" + done.text + "' yielded " +
                   std::to_string(got_.size()) + " ids, Select returned " +
                   std::to_string(done.expected.size()));
    }
    for (const Oid& oid : got_) digest_.Mix(oid);
    Status installed = Install(probe);
    if (!installed.ok()) probe->Wrong("query: " + installed.ToString());
  }

 private:
  /// A condition-box text and the ids the batched executor selects.
  struct Selection {
    std::string text;
    std::vector<Oid> expected;
  };
  Status Install(Probe* probe) {
    current_ = next_predicate_++ % predicates_.size();
    got_.clear();
    position_ = -1;
    digest_.Mix(current_);
    uint64_t start = NowNs();
    Status status;
    {
      obs::TraceSpan span("DbInteractor::ApplyConditionBox");
      status = env_->interactor->ApplyConditionBox(
          "employee", predicates_[current_].text);
    }
    if (probe != nullptr) probe->Apply(NowNs() - start);
    return status;
  }

  Env* env_ = nullptr;
  view::BrowseNode* root_ = nullptr;
  std::vector<Selection> predicates_;
  size_t next_predicate_ = 0;
  size_t current_ = 0;
  std::vector<Oid> got_;
  /// Employee local id -> position in ScanCluster order; a press's
  /// work is how far it moved the cursor.
  std::unordered_map<uint64_t, int64_t> scan_index_;
  int64_t position_ = -1;
};

/// edit: `next` on the employee object set, then a salary update of a
/// seed-chosen employee (GetObject + UpdateObject through the session).
class EditWorkload final : public Workload {
 public:
  int warmup_steps() const override { return 300; }
  int count_steps() const override { return 2000; }

  Status Prepare(Env* env, uint64_t seed) override {
    env_ = env;
    rng_.emplace(seed ^ 0xed17);
    last_salary_.assign(env->employees.size(), 0);
    ODE_ASSIGN_OR_RETURN(root_, env->interactor->OpenObjectSet("employee"));
    ODE_RETURN_IF_ERROR(root_->ToggleFormat("text"));
    return Status::OK();
  }

  void Step(Probe* probe) override {
    size_t index = rng_->Below(env_->employees.size());
    Oid target = env_->employees[index];
    // Quarter-dollar steps keep every written salary distinct from the
    // generator's whole-dollar ones.
    double salary = 50000.0 + static_cast<double>(rng_->Below(360000)) / 4;
    bool ok = true;
    probe->Begin();
    Status status;
    {
      obs::TraceSpan span("BrowseNode::Next");
      status = root_->Next();
      if (status.IsOutOfRange()) status = root_->Reset();
    }
    ok = status.ok();
    probe->Split();
    Result<ObjectBuffer> buffer = Status::Internal("unset");
    {
      obs::TraceSpan span("Session::GetObject");
      buffer = env_->session()->GetObject(target);
    }
    if (buffer.ok()) {
      *buffer->value.FindMutableField("salary") = odb::Value::Real(salary);
      obs::TraceSpan span("Session::UpdateObject");
      status = env_->session()->UpdateObject(target, std::move(buffer->value));
    } else {
      status = buffer.status();
    }
    ok = ok && status.ok();
    probe->End(ok);
    if (!ok) {
      probe->Wrong("edit: " + status.ToString());
      return;
    }
    probe->CountWrite(env_->record_bytes[target.local]);
    Result<ObjectBuffer> back = env_->session()->GetObject(target);
    const odb::Value* stored =
        back.ok() ? FieldOf(*back, "salary") : nullptr;
    if (stored == nullptr || stored->kind() != odb::ValueKind::kReal ||
        stored->AsReal() != salary) {
      probe->Wrong("edit: salary write did not read back");
      return;
    }
    last_salary_[index] = salary;
    digest_.Mix(target);
    digest_.Mix(static_cast<uint64_t>(salary * 4));
  }

  /// Closes the database, reopens it through WAL recovery, and checks
  /// integrity plus every last-written salary.
  Status Finish(Env* env) override {
    std::string path = env->db_path;
    env->Close();
    ODE_ASSIGN_OR_RETURN(env->db, Database::OpenOnDisk(path));
    ODE_ASSIGN_OR_RETURN(std::vector<odb::IntegrityIssue> issues,
                         odb::CheckIntegrity(env->db.get()));
    if (!issues.empty()) {
      return Status::Corruption("integrity check after reopen: " +
                                issues.front().ToString());
    }
    size_t written = 0;
    for (size_t i = 0; i < last_salary_.size(); ++i) {
      if (last_salary_[i] == 0) continue;
      ++written;
      Oid oid = env->employees[i];
      ODE_ASSIGN_OR_RETURN(ObjectBuffer buffer, env->db->GetObject(oid));
      const odb::Value* stored = FieldOf(buffer, "salary");
      if (stored == nullptr || stored->AsReal() != last_salary_[i]) {
        return Status::Corruption("salary of " + oid.ToString() +
                                  " lost across reopen");
      }
    }
    std::printf("edit: reopened through WAL recovery; integrity ok; %zu "
                "last-written salaries present\n",
                written);
    return Status::OK();
  }

 private:
  Env* env_ = nullptr;
  std::optional<Rng> rng_;
  view::BrowseNode* root_ = nullptr;
  /// Last salary written per employee (ScanCluster index); 0: never.
  /// Sized at set-up, so the timed phase does not grow it.
  std::vector<double> last_salary_;
};

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "browse") return std::make_unique<BrowseWorkload>();
  if (name == "chase") return std::make_unique<ChaseWorkload>();
  if (name == "query") return std::make_unique<QueryWorkload>();
  if (name == "edit") return std::make_unique<EditWorkload>();
  return nullptr;
}

// --- Phases -----------------------------------------------------------------

void RunSteps(Workload* workload, Probe* probe) {
  probe->StartPhase();
  while (!probe->full()) workload->Step(probe);
}

/// Runs steps for `seconds`, or until the probe's sample arrays are
/// full; prints how long the phase ran.
void RunFor(Workload* workload, Probe* probe, double seconds,
            const char* phase) {
  probe->StartPhase();
  uint64_t end = probe->phase_start() + static_cast<uint64_t>(seconds * 1e9);
  while (!probe->full() && NowNs() < end) workload->Step(probe);
  std::printf("%s: %llu ops in %.3f s%s\n", phase,
              static_cast<unsigned long long>(probe->attempted()),
              (NowNs() - probe->phase_start()) / 1e9,
              probe->full() ? " (sample arrays full)" : "");
}

/// The database, app, windows and warm-up in `dir`.
Status SetUp(const std::string& dir, uint64_t seed, Env* env,
             Workload* workload) {
  std::filesystem::create_directories(dir);
  uint64_t t0 = NowNs();
  ODE_RETURN_IF_ERROR(BuildEnv(dir, seed, workload->pool_pages(), env));
  uint64_t t1 = NowNs();
  ODE_RETURN_IF_ERROR(workload->Prepare(env, seed));
  uint64_t t2 = NowNs();
  Probe warmup(env, Mode::kTimed, workload->warmup_steps());
  RunSteps(workload, &warmup);
  if (warmup.wrong_count() > 0) {
    return Status::Internal("warm-up: " + warmup.wrong());
  }
  env->db->buffer_pool()->WaitForPrefetches();
  uint64_t t3 = NowNs();
  std::printf("set-up: database and app %.3f s, windows and expected "
              "answers %.3f s, warm-up %.3f s\n",
              (t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9);
  return Status::OK();
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics,
               const std::string& extra = "") {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}%s}\n", extra.c_str());
  std::fflush(stdout);
}

double PerOp(uint64_t total, uint64_t ops) {
  return ops == 0 ? 0 : static_cast<double>(total) / ops;
}

std::vector<Metric> CountMetrics(const Probe& counted) {
  const Counts& c = counted.counts();
  uint64_t ops = counted.attempted();
  uint64_t writes = counted.writes_done();
  std::vector<Metric> m = {
      {"odeview.nodes_refreshed", PerOp(c.nodes, ops), "count"},
      {"odeview.windows_rendered", PerOp(c.rendered, ops), "count"},
      {"dynlink.dispatches", PerOp(c.dispatches, ops), "count"},
      {"dynlink.link_hit_ratio",
       PerOp(c.link_hits, c.link_hits + c.link_loads), "ratio"},
      {"odb.objects_fetched", PerOp(c.fetched, ops), "count"},
      {"odb.heap.records_read", PerOp(c.batch_records, ops), "count"},
      {"odb.heap.records_examined_per_match",
       PerOp(c.batch_records, counted.matches()), "count"},
      {"odb.pool.lookups", PerOp(c.pool.lookups, ops), "count"},
      {"odb.pool.misses", PerOp(c.pool.misses, ops), "count"},
      {"odb.pool.hit_ratio", PerOp(c.pool.hits, c.pool.lookups), "ratio"},
      {"odb.pool.evictions", PerOp(c.pool.evictions, ops), "count"},
      {"odb.pool.writebacks", PerOp(c.pool.writebacks, ops), "count"},
      {"odb.pool.prefetches", PerOp(c.pool.prefetches, ops), "count"},
      {"odb.pager.reads", PerOp(c.pager_reads, ops), "count"},
      {"odb.pager.writes", PerOp(c.pager_writes, ops), "count"},
      {"odb.pager.syncs", PerOp(c.pager_syncs, ops), "count"},
      {"odb.wal.bytes_per_write", PerOp(c.wal_bytes, writes), "bytes"},
      {"odb.wal.fsyncs_per_write", PerOp(c.wal_fsyncs, writes), "count"},
      {"odb.wal.checkpoints_per_1k_writes",
       PerOp(c.wal_checkpoints * 1000, writes), "count"},
      {"odb.wal.commit_wait_us", PerOp(c.commit_wait_ns, writes) / 1e3,
       "us"},
      {"odb.wal.write_amp",
       PerOp(c.wal_bytes + c.pager_writes * odb::kPageSize,
             counted.record_bytes_written()),
       "ratio"},
      {"common.lock_wait_us", PerOp(c.lock_wait_ns, ops) / 1e3, "us"},
  };
  return m;
}

/// Untraced probes for the rungs under a microsecond (ROADMAP item 1's
/// ladder), on the workload's own objects. Each is the median of 15
/// batch means.
std::vector<Metric> LadderMetrics(Env* env) {
  auto median_ns = [](auto&& body, int per_batch) {
    std::vector<double> batches;
    for (int b = 0; b < 15; ++b) {
      uint64_t start = NowNs();
      for (int i = 0; i < per_batch; ++i) body();
      batches.push_back(static_cast<double>(NowNs() - start) / per_batch);
    }
    return Median(std::move(batches));
  };
  Oid oid = env->employees.front();
  odb::BufferPool* pool = env->db->buffer_pool();
  odb::PageId page = odb::kNoPage;
  if (auto placements = env->db->ClusterPlacements("employee");
      placements.ok() && !placements->empty()) {
    page = placements->front().page;
  }
  odb::RawRecordBatch raw;
  (void)env->db->ScanRawRecords("employee", 0, 64, &raw);
  size_t sink = 0;
  double hit_ns = median_ns(
      [&] {
        Result<odb::PageHandle> handle = pool->Fetch(page);
        sink += handle.ok() ? 1 : 0;
      },
      2000);
  double decode_ns = 0;
  if (!raw.records.empty()) {
    decode_ns = median_ns(
                    [&] {
                      for (const auto& span : raw.records) {
                        auto record = odb::DecodeObjectRecord(raw.bytes(span));
                        sink += record.ok() ? 1 : 0;
                      }
                    },
                    20) /
                raw.records.size();
  }
  double db_get_ns = median_ns(
      [&] { sink += env->db->GetObject(oid).ok() ? 1 : 0; }, 2000);
  double session_get_ns = median_ns(
      [&] { sink += env->session()->GetObject(oid).ok() ? 1 : 0; }, 2000);
  if (sink == 0) std::printf("ladder probes failed\n");
  return {
      {"odb.pool.hit_ns", hit_ns, "ns"},
      {"odb.record.decode_ns", decode_ns, "ns"},
      {"odb.db_get_ns", db_get_ns, "ns"},
      {"odb.session_get_ns", session_get_ns, "ns"},
  };
}

std::vector<Metric> TracedMetrics(const Probe& traced,
                                  const FastWindowStats& untraced) {
  FastWindowStats stats = ComputeFastWindowStats(traced.ops());
  std::array<double, kLayerCount> mean{};
  size_t fast = 0;
  for (size_t i = 0; i < traced.layers().size(); ++i) {
    if (!stats.fast[i]) continue;
    ++fast;
    for (int l = 0; l < kLayerCount; ++l) mean[l] += traced.layers()[i][l];
  }
  for (double& v : mean) v = fast == 0 ? 0 : v / fast / 1e3;  // us per op
  double apply_us = 0;
  if (!traced.applies().empty()) {
    std::vector<double> applies(traced.applies().begin(),
                                traced.applies().end());
    apply_us = Median(std::move(applies)) / 1e3;
  }
  return {
      {"odeview.next_self_us", mean[kNextSelf], "us"},
      {"odeview.select_apply_us", apply_us, "us"},
      {"dynlink.render_self_us", mean[kRenderSelf], "us"},
      {"owl.composite_us", mean[kComposite], "us"},
      {"odb.session_get_us", mean[kSessionGet], "us"},
      {"odb.session_overhead_us", mean[kSessionOverhead], "us"},
      {"odb.update_us", mean[kUpdate], "us"},
      {"odb.db_get_self_us", mean[kDbGetSelf], "us"},
      {"odb.heap.batch_self_us", mean[kHeapSelf], "us"},
      {"odb.pool.fetch_self_us", mean[kPoolSelf], "us"},
      {"odb.pager.read_us", mean[kPagerRead], "us"},
      {"odb.pager.write_us", mean[kPagerWrite], "us"},
      {"odb.wal.checkpoint_us", mean[kCheckpoint], "us"},
      {"common.trace_overhead",
       untraced.p50_us == 0 ? 0 : stats.p50_us / untraced.p50_us, "ratio"},
      {"common.trace_dropped", static_cast<double>(traced.dropped()),
       "count"},
  };
}

/// Fewest fast-window ops the gated percentiles may rest on: p99 needs
/// ten samples beyond it. A run with fewer is marked incorrect.
constexpr size_t kMinFastOps = 1000;

void PrintSeries(const char* label, const FastWindowStats& s) {
  std::printf("%-5s p50 %9.3f us, p99 %9.3f us (n=%zu ops in fast windows, "
              "of %zu)  | unfiltered p50 %9.3f us, p99 %9.3f us\n",
              label, s.p50_us, s.p99_us, s.fast_ops, s.ops, s.plain_p50_us,
              s.plain_p99_us);
}

// --- Main -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  bool counts_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--counts-only") {
      args->counts_only = true;
    } else if (a == "--workload" && (v = value())) {
      args->workload = v;
    } else if (a == "--seed" && (v = value())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      args->trace = std::string_view(v) == "1";
    } else if (a == "--dir" && (v = value())) {
      args->dir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->dir.empty() &&
         args->seconds > 0 && MakeWorkload(args->workload) != nullptr;
}

/// Removes the run directory on every exit path out of Run().
class RunDirGuard {
 public:
  explicit RunDirGuard(std::string dir) : dir_(std::move(dir)) {}
  ~RunDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  RunDirGuard(const RunDirGuard&) = delete;
  RunDirGuard& operator=(const RunDirGuard&) = delete;

 private:
  std::string dir_;
};

double LiveObjects(Database* db) {
  uint64_t total = 0;
  for (const char* cls :
       {"employee", "department", "manager", "project", "document"}) {
    Result<uint64_t> n = db->ClusterCount(cls);
    if (n.ok()) total += *n;
  }
  return static_cast<double>(total);
}

int Run(const Args& args) {
  RunDirGuard guard(args.dir);
  std::filesystem::create_directories(args.dir);
  struct statfs fs {};
  bool tmpfs = statfs(args.dir.c_str(), &fs) == 0 &&
               static_cast<uint64_t>(fs.f_type) == kTmpfsMagic;
  std::printf("workload=%s seed=%llu seconds=%g trace=%d storage=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0,
              tmpfs ? "tmpfs" : "not tmpfs");

  auto env = std::make_unique<Env>();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  // The timed phase's samples are allocated before set-up, at a size
  // fixed by --seconds: peak_rss_mb counts them as the same constant on
  // every run and moves only with the program's own memory.
  std::optional<Probe> timed;
  if (!args.trace && !args.counts_only) {
    timed.emplace(env.get(), Mode::kTimed, SampleCapacity(args.seconds));
  }
  Status status = SetUp(args.dir, args.seed, env.get(), workload.get());
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }
  double setup_s = static_cast<double>(NowNs() - kProcessStartNs) / 1e9;
  double setup_rss_mb = PeakRssMb();

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  auto tally = [&](const Probe& p, const char* phase) {
    attempted += p.attempted();
    failed += p.failed();
    if (p.wrong_count() > 0) {
      correct = false;
      std::printf("%s: %llu wrong answers; first: %s\n", phase,
                  static_cast<unsigned long long>(p.wrong_count()),
                  p.wrong().c_str());
    }
  };

  if (args.counts_only) {
    Probe counted(env.get(), Mode::kCounted, workload->count_steps());
    RunSteps(workload.get(), &counted);
    tally(counted, "count phase");
    std::vector<Metric> m = CountMetrics(counted);
    char digest[64];
    std::snprintf(digest, sizeof(digest), ", \"op_digest\": \"%016llx\"",
                  static_cast<unsigned long long>(workload->digest()));
    env->Close();
    PrintJson(correct && failed == 0, attempted, failed, m, digest);
    return 0;
  }

  std::vector<Metric> metrics;
  FastWindowStats headline;
  double cpu_us_per_op = 0;
  double peak_rss_mb = 0;
  if (args.trace) {
    Probe counted(env.get(), Mode::kCounted, workload->count_steps());
    RunSteps(workload.get(), &counted);
    tally(counted, "count phase");
    metrics = CountMetrics(counted);

    Probe untraced(env.get(), Mode::kTimed, SampleCapacity(args.seconds / 2));
    double cpu0 = CpuSeconds();
    RunFor(workload.get(), &untraced, args.seconds / 2, "untraced phase");
    cpu_us_per_op = PerOp(static_cast<uint64_t>((CpuSeconds() - cpu0) * 1e9),
                          untraced.attempted()) / 1e3;
    tally(untraced, "untraced phase");
    headline = ComputeFastWindowStats(untraced.ops());

    obs::Tracing::Clear();
    obs::Tracing::Enable();
    Probe traced(env.get(), Mode::kTraced, SampleCapacity(args.seconds / 2));
    RunFor(workload.get(), &traced, args.seconds / 2, "traced phase");
    obs::Tracing::Disable();
    obs::Tracing::Clear();
    tally(traced, "traced phase");
    std::vector<Metric> times = TracedMetrics(traced, headline);
    metrics.insert(metrics.end(), times.begin(), times.end());
    if (traced.dropped() != 0) {
      correct = false;
      std::printf("trace ring overflowed: %llu events dropped\n",
                  static_cast<unsigned long long>(traced.dropped()));
    }
    std::vector<Metric> ladder = LadderMetrics(env.get());
    metrics.insert(metrics.end(), ladder.begin(), ladder.end());
    uint64_t bytes = 0;
    for (const auto& [id, len] : env->record_bytes) bytes += len;
    metrics.push_back({"odb.record.bytes",
                       PerOp(bytes, env->record_bytes.size()), "bytes"});
    metrics.push_back({"common.proc_cpu_us", cpu_us_per_op, "us"});
    metrics.push_back({"common.host_fast_share", headline.fast_share(),
                       "ratio"});
  } else {
    double cpu0 = CpuSeconds();
    RunFor(workload.get(), &*timed, args.seconds, "timed phase");
    cpu_us_per_op = PerOp(static_cast<uint64_t>((CpuSeconds() - cpu0) * 1e9),
                          timed->attempted()) / 1e3;
    // After the last timed op; before the checks and the statistics,
    // whose scratch memory is the benchmark's own.
    peak_rss_mb = PeakRssMb();
    std::printf("peak RSS: %.3f MB after set-up, %.3f MB after the timed "
                "phase\n",
                setup_rss_mb, peak_rss_mb);
    tally(*timed, "timed phase");
    headline = ComputeFastWindowStats(timed->ops());
    PrintSeries("op", headline);
    if (args.workload == "edit") {
      std::vector<OpSample> reads, writes;
      timed->SplitSeries(&reads, &writes);
      PrintSeries("read", ComputeFastWindowStats(reads));
      PrintSeries("write", ComputeFastWindowStats(writes));
    }
    if (headline.fast_ops < kMinFastOps) {
      correct = false;
      std::printf("too few ops in fast windows: %zu (at least %zu)\n",
                  headline.fast_ops, kMinFastOps);
    }
    metrics = {
        {"op_p50_us", headline.p50_us, "us"},
        {"op_p99_us", headline.p99_us, "us"},
        {"setup_s", setup_s, "s"},
    };
  }
  std::printf("host: common.host_fast_share %.3f (%zu of %zu windows)  "
              "common.proc_cpu_us %.3f per op\n",
              headline.fast_share(), headline.fast_windows, headline.windows,
              cpu_us_per_op);
  std::printf("setup_s %.3f\n", setup_s);

  Status finished = workload->Finish(env.get());
  if (!finished.ok()) {
    correct = false;
    std::printf("final check failed: %s\n", finished.ToString().c_str());
  }
  double stored_bytes = 0;
  if (env->db != nullptr && env->db->Sync().ok()) {
    struct stat st {};
    if (stat(env->db_path.c_str(), &st) == 0) {
      stored_bytes =
          static_cast<double>(st.st_size) / LiveObjects(env->db.get());
    }
  }
  if (stored_bytes <= 0) {
    correct = false;
    std::printf("could not measure stored bytes\n");
  }
  env->Close();

  std::printf("error_ratio %.6f (%llu failed of %llu attempted)\n",
              PerOp(failed, attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!args.trace) {
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics.push_back({"stored_bytes_per_object", stored_bytes, "bytes"});
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintJson(correct && failed == 0, attempted, failed, metrics);
  return correct && failed == 0 ? 0 : 3;
}

}  // namespace
}  // namespace ode::perfbench

int main(int argc, char** argv) {
  ode::perfbench::Args args;
  if (!ode::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: odeview_bench --workload browse|chase|query|edit "
                 "--seed N --seconds S --trace 0|1 --dir RUN_DIR "
                 "[--counts-only]\n");
    return 2;
  }
  return ode::perfbench::Run(args);
}
