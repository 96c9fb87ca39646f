#include "odb/database.h"

#include <algorithm>
#include <limits>

#include "common/coding.h"
#include "common/journal.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/trace.h"
#include "odb/ddl_parser.h"
#include "odb/exec/executor.h"
#include "odb/exec/explain.h"
#include "odb/object_record.h"
#include "odb/typecheck.h"
#include "odb/value_codec.h"

namespace ode::odb {

namespace {

// Object-manager instruments. Sessions may outlive their database (UI
// teardown order), so the session gauge lives in the leaked global
// registry rather than on the Database.
obs::Counter& ObjectsCreated() {
  static obs::Counter* c =
      obs::Registry::Global().counter("db.objects.created");
  return *c;
}
obs::Counter& ObjectsFetched() {
  static obs::Counter* c =
      obs::Registry::Global().counter("db.objects.fetched");
  return *c;
}
obs::Counter& ObjectsUpdated() {
  static obs::Counter* c =
      obs::Registry::Global().counter("db.objects.updated");
  return *c;
}
obs::Counter& ObjectsDeleted() {
  static obs::Counter* c =
      obs::Registry::Global().counter("db.objects.deleted");
  return *c;
}
obs::Counter& Selects() {
  static obs::Counter* c = obs::Registry::Global().counter("db.selects");
  return *c;
}
obs::Counter& SessionsOpened() {
  static obs::Counter* c =
      obs::Registry::Global().counter("db.sessions.opened");
  return *c;
}
obs::Gauge& SessionsActive() {
  static obs::Gauge* g =
      obs::Registry::Global().gauge("db.sessions.active");
  return *g;
}
obs::Histogram& GetObjectLatency() {
  static obs::Histogram* h =
      obs::Registry::Global().histogram("db.get_object.latency_ns");
  return *h;
}

}  // namespace

Result<std::unique_ptr<Database>> Database::CreateInMemory(
    std::string name, DatabaseOptions options) {
  auto pager = std::make_unique<MemPager>();
  auto pool =
      std::make_unique<BufferPool>(pager.get(), options.buffer_pool_pages);
  std::unique_ptr<Database> db(
      new Database(std::move(pager), std::move(pool), options));
  ODE_ASSIGN_OR_RETURN(Catalog catalog,
                       Catalog::Format(db->pool_.get(), std::move(name)));
  db->catalog_.emplace(std::move(catalog));
  return db;
}

namespace {

WalOptions WalOptionsFor(const DatabaseOptions& options) {
  WalOptions wal_options;
  wal_options.sync = options.wal_sync;
  wal_options.group_commit = options.wal_group_commit;
  return wal_options;
}

}  // namespace

Result<std::unique_ptr<Database>> Database::CreateOnDisk(
    const std::string& path, std::string name, DatabaseOptions options) {
  ODE_ASSIGN_OR_RETURN(std::unique_ptr<FilePager> pager,
                       FilePager::Open(path, /*create=*/true));
  ODE_ASSIGN_OR_RETURN(std::unique_ptr<Wal> wal,
                       Wal::Create(path + ".wal", WalOptionsFor(options)));
  auto pool =
      std::make_unique<BufferPool>(pager.get(), options.buffer_pool_pages);
  pool->SetWal(wal.get());
  std::unique_ptr<Database> db(
      new Database(std::move(pager), std::move(pool), options));
  db->wal_ = std::move(wal);
  {
    // The format writes are a logged transaction too, so a crash
    // between Format and Sync leaves a replayable (or cleanly absent)
    // superblock rather than a torn one.
    WalTransactionScope txn(db->wal_.get(), &db->wal_txn_mu_);
    ODE_ASSIGN_OR_RETURN(Catalog catalog,
                         Catalog::Format(db->pool_.get(), std::move(name)));
    db->catalog_.emplace(std::move(catalog));
    ODE_RETURN_IF_ERROR(txn.Commit());
  }
  ODE_RETURN_IF_ERROR(db->Sync());
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenOnDisk(
    const std::string& path, DatabaseOptions options) {
  ODE_ASSIGN_OR_RETURN(std::unique_ptr<FilePager> pager,
                       FilePager::Open(path, /*create=*/false));
  // Restart recovery runs before anything reads through the pool: the
  // committed tail of the previous incarnation's log is replayed into
  // the data file, torn records are dropped, and the log is reset.
  ODE_ASSIGN_OR_RETURN(
      std::unique_ptr<Wal> wal,
      Wal::OpenAndRecover(path + ".wal", pager.get(), WalOptionsFor(options)));
  auto pool =
      std::make_unique<BufferPool>(pager.get(), options.buffer_pool_pages);
  pool->SetWal(wal.get());
  std::unique_ptr<Database> db(
      new Database(std::move(pager), std::move(pool), options));
  db->wal_ = std::move(wal);
  ODE_ASSIGN_OR_RETURN(Catalog catalog, Catalog::Load(db->pool_.get()));
  db->catalog_.emplace(std::move(catalog));
  // Raise next-id watermarks above anything already stored, so ids are
  // not reused even if the catalog was last persisted before a crash.
  ReaderMutexLock lock(db->schema_mu_);
  for (const ClusterInfo* info : db->catalog_->clusters()) {
    ODE_ASSIGN_OR_RETURN(HeapFile * heap, db->GetHeap(info->id));
    Result<uint64_t> last = heap->LastId();
    if (last.ok()) {
      ODE_RETURN_IF_ERROR(
          db->catalog_->BumpNextLocalId(info->id, *last + 1));
    }
  }
  return db;
}

const std::string& Database::name() const { return catalog_->db_name(); }

Status Database::DefineSchema(std::string_view ddl) {
  WriterMutexLock lock(schema_mu_);
  WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
  BumpMutationEpoch();
  ODE_ASSIGN_OR_RETURN(Schema parsed, ParseSchema(ddl));
  ODE_RETURN_IF_ERROR(AddClassesLocked(parsed.classes()));
  return txn.Commit();
}

Status Database::AddClass(ClassDef def) {
  WriterMutexLock lock(schema_mu_);
  WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
  BumpMutationEpoch();
  std::vector<ClassDef> defs;
  defs.push_back(std::move(def));
  ODE_RETURN_IF_ERROR(AddClassesLocked(std::move(defs)));
  return txn.Commit();
}

Status Database::AddClassesLocked(std::vector<ClassDef> defs) {
  // Validate the combined schema before touching the catalog, so a
  // rejected definition leaves no class and no cluster behind.
  Schema combined = schema();
  const size_t first_new = combined.size();
  ODE_RETURN_IF_ERROR(combined.AddClasses(std::move(defs)));
  ODE_RETURN_IF_ERROR(combined.Validate());
  std::vector<std::pair<ClusterId, const std::string*>> created;
  for (size_t i = first_new; i < combined.size(); ++i) {
    const ClassDef& def = combined.classes()[i];
    if (!def.persistent) continue;
    Result<HeapFile> heap =
        HeapFile::Create(pool_.get(), catalog_->free_list());
    Result<ClusterId> id =
        heap.ok() ? catalog_->AddCluster(def.name, heap->first_page())
                  : Result<ClusterId>(heap.status());
    MutexLock guard(heaps_mu_);
    if (!id.ok()) {  // an I/O fault: drop this batch's clusters again
      for (const auto& [done, name] : created) {
        heaps_.erase(done);
        (void)catalog_->RemoveCluster(*name);
      }
      return id.status();
    }
    // Wire access-observatory attribution before the heap becomes
    // reachable (publication under heaps_mu_ orders the plain stores).
    heap->SetAccessAttribution(*id, obs::Journal::InternLabel(def.name));
    heaps_.emplace(*id, std::move(*heap));
    created.emplace_back(*id, &def.name);
  }
  *catalog_->mutable_schema() = std::move(combined);
  return catalog_->Persist();
}

Status Database::AlterClass(ClassDef def) {
  WriterMutexLock lock(schema_mu_);
  WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
  BumpMutationEpoch();
  ODE_ASSIGN_OR_RETURN(const ClassDef* old_def, schema().GetClass(def.name));
  if (old_def->bases != def.bases) {
    return Status::InvalidArgument(
        "AlterClass cannot change the bases of '" + def.name + "'");
  }
  std::string class_name = def.name;
  // Try the new definition against the rest of the schema.
  ClassDef backup = *old_def;
  ODE_RETURN_IF_ERROR(catalog_->mutable_schema()->ReplaceClass(std::move(def)));
  Status valid = catalog_->mutable_schema()->Validate();
  if (!valid.ok()) {
    (void)catalog_->mutable_schema()->ReplaceClass(std::move(backup));
    return valid;
  }
  // Migrate stored objects of this class and of every descendant (their
  // effective member sets include this class's members).
  std::vector<std::string> affected{class_name};
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> descendants,
                       schema().Descendants(class_name));
  affected.insert(affected.end(), descendants.begin(), descendants.end());
  for (const std::string& cls : affected) {
    Result<const ClusterInfo*> info = catalog_->FindCluster(cls);
    if (!info.ok()) continue;  // transient class
    ODE_ASSIGN_OR_RETURN(const ClassLayout* layout, schema().Layout(cls));
    const std::vector<MemberDef>& members = layout->members;
    ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap((*info)->id));
    for (uint64_t local : heap->AllIds()) {
      ODE_ASSIGN_OR_RETURN(std::string bytes, heap->Get(local));
      ODE_ASSIGN_OR_RETURN(ObjectRecord record, DecodeObjectRecord(bytes));
      // Rebuild the struct in declaration order: keep compatible old
      // fields, default new/retyped ones, drop removed ones.
      std::vector<Value::Field> fields;
      fields.reserve(members.size());
      for (const MemberDef& member : members) {
        const Value* old_value = record.value.FindField(member.name);
        if (old_value != nullptr &&
            TypeCheckValue(schema(), member.type, *old_value,
                           cls + "." + member.name)
                .ok()) {
          fields.push_back({member.name, *old_value});
        } else {
          ODE_ASSIGN_OR_RETURN(Value fresh,
                               DefaultForType(schema(), member.type));
          fields.push_back({member.name, std::move(fresh)});
        }
      }
      record.value = Value::Struct(std::move(fields));
      record.version += 1;
      ODE_RETURN_IF_ERROR(
          heap->Update(local, EncodeObjectRecord(record)));
    }
  }
  ODE_RETURN_IF_ERROR(catalog_->Persist());
  return txn.Commit();
}

Status Database::DropClass(const std::string& class_name) {
  WriterMutexLock lock(schema_mu_);
  WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
  BumpMutationEpoch();
  Result<const ClusterInfo*> cluster = catalog_->FindCluster(class_name);
  if (cluster.ok()) {
    ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap((*cluster)->id));
    if (heap->count() != 0) {
      return Status::FailedPrecondition(
          "cluster of class '" + class_name + "' still holds " +
          std::to_string(heap->count()) + " objects");
    }
  }
  ODE_RETURN_IF_ERROR(catalog_->mutable_schema()->DropClass(class_name));
  if (cluster.ok()) {
    {
      MutexLock guard(heaps_mu_);
      heaps_.erase((*cluster)->id);
    }
    ODE_RETURN_IF_ERROR(catalog_->RemoveCluster(class_name));
  }
  ODE_RETURN_IF_ERROR(catalog_->Persist());
  return txn.Commit();
}

Result<HeapFile*> Database::GetHeap(ClusterId id) {
  MutexLock guard(heaps_mu_);
  auto it = heaps_.find(id);
  if (it != heaps_.end()) return &it->second;
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info, catalog_->FindCluster(id));
  ODE_ASSIGN_OR_RETURN(HeapFile heap,
                       HeapFile::Open(pool_.get(), catalog_->free_list(),
                                     info->first_page));
  heap.SetAccessAttribution(id, obs::Journal::InternLabel(info->class_name));
  auto pos = heaps_.emplace(id, std::move(heap)).first;
  return &pos->second;
}

template <typename T>
Result<std::vector<const T*>> Database::Inherited(
    const std::string& class_name, std::vector<T> ClassDef::*list) const {
  ODE_ASSIGN_OR_RETURN(const ClassDef* def, schema().GetClass(class_name));
  ODE_ASSIGN_OR_RETURN(const ClassLayout* layout, schema().Layout(class_name));
  std::vector<const T*> out;
  for (const T& item : def->*list) out.push_back(&item);
  for (const std::string& a : layout->ancestors) {
    ODE_ASSIGN_OR_RETURN(const ClassDef* base, schema().GetClass(a));
    for (const T& item : base->*list) out.push_back(&item);
  }
  return out;
}

Status Database::CheckConstraints(const std::string& class_name,
                                  const Value& value) {
  ODE_ASSIGN_OR_RETURN(std::vector<const ConstraintDef*> constraints,
                       Inherited(class_name, &ClassDef::constraints));
  for (const ConstraintDef* c : constraints) {
    const Predicate* pred = nullptr;
    {
      // std::map nodes are stable, so the pointer survives concurrent
      // inserts once the mutex is dropped.
      MutexLock guard(predicate_mu_);
      auto it = predicate_cache_.find(c->predicate_text);
      if (it == predicate_cache_.end()) {
        ODE_ASSIGN_OR_RETURN(Predicate p, ParsePredicate(c->predicate_text));
        it = predicate_cache_.emplace(c->predicate_text, std::move(p)).first;
      }
      pred = &it->second;
    }
    ODE_ASSIGN_OR_RETURN(bool ok, pred->Evaluate(value));
    if (!ok) {
      return Status::ConstraintViolation("constraint '" +
                                         c->predicate_text +
                                         "' violated for class '" +
                                         class_name + "'");
    }
  }
  return Status::OK();
}

Status Database::FireTriggers(const std::string& class_name, Oid oid,
                              TriggerEvent event, const Value& value) {
  ODE_ASSIGN_OR_RETURN(std::vector<const TriggerDef*> triggers,
                       Inherited(class_name, &ClassDef::triggers));
  for (const TriggerDef* t : triggers) {
    if (t->event != event) continue;
    bool fires = true;
    if (!t->condition_text.empty()) {
      const Predicate* pred = nullptr;
      {
        MutexLock guard(predicate_mu_);
        auto it = predicate_cache_.find(t->condition_text);
        if (it == predicate_cache_.end()) {
          ODE_ASSIGN_OR_RETURN(Predicate p,
                               ParsePredicate(t->condition_text));
          it = predicate_cache_.emplace(t->condition_text, std::move(p)).first;
        }
        pred = &it->second;
      }
      ODE_ASSIGN_OR_RETURN(fires, pred->Evaluate(value));
    }
    if (fires) {
      MutexLock guard(trigger_mu_);
      trigger_log_.push_back(
          TriggerFiring{class_name, oid, t->name, t->action, event});
    }
  }
  return Status::OK();
}

Result<Oid> Database::CreateObject(const std::string& class_name,
                                   Value value) {
  ODE_TRACE_SPAN("db.create_object");
  ReaderMutexLock lock(schema_mu_);
  // The scope serializes writers before the local id is assigned, so
  // commit-record order matches id order: the survivors of a crash are
  // always exactly the ids 1..k of each cluster.
  WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
  ODE_ASSIGN_OR_RETURN(const ClassDef* def, schema().GetClass(class_name));
  if (!def->persistent) {
    return Status::InvalidArgument("class '" + class_name +
                                   "' is not persistent");
  }
  ODE_RETURN_IF_ERROR(TypeCheckObject(schema(), class_name, value));
  ODE_RETURN_IF_ERROR(CheckConstraints(class_name, value));
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(class_name));
  ClusterId cluster_id = info->id;
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(cluster_id));
  ODE_ASSIGN_OR_RETURN(uint64_t local, catalog_->NextLocalId(cluster_id));
  ObjectRecord record;
  record.version = 1;
  record.value = std::move(value);
  ODE_RETURN_IF_ERROR(heap->Insert(local, EncodeObjectRecord(record)));
  BumpMutationEpoch();
  ObjectsCreated().Increment();
  Oid oid{cluster_id, local};
  ODE_RETURN_IF_ERROR(
      FireTriggers(class_name, oid, TriggerEvent::kCreate, record.value));
  ODE_RETURN_IF_ERROR(txn.Commit());
  ODE_RETURN_IF_ERROR(MaybeCheckpointLocked());
  return oid;
}

Result<ObjectBuffer> Database::GetObject(Oid oid) {
  ODE_TRACE_SPAN("db.get_object");
  obs::ScopedLatencyTimer timer(&GetObjectLatency());
  ReaderMutexLock lock(schema_mu_);
  return GetObjectUnlocked(oid);
}

Result<ObjectBuffer> Database::GetObjectUnlocked(Oid oid) {
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(oid.cluster));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(oid.cluster));
  ODE_ASSIGN_OR_RETURN(std::string bytes, heap->Get(oid.local));
  ODE_ASSIGN_OR_RETURN(ObjectRecord record, DecodeObjectRecord(bytes));
  ObjectBuffer buffer;
  buffer.oid = oid;
  buffer.class_name = info->class_name;
  buffer.version = record.version;
  buffer.value = std::move(record.value);
  ObjectsFetched().Increment();
  return buffer;
}

Result<ObjectBuffer> Database::GetObjectVersion(Oid oid, uint32_t version) {
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(oid.cluster));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(oid.cluster));
  ODE_ASSIGN_OR_RETURN(std::string bytes, heap->Get(oid.local));
  ODE_ASSIGN_OR_RETURN(ObjectRecord record, DecodeObjectRecord(bytes));
  ObjectBuffer buffer;
  buffer.oid = oid;
  buffer.class_name = info->class_name;
  if (version == record.version) {
    buffer.version = record.version;
    buffer.value = std::move(record.value);
    return buffer;
  }
  for (auto& [ver, val] : record.history) {
    if (ver == version) {
      buffer.version = ver;
      buffer.value = std::move(val);
      return buffer;
    }
  }
  return Status::NotFound("version " + std::to_string(version) +
                          " of object " + oid.ToString() +
                          " is not retained");
}

Result<std::vector<uint32_t>> Database::ListVersions(Oid oid) {
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(oid.cluster));
  ODE_ASSIGN_OR_RETURN(std::string bytes, heap->Get(oid.local));
  ODE_ASSIGN_OR_RETURN(ObjectRecord record, DecodeObjectRecord(bytes));
  std::vector<uint32_t> versions;
  versions.reserve(record.history.size() + 1);
  for (const auto& [ver, val] : record.history) versions.push_back(ver);
  versions.push_back(record.version);
  return versions;
}

Status Database::UpdateObject(Oid oid, Value value) {
  ReaderMutexLock lock(schema_mu_);
  WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(oid.cluster));
  ODE_ASSIGN_OR_RETURN(const ClassDef* def,
                       schema().GetClass(info->class_name));
  ODE_RETURN_IF_ERROR(TypeCheckObject(schema(), info->class_name, value));
  ODE_RETURN_IF_ERROR(CheckConstraints(info->class_name, value));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(oid.cluster));
  ODE_ASSIGN_OR_RETURN(std::string bytes, heap->Get(oid.local));
  ODE_ASSIGN_OR_RETURN(ObjectRecord record, DecodeObjectRecord(bytes));
  if (def->versioned) {
    record.history.emplace_back(record.version, std::move(record.value));
    while (record.history.size() > options_.version_history_limit) {
      record.history.erase(record.history.begin());
    }
  }
  record.version += 1;
  record.value = std::move(value);
  ODE_RETURN_IF_ERROR(heap->Update(oid.local, EncodeObjectRecord(record)));
  BumpMutationEpoch();
  ObjectsUpdated().Increment();
  ODE_RETURN_IF_ERROR(FireTriggers(info->class_name, oid,
                                   TriggerEvent::kUpdate, record.value));
  ODE_RETURN_IF_ERROR(txn.Commit());
  return MaybeCheckpointLocked();
}

Status Database::DeleteObject(Oid oid) {
  ReaderMutexLock lock(schema_mu_);
  WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(oid.cluster));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(oid.cluster));
  ODE_ASSIGN_OR_RETURN(std::string bytes, heap->Get(oid.local));
  ODE_ASSIGN_OR_RETURN(ObjectRecord record, DecodeObjectRecord(bytes));
  ODE_RETURN_IF_ERROR(heap->Delete(oid.local));
  BumpMutationEpoch();
  ObjectsDeleted().Increment();
  ODE_RETURN_IF_ERROR(FireTriggers(info->class_name, oid,
                                   TriggerEvent::kDelete, record.value));
  ODE_RETURN_IF_ERROR(txn.Commit());
  return MaybeCheckpointLocked();
}

Result<uint64_t> Database::ClusterCount(const std::string& class_name) {
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(class_name));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(info->id));
  return heap->count();
}

Result<ClusterId> Database::ClusterOf(const std::string& class_name) const {
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(class_name));
  return info->id;
}

Result<std::string> Database::ClassOfCluster(ClusterId id) const {
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info, catalog_->FindCluster(id));
  return info->class_name;
}

Result<std::vector<Oid>> Database::ScanCluster(
    const std::string& class_name) {
  ReaderMutexLock lock(schema_mu_);
  return ScanClusterUnlocked(class_name);
}

Result<std::vector<Oid>> Database::ScanClusterUnlocked(
    const std::string& class_name) {
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(class_name));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(info->id));
  std::vector<Oid> out;
  for (uint64_t id : heap->AllIds()) out.push_back(Oid{info->id, id});
  return out;
}

Result<std::vector<Oid>> Database::ScanClusterDeep(
    const std::string& class_name) {
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(std::vector<Oid> out, ScanClusterUnlocked(class_name));
  ODE_ASSIGN_OR_RETURN(std::vector<std::string> descendants,
                       schema().Descendants(class_name));
  for (const std::string& cls : descendants) {
    Result<std::vector<Oid>> sub = ScanClusterUnlocked(cls);
    if (!sub.ok()) continue;  // transient subclass
    out.insert(out.end(), sub->begin(), sub->end());
  }
  return out;
}

Result<std::vector<Oid>> Database::Select(const std::string& class_name,
                                          const Predicate& predicate) {
  ODE_TRACE_SPAN("db.select");
  Selects().Increment();
  // Batched path: projection pushed to the record decode (only the
  // predicate's attributes are materialized), predicate compiled to a
  // slot program, evaluation column-at-a-time per batch.
  exec::ScanSpec spec;
  spec.class_name = class_name;
  spec.predicate = &predicate;
  spec.emit_values = false;  // only the ids leave this function
  ODE_ASSIGN_OR_RETURN(exec::ScanResult result, exec::ExecuteScan(this, spec));
  std::vector<Oid> out;
  out.reserve(result.rows.size());
  for (const exec::ScanRow& row : result.rows) out.push_back(row.oid);
  return out;
}

Result<exec::ExplainResult> Database::ExplainSelect(
    const std::string& class_name, const Predicate& predicate, bool analyze) {
  // The exact spec Select() builds, so the plan describes what Select
  // would run (ids-only projection, compiled filter, batched decode).
  exec::ScanSpec spec;
  spec.class_name = class_name;
  spec.predicate = &predicate;
  spec.emit_values = false;
  return exec::ExplainScan(this, spec, analyze);
}

Result<exec::ExplainResult> Database::ExplainJoin(
    const std::string& left_class, const std::string& right_class,
    const Predicate& predicate, bool analyze) {
  exec::JoinSpec spec;
  spec.left_class = left_class;
  spec.right_class = right_class;
  spec.predicate = &predicate;
  return exec::ExplainJoin(this, spec, analyze);
}

Status Database::ScanRawRecords(const std::string& class_name, uint64_t from,
                                size_t limit, RawRecordBatch* out,
                                bool forward) {
  out->clear();
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(class_name));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(info->id));
  out->cluster = info->id;
  Status status =
      heap->RecordsInto(from, forward, limit, &out->arena, &out->records);
  if (status.IsOutOfRange()) return Status::OK();  // exhausted: empty batch
  return status;
}

Result<std::vector<HeapFile::Placement>> Database::ClusterPlacements(
    const std::string& class_name) {
  ReaderMutexLock lock(schema_mu_);
  ODE_ASSIGN_OR_RETURN(const ClusterInfo* info,
                       catalog_->FindCluster(class_name));
  ODE_ASSIGN_OR_RETURN(HeapFile * heap, GetHeap(info->id));
  return heap->RecordPlacements();
}

Status Database::Sync() {
  WriterMutexLock lock(schema_mu_);
  {
    WalTransactionScope txn(wal_.get(), &wal_txn_mu_);
    ODE_RETURN_IF_ERROR(catalog_->Persist());
    ODE_RETURN_IF_ERROR(txn.Commit());
  }
  return CheckpointLocked();
}

Status Database::Checkpoint() {
  ReaderMutexLock lock(schema_mu_);
  return CheckpointLocked();
}

Status Database::CheckpointLocked() {
  ODE_TRACE_SPAN("db.checkpoint");
  // Phase 1 (fuzzy): push committed work out without blocking writers.
  // Most of the flush I/O happens here, so the quiesce below is short.
  if (wal_ != nullptr) {
    ODE_RETURN_IF_ERROR(wal_->FlushUntil(wal_->next_lsn()));
  }
  ODE_RETURN_IF_ERROR(pool_->FlushAll());
  // Phase 2: quiesce writers. With `wal_txn_mu_` held no transaction
  // is in flight, so every frame is either clean or committed-dirty;
  // after the flush + data sync the log's history is fully contained
  // in the data file and can be truncated.
  MutexLock txn_lock(wal_txn_mu_);
  if (wal_ != nullptr) {
    ODE_RETURN_IF_ERROR(wal_->FlushUntil(wal_->next_lsn()));
  }
  ODE_RETURN_IF_ERROR(pool_->FlushAll());
  ODE_RETURN_IF_ERROR(pager_->Sync());
  if (wal_ != nullptr) {
    ODE_RETURN_IF_ERROR(wal_->ResetLog());
  }
  return Status::OK();
}

Status Database::MaybeCheckpointLocked() {
  if (wal_ == nullptr ||
      wal_->size_bytes() <= options_.wal_checkpoint_bytes) {
    return Status::OK();
  }
  return CheckpointLocked();
}

std::string Database::DumpTelemetry() const {
  // Registry data only — the report must stay valid for any engine
  // version without reaching into class internals.
  return "=== ode telemetry ===\n" + obs::Registry::Global().RenderText();
}

Session Database::OpenSession() {
  uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  active_sessions_->fetch_add(1, std::memory_order_relaxed);
  SessionsOpened().Increment();
  SessionsActive().Add(1);
  obs::Journal::Global().Append(obs::JournalEvent::kSessionOpen,
                                static_cast<int64_t>(id));
  Session session(this, id, active_sessions_);
  if (obs::Tracing::enabled()) {
    // Anchor the session's causal tree with a zero-length span; browse
    // cascades adopt this context, so every gesture of the session
    // hangs off it in the exported trace.
    session.trace_context_ = obs::Tracing::NewRootContext();
    obs::Tracing::Record("db.session", obs::Tracing::NowNanos(), 0, 0,
                         session.trace_context_.trace_id,
                         session.trace_context_.span_id, 0);
  }
  session.entry_ = obs::SessionRegistry::Global().Register(
      id, session.trace_context_.trace_id);
  return session;
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    if (counter_ != nullptr) {
      counter_->fetch_sub(1, std::memory_order_relaxed);
      SessionsActive().Sub(1);
      obs::Journal::Global().Append(obs::JournalEvent::kSessionClose,
                                    static_cast<int64_t>(id_));
    }
    if (entry_ != nullptr) obs::SessionRegistry::Global().Unregister(id_);
    db_ = other.db_;
    id_ = other.id_;
    counter_ = std::move(other.counter_);
    trace_context_ = other.trace_context_;
    entry_ = std::move(other.entry_);
    other.db_ = nullptr;
    other.id_ = 0;
    other.trace_context_ = obs::TraceContext{};
  }
  return *this;
}

Session::~Session() {
  if (counter_ != nullptr) {
    counter_->fetch_sub(1, std::memory_order_relaxed);
    SessionsActive().Sub(1);
    obs::Journal::Global().Append(obs::JournalEvent::kSessionClose,
                                  static_cast<int64_t>(id_));
  }
  if (entry_ != nullptr) obs::SessionRegistry::Global().Unregister(id_);
}

// Session methods run under a ProfiledOp: every resource the engine
// charges during the call lands on this op (and the session's
// cumulative totals), and ops past the slow threshold park their full
// profile in the slow-op ring. Op names are string literals — the
// SessionEntry/SlowOpLog static-storage contract.

Result<Oid> Session::CreateObject(const std::string& class_name,
                                  Value value) {
  obs::ProfiledOp op(entry_.get(), "create_object");
  return db_->CreateObject(class_name, std::move(value));
}

Result<ObjectBuffer> Session::GetObject(Oid oid) {
  obs::ProfiledOp op(entry_.get(), "get_object");
  return db_->GetObject(oid);
}

Result<ObjectBuffer> Session::GetObjectVersion(Oid oid, uint32_t version) {
  obs::ProfiledOp op(entry_.get(), "get_object_version");
  return db_->GetObjectVersion(oid, version);
}

Result<std::vector<uint32_t>> Session::ListVersions(Oid oid) {
  obs::ProfiledOp op(entry_.get(), "list_versions");
  return db_->ListVersions(oid);
}

Status Session::UpdateObject(Oid oid, Value value) {
  obs::ProfiledOp op(entry_.get(), "update_object");
  return db_->UpdateObject(oid, std::move(value));
}

Status Session::DeleteObject(Oid oid) {
  obs::ProfiledOp op(entry_.get(), "delete_object");
  return db_->DeleteObject(oid);
}

Result<std::vector<Oid>> Session::ScanCluster(const std::string& class_name) {
  obs::ProfiledOp op(entry_.get(), "scan_cluster");
  return db_->ScanCluster(class_name);
}

Result<std::vector<Oid>> Session::Select(const std::string& class_name,
                                         const Predicate& predicate) {
  obs::ProfiledOp op(entry_.get(), "select");
  return db_->Select(class_name, predicate);
}

Result<Oid> ObjectCursor::Current() const {
  if (!current_.has_value()) {
    return Status::FailedPrecondition("cursor has no current object");
  }
  return *current_;
}

namespace {

/// Records fetched per cursor lock round-trip. Large enough to
/// amortize the locking, small enough that an invalidated batch
/// (any concurrent mutation) wastes little work.
constexpr size_t kCursorLookahead = 16;

}  // namespace

Status ObjectCursor::Fetch(bool forward, const std::optional<Oid>& pos) {
  // Record the epoch before fetching: a mutation racing the fetch then
  // invalidates the batch on the next step. `ScanRawRecords` clears the
  // batch first, so a failed fetch leaves nothing to serve.
  lookahead_pos_ = 0;
  lookahead_epoch_ = db_->mutation_epoch();
  lookahead_forward_ = forward;
  lookahead_anchor_ = pos;
  uint64_t from = pos.has_value() ? pos->local
                  : forward       ? 0
                                  : std::numeric_limits<uint64_t>::max();
  ODE_RETURN_IF_ERROR(db_->ScanRawRecords(class_name_, from,
                                          kCursorLookahead, &lookahead_,
                                          forward));
  if (!lookahead_.records.empty()) return Status::OK();
  if (!pos.has_value()) {
    return Status::OutOfRange("cluster '" + class_name_ + "' is empty");
  }
  return Status::OutOfRange(
      (forward ? "no object after id " : "no object before id ") +
      std::to_string(pos->local));
}

Result<ObjectBuffer> ObjectCursor::Step(bool forward) {
  // Walk with a local position so a mid-scan error keeps `current_`
  // where the caller left it; only a match commits the new position.
  std::optional<Oid> pos = current_;
  while (true) {
    bool usable = lookahead_pos_ < lookahead_.records.size() &&
                  lookahead_forward_ == forward &&
                  lookahead_epoch_ == db_->mutation_epoch() &&
                  lookahead_anchor_ == pos;
    if (!usable) ODE_RETURN_IF_ERROR(Fetch(forward, pos));
    const HeapFile::RecordSpan& span = lookahead_.records[lookahead_pos_++];
    pos = Oid{lookahead_.cluster, span.local_id};
    lookahead_anchor_ = pos;
    std::string_view bytes = lookahead_.bytes(span);
    if (!compiled_.always_true()) {
      // Select's evaluation: projected decode, compiled predicate.
      ODE_ASSIGN_OR_RETURN(ProjectedRecord candidate,
                           DecodeObjectRecordProjected(bytes, &mask_));
      ODE_ASSIGN_OR_RETURN(bool match,
                           compiled_.EvaluateOne(candidate.value, &scratch_));
      if (!match) continue;
    }
    ODE_ASSIGN_OR_RETURN(ObjectRecord record, DecodeObjectRecord(bytes));
    current_ = pos;
    return ObjectBuffer{*pos, class_name_, record.version,
                        std::move(record.value)};
  }
}

Result<ObjectBuffer> ObjectCursor::Next() { return Step(/*forward=*/true); }

Result<ObjectBuffer> ObjectCursor::Prev() { return Step(/*forward=*/false); }

}  // namespace ode::odb
