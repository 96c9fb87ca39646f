#include "common/access_log.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/coding.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ode::obs {

namespace {

/// "ODEACC" plus a two-digit format version. 02: CRC-32C frames (01
/// used the zlib CRC-32).
constexpr std::string_view kCaptureMagic = "ODEACC02";
constexpr size_t kCaptureVersionOffset = 6;

enum CaptureRecordType : uint8_t {
  kCaptureClassDef = 1,
  kCaptureEvent = 2,
  kCaptureAffinity = 3,
};

Counter* RecordedCounter() {
  static Counter* c = Registry::Global().counter("obs.access.recorded");
  return c;
}
Counter* DroppedCounter() {
  static Counter* c = Registry::Global().counter("obs.access.dropped");
  return c;
}

/// Mixes a page/class key into a table probe start (splitmix-style).
uint64_t HashKey(uint64_t key) {
  key += 0x9e3779b97f4a7c15ull;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
  return key ^ (key >> 31);
}

uint64_t HashAffinity(uint64_t src_cluster, uint64_t src_local,
                      uint64_t dst_cluster, uint64_t dst_local) {
  uint64_t h = HashKey((src_cluster << 40) ^ src_local);
  h ^= HashKey((dst_cluster << 40) ^ dst_local) * 0x9e3779b97f4a7c15ull;
  return h;
}

}  // namespace

const char* AccessOpName(AccessOp op) {
  switch (op) {
    case AccessOp::kGet:
      return "get";
    case AccessOp::kScan:
      return "scan";
    case AccessOp::kCreate:
      return "create";
    case AccessOp::kUpdate:
      return "update";
    case AccessOp::kDelete:
      return "delete";
  }
  return "unknown";
}

// --- AccessTraceWriter -------------------------------------------------

AccessTraceWriter::~AccessTraceWriter() {
  if (file_ != nullptr) (void)Close();
}

Status AccessTraceWriter::Open(const std::string& path) {
  if (file_ != nullptr) return Status::FailedPrecondition("capture open");
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IOError("cannot open capture file '" + path + "'");
  }
  buffer_.assign(kCaptureMagic);
  class_ids_.clear();
  next_class_id_ = 1;
  records_written_ = 0;
  return Status::OK();
}

uint32_t AccessTraceWriter::InternClass(const char* label) {
  if (label == nullptr) return 0;
  auto it = class_ids_.find(label);
  if (it != class_ids_.end()) return it->second;
  uint32_t id = next_class_id_++;
  class_ids_.emplace(label, id);
  std::string payload;
  payload.push_back(static_cast<char>(kCaptureClassDef));
  PutVarint32(&payload, id);
  PutLengthPrefixed(&payload, label);
  WriteFramed(payload);
  return id;
}

void AccessTraceWriter::WriteFramed(const std::string& payload) {
  PutFixed32(&buffer_, static_cast<uint32_t>(payload.size()));
  buffer_ += payload;
  PutFixed32(&buffer_, Crc32c(payload));
  ++records_written_;
  if (buffer_.size() >= 256 * 1024) FlushBuffer();
}

void AccessTraceWriter::FlushBuffer() {
  if (file_ != nullptr && !buffer_.empty()) {
    (void)std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  }
  buffer_.clear();
}

void AccessTraceWriter::WriteEvent(const AccessEvent& event) {
  uint32_t class_id = InternClass(event.class_label);
  std::string payload;
  payload.push_back(static_cast<char>(kCaptureEvent));
  PutVarint32(&payload, static_cast<uint32_t>(event.op));
  PutVarint64(&payload, event.cluster);
  PutVarint64(&payload, event.local);
  PutVarint64(&payload, event.page);
  PutVarint32(&payload, class_id);
  PutVarint64(&payload, event.session_id);
  PutVarint64(&payload, event.trace_id);
  PutVarint64(&payload, event.ts_ns);
  WriteFramed(payload);
}

void AccessTraceWriter::WriteAffinity(uint64_t src_cluster,
                                      uint64_t src_local,
                                      const char* src_class,
                                      uint64_t dst_cluster,
                                      uint64_t dst_local,
                                      const char* dst_class) {
  uint32_t src_id = InternClass(src_class);
  uint32_t dst_id = InternClass(dst_class);
  std::string payload;
  payload.push_back(static_cast<char>(kCaptureAffinity));
  PutVarint64(&payload, src_cluster);
  PutVarint64(&payload, src_local);
  PutVarint32(&payload, src_id);
  PutVarint64(&payload, dst_cluster);
  PutVarint64(&payload, dst_local);
  PutVarint32(&payload, dst_id);
  WriteFramed(payload);
}

Result<uint64_t> AccessTraceWriter::Close() {
  if (file_ == nullptr) return Status::FailedPrecondition("capture not open");
  FlushBuffer();
  int rc = std::fclose(file_);
  file_ = nullptr;
  uint64_t written = records_written_;
  records_written_ = 0;
  class_ids_.clear();
  if (rc != 0) return Status::IOError("capture close failed");
  return written;
}

// --- ReadAccessTrace ---------------------------------------------------

Result<AccessTrace> ReadAccessTrace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open capture file '" + path + "'");
  }
  std::string bytes;
  char chunk[64 * 1024];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(file);
  Result<AccessTrace> trace = ParseAccessTrace(bytes);
  if (!trace.ok()) {
    std::string message = "'" + path + "': " + trace.status().message();
    return trace.status().code() == StatusCode::kUnimplemented
               ? Status::Unimplemented(std::move(message))
               : Status::Corruption(std::move(message));
  }
  return trace;
}

Result<AccessTrace> ParseAccessTrace(std::string_view bytes) {
  std::string_view magic = bytes.substr(0, kCaptureMagic.size());
  if (magic != kCaptureMagic) {
    if (magic.size() == kCaptureMagic.size() &&
        magic.substr(0, kCaptureVersionOffset) ==
            kCaptureMagic.substr(0, kCaptureVersionOffset)) {
      return Status::Unimplemented("unsupported capture version " +
                                   std::string(magic) + " (this build reads " +
                                   std::string(kCaptureMagic) + ")");
    }
    return Status::Corruption("not an access capture");
  }

  AccessTrace trace;
  std::map<uint32_t, const char*> classes;
  std::string_view rest = bytes.substr(kCaptureMagic.size());
  while (!rest.empty()) {
    // Frame: fixed32 len | payload | fixed32 crc. Anything that does
    // not parse cleanly is a torn tail: stop at the last intact record.
    if (rest.size() < 4) break;
    uint32_t len = DecodeFixed32(rest.data());
    if (rest.size() < 4 + static_cast<size_t>(len) + 4) break;
    std::string_view payload = rest.substr(4, len);
    uint32_t crc = DecodeFixed32(rest.data() + 4 + len);
    if (Crc32c(payload) != crc) break;
    rest.remove_prefix(4 + len + 4);

    Decoder decoder(payload);
    std::string_view type_byte;
    if (!decoder.GetRaw(1, &type_byte).ok()) break;
    switch (static_cast<uint8_t>(type_byte[0])) {
      case kCaptureClassDef: {
        uint32_t id = 0;
        std::string_view name;
        if (!decoder.GetVarint32(&id).ok() ||
            !decoder.GetLengthPrefixed(&name).ok()) {
          return Status::Corruption("malformed class-def record");
        }
        classes[id] = Journal::InternLabel(name);
        break;
      }
      case kCaptureEvent: {
        AccessTraceRecord record;
        record.kind = AccessTraceRecord::Kind::kEvent;
        uint32_t op = 0, class_id = 0;
        if (!decoder.GetVarint32(&op).ok() ||
            !decoder.GetVarint64(&record.event.cluster).ok() ||
            !decoder.GetVarint64(&record.event.local).ok() ||
            !decoder.GetVarint64(&record.event.page).ok() ||
            !decoder.GetVarint32(&class_id).ok() ||
            !decoder.GetVarint64(&record.event.session_id).ok() ||
            !decoder.GetVarint64(&record.event.trace_id).ok() ||
            !decoder.GetVarint64(&record.event.ts_ns).ok()) {
          return Status::Corruption("malformed access event record");
        }
        if (op >= kAccessOpCount) {
          return Status::Corruption("unknown access op " +
                                    std::to_string(op));
        }
        record.event.op = static_cast<AccessOp>(op);
        auto it = classes.find(class_id);
        record.event.class_label =
            it != classes.end() ? it->second : nullptr;
        trace.records.push_back(record);
        break;
      }
      case kCaptureAffinity: {
        AccessTraceRecord record;
        record.kind = AccessTraceRecord::Kind::kAffinity;
        uint32_t src_id = 0, dst_id = 0;
        if (!decoder.GetVarint64(&record.src_cluster).ok() ||
            !decoder.GetVarint64(&record.src_local).ok() ||
            !decoder.GetVarint32(&src_id).ok() ||
            !decoder.GetVarint64(&record.dst_cluster).ok() ||
            !decoder.GetVarint64(&record.dst_local).ok() ||
            !decoder.GetVarint32(&dst_id).ok()) {
          return Status::Corruption("malformed affinity record");
        }
        auto src = classes.find(src_id);
        auto dst = classes.find(dst_id);
        record.src_class = src != classes.end() ? src->second : nullptr;
        record.dst_class = dst != classes.end() ? dst->second : nullptr;
        trace.records.push_back(record);
        break;
      }
      default:
        return Status::Corruption("unknown capture record type");
    }
  }
  trace.torn_tail_bytes = rest.size();
  return trace;
}

// --- AccessLog ---------------------------------------------------------

AccessLog::AccessLog() {
  pages_ = std::make_unique<PageSlot[]>(kPageTableCapacity);
  classes_ = std::make_unique<ClassSlot[]>(kClassTableCapacity);
  affinity_ = std::make_unique<AffinitySlot[]>(kAffinityTableCapacity);
}

AccessLog::~AccessLog() {
  MutexLock lock(capture_mu_);
  if (capture_.is_open()) (void)capture_.Close();
}

AccessLog& AccessLog::Global() {
  // Leaked singleton: charge sites may run during static destruction.
  static AccessLog* log = new AccessLog();
  return *log;
}

void AccessLog::Start(uint32_t sample_period) {
  if (sample_period == 0) sample_period = 1;
  sample_period_.store(sample_period, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
  Journal::Global().Append(JournalEvent::kAccessRecorderStart,
                           static_cast<int64_t>(sample_period));
}

void AccessLog::Stop() {
  enabled_.store(false, std::memory_order_relaxed);
  Journal::Global().Append(JournalEvent::kAccessRecorderStop,
                           static_cast<int64_t>(recorded()));
}

Status AccessLog::StartCapture(const std::string& path) {
  {
    MutexLock lock(capture_mu_);
    if (capture_.is_open()) {
      return Status::FailedPrecondition("capture already active");
    }
    ODE_RETURN_IF_ERROR(capture_.Open(path));
    capturing_.store(true, std::memory_order_release);
  }
  if (!enabled()) Start(sample_period());
  return Status::OK();
}

Result<uint64_t> AccessLog::StopCapture() {
  MutexLock lock(capture_mu_);
  capturing_.store(false, std::memory_order_release);
  return capture_.Close();
}

bool AccessLog::SampledOut() {
  uint32_t period = sample_period_.load(std::memory_order_relaxed);
  if (period <= 1) return false;
  return sample_tick_.fetch_add(1, std::memory_order_relaxed) % period != 0;
}

void AccessLog::CountDrop(uint64_t n) {
  dropped_.fetch_add(n, std::memory_order_relaxed);
  DroppedCounter()->Add(n);
}

void AccessLog::BumpPageHeat(uint64_t page, bool object_access) {
  uint64_t key = page + 1;  // 0 marks an empty slot
  size_t index = HashKey(key) % kPageTableCapacity;
  for (size_t probe = 0; probe < kPageTableCapacity; ++probe) {
    PageSlot& slot = pages_[(index + probe) % kPageTableCapacity];
    uint64_t current = slot.key.load(std::memory_order_acquire);
    if (current == 0) {
      if (!slot.key.compare_exchange_strong(current, key,
                                            std::memory_order_acq_rel)) {
        if (current != key) continue;  // someone else claimed it
      }
      current = key;
    }
    if (current == key) {
      (object_access ? slot.object_accesses : slot.pool_touches)
          .fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  CountDrop();  // table full: heat map becomes a floor, count the loss
}

void AccessLog::BumpClassHeat(const char* label, AccessOp op) {
  if (label == nullptr) return;
  size_t index =
      HashKey(reinterpret_cast<uintptr_t>(label)) % kClassTableCapacity;
  for (size_t probe = 0; probe < kClassTableCapacity; ++probe) {
    ClassSlot& slot = classes_[(index + probe) % kClassTableCapacity];
    const char* current = slot.key.load(std::memory_order_acquire);
    if (current == nullptr) {
      if (!slot.key.compare_exchange_strong(current, label,
                                            std::memory_order_acq_rel)) {
        if (current != label) continue;
      }
      current = label;
    }
    if (current == label) {
      slot.total.fetch_add(1, std::memory_order_relaxed);
      slot.by_op[static_cast<size_t>(op)].fetch_add(
          1, std::memory_order_relaxed);
      return;
    }
  }
  CountDrop();
}

void AccessLog::Record(AccessOp op, uint64_t cluster, uint64_t local,
                       const char* class_label, uint64_t page) {
  if (!enabled()) return;
  if (SampledOut()) return;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  RecordedCounter()->Increment();
  BumpPageHeat(page, /*object_access=*/true);
  BumpClassHeat(class_label, op);
  if (!capturing_.load(std::memory_order_acquire)) return;
  AccessEvent event;
  event.ts_ns = Tracing::NowNanos();
  event.op = op;
  event.cluster = cluster;
  event.local = local;
  event.page = page;
  event.class_label = class_label;
  OpContext ctx = CurrentOpContext();
  event.session_id = ctx.session_id;
  event.trace_id = ctx.trace_id;
  MutexLock lock(capture_mu_);
  if (capture_.is_open()) capture_.WriteEvent(event);
}

void AccessLog::RecordPageTouch(uint64_t page) {
  if (!enabled()) return;
  if (SampledOut()) return;
  BumpPageHeat(page, /*object_access=*/false);
}

void AccessLog::RecordAffinity(uint64_t src_cluster, uint64_t src_local,
                               const char* src_class, uint64_t dst_cluster,
                               uint64_t dst_local, const char* dst_class) {
  if (!enabled()) return;
  uint64_t hash =
      HashAffinity(src_cluster, src_local, dst_cluster, dst_local);
  size_t index = hash % kAffinityTableCapacity;
  bool counted = false;
  for (size_t probe = 0; probe < kAffinityTableCapacity; ++probe) {
    AffinitySlot& slot = affinity_[(index + probe) % kAffinityTableCapacity];
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == 0) {
      if (slot.state.compare_exchange_strong(state, 1,
                                             std::memory_order_acq_rel)) {
        slot.src_cluster = src_cluster;
        slot.src_local = src_local;
        slot.dst_cluster = dst_cluster;
        slot.dst_local = dst_local;
        slot.src_class = src_class;
        slot.dst_class = dst_class;
        slot.count.store(1, std::memory_order_relaxed);
        slot.state.store(2, std::memory_order_release);
        counted = true;
        break;
      }
      state = slot.state.load(std::memory_order_acquire);
    }
    if (state == 1) continue;  // claimer is mid-write; probe onward
    if (slot.src_cluster == src_cluster && slot.src_local == src_local &&
        slot.dst_cluster == dst_cluster && slot.dst_local == dst_local) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      counted = true;
      break;
    }
  }
  if (!counted) CountDrop();
  if (capturing_.load(std::memory_order_acquire)) {
    MutexLock lock(capture_mu_);
    if (capture_.is_open()) {
      capture_.WriteAffinity(src_cluster, src_local, src_class,
                             dst_cluster, dst_local, dst_class);
    }
  }
}

AccessProfile AccessLog::SnapshotProfile(size_t top_pages,
                                         size_t top_edges) const {
  ODE_TRACE_SPAN("obs.access_snapshot");
  AccessProfile profile;
  for (size_t i = 0; i < kPageTableCapacity; ++i) {
    const PageSlot& slot = pages_[i];
    uint64_t key = slot.key.load(std::memory_order_acquire);
    if (key == 0) continue;
    PageHeat heat;
    heat.page = key - 1;
    heat.object_accesses =
        slot.object_accesses.load(std::memory_order_relaxed);
    heat.pool_touches = slot.pool_touches.load(std::memory_order_relaxed);
    profile.pages.push_back(heat);
  }
  std::sort(profile.pages.begin(), profile.pages.end(),
            [](const PageHeat& a, const PageHeat& b) {
              uint64_t ta = a.object_accesses + a.pool_touches;
              uint64_t tb = b.object_accesses + b.pool_touches;
              if (ta != tb) return ta > tb;
              return a.page < b.page;
            });
  if (top_pages != 0 && profile.pages.size() > top_pages) {
    profile.pages.resize(top_pages);
  }

  for (size_t i = 0; i < kClassTableCapacity; ++i) {
    const ClassSlot& slot = classes_[i];
    const char* key = slot.key.load(std::memory_order_acquire);
    if (key == nullptr) continue;
    ClassHeat heat;
    heat.class_label = key;
    heat.total = slot.total.load(std::memory_order_relaxed);
    for (size_t op = 0; op < kAccessOpCount; ++op) {
      heat.by_op[op] = slot.by_op[op].load(std::memory_order_relaxed);
    }
    profile.classes.push_back(heat);
    profile.class_counts[key] += heat.total;
  }
  std::sort(profile.classes.begin(), profile.classes.end(),
            [](const ClassHeat& a, const ClassHeat& b) {
              if (a.total != b.total) return a.total > b.total;
              return std::string_view(a.class_label) <
                     std::string_view(b.class_label);
            });

  for (size_t i = 0; i < kAffinityTableCapacity; ++i) {
    const AffinitySlot& slot = affinity_[i];
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    AffinityEdge edge;
    edge.src_cluster = slot.src_cluster;
    edge.src_local = slot.src_local;
    edge.dst_cluster = slot.dst_cluster;
    edge.dst_local = slot.dst_local;
    edge.src_class = slot.src_class;
    edge.dst_class = slot.dst_class;
    edge.count = slot.count.load(std::memory_order_relaxed);
    profile.edges.push_back(edge);
  }
  std::sort(profile.edges.begin(), profile.edges.end(),
            [](const AffinityEdge& a, const AffinityEdge& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.src_cluster != b.src_cluster)
                return a.src_cluster < b.src_cluster;
              if (a.src_local != b.src_local) return a.src_local < b.src_local;
              if (a.dst_cluster != b.dst_cluster)
                return a.dst_cluster < b.dst_cluster;
              return a.dst_local < b.dst_local;
            });
  if (top_edges != 0 && profile.edges.size() > top_edges) {
    profile.edges.resize(top_edges);
  }
  return profile;
}

std::string AccessLog::RenderHeatmapJson(size_t top_n) const {
  AccessProfile profile = SnapshotProfile(top_n, top_n);
  std::string out = "{\"enabled\":";
  out += enabled() ? "true" : "false";
  out += ",\"sample_period\":" + std::to_string(sample_period());
  out += ",\"capturing\":";
  out += capturing() ? "true" : "false";
  out += ",\"recorded\":" + std::to_string(recorded());
  out += ",\"dropped\":" + std::to_string(dropped());
  out += ",\"pages\":[";
  bool first = true;
  for (const PageHeat& heat : profile.pages) {
    if (!first) out += ",";
    first = false;
    out += "{\"page\":" + std::to_string(heat.page);
    out += ",\"object_accesses\":" + std::to_string(heat.object_accesses);
    out += ",\"pool_touches\":" + std::to_string(heat.pool_touches) + "}";
  }
  out += "],\"classes\":[";
  first = true;
  for (const ClassHeat& heat : profile.classes) {
    if (!first) out += ",";
    first = false;
    out += "{\"class\":\"";
    AppendJsonEscaped(&out, heat.class_label);
    out += "\",\"total\":" + std::to_string(heat.total);
    for (size_t op = 0; op < kAccessOpCount; ++op) {
      out += ",\"";
      out += AccessOpName(static_cast<AccessOp>(op));
      out += "\":" + std::to_string(heat.by_op[op]);
    }
    out += "}";
  }
  out += "],\"edges\":[";
  first = true;
  for (const AffinityEdge& edge : profile.edges) {
    if (!first) out += ",";
    first = false;
    out += "{\"src\":\"c" + std::to_string(edge.src_cluster) + ":o" +
           std::to_string(edge.src_local) + "\"";
    out += ",\"dst\":\"c" + std::to_string(edge.dst_cluster) + ":o" +
           std::to_string(edge.dst_local) + "\"";
    out += ",\"src_class\":\"";
    if (edge.src_class != nullptr) AppendJsonEscaped(&out, edge.src_class);
    out += "\",\"dst_class\":\"";
    if (edge.dst_class != nullptr) AppendJsonEscaped(&out, edge.dst_class);
    out += "\",\"count\":" + std::to_string(edge.count) + "}";
  }
  out += "]}\n";
  return out;
}

std::string AccessLog::RenderHeatmapText(size_t top_n) const {
  AccessProfile profile = SnapshotProfile(top_n, top_n);
  std::ostringstream os;
  os << "-- access heat map (recorder "
     << (enabled() ? "on" : "off") << ", 1/" << sample_period()
     << " sampling; " << recorded() << " recorded, " << dropped()
     << " dropped) --\n";
  os << "classes:\n";
  for (const ClassHeat& heat : profile.classes) {
    os << "  " << heat.class_label << ": " << heat.total;
    for (size_t op = 0; op < kAccessOpCount; ++op) {
      if (heat.by_op[op] != 0) {
        os << " " << AccessOpName(static_cast<AccessOp>(op)) << "="
           << heat.by_op[op];
      }
    }
    os << "\n";
  }
  os << "pages (hottest " << profile.pages.size() << "):\n";
  for (const PageHeat& heat : profile.pages) {
    os << "  page " << heat.page << ": " << heat.object_accesses
       << " object accesses, " << heat.pool_touches << " pool touches\n";
  }
  os << "affinity edges (top " << profile.edges.size() << "):\n";
  for (const AffinityEdge& edge : profile.edges) {
    os << "  c" << edge.src_cluster << ":o" << edge.src_local << " ("
       << (edge.src_class != nullptr ? edge.src_class : "?") << ") -> c"
       << edge.dst_cluster << ":o" << edge.dst_local << " ("
       << (edge.dst_class != nullptr ? edge.dst_class : "?") << ") x"
       << edge.count << "\n";
  }
  return os.str();
}

void AccessLog::ResetForTest() {
  enabled_.store(false, std::memory_order_relaxed);
  {
    MutexLock lock(capture_mu_);
    capturing_.store(false, std::memory_order_relaxed);
    if (capture_.is_open()) (void)capture_.Close();
  }
  for (size_t i = 0; i < kPageTableCapacity; ++i) {
    pages_[i].key.store(0, std::memory_order_relaxed);
    pages_[i].object_accesses.store(0, std::memory_order_relaxed);
    pages_[i].pool_touches.store(0, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kClassTableCapacity; ++i) {
    classes_[i].key.store(nullptr, std::memory_order_relaxed);
    classes_[i].total.store(0, std::memory_order_relaxed);
    for (size_t op = 0; op < kAccessOpCount; ++op) {
      classes_[i].by_op[op].store(0, std::memory_order_relaxed);
    }
  }
  for (size_t i = 0; i < kAffinityTableCapacity; ++i) {
    affinity_[i].state.store(0, std::memory_order_relaxed);
    affinity_[i].count.store(0, std::memory_order_relaxed);
  }
  sample_period_.store(1, std::memory_order_relaxed);
  sample_tick_.store(0, std::memory_order_relaxed);
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace ode::obs
