#include "common/op_profile.h"

#include <chrono>
#include <sstream>

#include "common/journal.h"

namespace ode::obs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The caller's context with `profile` attached and, for a session op,
/// the session's id.
OpContext ProfiledContext(OpProfile* profile, const SessionEntry* session) {
  OpContext ctx = CurrentOpContext();
  ctx.profile = profile;
  if (session != nullptr) ctx.session_id = session->session_id();
  return ctx;
}

}  // namespace

void AppendOpProfileStatsJson(std::ostringstream& os, const OpProfile& s) {
  const char* sep = "";
  for (const OpProfileCounter& c : kOpProfileCounters) {
    os << sep << '"' << c.json_name << "\":" << s.*c.member;
    sep = ",";
  }
}

OpProfile& OpProfile::operator+=(const OpProfile& other) {
  for (const OpProfileCounter& c : kOpProfileCounters) {
    this->*c.member += other.*c.member;
  }
  return *this;
}

void SessionTotals::Add(const OpProfile& op) {
  for (size_t i = 0; i < counters_.size(); ++i) {
    uint64_t v = op.*kOpProfileCounters[i].member;
    if (v != 0) counters_[i].fetch_add(v, std::memory_order_relaxed);
  }
}

OpProfile SessionTotals::Snapshot() const {
  OpProfile s;
  for (size_t i = 0; i < counters_.size(); ++i) {
    s.*kOpProfileCounters[i].member =
        counters_[i].load(std::memory_order_relaxed);
  }
  return s;
}

// ---------------------------------------------------------------------------
// SessionRegistry

SessionRegistry& SessionRegistry::Global() {
  // Leaked: sessions may close during static destruction.
  static SessionRegistry* registry = new SessionRegistry();
  return *registry;
}

std::shared_ptr<SessionEntry> SessionRegistry::Register(uint64_t session_id,
                                                        uint64_t trace_id) {
  auto entry =
      std::make_shared<SessionEntry>(session_id, trace_id, NowNs());
  MutexLock lock(mu_);
  sessions_[session_id] = entry;
  return entry;
}

void SessionRegistry::Unregister(uint64_t session_id) {
  MutexLock lock(mu_);
  sessions_.erase(session_id);
}

std::vector<std::shared_ptr<SessionEntry>> SessionRegistry::Snapshot() const {
  std::vector<std::shared_ptr<SessionEntry>> out;
  MutexLock lock(mu_);
  out.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) out.push_back(entry);
  return out;
}

size_t SessionRegistry::size() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

std::string SessionRegistry::RenderJson() const {
  std::vector<std::shared_ptr<SessionEntry>> entries = Snapshot();
  uint64_t now = NowNs();
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& entry : entries) {
    if (!first) os << ",";
    first = false;
    const char* op = entry->current_op();
    os << "{\"session_id\":" << entry->session_id()
       << ",\"trace_id\":" << entry->trace_id() << ",\"current_op\":";
    if (op != nullptr) {
      os << "\"" << op << "\""
         << ",\"op_elapsed_ns\":" << (now - entry->op_started_ns());
    } else {
      os << "null";
    }
    os << ",\"open_ns\":" << (now - entry->opened_ns())
       << ",\"ops_completed\":" << entry->ops_completed()
       << ",\"busy_ns\":" << entry->busy_ns() << ",\"totals\":{";
    AppendOpProfileStatsJson(os, entry->totals().Snapshot());
    os << "}}";
  }
  os << "]";
  return os.str();
}

// ---------------------------------------------------------------------------
// SlowOpLog

SlowOpLog& SlowOpLog::Global() {
  static SlowOpLog* log = new SlowOpLog();
  return *log;
}

void SlowOpLog::Record(const char* op, uint64_t session_id,
                       uint64_t trace_id, uint64_t duration_ns,
                       const OpProfile& stats) {
  SlowOpRecord record;
  record.seq = recorded_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.ts_ns = NowNs();
  record.duration_ns = duration_ns;
  record.session_id = session_id;
  record.trace_id = trace_id;
  record.op = op;
  record.stats = stats;
  {
    MutexLock lock(mu_);
    if (ring_.size() < kCapacity) {
      ring_.push_back(record);
    } else {
      ring_[next_] = record;
    }
    next_ = (next_ + 1) % kCapacity;
  }
  Journal::Global().Append(JournalEvent::kSlowOp,
                           static_cast<int64_t>(duration_ns),
                           static_cast<int64_t>(session_id), op);
}

std::vector<SlowOpRecord> SlowOpLog::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<SlowOpRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < kCapacity) {
    out = ring_;
  } else {
    // `next_` is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < kCapacity; ++i) {
      out.push_back(ring_[(next_ + i) % kCapacity]);
    }
  }
  return out;
}

std::string SlowOpLog::RenderJson() const {
  std::vector<SlowOpRecord> records = Snapshot();
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const SlowOpRecord& r : records) {
    if (!first) os << ",";
    first = false;
    os << "{\"seq\":" << r.seq << ",\"ts_ns\":" << r.ts_ns
       << ",\"duration_ns\":" << r.duration_ns
       << ",\"session_id\":" << r.session_id
       << ",\"trace_id\":" << r.trace_id << ",\"op\":\""
       << (r.op != nullptr ? r.op : "?") << "\",\"stats\":{";
    AppendOpProfileStatsJson(os, r.stats);
    os << "}}";
  }
  os << "]";
  return os.str();
}

void SlowOpLog::ResetForTest() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ProfiledOp

ProfiledOp::ProfiledOp(SessionEntry* session, const char* op_name)
    : parent_(CurrentOpProfile()),
      session_(session),
      op_name_(op_name),
      start_ns_(NowNs()),
      scope_(ProfiledContext(&profile_, session)) {
  if (session_ != nullptr) session_->BeginOp(op_name_, start_ns_);
}

ProfiledOp::~ProfiledOp() {
  uint64_t duration = NowNs() - start_ns_;
  // Every charge of the op came from this thread, so `profile_` is
  // complete.
  if (session_ != nullptr) {
    session_->totals().Add(profile_);
    session_->EndOp(duration);
  }
  if (parent_ != nullptr) *parent_ += profile_;
  uint64_t threshold = SlowOpLog::Global().threshold_ns();
  if (threshold != 0 && duration >= threshold) {
    SlowOpLog::Global().Record(
        op_name_, session_ != nullptr ? session_->session_id() : 0,
        session_ != nullptr ? session_->trace_id() : 0, duration, profile_);
  }
}

}  // namespace ode::obs
