#include "odb/pager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/trace.h"

namespace ode::odb {

namespace {

// Shared (process-wide) I/O instruments. Pagers are plain backends
// with no per-instance stats API, so they count straight into the
// global registry; the pointers are cached once per metric name.
obs::Counter& MemReads() {
  static obs::Counter* c = obs::Registry::Global().counter("pager.mem.reads");
  return *c;
}
obs::Counter& MemWrites() {
  static obs::Counter* c = obs::Registry::Global().counter("pager.mem.writes");
  return *c;
}
obs::Counter& FileReads() {
  static obs::Counter* c = obs::Registry::Global().counter("pager.file.reads");
  return *c;
}
obs::Counter& FileWrites() {
  static obs::Counter* c =
      obs::Registry::Global().counter("pager.file.writes");
  return *c;
}
obs::Counter& FileSyncs() {
  static obs::Counter* c = obs::Registry::Global().counter("pager.file.syncs");
  return *c;
}

}  // namespace

Result<PageId> MemPager::Allocate() {
  MutexLock lock(mu_);
  auto page = std::make_unique<Page>();
  page->Zero();
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemPager::Read(PageId id, Page* page) {
  MutexLock lock(mu_);
  if (id >= pages_.size()) {
    return Status::IOError("read of unallocated page " + std::to_string(id));
  }
  *page = *pages_[id];
  MemReads().Increment();
  if (auto* profile = obs::CurrentOpProfile()) ++profile->pager_reads;
  return Status::OK();
}

Status MemPager::Write(PageId id, const Page& page) {
  MutexLock lock(mu_);
  // Like FilePager, a write exactly at page_count extends by one page;
  // anything past that is an error.
  if (id > pages_.size()) {
    return Status::IOError("write of unallocated page " +
                           std::to_string(id));
  }
  if (id == pages_.size()) {
    pages_.push_back(std::make_unique<Page>());
  }
  *pages_[id] = page;
  MemWrites().Increment();
  if (auto* profile = obs::CurrentOpProfile()) ++profile->pager_writes;
  return Status::OK();
}

uint32_t MemPager::page_count() const {
  MutexLock lock(mu_);
  return static_cast<uint32_t>(pages_.size());
}

Result<std::unique_ptr<FilePager>> FilePager::Open(const std::string& path,
                                                   bool create) {
  int flags = create ? (O_RDWR | O_CREAT | O_TRUNC) : O_RDWR;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open database file '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  auto size = static_cast<size_t>(st.st_size);
  if (size % kPageSize != 0) {
    ::close(fd);
    return Status::Corruption("database file '" + path +
                              "' is not page-aligned");
  }
  auto count = static_cast<uint32_t>(size / kPageSize);
  return std::unique_ptr<FilePager>(new FilePager(fd, count, path));
}

FilePager::~FilePager() {
  if (fd_ >= 0) ::close(fd_);
}

Status FilePager::WriteAt(PageId id, const Page& page) {
  const char* src = page.bytes();
  size_t remaining = kPageSize;
  auto offset = static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
  while (remaining > 0) {
    ssize_t n = ::pwrite(fd_, src, remaining, offset);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("short write of page " + std::to_string(id) +
                             " in '" + path_ + "'");
    }
    src += n;
    offset += n;
    remaining -= static_cast<size_t>(n);
  }
  FileWrites().Increment();
  if (auto* profile = obs::CurrentOpProfile()) ++profile->pager_writes;
  return Status::OK();
}

Result<PageId> FilePager::Allocate() {
  Page zero;
  zero.Zero();
  MutexLock lock(extend_mu_);
  PageId id = page_count_.load(std::memory_order_relaxed);
  ODE_RETURN_IF_ERROR(WriteAt(id, zero));
  page_count_.store(id + 1, std::memory_order_release);
  return id;
}

Status FilePager::Read(PageId id, Page* page) {
  ODE_TRACE_SPAN("pager.read");
  if (id >= page_count_.load(std::memory_order_acquire)) {
    return Status::IOError("read of unallocated page " + std::to_string(id));
  }
  char* dst = page->bytes();
  size_t remaining = kPageSize;
  auto offset = static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
  while (remaining > 0) {
    ssize_t n = ::pread(fd_, dst, remaining, offset);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("short read of page " + std::to_string(id) +
                             " from '" + path_ + "'");
    }
    dst += n;
    offset += n;
    remaining -= static_cast<size_t>(n);
  }
  FileReads().Increment();
  if (auto* profile = obs::CurrentOpProfile()) ++profile->pager_reads;
  return Status::OK();
}

Status FilePager::Write(PageId id, const Page& page) {
  ODE_TRACE_SPAN("pager.write");
  // Fast path: rewriting an existing page needs no lock — pwrite is
  // positional and the pool serializes same-page writers.
  if (id < page_count_.load(std::memory_order_acquire)) {
    return WriteAt(id, page);
  }
  MutexLock lock(extend_mu_);
  uint32_t count = page_count_.load(std::memory_order_relaxed);
  if (id > count) {
    return Status::IOError("write of unallocated page " +
                           std::to_string(id));
  }
  ODE_RETURN_IF_ERROR(WriteAt(id, page));
  if (id == count) {
    page_count_.store(count + 1, std::memory_order_release);
  }
  return Status::OK();
}

uint32_t FilePager::page_count() const {
  return page_count_.load(std::memory_order_acquire);
}

Status FilePager::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed for '" + path_ + "'");
  }
  FileSyncs().Increment();
  return Status::OK();
}

}  // namespace ode::odb
